// Algorithms 2 and 3: resampling inference drivers over the SkatPipeline.
//
// Both compute the observed scores S_k⁰ first, then run B replicates and
// count, per SNP-set, how many replicate statistics S_k^b meet or exceed
// S_k⁰ (the paper's counter_k). The empirical p-value follows directly.
//
//   * kPermutation — Algorithm 2: each replicate shuffles the phenotype
//     pairs and re-executes the full pipeline (steps 5-12, with steps 6-8
//     fused into one pass that never builds U). Its observed pass is
//     SkatPipeline::ComputeObserved, the same pass and engine
//     join/ReduceByKey fold its replicates use.
//   * kMonteCarlo — Algorithm 3: replicates rescore the cached genotypes
//     with fresh N(0,1) multipliers Z, as Σ_l G_lj w_l with residual
//     weights w = W(Z) in place of Σ_i Z_i U_ij; U is never built.
//   * kSkatO — the SKAT-O combination assessed over the same Monte Carlo
//     replicate pool.
//
// Monte Carlo (hybrid included) and SKAT-O compute the observed
// statistics as a one-column score block of U_j = Σ_i U_ij from the
// fused contributions pass (SkatPipeline::ComputeObservedScoreBlock),
// folded by the same canonical driver-side fold as every replicate.
//
// All methods share one batched driver loop: replicates are scheduled in
// batches of `ResamplingRequest::batch_size`. For the Monte Carlo methods
// a batch is ONE engine pass — the n×R residual weights of a Z block are
// broadcast and every replicate's per-SNP score is a sum of weight rows
// over the SNP's carriers (SkatPipeline::ComputeMonteCarloScoreBlock);
// the per-set folds then run driver-side in the serial oracle's canonical
// accumulation order. Results are bitwise invariant to the batch size,
// the thread count, and the partitioning, and the Monte Carlo
// ResamplingResult is bitwise equal to baseline::SerialMonteCarlo from
// the same seed. Permutation re-executes the full pipeline per replicate
// (its cost model is the point of Experiment A), so for it a batch is a
// scheduling/telemetry unit only. Permutation and Monte Carlo count
// exceedances through one tally of per-set sequential stoppers; without
// early stopping (h = 0) a stopper never fires, which is exhaustive
// counting.
//
// Adaptive Monte Carlo work follows the sets still consuming replicates:
// each batch scores only the member SNPs of the sets whose stopper has
// not fired (a masked score block) and folds only those sets, so a
// hybrid run that refines a handful of sets costs a handful of sets per
// batch. The analytic screen (per-set Gram, null spectrum, tail) runs as
// engine stages, one task per set. Neither changes a result bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "engine/executor.hpp"
#include "support/status.hpp"

namespace ss::core {

/// How per-set p-values are computed (the adaptive p-value engine; the
/// analytic machinery itself lives in stats/adaptive_pvalue.hpp).
enum class PValueMethod {
  kResampling,   ///< Pure resampling counts (legacy default).
  kAnalytic,     ///< Liu moment-matched analytic tail; zero replicates.
  kSaddlepoint,  ///< Kuonen saddlepoint analytic tail; zero replicates.
  kHybrid,       ///< Saddlepoint screen; resampling only for small-p sets.
};

/// Parses a CLI `pmethod=` token: resampling|analytic|saddlepoint|hybrid.
Result<PValueMethod> ParsePValueMethod(const std::string& token);

/// Per-set adaptive-inference record. Present only for adaptive runs
/// (pvalue_method != kResampling or early_stop != 0); legacy runs leave
/// ResamplingResult::inference empty and are byte-identical to before.
struct SetInference {
  /// Analytic tail p-value (Liu or saddlepoint, per the method). 1.0 for
  /// sets that were never screened (kResampling with early stopping).
  double analytic_p = 1.0;

  /// Replicates this set actually consumed (≤ B; 0 if screened out).
  std::uint64_t replicates_used = 0;

  /// The Besag–Clifford stopper fired before B replicates.
  bool early_stopped = false;

  /// Resampling refinement ran for this set (its p-value comes from
  /// counts, not the analytic screen).
  bool refined = false;
};

/// Result of a resampling run, keyed by SNP-set id.
struct ResamplingResult {
  SetScores observed;                                      ///< S_k⁰.
  std::unordered_map<std::uint32_t, std::uint64_t> exceed; ///< counter_k.
  std::uint64_t replicates = 0;                            ///< B.

  /// Adaptive per-set inference; EMPTY for legacy pure-resampling runs.
  std::unordered_map<std::uint32_t, SetInference> inference;

  /// Besag–Clifford exceedance target h of the run (0 = no early stop).
  std::uint64_t early_stop_h = 0;

  /// P-value for one set. Legacy runs: the empirical (c+1)/(B+1).
  /// Adaptive runs route through the set's SetInference: analytic tail
  /// for unrefined sets, counts over the consumed replicates for refined
  /// ones (h/L when early-stopped — stats::PValueFromCounts).
  double PValue(std::uint32_t set_id) const;

  /// (set id, p-value) sorted ascending by p-value.
  std::vector<std::pair<std::uint32_t, double>> RankedPValues() const;
};

/// SKAT-O extension (Lee et al., the paper's [17]): per set, the optimal
/// ρ-combination of the SKAT and burden statistics, with the min-p
/// combination assessed over the same Monte Carlo replicate pool.
struct SkatOResult {
  /// Per set id: observed SKAT, observed burden, combined p-value.
  struct PerSet {
    double skat = 0.0;
    double burden = 0.0;
    double pvalue = 1.0;
  };
  std::unordered_map<std::uint32_t, PerSet> by_set;
  std::uint64_t replicates = 0;

  /// (set id, p-value) sorted ascending.
  std::vector<std::pair<std::uint32_t, double>> RankedPValues() const;
};

/// Observer of a resampling run. Batching breaks the old assumption that
/// one replicate is one engine pass, so progress is reported at both
/// granularities: batch boundaries delimit engine work, replicate events
/// fire once per counted replicate. All callbacks run on the driver
/// thread; default implementations ignore the event.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;

  /// Batch `batch_index` covering replicates [begin, end) is about to
  /// execute (one engine pass for the Monte Carlo methods).
  virtual void OnBatchBegin(std::uint64_t /*batch_index*/,
                            std::uint64_t /*begin*/, std::uint64_t /*end*/) {}

  /// Replicate b's per-set statistics S_k^b for exactly the sets that
  /// consumed replicate b, emitted just before OnReplicate(b). Legacy runs
  /// (no screen, no early stopping) deliver every set; adaptive runs
  /// deliver the sets still consuming replicates — refined sets whose
  /// stopper had not fired before b — so screened-out sets never appear
  /// and a set's last appearance is its stop point (Monte Carlo reports
  /// the rest of the batch in which the last set stops with no sets: the
  /// block was already computed). Permutation and Monte
  /// Carlo only (SKAT-O replicates carry ρ-grids, not a single statistic
  /// per set).
  virtual void OnReplicateScores(std::uint64_t /*b*/,
                                 const SetScores& /*scores*/) {}

  /// Replicate b has been folded into the exceedance counters.
  virtual void OnReplicate(std::uint64_t /*b*/) {}

  virtual void OnBatchEnd(std::uint64_t /*batch_index*/,
                          std::uint64_t /*begin*/, std::uint64_t /*end*/) {}
};

enum class ResamplingMethod {
  kPermutation,  ///< Algorithm 2.
  kMonteCarlo,   ///< Algorithm 3 (Lin 2005).
  kSkatO,        ///< SKAT-O over the Monte Carlo replicate pool.
};

/// One resampling run, fully specified. This is the engine's ONLY public
/// resampling driver API (the former per-method entry points
/// RunPermutationMethod/RunMonteCarloMethod/RunSkatOMethod are gone).
struct ResamplingRequest {
  ResamplingRequest() = default;
  /// The common case in one line:
  /// `RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 1000})`.
  ResamplingRequest(ResamplingMethod method_in, std::uint64_t replicates_in)
      : method(method_in), replicates(replicates_in) {}

  ResamplingMethod method = ResamplingMethod::kMonteCarlo;

  /// B. 0 computes only the observed statistics.
  std::uint64_t replicates = 0;

  /// Replicates per scheduled batch; 0 defers to the pipeline's
  /// PipelineConfig::resampling_batch_size. Bitwise-irrelevant to the
  /// results; 1 recovers one-engine-pass-per-replicate scheduling.
  std::uint64_t batch_size = 0;

  /// Seed for the resampling plans; unset defers to PipelineConfig::seed.
  std::optional<std::uint64_t> seed;

  /// P-value engine for kPermutation/kMonteCarlo (ignored with a warning
  /// by kSkatO). kResampling is the legacy pure-counting path and leaves
  /// results byte-identical to before this knob existed. The analytic
  /// tails are EXACT for the Monte Carlo null (the replicate statistic is
  /// exactly Σ λ_m χ²₁ there) and the standard asymptotic approximation
  /// for the permutation null.
  PValueMethod pvalue_method = PValueMethod::kResampling;

  /// kHybrid only: sets whose analytic screen p-value is below this get
  /// resampling refinement; the rest keep the analytic tail and consume
  /// zero replicates.
  double refine_threshold = 0.01;

  /// Besag–Clifford sequential early stopping: a set stops consuming
  /// replicates once `early_stop` exceedances have been observed, with
  /// the estimate p̂ = h/L (conservatively biased up by ≈ p/h).
  /// 0 disables (exhaustive counting).
  /// Stopping decisions are made per-replicate in the canonical order, so
  /// results are bitwise invariant to batch size / threads / prefetch.
  std::uint64_t early_stop = 0;

  /// Optional progress observer; not owned, may be null.
  ProgressSink* sink = nullptr;

  /// Async-executor knobs for this run (prefetch depth, I/O threads).
  /// Applied to the pipeline's engine context before the first batch and
  /// sticky thereafter; unset keeps the context's current configuration.
  /// Bitwise-irrelevant to the results —
  /// `exec.prefetch_depth = 0` ablates the async path entirely.
  std::optional<engine::ExecConfig> exec;
};

/// Outcome of RunResampling: `scores` is populated for kPermutation and
/// kMonteCarlo, `skato` for kSkatO.
struct ResamplingRun {
  ResamplingMethod method = ResamplingMethod::kMonteCarlo;
  ResamplingResult scores;
  SkatOResult skato;
};

/// Unified entry point for all resampling methods. Note the SKAT-O min-p
/// evaluation is O(B²·|grid|) per set on the driver, so B in the hundreds
/// is the practical range for kSkatO (as in the SKAT-O literature).
ResamplingRun RunResampling(SkatPipeline& pipeline,
                            const ResamplingRequest& request);

}  // namespace ss::core
