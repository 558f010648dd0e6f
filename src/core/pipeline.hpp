// Algorithm 1: the SKAT dataflow on the minispark engine.
//
// Pipeline stages, numbered as in the paper:
//   1.  read input text files from the (mini-)DFS;
//   2.  Weights RDD:   line -> (SNP j, ω_j²);
//   3.  GM RDD:        line -> (SNP j, [G_1j ... G_nj]);
//   4.  FGM RDD:       filter GM to the union of all SNP-sets;
//   5.  broadcast the phenotype pairs (wrapped in a ScoreEngine that also
//       carries the SNP-invariant b_i risk counts) to all nodes;
//   6-7. U RDD:        (SNP j, [U_1j ... U_nj]);
//   8.  InnerSigma:    (SNP j, U_j²) with U_j = Σ_i U_ij;
//   9.  Join:          Weights ⋈ InnerSigma on SNP;
//   10. SNP score:     (SNP j, ω_j² U_j²);
//   11-12. per-set aggregation: S_k = Σ_{j∈I_k} score_j, returned as the
//       HashMap (SNP-set -> S_k).
//
// Only the analytic screen's Gram matrices (CollectSetGramMatrices)
// materialize the U RDD, and they do not keep it. Algorithm 2
// (ComputeObserved, and ComputePermutationReplicate, which re-executes
// the steps per replicate with a permuted phenotype) runs steps 6-8 as
// one fused pass over the filtered genotypes that reuses per-task
// buffers and emits (SNP j, U_j) directly, bitwise equal to summing the
// U records; steps 9-12 run on the engine (join, square and weight,
// ReduceByKey).
// Algorithm 3 caches the filtered genotypes (2-bit packed by default)
// and scores Monte Carlo multipliers Z in blocks without U: each
// replicate's Σ_i Z_i U_ij is Σ_l G_lj w_l for per-replicate residual
// weights w (stats::ScoreEngine::ReplicateWeightsInto), so one pass sums
// weight rows over each SNP's carriers (ComputeMonteCarloScoreBlock).
// Its observed statistic is the same fused pass's U_j
// (ComputeObservedScoreBlock), so Monte Carlo, hybrid and SKAT-O fold
// observed and replicate scores through one canonical driver-side fold
// (core/resampling_methods.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/record_traits.hpp"  // IWYU pragma: keep (codec/byte-size traits)
#include "engine/broadcast.hpp"
#include "engine/dataset.hpp"
#include "simdata/dfs_writer.hpp"
#include "simdata/generator.hpp"
#include "simdata/text_format.hpp"
#include "stats/kernels/packed_genotype.hpp"
#include "stats/linalg.hpp"
#include "stats/score_engine.hpp"
#include "stats/skat.hpp"
#include "support/status.hpp"

namespace ss::core {

/// Per-set observed statistics, keyed by set id (the paper's "HashMap").
using SetScores = std::unordered_map<std::uint32_t, double>;

struct PipelineConfig {
  stats::ScoreModel model = stats::ScoreModel::kCox;

  /// Reduce partitions for the joins/aggregations (spark.default.parallelism).
  std::uint32_t num_reducers = 8;

  /// Partitions for in-memory genotype sources (DFS sources use one
  /// partition per block instead).
  std::uint32_t num_partitions = 8;

  /// Cache the filtered genotype partitions (the packed form when
  /// `pack_genotypes` is set) that every Monte Carlo batch and
  /// permutation replicate rescores; Experiment B ablates it.
  bool cache_genotypes = true;

  /// Memory budget for the engine's partition cache, applied to the
  /// context when the pipeline is built; 0 keeps the context's own
  /// setting. A budget small enough to force eviction drops
  /// least-recently-used partitions, which are recomputed from lineage
  /// on their next use (see engine/cache_manager.hpp); the
  /// constrained-memory benches set this.
  std::uint64_t cache_budget_bytes = 0;

  /// Store filtered genotypes as 2-bit packed blocks
  /// (stats::PackedGenotypeBlock): ~4x fewer bytes per cached
  /// genotype partition under `cache_budget=`, decoded to dosages just
  /// before scoring. Packing is lossless, so results are bitwise
  /// identical either way; `pack=0` in the CLI/benches is the ablation.
  bool pack_genotypes = true;

  /// Evaluate Cox contributions with the paper's per-patient formulation
  /// (O(n²) per SNP) instead of this library's O(n) risk-set path. Same
  /// values; reproduces the paper's cost regime. The timing benches set
  /// this; see stats/score_engine.hpp.
  bool paper_faithful_scores = false;

  /// Seed for the resampling plans layered on top (Algorithms 2/3).
  std::uint64_t seed = 2016;

  /// Monte Carlo replicates per engine pass (Algorithm 3): each batch
  /// broadcasts an n×R block of residual weights and computes all R
  /// replicate scores in one pass over the cached genotypes, amortizing the
  /// per-pass scheduling cost. Results are bitwise invariant to this
  /// knob; 1 recovers one-pass-per-replicate scheduling (the ablation
  /// baseline). 0 is treated as 1.
  std::uint64_t resampling_batch_size = 64;
};

class SkatPipeline {
 public:
  /// Opens a study staged in the context's MiniDfs (Algorithm 1 steps 1-5).
  /// The phenotype and SNP-sets are small and driver-resident (as in the
  /// paper, which broadcasts the former and holds the latter in the
  /// closure); genotypes and weights stay distributed.
  static Result<SkatPipeline> Open(engine::EngineContext& ctx,
                                   const simdata::StudyPaths& paths,
                                   const PipelineConfig& config);

  /// Opens a cohort staged in a memory-mapped genotype store
  /// (simdata::GenerateToStore) — no MiniDfs, no re-ingest: the phenotype,
  /// weights and SNP-sets decode from the store's aux frames and the
  /// genotype matrix becomes a StoreGenotypeNode streaming packed frames
  /// off the mmap (pack_genotypes is implied). When `expected_fingerprint`
  /// is set and does not match the file's, refuses with InvalidArgument
  /// naming both fingerprints and the store's provenance description —
  /// a stale store never silently stands in for different parameters.
  static Result<SkatPipeline> OpenFromStore(
      engine::EngineContext& ctx, const std::string& store_path,
      const PipelineConfig& config,
      std::optional<std::uint64_t> expected_fingerprint = std::nullopt);

  /// Builds the same pipeline from an in-memory dataset (tests, examples).
  static SkatPipeline FromMemory(engine::EngineContext& ctx,
                                 const simdata::SyntheticDataset& dataset,
                                 const PipelineConfig& config);

  /// Builds from parts: a genotype dataset plus driver-side phenotype,
  /// weights and sets (the extension point for custom studies).
  SkatPipeline(engine::EngineContext& ctx, const PipelineConfig& config,
               engine::Dataset<simdata::SnpRecord> genotypes,
               stats::Phenotype phenotype, std::vector<double> weights,
               std::vector<stats::SnpSet> sets);

  /// Steps 5-12 with the observed phenotype through the fused scoring pass
  /// and the engine's join/ReduceByKey fold: S_k⁰ per set, as Algorithm 2
  /// computes it (the permutation driver's observed pass). Builds no U
  /// RDD.
  SetScores ComputeObserved();

  /// Algorithm 3's observed pass as a one-column score block: per filtered
  /// SNP, U_j = Σ_i U_ij from the fused pass (bitwise the sum of the
  /// SNP's contributions in patient order). Folding it with the
  /// replicates' canonical fold gives the serial oracle's observed
  /// statistics.
  std::unordered_map<std::uint32_t, std::vector<double>>
  ComputeObservedScoreBlock();

  /// Algorithm 3's modified step 8 for a whole batch: per SNP, the signed
  /// replicate scores Ũ_jb = Σ_i Z_ib U_ij for all `count` replicates of a
  /// patient-major Z block (stats::MonteCarloZBlock layout), computed in
  /// ONE engine pass over the cached genotype partitions without U. The
  /// driver turns Z into residual weights W
  /// (stats::MakeScaledReplicateWeights) and broadcasts them; each task
  /// then scores a SNP as Σ_l G_lj W_lb over its nonzero dosages, in
  /// ascending patient order (stats::FactoredReplicateScores), so a row
  /// is bitwise invariant to threads, partitioning, batching, kernel level
  /// and cache budget. The per-set folds (steps 9-12) happen driver-side
  /// in the resampling driver, in the serial oracle's canonical
  /// accumulation order — see core/resampling_methods.hpp. A dosage above
  /// 2 fails the task.
  ///
  /// `live` restricts the block to the member SNPs of those sets (null:
  /// every set, i.e. every filtered SNP). The pass broadcasts a dense
  /// SNP-id mask of their members, still visits every genotype partition,
  /// skips the decode and kernel for masked-out records and returns only
  /// the masked-in SNPs. A SNP's row depends on nothing but its own
  /// genotypes and W, so every returned row is bitwise equal to the same
  /// row of the full block. The Monte Carlo driver passes the sets whose
  /// stopper has not fired.
  std::unordered_map<std::uint32_t, std::vector<double>>
  ComputeMonteCarloScoreBlock(const std::vector<double>& zblock,
                              std::size_t count,
                              const std::vector<stats::SnpSet>* live = nullptr);

  /// Driver-resident unsquared weights ω_j, collected once and memoized.
  const std::unordered_map<std::uint32_t, double>& DriverWeights();

  /// Per-set weighted Gram matrix M_ab = ω_a ω_b Σ_i U_ia U_ib over the
  /// observed U RDD (set members in declaration order; filtered-out SNPs
  /// contribute zero rows/columns and are skipped). Under the Monte Carlo
  /// null the replicate statistic is exactly Σ_m λ_m χ²₁ with λ_m the
  /// eigenvalues of this matrix — the input to the analytic tail methods
  /// (stats/adaptive_pvalue.hpp). Builds the U RDD from the genotype
  /// partitions without caching it. The U vectors are collected to the
  /// driver, then the
  /// Grams are computed in one engine stage ("set-gram", one task per
  /// set) with each dot product in patient order, so the matrices are
  /// bitwise independent of threads and scheduling.
  std::unordered_map<std::uint32_t, stats::Matrix> CollectSetGramMatrices();

  /// Steps 5-12 from scratch under a permuted phenotype (Algorithm 2),
  /// through the same fused pass as ComputeObserved.
  SetScores ComputePermutationReplicate(const std::vector<std::uint32_t>& perm);

  const PipelineConfig& config() const { return config_; }
  const stats::Phenotype& phenotype() const { return phenotype_; }
  const std::vector<stats::SnpSet>& sets() const { return sets_; }
  engine::EngineContext& context() { return *ctx_; }

  /// Number of patients.
  std::size_t n() const { return phenotype_.n(); }

 private:
  /// Empty shell for OpenFromStore, which assembles the members itself
  /// (there is no SnpRecord dataset to hand the public constructor).
  SkatPipeline() = default;

  /// (SNP, per-patient contributions) under the observed phenotype —
  /// steps 6-7.
  engine::Dataset<std::pair<std::uint32_t, std::vector<double>>> BuildU()
      const;

  /// Steps 5-8 fused under `phenotype`: (SNP j, U_j) straight from the
  /// filtered genotypes.
  engine::Dataset<std::pair<std::uint32_t, double>> MarginalScores(
      stats::Phenotype phenotype) const;

  /// Steps 5-12 under `phenotype` (Algorithm 2): the fused pass emits
  /// (SNP j, U_j), then the engine joins, squares, scatters and
  /// aggregates to per-set scores.
  SetScores ScoreSets(stats::Phenotype phenotype) const;

  engine::EngineContext* ctx_ = nullptr;
  PipelineConfig config_;

  /// Filtered genotype RDD (step 4); cached when `cache_genotypes` is
  /// set and `pack_genotypes` is not.
  engine::Dataset<simdata::SnpRecord> fgm_;

  /// 2-bit packed form of fgm_ (the cached genotype format when
  /// `pack_genotypes` is set); all scoring passes decode from this instead.
  engine::Dataset<stats::PackedSnpRecord> fgm_packed_;
  /// Step 2, hash-partitioned to `num_reducers` once: every step-9 join
  /// reuses its shuffle instead of re-reading and re-shuffling the weights.
  engine::Dataset<std::pair<std::uint32_t, double>> weights_sq_;
  engine::Dataset<std::pair<std::uint32_t, double>> weights_;  ///< Unsquared ω.
  stats::Phenotype phenotype_;
  std::vector<stats::SnpSet> sets_;

  /// snp -> ids of sets containing it (broadcast for step 11).
  engine::Broadcast<std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>>
      snp_to_sets_;

  /// Observed-phenotype score engine the replicate weights come from,
  /// built on the first score block.
  std::shared_ptr<const stats::ScoreEngine> observed_engine_;

  /// Memoized DriverWeights() result.
  std::unordered_map<std::uint32_t, double> driver_weights_;
  bool driver_weights_built_ = false;
};

}  // namespace ss::core
