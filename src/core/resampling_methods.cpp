#include "core/resampling_methods.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <string>

#include "engine/trace.hpp"
#include "stats/adaptive_pvalue.hpp"
#include "stats/burden.hpp"
#include "stats/kernels/kernels.hpp"
#include "stats/pvalue.hpp"
#include "stats/resampling.hpp"
#include "support/log.hpp"

namespace ss::core {
namespace {

std::uint64_t EffectiveBatchSize(const SkatPipeline& pipeline,
                                 const ResamplingRequest& request) {
  const std::uint64_t batch = request.batch_size != 0
                                  ? request.batch_size
                                  : pipeline.config().resampling_batch_size;
  return std::max<std::uint64_t>(1, batch);
}

/// Double-buffers Z-block generation on the I/O lane: while batch k's
/// score block computes and folds, batch k+1's n×R multiplier block is
/// generated concurrently. stats::MonteCarloZBlock is a pure function of
/// (seed, n, begin, count) — per-replicate splittable RNG streams — so
/// WHERE it runs cannot change a single bit of it; the lane only moves
/// the generation off the critical path. With the lane ablated
/// (prefetch=0 → context.io() == nullptr) every block is generated
/// inline, byte-for-byte the old schedule.
class ZBlockPrefetcher {
 public:
  ZBlockPrefetcher(engine::AsyncExecutor* io, std::uint64_t seed,
                   std::size_t n, std::uint64_t replicates,
                   std::uint64_t batch_size)
      : io_(io),
        seed_(seed),
        n_(n),
        replicates_(replicates),
        batch_size_(batch_size) {}

  /// The Z-block for [begin, begin+count): the in-flight one when the
  /// lane was generating exactly that range, else generated inline; then
  /// the NEXT batch's generation is queued. The driver-side wait for an
  /// in-flight block shows up as a `prefetch`-category trace span.
  std::vector<double> Take(std::uint64_t begin, std::size_t count) {
    static std::atomic<std::uint64_t>& zblock_prefetches =
        engine::CounterRegistry::Global().Get("exec.zblock_prefetches");
    std::vector<double> zblock;
    if (next_.valid() && next_begin_ == begin && next_count_ == count) {
      engine::TraceSpan span(engine::Tracer::Global(), "prefetch",
                             "zblock wait",
                             {engine::Arg("b_begin", begin),
                              engine::Arg("count", count)});
      zblock = next_.get();
      zblock_prefetches.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (next_.valid()) next_.get();  // stale; discard the bytes
      zblock = stats::MonteCarloZBlock(seed_, n_, begin, count);
    }
    Schedule(begin + count);
    return zblock;
  }

 private:
  void Schedule(std::uint64_t begin) {
    if (io_ == nullptr || begin >= replicates_) return;
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch_size_, replicates_ - begin));
    next_begin_ = begin;
    next_count_ = count;
    next_ = io_->Submit([seed = seed_, n = n_, begin, count]() {
      return stats::MonteCarloZBlock(seed, n, begin, count);
    });
  }

  engine::AsyncExecutor* const io_;
  const std::uint64_t seed_;
  const std::size_t n_;
  const std::uint64_t replicates_;
  const std::uint64_t batch_size_;
  std::future<std::vector<double>> next_;
  std::uint64_t next_begin_ = 0;
  std::size_t next_count_ = 0;
};

/// The shared driver loop: splits 0..B into [begin, end) ranges of at
/// most `batch_size` replicates and hands each to `body`, wrapped in the
/// batch-level telemetry (trace span, counters, accumulated wall time)
/// and the sink's batch boundaries. `body` returns whether scheduling
/// should continue: false stops the loop at the batch boundary (the
/// early-stopping drivers use this once every set's stopper has fired —
/// per-set counters stay replicate-exact, only the SCHEDULED replicate
/// count is batch-granular).
template <typename Body>
void RunBatches(const char* algorithm, std::uint64_t replicates,
                std::uint64_t batch_size, ProgressSink* sink,
                const Body& body) {
  static std::atomic<std::uint64_t>& batches =
      engine::CounterRegistry::Global().Get("resampling.batches");
  static std::atomic<std::uint64_t>& replicate_count =
      engine::CounterRegistry::Global().Get("resampling.replicates");
  static std::atomic<std::uint64_t>& batch_nanos =
      engine::CounterRegistry::Global().Get("resampling.batch_nanos");
  std::uint64_t batch_index = 0;
  for (std::uint64_t begin = 0; begin < replicates;
       begin += batch_size, ++batch_index) {
    const std::uint64_t end = std::min(replicates, begin + batch_size);
    if (sink != nullptr) sink->OnBatchBegin(batch_index, begin, end);
    bool keep_going = true;
    {
      engine::TraceSpan span(
          engine::Tracer::Global(), "batch",
          std::string(algorithm) + " batch " + std::to_string(batch_index),
          {engine::Arg("algorithm", algorithm), engine::Arg("b_begin", begin),
           engine::Arg("b_end", end)});
      engine::ScopedCounterTimer timer(batch_nanos);
      keep_going = body(begin, end);
    }
    batches.fetch_add(1, std::memory_order_relaxed);
    replicate_count.fetch_add(end - begin, std::memory_order_relaxed);
    if (sink != nullptr) sink->OnBatchEnd(batch_index, begin, end);
    if (!keep_going) break;
  }
}

/// Steps 9-12 on the driver: per-set SKAT fold of all `count` replicates
/// of a score block in one sweep over the sets, in exactly
/// stats::SkatStatistic's accumulation order (set members in declaration
/// order, `w * w * squared` per SNP) — the serial oracle's order,
/// independent of partitioning, shuffle order, thread count, and batch
/// size. Each replicate's accumulator follows that order, so element r is
/// bitwise equal to folding replicate r alone.
std::vector<SetScores> FoldReplicateScores(
    const std::vector<stats::SnpSet>& sets,
    const std::unordered_map<std::uint32_t, std::vector<double>>& block,
    const std::unordered_map<std::uint32_t, double>& weights,
    std::size_t count) {
  std::vector<SetScores> out(count);
  for (SetScores& scores : out) scores.reserve(sets.size());
  std::vector<double> acc(count);
  for (const stats::SnpSet& set : sets) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::uint32_t snp : set.snps) {
      auto score_it = block.find(snp);
      if (score_it == block.end()) continue;  // SNP filtered out
      auto weight_it = weights.find(snp);
      const double w = weight_it == weights.end() ? 1.0 : weight_it->second;
      const std::vector<double>& scores = score_it->second;
      // Routed kernel; w*w precomputed here evaluates exactly like the
      // original `w * w * squared` left-to-right expression.
      stats::kernels::ActiveKernels().skat_fold(scores.data(), count, w * w,
                                                acc.data());
    }
    for (std::size_t r = 0; r < count; ++r) out[r][set.id] = acc[r];
  }
  return out;
}

/// Per-set (SKAT, burden) pairs for all replicates of a score block, in
/// the same canonical order; burden = (Σ_j ω_j Ũ_jb)² on the driver.
std::vector<std::unordered_map<std::uint32_t, std::pair<double, double>>>
FoldSkatBurdenScores(
    const std::vector<stats::SnpSet>& sets,
    const std::unordered_map<std::uint32_t, std::vector<double>>& block,
    const std::unordered_map<std::uint32_t, double>& weights,
    std::size_t count) {
  std::vector<std::unordered_map<std::uint32_t, std::pair<double, double>>>
      out(count);
  std::vector<double> skat(count);
  std::vector<double> burden_sum(count);
  for (const stats::SnpSet& set : sets) {
    std::fill(skat.begin(), skat.end(), 0.0);
    std::fill(burden_sum.begin(), burden_sum.end(), 0.0);
    for (std::uint32_t snp : set.snps) {
      auto score_it = block.find(snp);
      if (score_it == block.end()) continue;  // SNP filtered out
      auto weight_it = weights.find(snp);
      const double w = weight_it == weights.end() ? 1.0 : weight_it->second;
      const std::vector<double>& scores = score_it->second;
      stats::kernels::ActiveKernels().skat_burden_fold(
          scores.data(), count, w, w * w, skat.data(), burden_sum.data());
    }
    for (std::size_t r = 0; r < count; ++r) {
      out[r][set.id] = {skat[r], burden_sum[r] * burden_sum[r]};
    }
  }
  return out;
}

/// FNV-1a over (B, sorted set ids, observed bit patterns, counters).
/// Folded into the order-independent `resampling.result_hash` counter so
/// two processes can assert bitwise-identical results by comparing their
/// run-metrics JSON (the bench_smoke batch-invariance gate).
std::uint64_t HashResamplingResult(const ResamplingResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  mix(result.replicates);
  std::vector<std::uint32_t> ids;
  ids.reserve(result.observed.size());
  for (const auto& [set_id, score] : result.observed) ids.push_back(set_id);
  std::sort(ids.begin(), ids.end());
  for (std::uint32_t set_id : ids) {
    const double observed = result.observed.at(set_id);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &observed, sizeof(bits));
    mix(set_id);
    mix(bits);
    auto it = result.exceed.find(set_id);
    mix(it == result.exceed.end() ? 0 : it->second);
  }
  // Adaptive fields are mixed ONLY when present, so the hash of a legacy
  // pure-resampling run is byte-identical to the pre-adaptive engine (the
  // bench_smoke / kernel-matrix cross-process gates compare it).
  if (!result.inference.empty()) {
    mix(result.early_stop_h);
    for (std::uint32_t set_id : ids) {
      auto it = result.inference.find(set_id);
      if (it == result.inference.end()) continue;
      const SetInference& info = it->second;
      std::uint64_t pbits = 0;
      std::memcpy(&pbits, &info.analytic_p, sizeof(pbits));
      mix(set_id);
      mix(pbits);
      mix(info.replicates_used);
      mix(static_cast<std::uint64_t>(info.early_stopped ? 1 : 0) |
          static_cast<std::uint64_t>(info.refined ? 2 : 0));
    }
  }
  return hash;
}

void RecordResultHash(const ResamplingResult& result) {
  engine::CounterRegistry::Global().Add("resampling.result_hash",
                                        HashResamplingResult(result));
}

/// An adaptive run screens and may stop early; anything else is the
/// legacy exhaustive count, which leaves ResamplingResult::inference empty
/// (so its result hash mixes no adaptive fields) and every pvalue.*
/// counter untouched.
bool IsAdaptive(const ResamplingRequest& request) {
  return request.pvalue_method != PValueMethod::kResampling ||
         request.early_stop != 0;
}

/// Analytic screen: per-set null spectrum from the weighted Gram, then
/// the Liu (kAnalytic) or saddlepoint (kSaddlepoint/kHybrid — tail
/// accuracy is what the hybrid screen is for) tail at the observed
/// statistic, one engine task per set. Each task fills its own slot; the
/// entries then go into result->inference (refined=false) serially, in
/// result->observed order.
void AnalyticScreen(SkatPipeline& pipeline, PValueMethod method,
                    ResamplingResult* result) {
  static std::atomic<std::uint64_t>& screens =
      engine::CounterRegistry::Global().Get("pvalue.analytic_screens");
  engine::TraceSpan span(engine::Tracer::Global(), "algo", "analytic screen");
  const auto grams = pipeline.CollectSetGramMatrices();
  struct Screen {
    std::uint32_t set_id;
    double observed;
    const stats::Matrix* gram;  ///< Null when the set has no Gram.
    double analytic_p = 1.0;
  };
  std::vector<Screen> screened;
  screened.reserve(result->observed.size());
  for (const auto& [set_id, observed] : result->observed) {
    auto it = grams.find(set_id);
    screened.push_back(
        {set_id, observed, it == grams.end() ? nullptr : &it->second});
  }
  pipeline.context().RunTasks(
      "analytic-screen", static_cast<std::uint32_t>(screened.size()),
      [&](engine::TaskContext& task) {
        Screen& s = screened[task.partition()];
        std::vector<double> lambda;
        if (s.gram != nullptr) lambda = stats::NullSpectrumFromGram(*s.gram);
        s.analytic_p = method == PValueMethod::kAnalytic
                           ? stats::LiuPValue(lambda, s.observed)
                           : stats::SaddlepointPValue(lambda, s.observed);
      });
  for (const Screen& s : screened) {
    SetInference info;
    info.analytic_p = s.analytic_p;
    result->inference[s.set_id] = info;
    screens.fetch_add(1, std::memory_order_relaxed);
  }
}

/// The exceedance tally every counting method goes through: one
/// Besag–Clifford stopper per set that consumes replicates. Pure
/// resampling gives every set a stopper with h = early_stop, and h = 0
/// never stops, which is exhaustive counting; the pure analytic methods
/// give none; hybrid gives the screened-in (p < refine_threshold) sets.
/// Stopping is decided per replicate in the canonical order, so results
/// are bitwise invariant to batch size, threads and prefetch.
class ExceedanceTally {
 public:
  /// Screens the sets when the p-value method asks for it (for
  /// permutation the Σ λ χ²₁ tail is the standard asymptotic
  /// approximation, not exact as under the Monte Carlo null) and creates
  /// the stoppers. `result->observed` must already hold S_k⁰.
  ExceedanceTally(SkatPipeline& pipeline, const ResamplingRequest& request,
                  ResamplingResult* result)
      : request_(request), result_(result) {
    static std::atomic<std::uint64_t>& refined_sets =
        engine::CounterRegistry::Global().Get("pvalue.refined_sets");
    result->replicates = request.replicates;
    result->early_stop_h = request.early_stop;
    if (request.pvalue_method != PValueMethod::kResampling) {
      AnalyticScreen(pipeline, request.pvalue_method, result);
    }
    const bool adaptive = IsAdaptive(request);
    for (const auto& [set_id, observed] : result->observed) {
      const bool refine =
          request.pvalue_method == PValueMethod::kResampling ||
          (request.pvalue_method == PValueMethod::kHybrid &&
           result->inference.at(set_id).analytic_p <
               request.refine_threshold);
      if (!refine) continue;
      stoppers_.emplace(set_id, stats::SequentialStopper(request.early_stop));
      if (adaptive) result->inference[set_id].refined = true;
    }
    if (adaptive) {
      refined_sets.fetch_add(stoppers_.size(), std::memory_order_relaxed);
    }
  }

  /// Whether the driver should schedule any replicates at all.
  bool consumes_replicates() const {
    return !stoppers_.empty() && request_.replicates > 0;
  }

  /// The sets whose stopper has not fired, in `sets` order: the only sets
  /// the next replicate's statistics are needed for.
  std::vector<stats::SnpSet> LiveSets(
      const std::vector<stats::SnpSet>& sets) const {
    std::vector<stats::SnpSet> live;
    for (const stats::SnpSet& set : sets) {
      auto it = stoppers_.find(set.id);
      if (it != stoppers_.end() && !it->second.stopped()) live.push_back(set);
    }
    return live;
  }

  /// Offers replicate b's scores to every live stopper (`replicate` must
  /// hold each of them), then reports the replicate to the sink with the
  /// statistics of exactly the sets that consumed it. Returns true while
  /// at least one set is still consuming replicates.
  bool Offer(std::uint64_t b, const SetScores& replicate) {
    bool any_active = false;
    SetScores consumed;
    for (auto& [set_id, stopper] : stoppers_) {
      if (stopper.stopped()) continue;
      const double replicate_score = replicate.at(set_id);
      if (request_.sink != nullptr) consumed.emplace(set_id, replicate_score);
      if (stopper.Offer(replicate_score >= result_->observed.at(set_id))) {
        any_active = true;
      }
    }
    if (request_.sink != nullptr) {
      request_.sink->OnReplicateScores(b, consumed);
      request_.sink->OnReplicate(b);
    }
    return any_active;
  }

  /// Moves the counts into the result, fills the adaptive per-set
  /// inference, and records the result hash.
  /// pvalue.replicates_saved = Σ_sets (B − replicates_used) — a pure
  /// function of the per-set replicate-exact counts, so it is invariant to
  /// batch size / threads / prefetch even though the SCHEDULED replicate
  /// count is batch-granular.
  void Finish() {
    static std::atomic<std::uint64_t>& early_stops =
        engine::CounterRegistry::Global().Get("pvalue.early_stops");
    static std::atomic<std::uint64_t>& replicates_saved =
        engine::CounterRegistry::Global().Get("pvalue.replicates_saved");
    for (const auto& [set_id, observed] : result_->observed) {
      auto it = stoppers_.find(set_id);
      result_->exceed[set_id] =
          it == stoppers_.end() ? 0 : it->second.exceed();
    }
    for (auto& [set_id, info] : result_->inference) {
      auto it = stoppers_.find(set_id);
      if (it == stoppers_.end()) {
        // Screened out: the analytic tail stands in for all B replicates.
        replicates_saved.fetch_add(request_.replicates,
                                   std::memory_order_relaxed);
        continue;
      }
      const stats::SequentialStopper& stopper = it->second;
      info.replicates_used = stopper.used();
      info.early_stopped = stopper.stopped();
      if (stopper.stopped()) {
        early_stops.fetch_add(1, std::memory_order_relaxed);
      }
      replicates_saved.fetch_add(request_.replicates - stopper.used(),
                                 std::memory_order_relaxed);
    }
    RecordResultHash(*result_);
  }

 private:
  const ResamplingRequest& request_;
  ResamplingResult* const result_;
  std::unordered_map<std::uint32_t, stats::SequentialStopper> stoppers_;
};

/// Algorithm 3's observed pass: the score block with one column of n ones
/// (Z = 1), so Ũ_j = Σ_i U_ij exactly (with count = 1 every kernel level
/// takes the scalar `acc += z·u` tail). Folding it with the replicates'
/// canonical fold gives the serial oracle's observed statistics.
std::unordered_map<std::uint32_t, std::vector<double>> ObservedScoreBlock(
    SkatPipeline& pipeline) {
  engine::TraceSpan span(engine::Tracer::Global(), "algo", "observed pass");
  pipeline.EnsureUBuilt();
  return pipeline.ComputeMonteCarloScoreBlock(
      std::vector<double>(pipeline.n(), 1.0), 1);
}

/// Algorithm 3, batched: the observed pass and every batch are score
/// blocks over the cached U RDD, folded canonically on the driver, so the
/// whole ResamplingResult is bitwise equal to baseline::SerialMonteCarlo's
/// analysis from the same seed, for every batch size and thread count.
ResamplingResult RunBatchedMonteCarlo(SkatPipeline& pipeline,
                                      const ResamplingRequest& request) {
  ResamplingResult result;
  const auto observed_block = ObservedScoreBlock(pipeline);
  const std::unordered_map<std::uint32_t, double>& weights =
      pipeline.DriverWeights();
  std::vector<SetScores> observed =
      FoldReplicateScores(pipeline.sets(), observed_block, weights, 1);
  result.observed = std::move(observed.front());

  ExceedanceTally tally(pipeline, request, &result);
  if (tally.consumes_replicates()) {
    const std::uint64_t seed = request.seed.value_or(pipeline.config().seed);
    const std::uint64_t batch_size = EffectiveBatchSize(pipeline, request);
    ZBlockPrefetcher zblocks(pipeline.context().io(), seed, pipeline.n(),
                             request.replicates, batch_size);
    RunBatches(
        "monte-carlo", request.replicates, batch_size, request.sink,
        [&](std::uint64_t begin, std::uint64_t end) {
          const std::size_t count = end - begin;
          // Algorithm 3 step 3, per batch: (end-begin) × n multipliers from
          // the per-replicate streams (bitwise invariant to batching);
          // double-buffered on the I/O lane when prefetch is enabled.
          const std::vector<double> zblock = zblocks.Take(begin, count);
          // Score and fold only the sets whose stopper has not fired: a
          // SNP's row and a set's fold depend on nothing else, so every
          // count is unchanged. Without early stopping every set stays
          // live, so the block scores every SNP.
          const std::vector<stats::SnpSet> live =
              tally.LiveSets(pipeline.sets());
          const auto block =
              pipeline.ComputeMonteCarloScoreBlock(zblock, count, &live);
          const std::vector<SetScores> replicate_scores =
              FoldReplicateScores(live, block, weights, count);
          // The block is already computed, so a set that stops mid-batch
          // just ignores its remaining offers.
          bool any_active = false;
          for (std::size_t r = 0; r < count; ++r) {
            any_active = tally.Offer(begin + r, replicate_scores[r]);
          }
          return any_active;
        });
  }
  tally.Finish();
  return result;
}

/// Algorithm 2: every replicate re-executes the full pipeline, so a batch
/// is a scheduling/telemetry unit rather than a fused engine pass. The
/// observed statistics keep the engine's fold (replicates flow through
/// the same path, keeping the exceedance comparisons aligned).
ResamplingResult RunBatchedPermutation(SkatPipeline& pipeline,
                                       const ResamplingRequest& request) {
  ResamplingResult result;
  result.observed = pipeline.ComputeObserved();

  const std::uint64_t seed = request.seed.value_or(pipeline.config().seed);
  // Algorithm 2 step 2: all B shufflings are derived from the seed up
  // front, so replicate b is reproducible in isolation.
  const stats::PermutationPlan plan(seed, pipeline.n(), request.replicates);

  ExceedanceTally tally(pipeline, request, &result);
  if (tally.consumes_replicates()) {
    RunBatches(
        "permutation", request.replicates,
        EffectiveBatchSize(pipeline, request), request.sink,
        [&](std::uint64_t begin, std::uint64_t end) {
          // Full-pipeline replicates are expensive; unlike the batched
          // Monte Carlo block (already computed), stop mid-batch.
          bool any_active = true;
          for (std::uint64_t b = begin; b < end && any_active; ++b) {
            engine::TraceSpan span(engine::Tracer::Global(), "replicate",
                                   "permutation b=" + std::to_string(b),
                                   {engine::Arg("algorithm", "permutation"),
                                    engine::Arg("b", b)});
            any_active = tally.Offer(
                b, pipeline.ComputePermutationReplicate(plan.Get(b)));
          }
          return any_active;
        });
  }
  tally.Finish();
  return result;
}

/// SKAT-O over the batched Monte Carlo replicate pool: the observed pass
/// and each batch are the same score blocks as the plain Monte Carlo
/// method, folded into per-set (SKAT, burden) pairs canonically on the
/// driver.
SkatOResult RunBatchedSkatO(SkatPipeline& pipeline,
                            const ResamplingRequest& request) {
  const std::vector<double> rho_grid = stats::SkatORhoGrid();

  // Observed (SKAT, burden) pair and grid per set.
  const auto observed_block = ObservedScoreBlock(pipeline);
  const std::unordered_map<std::uint32_t, double>& weights =
      pipeline.DriverWeights();
  const auto observed =
      FoldSkatBurdenScores(pipeline.sets(), observed_block, weights, 1)
          .front();
  std::unordered_map<std::uint32_t, std::vector<double>> observed_grids;
  SkatOResult result;
  result.replicates = request.replicates;
  for (const auto& [set_id, pair] : observed) {
    SkatOResult::PerSet per_set;
    per_set.skat = pair.first;
    per_set.burden = pair.second;
    result.by_set[set_id] = per_set;
    observed_grids[set_id] =
        stats::SkatOGridStatistics(pair.second, pair.first, rho_grid);
  }

  const std::uint64_t seed = request.seed.value_or(pipeline.config().seed);
  std::unordered_map<std::uint32_t, std::vector<std::vector<double>>>
      replicate_grids;
  const std::uint64_t batch_size = EffectiveBatchSize(pipeline, request);
  ZBlockPrefetcher zblocks(pipeline.context().io(), seed, pipeline.n(),
                           request.replicates, batch_size);
  RunBatches(
      "skat-o", request.replicates, batch_size,
      request.sink, [&](std::uint64_t begin, std::uint64_t end) {
        const std::size_t count = end - begin;
        const std::vector<double> zblock = zblocks.Take(begin, count);
        const auto block = pipeline.ComputeMonteCarloScoreBlock(zblock, count);
        const auto pairs =
            FoldSkatBurdenScores(pipeline.sets(), block, weights, count);
        for (std::size_t r = 0; r < count; ++r) {
          for (const auto& [set_id, pair] : pairs[r]) {
            replicate_grids[set_id].push_back(
                stats::SkatOGridStatistics(pair.second, pair.first, rho_grid));
          }
          if (request.sink != nullptr) request.sink->OnReplicate(begin + r);
        }
        return true;
      });

  // Min-p combination per set.
  for (auto& [set_id, per_set] : result.by_set) {
    auto grids_it = replicate_grids.find(set_id);
    if (grids_it == replicate_grids.end()) continue;
    per_set.pvalue =
        stats::SkatOPValue(observed_grids.at(set_id), grids_it->second);
  }
  return result;
}

}  // namespace

Result<PValueMethod> ParsePValueMethod(const std::string& token) {
  if (token == "resampling") return PValueMethod::kResampling;
  if (token == "analytic") return PValueMethod::kAnalytic;
  if (token == "saddlepoint") return PValueMethod::kSaddlepoint;
  if (token == "hybrid") return PValueMethod::kHybrid;
  return Status::InvalidArgument(
      "pmethod must be resampling|analytic|saddlepoint|hybrid, got '" + token +
      "'");
}

double ResamplingResult::PValue(std::uint32_t set_id) const {
  auto info_it = inference.find(set_id);
  if (info_it != inference.end()) {
    const SetInference& info = info_it->second;
    if (!info.refined) return info.analytic_p;
    auto it = exceed.find(set_id);
    const std::uint64_t count =
        it == exceed.end() ? info.replicates_used : it->second;
    return stats::PValueFromCounts(count, info.replicates_used,
                                   info.early_stopped);
  }
  auto it = exceed.find(set_id);
  const std::uint64_t count = it == exceed.end() ? replicates : it->second;
  return stats::EmpiricalPValue(count, replicates);
}

std::vector<std::pair<std::uint32_t, double>> ResamplingResult::RankedPValues()
    const {
  std::vector<std::pair<std::uint32_t, double>> ranked;
  ranked.reserve(observed.size());
  for (const auto& [set_id, score] : observed) {
    ranked.push_back({set_id, PValue(set_id)});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              return a.second < b.second ||
                     (a.second == b.second && a.first < b.first);
            });
  return ranked;
}

std::vector<std::pair<std::uint32_t, double>> SkatOResult::RankedPValues()
    const {
  std::vector<std::pair<std::uint32_t, double>> ranked;
  ranked.reserve(by_set.size());
  for (const auto& [set_id, per_set] : by_set) {
    ranked.push_back({set_id, per_set.pvalue});
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second < b.second || (a.second == b.second && a.first < b.first);
  });
  return ranked;
}

ResamplingRun RunResampling(SkatPipeline& pipeline,
                            const ResamplingRequest& request) {
  if (request.exec.has_value()) {
    pipeline.context().ApplyExecConfig(*request.exec);
  }
  ResamplingRun run;
  run.method = request.method;
  switch (request.method) {
    case ResamplingMethod::kPermutation:
      run.scores = RunBatchedPermutation(pipeline, request);
      break;
    case ResamplingMethod::kMonteCarlo:
      run.scores = RunBatchedMonteCarlo(pipeline, request);
      break;
    case ResamplingMethod::kSkatO:
      if (IsAdaptive(request)) {
        SS_LOG(kWarn, "sparkscore")
            << "adaptive p-value options (pmethod/early_stop) are ignored "
               "for SKAT-O: its min-p combination needs the full replicate "
               "pool";
      }
      run.skato = RunBatchedSkatO(pipeline, request);
      break;
  }
  return run;
}

}  // namespace ss::core
