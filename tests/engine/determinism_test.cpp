// Determinism regression: the result of a distributed computation must
// never depend on the number of physical threads or on task scheduling
// order. Every replicate statistic is required to be *byte-identical*
// between a 1-thread and an N-thread run from the same seed — the
// property the resampling literature this repo reproduces silently
// assumes, and the one a data race would corrupt first.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/resampling_methods.hpp"
#include "engine/context.hpp"
#include "stats/kernels/kernels.hpp"

namespace ss::core {
namespace {

constexpr std::uint64_t kSeed = 20160521;  // Fixed: see file comment.

/// Bit-pattern equality: distinguishes -0.0 from 0.0 and differing NaN
/// payloads, i.e. strictly stronger than operator== on doubles.
bool BitEqual(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

simdata::SyntheticDataset FixedDataset() {
  simdata::GeneratorConfig config;
  config.num_patients = 60;
  config.num_snps = 48;
  config.num_sets = 6;
  config.seed = kSeed;
  return simdata::Generate(config);
}

engine::EngineContext::Options OptionsWithThreads(std::size_t threads) {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = threads;
  options.seed = kSeed;
  return options;
}

ResamplingResult RunMonteCarlo(std::size_t threads, std::uint64_t replicates,
                               const simdata::SyntheticDataset& dataset) {
  engine::EngineContext ctx(OptionsWithThreads(threads));
  PipelineConfig config;
  config.seed = kSeed;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  return RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, replicates})
      .scores;
}

ResamplingResult RunMonteCarloConfigured(std::size_t threads,
                                         std::uint64_t batch, bool pack,
                                         std::uint64_t replicates,
                                         const simdata::SyntheticDataset& dataset) {
  engine::EngineContext ctx(OptionsWithThreads(threads));
  PipelineConfig config;
  config.seed = kSeed;
  config.resampling_batch_size = batch;
  config.pack_genotypes = pack;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  return RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, replicates})
      .scores;
}

ResamplingResult RunPermutation(std::size_t threads, std::uint64_t replicates,
                                const simdata::SyntheticDataset& dataset) {
  engine::EngineContext ctx(OptionsWithThreads(threads));
  PipelineConfig config;
  config.seed = kSeed;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  return RunResampling(pipeline, {ResamplingMethod::kPermutation, replicates})
      .scores;
}

void ExpectByteIdentical(const ResamplingResult& a, const ResamplingResult& b) {
  ASSERT_EQ(a.replicates, b.replicates);
  ASSERT_EQ(a.observed.size(), b.observed.size());
  for (const auto& [set_id, score] : a.observed) {
    ASSERT_TRUE(b.observed.count(set_id)) << "set " << set_id;
    EXPECT_TRUE(BitEqual(score, b.observed.at(set_id)))
        << "observed score for set " << set_id << " differs across runs";
  }
  ASSERT_EQ(a.exceed.size(), b.exceed.size());
  for (const auto& [set_id, count] : a.exceed) {
    ASSERT_TRUE(b.exceed.count(set_id)) << "set " << set_id;
    EXPECT_EQ(count, b.exceed.at(set_id))
        << "exceedance counter for set " << set_id << " differs across runs";
  }
}

TEST(DeterminismTest, MonteCarloReplicatesIdentical1v4Threads) {
  const simdata::SyntheticDataset dataset = FixedDataset();
  ExpectByteIdentical(RunMonteCarlo(1, 20, dataset),
                      RunMonteCarlo(4, 20, dataset));
}

TEST(DeterminismTest, MonteCarloRepeatedNThreadRunsIdentical) {
  const simdata::SyntheticDataset dataset = FixedDataset();
  ExpectByteIdentical(RunMonteCarlo(4, 20, dataset),
                      RunMonteCarlo(4, 20, dataset));
}

TEST(DeterminismTest, PermutationReplicatesIdentical1v4Threads) {
  const simdata::SyntheticDataset dataset = FixedDataset();
  ExpectByteIdentical(RunPermutation(1, 10, dataset),
                      RunPermutation(4, 10, dataset));
}

/// `resampling.result_hash` of a 10-replicate permutation run (Algorithm
/// 2) on FixedDataset(), pinned from the route that built each
/// replicate's U RDD and then summed every record. The fused scoring pass
/// must reproduce it bit for bit.
constexpr std::uint64_t kPermutationResultHash = 0x82c67a2a27eb9b4dULL;

std::uint64_t PermutationResultHash(std::size_t threads, bool pack,
                                    std::uint64_t budget,
                                    const simdata::SyntheticDataset& dataset) {
  engine::EngineContext ctx(OptionsWithThreads(threads));
  PipelineConfig config;
  config.seed = kSeed;
  config.pack_genotypes = pack;
  config.cache_budget_bytes = budget;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  std::atomic<std::uint64_t>& hash =
      engine::CounterRegistry::Global().Get("resampling.result_hash");
  const std::uint64_t before = hash.load();
  RunResampling(pipeline, {ResamplingMethod::kPermutation, 10});
  return hash.load() - before;
}

TEST(DeterminismTest, PermutationResultHashPinnedAcrossThreadsPackingBudget) {
  // threads {1,4} x packed genotypes {off,on} x budget {unlimited, tight
  // enough to evict}: every cell reproduces the pinned hash.
  const simdata::SyntheticDataset dataset = FixedDataset();
  for (std::size_t threads : {1u, 4u}) {
    for (bool pack : {false, true}) {
      for (std::uint64_t budget : {0u, 1024u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " pack=" + std::to_string(pack) +
                     " budget=" + std::to_string(budget));
        EXPECT_EQ(PermutationResultHash(threads, pack, budget, dataset),
                  kPermutationResultHash);
      }
    }
  }
}

/// `resampling.result_hash` of a 30-replicate Monte Carlo run on
/// FixedDataset(), scored by the factored pass (genotypes × per-replicate
/// residual weights, no U).
constexpr std::uint64_t kMonteCarloResultHash = 0xc51a6a6525200da4ULL;

std::uint64_t MonteCarloResultHash(std::size_t threads, std::uint64_t batch,
                                   int prefetch, std::uint64_t budget,
                                   const simdata::SyntheticDataset& dataset) {
  engine::EngineContext::Options options = OptionsWithThreads(threads);
  options.cache_capacity_bytes = budget;
  engine::EngineContext ctx(options);
  PipelineConfig config;
  config.seed = kSeed;
  config.resampling_batch_size = batch;
  config.cache_budget_bytes = budget;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  ResamplingRequest request(ResamplingMethod::kMonteCarlo, 30);
  engine::ExecConfig exec;
  exec.prefetch_depth = prefetch;
  request.exec = exec;
  std::atomic<std::uint64_t>& hash =
      engine::CounterRegistry::Global().Get("resampling.result_hash");
  const std::uint64_t before = hash.load();
  RunResampling(pipeline, request);
  return hash.load() - before;
}

TEST(DeterminismTest, MonteCarloResultHashPinnedAcrossTheMatrix) {
  // threads {1,4} x batch {1,7,32} x kernel level x prefetch {0,2} x
  // budget {unlimited, tight enough to evict}: every cell reproduces the
  // pinned hash.
  const simdata::SyntheticDataset dataset = FixedDataset();
  const stats::kernels::DispatchLevel saved =
      stats::kernels::ActiveDispatchLevel();
  const int best = static_cast<int>(stats::kernels::BestSupportedLevel());
  for (int level = 0; level <= best; ++level) {
    stats::kernels::SetDispatchLevel(
        static_cast<stats::kernels::DispatchLevel>(level));
    for (std::size_t threads : {1u, 4u}) {
      for (std::uint64_t batch : {1u, 7u, 32u}) {
        for (int prefetch : {0, 2}) {
          for (std::uint64_t budget : {0u, 512u}) {
            SCOPED_TRACE(std::string("level=") +
                         stats::kernels::DispatchLevelName(
                             stats::kernels::ActiveDispatchLevel()) +
                         " threads=" + std::to_string(threads) +
                         " batch=" + std::to_string(batch) +
                         " prefetch=" + std::to_string(prefetch) +
                         " budget=" + std::to_string(budget));
            EXPECT_EQ(MonteCarloResultHash(threads, batch, prefetch, budget,
                                           dataset),
                      kMonteCarloResultHash);
          }
        }
      }
    }
  }
  stats::kernels::SetDispatchLevel(saved);
}

TEST(DeterminismTest, ThreadCountDoesNotLeakIntoPValues) {
  const simdata::SyntheticDataset dataset = FixedDataset();
  const ResamplingResult serial = RunMonteCarlo(1, 15, dataset);
  const ResamplingResult wide = RunMonteCarlo(8, 15, dataset);
  for (const auto& [set_id, score] : serial.observed) {
    EXPECT_TRUE(BitEqual(serial.PValue(set_id), wide.PValue(set_id)))
        << "p-value for set " << set_id;
  }
}

TEST(DeterminismTest, PackedGenotypesIdenticalAcrossThreadsAndBatches) {
  // The 2-bit packed genotype path is a pure storage change: every
  // combination of packing x threads {1,4} x batch {1,64} must be
  // byte-identical to the unpacked single-thread per-replicate run.
  const simdata::SyntheticDataset dataset = FixedDataset();
  const ResamplingResult reference =
      RunMonteCarloConfigured(1, 1, /*pack=*/false, 20, dataset);
  for (std::size_t threads : {1u, 4u}) {
    for (std::uint64_t batch : {1u, 64u}) {
      for (bool pack : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " batch=" +
                     std::to_string(batch) + " pack=" + std::to_string(pack));
        ExpectByteIdentical(
            reference,
            RunMonteCarloConfigured(threads, batch, pack, 20, dataset));
      }
    }
  }
}

TEST(DeterminismTest, DispatchLevelsProduceIdenticalResults) {
  // SIMD kernels keep the scalar lane/accumulation order, so forcing any
  // executable dispatch level must reproduce the scalar run bit-for-bit.
  const simdata::SyntheticDataset dataset = FixedDataset();
  const stats::kernels::DispatchLevel saved =
      stats::kernels::ActiveDispatchLevel();
  stats::kernels::SetDispatchLevel(stats::kernels::DispatchLevel::kScalar);
  const ResamplingResult scalar = RunMonteCarloConfigured(4, 4, true, 20, dataset);
  const int best = static_cast<int>(stats::kernels::BestSupportedLevel());
  for (int level = 1; level <= best; ++level) {
    stats::kernels::SetDispatchLevel(
        static_cast<stats::kernels::DispatchLevel>(level));
    SCOPED_TRACE(std::string("level=") + stats::kernels::DispatchLevelName(
                     stats::kernels::ActiveDispatchLevel()));
    ExpectByteIdentical(scalar,
                        RunMonteCarloConfigured(4, 4, true, 20, dataset));
  }
  stats::kernels::SetDispatchLevel(saved);
}

// ---------------------------------------------------------------------
// Adaptive p-value engine: early stopping decides per-replicate in the
// canonical fold order, so a stopped run must be byte-identical across
// every scheduling knob — threads, batch size, and prefetch depth.
// ---------------------------------------------------------------------

ResamplingResult RunAdaptive(std::size_t threads, std::uint64_t batch,
                             int prefetch, PValueMethod pmethod,
                             std::uint64_t early_stop,
                             const simdata::SyntheticDataset& dataset) {
  engine::EngineContext ctx(OptionsWithThreads(threads));
  PipelineConfig config;
  config.seed = kSeed;
  config.resampling_batch_size = batch;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  ResamplingRequest request(ResamplingMethod::kMonteCarlo, 200);
  request.pvalue_method = pmethod;
  request.refine_threshold = 0.5;  // refine several sets, not just one
  request.early_stop = early_stop;
  engine::ExecConfig exec;
  exec.prefetch_depth = prefetch;
  request.exec = exec;
  return RunResampling(pipeline, request).scores;
}

/// ExpectByteIdentical plus the adaptive per-set inference records and
/// the final routed p-values (bit patterns, not just values).
void ExpectAdaptiveIdentical(const ResamplingResult& a,
                             const ResamplingResult& b) {
  ExpectByteIdentical(a, b);
  ASSERT_EQ(a.early_stop_h, b.early_stop_h);
  ASSERT_EQ(a.inference.size(), b.inference.size());
  for (const auto& [set_id, info] : a.inference) {
    ASSERT_TRUE(b.inference.count(set_id)) << "set " << set_id;
    const SetInference& other = b.inference.at(set_id);
    EXPECT_TRUE(BitEqual(info.analytic_p, other.analytic_p))
        << "analytic p for set " << set_id;
    EXPECT_EQ(info.replicates_used, other.replicates_used)
        << "replicates used for set " << set_id;
    EXPECT_EQ(info.early_stopped, other.early_stopped) << "set " << set_id;
    EXPECT_EQ(info.refined, other.refined) << "set " << set_id;
    EXPECT_TRUE(BitEqual(a.PValue(set_id), b.PValue(set_id)))
        << "routed p-value for set " << set_id;
  }
}

TEST(DeterminismTest, EarlyStoppedRunsIdenticalAcrossSchedulingKnobs) {
  // Early stopping interacts with batching (a stop mid-batch must not
  // depend on where the batch boundary fell) — sweep the full grid
  // threads {1,4} x batch {1,64} x prefetch {0,2} against a serial
  // per-replicate reference.
  const simdata::SyntheticDataset dataset = FixedDataset();
  const ResamplingResult reference = RunAdaptive(
      1, 1, 0, PValueMethod::kResampling, /*early_stop=*/5, dataset);
  for (std::size_t threads : {1u, 4u}) {
    for (std::uint64_t batch : {1u, 64u}) {
      for (int prefetch : {0, 2}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " batch=" +
                     std::to_string(batch) + " prefetch=" +
                     std::to_string(prefetch));
        ExpectAdaptiveIdentical(
            reference, RunAdaptive(threads, batch, prefetch,
                                   PValueMethod::kResampling, 5, dataset));
      }
    }
  }
}

TEST(DeterminismTest, HybridRunsIdenticalAcrossSchedulingKnobs) {
  // Same grid for the full hybrid mode: analytic screen + refinement
  // with early stopping. The screen itself is replicate-independent, so
  // any divergence here isolates to the refinement driver.
  const simdata::SyntheticDataset dataset = FixedDataset();
  const ResamplingResult reference =
      RunAdaptive(1, 1, 0, PValueMethod::kHybrid, /*early_stop=*/5, dataset);
  for (std::size_t threads : {1u, 4u}) {
    for (std::uint64_t batch : {1u, 64u}) {
      for (int prefetch : {0, 2}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " batch=" +
                     std::to_string(batch) + " prefetch=" +
                     std::to_string(prefetch));
        ExpectAdaptiveIdentical(
            reference, RunAdaptive(threads, batch, prefetch,
                                   PValueMethod::kHybrid, 5, dataset));
      }
    }
  }
}

TEST(DeterminismTest, TaskRngIndependentOfAttemptNumber) {
  // A retried task must reproduce the same randomness as its first
  // attempt, or fault injection would silently change the statistics.
  engine::TaskContext first(7, 3, /*attempt=*/0, 0, 0, kSeed);
  engine::TaskContext retry(7, 3, /*attempt=*/2, 1, 1, kSeed);
  Rng a = first.MakeRng(5);
  Rng b = retry.MakeRng(5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64()) << "draw " << i;
  }
}

}  // namespace
}  // namespace ss::core
