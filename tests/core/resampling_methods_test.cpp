// Algorithms 2/3 end-to-end: exceedance counters, p-values, and exact
// agreement with the serial baseline from identical seeds.
#include "core/resampling_methods.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "baseline/serial_skat.hpp"
#include "cluster/fault_injector.hpp"
#include "core/record_traits.hpp"

namespace ss::core {
namespace {

simdata::SyntheticDataset SmallDataset(std::uint64_t seed = 44) {
  simdata::GeneratorConfig config;
  config.num_patients = 50;
  config.num_snps = 40;
  config.num_sets = 4;
  config.seed = seed;
  return simdata::Generate(config);
}

engine::EngineContext::Options LocalOptions() {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 4;
  return options;
}

TEST(ResamplingMethodsTest, ZeroReplicatesComputesOnlyObserved) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const ResamplingResult result = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 0}).scores;
  EXPECT_EQ(result.replicates, 0u);
  EXPECT_EQ(result.observed.size(), 4u);
  for (const auto& [set_id, count] : result.exceed) EXPECT_EQ(count, 0u);
}

TEST(ResamplingMethodsTest, MonteCarloMatchesSerialBaselineExactly) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  PipelineConfig config;
  config.seed = 77;
  const baseline::SkatAnalysis serial =
      baseline::SerialMonteCarlo(inputs, config.seed, 25);

  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const ResamplingResult distributed = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 25}).scores;

  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    EXPECT_NEAR(distributed.observed.at(id), serial.observed[k], 1e-9);
    EXPECT_EQ(distributed.exceed.at(id), serial.exceed_count[k]) << "set " << k;
    EXPECT_DOUBLE_EQ(distributed.PValue(id), serial.PValue(k));
  }
}

TEST(ResamplingMethodsTest, PermutationMatchesSerialBaselineExactly) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  PipelineConfig config;
  config.seed = 78;
  const baseline::SkatAnalysis serial =
      baseline::SerialPermutation(inputs, config.seed, 12);

  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const ResamplingResult distributed = RunResampling(pipeline, {ResamplingMethod::kPermutation, 12}).scores;

  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    EXPECT_EQ(distributed.exceed.at(id), serial.exceed_count[k]) << "set " << k;
  }
}

TEST(ResamplingMethodsTest, MethodsAgreeOnObservedScores) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx1(LocalOptions());
  engine::EngineContext ctx2(LocalOptions());
  SkatPipeline p1 = SkatPipeline::FromMemory(ctx1, dataset, {});
  SkatPipeline p2 = SkatPipeline::FromMemory(ctx2, dataset, {});
  const ResamplingResult mc = RunResampling(p1, {ResamplingMethod::kMonteCarlo, 3}).scores;
  const ResamplingResult perm = RunResampling(p2, {ResamplingMethod::kPermutation, 3}).scores;
  for (const auto& [set_id, score] : mc.observed) {
    EXPECT_NEAR(score, perm.observed.at(set_id), 1e-9);
  }
}

TEST(ResamplingMethodsTest, SinkInvokedPerReplicate) {
  class RecordingSink final : public ProgressSink {
   public:
    void OnReplicate(std::uint64_t b) override { seen.push_back(b); }
    std::vector<std::uint64_t> seen;
  };
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  RecordingSink sink;
  ResamplingRequest request(ResamplingMethod::kMonteCarlo, 5);
  request.sink = &sink;
  RunResampling(pipeline, request);
  EXPECT_EQ(sink.seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(ResamplingMethodsTest, PValuesInUnitInterval) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const ResamplingResult result = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 19}).scores;
  for (const auto& [set_id, score] : result.observed) {
    const double p = result.PValue(set_id);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(ResamplingMethodsTest, RankedPValuesSortedAscending) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const ResamplingResult result = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 9}).scores;
  const auto ranked = result.RankedPValues();
  ASSERT_EQ(ranked.size(), 4u);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].second, ranked[i].second);
  }
}

bool BitEqual(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

void ExpectByteIdentical(const ResamplingResult& a, const ResamplingResult& b) {
  ASSERT_EQ(a.replicates, b.replicates);
  ASSERT_EQ(a.observed.size(), b.observed.size());
  for (const auto& [set_id, score] : a.observed) {
    ASSERT_TRUE(b.observed.count(set_id)) << "set " << set_id;
    EXPECT_TRUE(BitEqual(score, b.observed.at(set_id)))
        << "observed score for set " << set_id << " differs";
  }
  ASSERT_EQ(a.exceed.size(), b.exceed.size());
  for (const auto& [set_id, count] : a.exceed) {
    EXPECT_EQ(count, b.exceed.at(set_id)) << "set " << set_id;
  }
}

/// Fresh context + pipeline per run so no cached state leaks between the
/// configurations under comparison.
ResamplingResult RunWithRequest(const simdata::SyntheticDataset& dataset,
                                const ResamplingRequest& request,
                                std::uint64_t batch_size, std::uint64_t threads,
                                std::uint64_t config_seed = 77) {
  engine::EngineContext::Options options = LocalOptions();
  options.physical_threads = threads;
  engine::EngineContext ctx(options);
  PipelineConfig config;
  config.seed = config_seed;
  config.resampling_batch_size = batch_size;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  return RunResampling(pipeline, request).scores;
}

TEST(ResamplingMethodsTest, MonteCarloBitwiseInvariantToBatchSize) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 25;
  const ResamplingResult one = RunWithRequest(dataset, request, 1, 4);
  const ResamplingResult seven = RunWithRequest(dataset, request, 7, 4);
  const ResamplingResult big = RunWithRequest(dataset, request, 64, 4);
  ExpectByteIdentical(one, seven);
  ExpectByteIdentical(one, big);
}

TEST(ResamplingMethodsTest, MonteCarloBitwiseInvariantToThreadCount) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 20;
  request.batch_size = 5;
  ExpectByteIdentical(RunWithRequest(dataset, request, 0, 1),
                      RunWithRequest(dataset, request, 0, 4));
}

TEST(ResamplingMethodsTest, BatchedMonteCarloBitwiseEqualsSerialBaseline) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const baseline::SkatAnalysis serial =
      baseline::SerialMonteCarlo(inputs, 77, 25);

  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 25;
  const ResamplingResult distributed = RunWithRequest(dataset, request, 8, 4);
  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    EXPECT_TRUE(BitEqual(distributed.observed.at(id), serial.observed[k]))
        << "set " << k;
    EXPECT_EQ(distributed.exceed.at(id), serial.exceed_count[k]) << "set " << k;
  }
}

TEST(ResamplingMethodsTest, ReplicateScoreStreamMatchesSerialOracle) {
  // OnReplicateScores must deliver every replicate's statistics, in order,
  // bit-for-bit equal to the serial oracle — regardless of batching.
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const std::vector<std::vector<double>> serial =
      baseline::SerialMonteCarloReplicateStatistics(inputs, 77, 11);

  struct Recorder final : ProgressSink {
    std::vector<std::pair<std::uint64_t, SetScores>> stream;
    void OnReplicateScores(std::uint64_t b, const SetScores& scores) override {
      stream.push_back({b, scores});
    }
  } recorder;
  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 11;
  request.batch_size = 4;
  request.sink = &recorder;
  RunWithRequest(dataset, request, 0, 4);

  ASSERT_EQ(recorder.stream.size(), 11u);
  for (std::uint64_t b = 0; b < 11; ++b) {
    EXPECT_EQ(recorder.stream[b].first, b);
    for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
      const std::uint32_t id = dataset.sets[k].id;
      EXPECT_TRUE(BitEqual(recorder.stream[b].second.at(id), serial[b][k]))
          << "replicate " << b << " set " << k;
    }
  }
}

std::uint64_t Counter(const char* name) {
  return engine::CounterRegistry::Global().Get(name).load();
}

/// Enough sets, some with small p, that a hybrid screen at p < 0.5
/// refines several and early stopping at h = 5 fires for some of them.
simdata::SyntheticDataset AdaptiveDataset() {
  simdata::GeneratorConfig config;
  config.num_patients = 80;
  config.num_snps = 120;
  config.num_sets = 12;
  config.seed = 45;
  return simdata::Generate(config);
}

TEST(ResamplingMethodsTest, AdaptiveStopPointsMatchSerialOracle) {
  // Adaptive Monte Carlo batches score and fold only the sets whose
  // stopper has not fired. Every refined set must still stop exactly where
  // the serial per-replicate oracle says (the h-th exceedance), and the
  // sink must see exactly the sets that consumed each replicate, bit for
  // bit. A mask that dropped a live SNP would move a count or a stop.
  const simdata::SyntheticDataset dataset = AdaptiveDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  constexpr std::uint64_t kReplicates = 200;
  constexpr std::uint64_t kH = 5;
  const std::vector<std::vector<double>> serial =
      baseline::SerialMonteCarloReplicateStatistics(inputs, 77, kReplicates);
  const std::vector<double> observed =
      baseline::SerialMonteCarlo(inputs, 77, 0).observed;

  struct Recorder final : ProgressSink {
    std::vector<std::pair<std::uint64_t, SetScores>> stream;
    void OnReplicateScores(std::uint64_t b, const SetScores& scores) override {
      stream.push_back({b, scores});
    }
  };

  constexpr std::uint64_t kBatch = 8;
  const auto member_count = [](const std::vector<stats::SnpSet>& sets) {
    std::set<std::uint32_t> members;
    for (const stats::SnpSet& set : sets) {
      members.insert(set.snps.begin(), set.snps.end());
    }
    return static_cast<std::uint64_t>(members.size());
  };

  ResamplingRequest legacy(ResamplingMethod::kMonteCarlo, kReplicates);
  legacy.batch_size = kBatch;
  std::uint64_t before = Counter("resampling.snp_replicates");
  RunWithRequest(dataset, legacy, 0, 4);
  const std::uint64_t legacy_work =
      Counter("resampling.snp_replicates") - before;
  // B replicates over every SNP in some set (the observed pass is the
  // fused contributions pass, not a score block).
  EXPECT_EQ(legacy_work, member_count(dataset.sets) * kReplicates);

  for (PValueMethod pmethod : {PValueMethod::kHybrid,
                               PValueMethod::kResampling}) {
    SCOPED_TRACE(pmethod == PValueMethod::kHybrid ? "hybrid" : "resampling");
    Recorder recorder;
    ResamplingRequest request(ResamplingMethod::kMonteCarlo, kReplicates);
    request.batch_size = kBatch;
    request.pvalue_method = pmethod;
    request.refine_threshold = 0.5;
    request.early_stop = kH;
    request.sink = &recorder;
    before = Counter("resampling.snp_replicates");
    const ResamplingResult result = RunWithRequest(dataset, request, 0, 4);
    const std::uint64_t work = Counter("resampling.snp_replicates") - before;
    if (pmethod == PValueMethod::kHybrid) {
      EXPECT_LT(work, legacy_work);
    }

    std::size_t refined = 0;
    std::size_t stopped = 0;
    std::vector<std::uint64_t> used_by_set(dataset.sets.size(), 0);
    // consuming[b] = indices of the sets that consumed replicate b.
    std::vector<std::vector<std::size_t>> consuming(kReplicates);
    for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
      const std::uint32_t id = dataset.sets[k].id;
      const SetInference& info = result.inference.at(id);
      if (!info.refined) {
        EXPECT_EQ(result.exceed.at(id), 0u) << "set " << k;
        continue;
      }
      ++refined;
      std::uint64_t used = kReplicates;
      std::uint64_t exceed = 0;
      for (std::uint64_t b = 0; b < kReplicates; ++b) {
        consuming[b].push_back(k);
        if (serial[b][k] >= observed[k] && ++exceed == kH) {
          used = b + 1;
          break;
        }
      }
      if (exceed == kH) ++stopped;
      used_by_set[k] = used;
      EXPECT_EQ(info.replicates_used, used) << "set " << k;
      EXPECT_EQ(result.exceed.at(id), exceed) << "set " << k;
      EXPECT_EQ(info.early_stopped, exceed == kH) << "set " << k;
    }
    EXPECT_GE(refined, 3u);
    EXPECT_GE(stopped, 1u);

    // Each batch scores exactly the members of the sets live at its start.
    std::uint64_t expected_work = 0;
    for (std::uint64_t begin = 0; begin < kReplicates; begin += kBatch) {
      std::vector<stats::SnpSet> live;
      for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
        if (used_by_set[k] > begin) live.push_back(dataset.sets[k]);
      }
      if (live.empty()) break;
      expected_work += member_count(live) *
                       (std::min(kReplicates, begin + kBatch) - begin);
    }
    EXPECT_EQ(work, expected_work);

    // The sink reports every replicate of every executed batch once, in
    // order: through the last stop point, then (empty) to the end of that
    // batch.
    const std::uint64_t last_used =
        *std::max_element(used_by_set.begin(), used_by_set.end());
    const std::uint64_t reported =
        std::min(kReplicates, (last_used + kBatch - 1) / kBatch * kBatch);
    ASSERT_EQ(recorder.stream.size(), reported);
    for (std::uint64_t i = 0; i < reported; ++i) {
      ASSERT_EQ(recorder.stream[i].first, i);
    }
    for (const auto& [b, scores] : recorder.stream) {
      EXPECT_EQ(scores.size(), consuming[b].size()) << "replicate " << b;
      for (std::size_t k : consuming[b]) {
        const std::uint32_t id = dataset.sets[k].id;
        ASSERT_TRUE(scores.count(id)) << "replicate " << b << " set " << k;
        EXPECT_TRUE(BitEqual(scores.at(id), serial[b][k]))
            << "replicate " << b << " set " << k;
      }
    }
  }
}

TEST(ResamplingMethodsTest, ScreenStagesSurviveTaskRetriesAndNodeLoss) {
  // The analytic screen runs as two engine stages (per-set Gram, then
  // spectrum + tail), so it sees task retries and node loss like any
  // other stage; neither may change a bit of the result.
  const simdata::SyntheticDataset dataset = AdaptiveDataset();
  ResamplingRequest request(ResamplingMethod::kMonteCarlo, 100);
  request.batch_size = 8;
  request.pvalue_method = PValueMethod::kHybrid;
  request.refine_threshold = 0.5;
  request.early_stop = 5;
  PipelineConfig config;
  config.seed = 77;

  std::uint64_t gram_stage = 0;
  std::uint64_t screen_stage = 0;
  std::uint64_t tasks_before_screen = 0;
  std::uint64_t reference = 0;
  {
    engine::EngineContext ctx(LocalOptions());
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    const std::uint64_t before = Counter("resampling.result_hash");
    RunResampling(pipeline, request);
    reference = Counter("resampling.result_hash") - before;
    for (const engine::StageMetrics& stage : ctx.metrics().stages()) {
      if (stage.label == "set-gram") gram_stage = stage.stage_id;
      if (stage.label == "analytic-screen") {
        screen_stage = stage.stage_id;
        break;
      }
      tasks_before_screen += stage.task_seconds.size();
    }
  }
  ASSERT_NE(gram_stage, 0u);
  ASSERT_NE(screen_stage, 0u);

  {
    cluster::FaultInjector faults;
    engine::EngineContext ctx(LocalOptions(), nullptr, &faults);
    faults.FailTask(gram_stage, 0, 2);
    faults.FailTask(screen_stage, dataset.sets.size() - 1, 1);
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    const std::uint64_t before = Counter("resampling.result_hash");
    RunResampling(pipeline, request);
    EXPECT_EQ(Counter("resampling.result_hash") - before, reference);
    int gram_failures = 0;
    int screen_failures = 0;
    for (const engine::StageMetrics& stage : ctx.metrics().stages()) {
      if (stage.stage_id == gram_stage) gram_failures = stage.failed_attempts;
      if (stage.stage_id == screen_stage) {
        screen_failures = stage.failed_attempts;
      }
    }
    EXPECT_EQ(gram_failures, 2);
    EXPECT_EQ(screen_failures, 1);
  }

  {
    // Fires after the screen's second task: the cached U partitions on
    // node 1 are lost and the refinement batches rebuild them by lineage.
    cluster::FaultInjector faults;
    engine::EngineContext ctx(LocalOptions(), nullptr, &faults);
    faults.FailNodeAfterTasks(1, tasks_before_screen + 2);
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    const std::uint64_t before = Counter("resampling.result_hash");
    RunResampling(pipeline, request);
    EXPECT_EQ(Counter("resampling.result_hash") - before, reference);
    ASSERT_TRUE(faults.HasFired(1));
    EXPECT_GT(ctx.cache().stats().dropped_by_failure, 0u);
  }
}

TEST(ResamplingMethodsTest, SinkReportsBatchBoundaries) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  struct Recorder final : ProgressSink {
    std::vector<std::vector<std::uint64_t>> begins;
    std::vector<std::vector<std::uint64_t>> ends;
    std::vector<std::uint64_t> replicates;
    void OnBatchBegin(std::uint64_t index, std::uint64_t begin,
                      std::uint64_t end) override {
      begins.push_back({index, begin, end});
    }
    void OnReplicate(std::uint64_t b) override { replicates.push_back(b); }
    void OnBatchEnd(std::uint64_t index, std::uint64_t begin,
                    std::uint64_t end) override {
      ends.push_back({index, begin, end});
    }
  } recorder;
  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 10;
  request.batch_size = 4;
  request.sink = &recorder;
  RunWithRequest(dataset, request, 0, 4);

  const std::vector<std::vector<std::uint64_t>> expected = {
      {0, 0, 4}, {1, 4, 8}, {2, 8, 10}};
  EXPECT_EQ(recorder.begins, expected);
  EXPECT_EQ(recorder.ends, expected);
  EXPECT_EQ(recorder.replicates,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ResamplingMethodsTest, UnifiedPermutationMatchesLegacyWrapper) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  ResamplingRequest request;
  request.method = ResamplingMethod::kPermutation;
  request.replicates = 12;
  const ResamplingResult unified = RunWithRequest(dataset, request, 3, 4, 78);

  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = 78;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  ExpectByteIdentical(unified, RunResampling(pipeline, {ResamplingMethod::kPermutation, 12}).scores);
}

TEST(ResamplingMethodsTest, SkatOBitwiseInvariantToBatchSize) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  auto run = [&dataset](std::uint64_t batch) {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.seed = 77;
    config.resampling_batch_size = batch;
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    ResamplingRequest request;
    request.method = ResamplingMethod::kSkatO;
    request.replicates = 15;
    return RunResampling(pipeline, request).skato;
  };
  const SkatOResult one = run(1);
  const SkatOResult big = run(64);
  ASSERT_EQ(one.by_set.size(), big.by_set.size());
  for (const auto& [set_id, per_set] : one.by_set) {
    const auto& other = big.by_set.at(set_id);
    EXPECT_TRUE(BitEqual(per_set.skat, other.skat)) << "set " << set_id;
    EXPECT_TRUE(BitEqual(per_set.burden, other.burden)) << "set " << set_id;
    EXPECT_TRUE(BitEqual(per_set.pvalue, other.pvalue)) << "set " << set_id;
  }
}

TEST(ResamplingMethodsTest, RequestSeedOverridesPipelineSeed) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  ResamplingRequest plain;
  plain.method = ResamplingMethod::kMonteCarlo;
  plain.replicates = 9;
  ResamplingRequest overridden = plain;
  overridden.seed = 123;
  // config.seed=123 with no override ≡ config.seed=77 with seed=123.
  ExpectByteIdentical(RunWithRequest(dataset, overridden, 4, 4, 77),
                      RunWithRequest(dataset, plain, 4, 4, 123));
}

TEST(ResamplingMethodsTest, MoreReplicatesRefinePValueFloor) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const ResamplingResult result = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 49}).scores;
  for (const auto& [set_id, score] : result.observed) {
    EXPECT_GE(result.PValue(set_id), 1.0 / 50.0);
  }
}

}  // namespace
}  // namespace ss::core
