// Cross-validation of the distributed Algorithm 1 against the serial
// baseline, plus DFS-backed pipeline construction.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "baseline/serial_skat.hpp"
#include "core/record_traits.hpp"
#include "stats/resampling.hpp"

namespace ss::core {
namespace {

simdata::SyntheticDataset SmallDataset(std::uint64_t seed = 33) {
  simdata::GeneratorConfig config;
  config.num_patients = 60;
  config.num_snps = 50;
  config.num_sets = 5;
  config.seed = seed;
  return simdata::Generate(config);
}

engine::EngineContext::Options LocalOptions() {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = 4;
  return options;
}

baseline::SkatAnalysis SerialReference(const simdata::SyntheticDataset& dataset) {
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  return baseline::SerialObserved(inputs);
}

/// Replicate b's score block: the one-column Z block for b is exactly
/// stats::MonteCarloWeights::Get(b).
std::unordered_map<std::uint32_t, std::vector<double>> ReplicateBlock(
    SkatPipeline& pipeline, std::uint64_t seed, std::uint64_t b) {
  return pipeline.ComputeMonteCarloScoreBlock(
      stats::MonteCarloZBlock(seed, pipeline.n(), b, 1), 1);
}

/// Per-set SKAT statistics (sets order) of a one-replicate score block, in
/// the serial oracle's fold (stats::SkatStatistics).
std::vector<double> FoldBlock(
    const simdata::SyntheticDataset& dataset,
    const std::unordered_map<std::uint32_t, std::vector<double>>& block) {
  std::unordered_map<std::uint32_t, double> squared;
  for (const auto& [snp, scores] : block) squared[snp] = scores[0] * scores[0];
  std::unordered_map<std::uint32_t, double> weights;
  for (std::uint32_t j = 0; j < dataset.weights.size(); ++j) {
    weights[j] = dataset.weights[j];
  }
  return stats::SkatStatistics(dataset.sets, squared, weights);
}

TEST(SkatPipelineTest, ObservedMatchesSerialBaseline) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const SetScores observed = pipeline.ComputeObserved();
  const baseline::SkatAnalysis reference = SerialReference(dataset);
  ASSERT_EQ(observed.size(), dataset.sets.size());
  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    ASSERT_TRUE(observed.contains(dataset.sets[k].id));
    EXPECT_NEAR(observed.at(dataset.sets[k].id), reference.observed[k], 1e-9)
        << "set " << k;
  }
}

TEST(SkatPipelineTest, ObservedIndependentOfPartitioning) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  SetScores previous;
  for (std::uint32_t partitions : {1u, 3u, 8u, 16u}) {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.num_partitions = partitions;
    config.num_reducers = partitions;
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    const SetScores observed = pipeline.ComputeObserved();
    if (!previous.empty()) {
      for (const auto& [set_id, score] : observed) {
        EXPECT_NEAR(score, previous.at(set_id), 1e-9);
      }
    }
    previous = observed;
  }
}

TEST(SkatPipelineTest, DfsPipelineMatchesInMemory) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  dfs::MiniDfs dfs({.num_nodes = 3, .replication = 2, .block_lines = 8});
  const simdata::StudyPaths paths = simdata::StudyPaths::Under("/study");
  ASSERT_TRUE(simdata::WriteStudy(dfs, paths, dataset).ok());

  engine::EngineContext ctx(LocalOptions(), &dfs);
  auto opened = SkatPipeline::Open(ctx, paths, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const SetScores from_dfs = opened.value().ComputeObserved();

  engine::EngineContext ctx2(LocalOptions());
  SkatPipeline in_memory = SkatPipeline::FromMemory(ctx2, dataset, {});
  const SetScores expected = in_memory.ComputeObserved();
  ASSERT_EQ(from_dfs.size(), expected.size());
  for (const auto& [set_id, score] : expected) {
    EXPECT_NEAR(from_dfs.at(set_id), score, 1e-9) << "set " << set_id;
  }
}

TEST(SkatPipelineTest, OpenMissingStudyFails) {
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 8});
  engine::EngineContext ctx(LocalOptions(), &dfs);
  EXPECT_FALSE(
      SkatPipeline::Open(ctx, simdata::StudyPaths::Under("/none"), {}).ok());
}

TEST(SkatPipelineTest, CorruptGenotypeLineFailsJob) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 8});
  simdata::StudyPaths paths = simdata::StudyPaths::Under("/s");
  ASSERT_TRUE(simdata::WriteStudy(dfs, paths, dataset).ok());
  // Overwrite the genotype file with a malformed record.
  paths.genotypes = "/s/bad_genotypes.txt";
  ASSERT_TRUE(dfs.WriteTextFile(paths.genotypes, {"not a record"}).ok());
  engine::EngineContext ctx(LocalOptions(), &dfs);
  auto pipeline = SkatPipeline::Open(ctx, paths, {});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_THROW(pipeline.value().ComputeObserved(), engine::TaskFailure);
}

TEST(SkatPipelineTest, MonteCarloReplicateMatchesSerial) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const std::uint64_t seed = 5;
  const baseline::SkatAnalysis serial =
      baseline::SerialMonteCarlo(inputs, seed, 7);

  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = seed;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  // The observed statistic is the fused pass's one-column block.
  const std::vector<double> observed =
      FoldBlock(dataset, pipeline.ComputeObservedScoreBlock());
  EXPECT_EQ(observed, serial.observed);
  std::vector<std::uint64_t> exceed(dataset.sets.size(), 0);
  for (std::size_t b = 0; b < 7; ++b) {
    const std::vector<double> replicate =
        FoldBlock(dataset, ReplicateBlock(pipeline, seed, b));
    for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
      if (replicate[k] >= observed[k]) ++exceed[k];
    }
  }
  EXPECT_EQ(exceed, serial.exceed_count);
}

TEST(SkatPipelineTest, PermutationReplicateMatchesSerial) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const std::uint64_t seed = 6;
  const baseline::SkatAnalysis serial =
      baseline::SerialPermutation(inputs, seed, 5);

  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = seed;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const SetScores observed = pipeline.ComputeObserved();
  const stats::PermutationPlan plan(seed, dataset.survival.n(), 5);
  std::vector<std::uint64_t> exceed(dataset.sets.size(), 0);
  for (std::size_t b = 0; b < 5; ++b) {
    const SetScores replicate = pipeline.ComputePermutationReplicate(plan.Get(b));
    for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
      if (replicate.at(dataset.sets[k].id) >=
          observed.at(dataset.sets[k].id)) {
        ++exceed[k];
      }
    }
  }
  EXPECT_EQ(exceed, serial.exceed_count);
}

TEST(SkatPipelineTest, CachingConfigControlsCacheUse) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.cache_genotypes = true;
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    pipeline.ComputeObserved();
    EXPECT_GT(ctx.cache().stats().insertions, 0u);
    const auto before = ctx.cache().stats().hits;
    ReplicateBlock(pipeline, config.seed, 0);
    // The replicate reused the partitions the observed pass cached.
    EXPECT_GT(ctx.cache().stats().hits, before);
  }
  {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.cache_genotypes = false;
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    pipeline.ComputeObserved();
    EXPECT_EQ(ctx.cache().stats().insertions, 0u);
  }
  // A score block over some of the sets holds exactly their member SNPs,
  // each row bitwise equal to the full block's, whether the genotypes stay
  // resident (unlimited budget) or a tight budget evicts them and
  // recomputes them from lineage between the two passes.
  std::uint64_t unlimited_misses = 0;
  for (std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{500}}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.cache_budget_bytes = budget;
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    const std::vector<double> zblock =
        stats::MonteCarloZBlock(config.seed, pipeline.n(), 0, 3);
    const auto full = pipeline.ComputeMonteCarloScoreBlock(zblock, 3);
    const std::vector<stats::SnpSet> live = {dataset.sets[1],
                                             dataset.sets[3]};
    std::set<std::uint32_t> members;
    for (const stats::SnpSet& set : live) {
      members.insert(set.snps.begin(), set.snps.end());
    }
    const auto masked = pipeline.ComputeMonteCarloScoreBlock(zblock, 3, &live);
    std::size_t expected = 0;
    for (const auto& [snp, row] : full) {
      if (members.count(snp) == 0) continue;
      ++expected;
      ASSERT_TRUE(masked.count(snp)) << "snp " << snp;
      const std::vector<double>& got = masked.at(snp);
      ASSERT_EQ(got.size(), row.size());
      EXPECT_EQ(std::memcmp(got.data(), row.data(),
                            row.size() * sizeof(double)),
                0)
          << "snp " << snp;
    }
    EXPECT_GT(expected, 0u);
    EXPECT_LT(expected, full.size());
    EXPECT_EQ(masked.size(), expected);
    const engine::CacheStats stats = ctx.cache().stats();
    if (budget == 0) {
      unlimited_misses = stats.misses;
    } else {
      EXPECT_GT(stats.evictions, 0u);
      EXPECT_GT(stats.misses, unlimited_misses);  // evicted, then recomputed
    }
  }
}

TEST(SkatPipelineTest, MonteCarloBlockNeedsNoObservedPass) {
  // A score block reads only the genotypes and the batch's weights, so a
  // fresh pipeline scores it exactly as one whose observed pass ran.
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext fresh_ctx(LocalOptions());
  SkatPipeline fresh = SkatPipeline::FromMemory(fresh_ctx, dataset, {});
  const auto first = ReplicateBlock(fresh, 0, 0);
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  pipeline.ComputeObserved();
  EXPECT_EQ(ReplicateBlock(pipeline, 0, 0), first);
  EXPECT_FALSE(first.empty());
}

TEST(SkatPipelineTest, GaussianStudyThroughDfs) {
  // A non-Cox phenotype staged with the model-tagged format opens and
  // matches the in-memory Gaussian pipeline.
  const simdata::SyntheticDataset dataset = SmallDataset();
  stats::QuantitativeData expression;
  for (std::size_t i = 0; i < dataset.survival.n(); ++i) {
    expression.value.push_back(static_cast<double>((i * 13) % 11));
  }
  dfs::MiniDfs dfs({.num_nodes = 3, .replication = 2, .block_lines = 8});
  const simdata::StudyPaths paths = simdata::StudyPaths::Under("/eqtl");
  ASSERT_TRUE(simdata::WriteStudyWithPhenotype(
                  dfs, paths, dataset, stats::Phenotype::Gaussian(expression))
                  .ok());

  engine::EngineContext ctx(LocalOptions(), &dfs);
  auto opened = SkatPipeline::Open(ctx, paths, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().phenotype().model, stats::ScoreModel::kGaussian);
  EXPECT_EQ(opened.value().config().model, stats::ScoreModel::kGaussian);
  const SetScores from_dfs = opened.value().ComputeObserved();

  engine::EngineContext ctx2(LocalOptions());
  std::vector<simdata::SnpRecord> records;
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  SkatPipeline in_memory(ctx2, {}, engine::Parallelize(ctx2, records, 4),
                         stats::Phenotype::Gaussian(expression),
                         dataset.weights, dataset.sets);
  const SetScores expected = in_memory.ComputeObserved();
  for (const auto& [set_id, score] : expected) {
    EXPECT_NEAR(from_dfs.at(set_id), score, 1e-9 * (1.0 + score));
  }
}

TEST(SkatPipelineTest, FaithfulAndFastScoresAgree) {
  // The paper-faithful O(n²) Cox evaluation and the O(n) suffix-sum path
  // must produce identical set scores through the whole pipeline.
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx_fast(LocalOptions());
  engine::EngineContext ctx_faithful(LocalOptions());
  PipelineConfig fast;
  fast.paper_faithful_scores = false;
  PipelineConfig faithful;
  faithful.paper_faithful_scores = true;
  const SetScores a =
      SkatPipeline::FromMemory(ctx_fast, dataset, fast).ComputeObserved();
  const SetScores b = SkatPipeline::FromMemory(ctx_faithful, dataset, faithful)
                          .ComputeObserved();
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [set_id, score] : a) {
    EXPECT_NEAR(b.at(set_id), score, 1e-9 * (1.0 + score));
  }
}

TEST(SkatPipelineTest, GaussianModelPipeline) {
  // eQTL-style quantitative phenotype through the same dataflow.
  simdata::SyntheticDataset dataset = SmallDataset();
  stats::QuantitativeData expression;
  for (std::size_t i = 0; i < dataset.survival.n(); ++i) {
    expression.value.push_back(static_cast<double>(i % 7));
  }
  std::vector<simdata::SnpRecord> records;
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.model = stats::ScoreModel::kGaussian;
  SkatPipeline pipeline(ctx, config,
                        engine::Parallelize(ctx, records, 4),
                        stats::Phenotype::Gaussian(expression),
                        dataset.weights, dataset.sets);
  const SetScores observed = pipeline.ComputeObserved();

  // Cross-check one set against direct computation.
  stats::ScoreEngine engine(stats::Phenotype::Gaussian(expression));
  double expected = 0.0;
  for (std::uint32_t snp : dataset.sets[1].snps) {
    const auto u = engine.Contributions(dataset.genotypes.by_snp[snp]);
    double score = 0.0;
    for (double v : u) score += v;
    expected += dataset.weights[snp] * dataset.weights[snp] * score * score;
  }
  EXPECT_NEAR(observed.at(1), expected, 1e-9);
}

}  // namespace
}  // namespace ss::core
