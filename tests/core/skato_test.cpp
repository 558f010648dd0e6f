// Distributed SKAT-O: cross-checks the pipeline's per-set (SKAT, burden)
// pairs against direct computation and exercises the resampling driver.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/record_traits.hpp"
#include "core/sparkscore.hpp"
#include "stats/burden.hpp"
#include "stats/resampling.hpp"
#include "support/distributions.hpp"

namespace ss::core {
namespace {

simdata::SyntheticDataset SmallDataset(std::uint64_t seed = 61) {
  simdata::GeneratorConfig config;
  config.num_patients = 60;
  config.num_snps = 40;
  config.num_sets = 5;
  config.seed = seed;
  return simdata::Generate(config);
}

engine::EngineContext::Options LocalOptions() {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 4;
  return options;
}

/// Direct (SKAT, burden) pair for one set.
std::pair<double, double> DirectPair(const simdata::SyntheticDataset& dataset,
                                     const stats::SnpSet& set) {
  stats::ScoreEngine engine(stats::Phenotype::Cox(dataset.survival));
  double skat = 0.0;
  double weighted_sum = 0.0;
  for (std::uint32_t snp : set.snps) {
    const auto u = engine.Contributions(dataset.genotypes.by_snp[snp]);
    const double score = std::accumulate(u.begin(), u.end(), 0.0);
    const double w = dataset.weights[snp];
    skat += w * w * score * score;
    weighted_sum += w * score;
  }
  return {skat, weighted_sum * weighted_sum};
}

/// The observed statistics only: SKAT-O with B = 0.
SkatOResult ObservedSkatO(SkatPipeline& pipeline) {
  return RunResampling(pipeline, {ResamplingMethod::kSkatO, 0}).skato;
}

TEST(SkatOPipelineTest, ObservedPairMatchesDirect) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const SkatOResult observed = ObservedSkatO(pipeline);
  ASSERT_EQ(observed.by_set.size(), dataset.sets.size());
  for (const stats::SnpSet& set : dataset.sets) {
    const auto [skat, burden] = DirectPair(dataset, set);
    EXPECT_NEAR(observed.by_set.at(set.id).skat, skat, 1e-9)
        << "set " << set.id;
    EXPECT_NEAR(observed.by_set.at(set.id).burden, burden, 1e-9)
        << "set " << set.id;
  }
}

TEST(SkatOPipelineTest, SkatComponentMatchesComputeObserved) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const SetScores skat_only = pipeline.ComputeObserved();
  const SkatOResult observed = ObservedSkatO(pipeline);
  for (const auto& [set_id, score] : skat_only) {
    EXPECT_NEAR(observed.by_set.at(set_id).skat, score, 1e-9);
  }
}

TEST(SkatOPipelineTest, SkatComponentBitwiseEqualsMonteCarloObserved) {
  // Both observed passes are the Z = 1 score block through the canonical
  // fold, so SKAT-O's SKAT component is the Monte Carlo statistic exactly.
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const SkatOResult skato = ObservedSkatO(pipeline);
  const ResamplingResult monte_carlo =
      RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 0}).scores;
  ASSERT_EQ(skato.by_set.size(), monte_carlo.observed.size());
  for (const auto& [set_id, score] : monte_carlo.observed) {
    EXPECT_EQ(skato.by_set.at(set_id).skat, score) << "set " << set_id;
  }
}

TEST(SkatOPipelineTest, ReplicatePairMatchesDirect) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = 91;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);

  // Replicate 0's one-column Z block is MonteCarloWeights::Get(0).
  const stats::MonteCarloWeights weights(config.seed, dataset.survival.n(), 1);
  const auto block = pipeline.ComputeMonteCarloScoreBlock(
      stats::MonteCarloZBlock(config.seed, dataset.survival.n(), 0, 1), 1);

  stats::ScoreEngine engine(stats::Phenotype::Cox(dataset.survival));
  for (const stats::SnpSet& set : dataset.sets) {
    double skat = 0.0;
    double weighted_sum = 0.0;
    double block_skat = 0.0;
    double block_sum = 0.0;
    for (std::uint32_t snp : set.snps) {
      const auto u = engine.Contributions(dataset.genotypes.by_snp[snp]);
      const double score = stats::MonteCarloReplicateScore(u, weights.Get(0));
      const double block_score = block.at(snp)[0];
      const double w = dataset.weights[snp];
      skat += w * w * score * score;
      weighted_sum += w * score;
      block_skat += w * w * block_score * block_score;
      block_sum += w * block_score;
    }
    EXPECT_NEAR(block_skat, skat, 1e-9);
    EXPECT_NEAR(block_sum * block_sum, weighted_sum * weighted_sum, 1e-9);
  }
}

TEST(SkatOMethodTest, PValuesInRangeAndRanked) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const SkatOResult result = RunResampling(pipeline, {ResamplingMethod::kSkatO, 49}).skato;
  EXPECT_EQ(result.replicates, 49u);
  ASSERT_EQ(result.by_set.size(), dataset.sets.size());
  for (const auto& [set_id, per_set] : result.by_set) {
    EXPECT_GE(per_set.skat, 0.0);
    EXPECT_GE(per_set.burden, 0.0);
    EXPECT_GT(per_set.pvalue, 0.0);
    EXPECT_LE(per_set.pvalue, 1.0);
  }
  const auto ranked = result.RankedPValues();
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].second, ranked[i].second);
  }
}

TEST(SkatOMethodTest, DeterministicInSeed) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  PipelineConfig config;
  config.seed = 13;
  engine::EngineContext ctx1(LocalOptions());
  engine::EngineContext ctx2(LocalOptions());
  SkatPipeline p1 = SkatPipeline::FromMemory(ctx1, dataset, config);
  SkatPipeline p2 = SkatPipeline::FromMemory(ctx2, dataset, config);
  const SkatOResult a = RunResampling(p1, {ResamplingMethod::kSkatO, 20}).skato;
  const SkatOResult b = RunResampling(p2, {ResamplingMethod::kSkatO, 20}).skato;
  for (const auto& [set_id, per_set] : a.by_set) {
    EXPECT_DOUBLE_EQ(per_set.pvalue, b.by_set.at(set_id).pvalue);
  }
}

TEST(SkatOMethodTest, DetectsAlignedBurdenSignal) {
  // Plant aligned positive effects in one set's SNPs by rebuilding the
  // survival times so carriers fail earlier on all member SNPs.
  simdata::SyntheticDataset dataset = SmallDataset(62);
  const stats::SnpSet& target = dataset.sets[2];
  const std::size_t causal = std::min<std::size_t>(3, target.snps.size());
  Rng rng(17);
  for (std::size_t i = 0; i < dataset.survival.n(); ++i) {
    double dosage = 0.0;
    for (std::size_t c = 0; c < causal; ++c) {
      dosage += dataset.genotypes.by_snp[target.snps[c]][i];
    }
    dataset.survival.time[i] =
        SampleExponential(rng, (1.0 / 12.0) * std::exp(0.9 * dosage));
    dataset.survival.event[i] = SampleBernoulli(rng, 0.85) ? 1 : 0;
  }
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const SkatOResult result = RunResampling(pipeline, {ResamplingMethod::kSkatO, 99}).skato;
  EXPECT_EQ(result.RankedPValues().front().first, target.id);
}

}  // namespace
}  // namespace ss::core
