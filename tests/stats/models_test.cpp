// Gaussian and Binomial score models, plus the model-generic ScoreEngine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "stats/cox_score.hpp"
#include "stats/linear_score.hpp"
#include "stats/logistic_score.hpp"
#include "stats/score_engine.hpp"
#include "support/distributions.hpp"
#include "support/rng.hpp"

namespace ss::stats {
namespace {

TEST(LinearScoreTest, MeanComputed) {
  QuantitativeData data;
  data.value = {1.0, 2.0, 3.0, 6.0};
  EXPECT_DOUBLE_EQ(data.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(QuantitativeData{}.Mean(), 0.0);
}

TEST(LinearScoreTest, ContributionsAreGenotypeTimesResidual) {
  QuantitativeData data;
  data.value = {1.0, 3.0};  // mean 2
  const auto u = LinearScoreContributions(data, 2.0, {1, 2});
  EXPECT_DOUBLE_EQ(u[0], 1.0 * (1.0 - 2.0));
  EXPECT_DOUBLE_EQ(u[1], 2.0 * (3.0 - 2.0));
}

TEST(LinearScoreTest, ScoreSumsToZeroForConstantGenotype) {
  // Σ (Y_i - Ȳ) = 0, so any constant genotype scores exactly zero.
  Rng rng(3);
  QuantitativeData data;
  for (int i = 0; i < 100; ++i) data.value.push_back(SampleNormal(rng) * 5.0);
  const double mean = data.Mean();
  const auto u =
      LinearScoreContributions(data, mean, std::vector<std::uint8_t>(100, 2));
  EXPECT_NEAR(std::accumulate(u.begin(), u.end(), 0.0), 0.0, 1e-9);
}

TEST(LogisticScoreTest, CaseRate) {
  BinaryData data;
  data.value = {1, 0, 1, 1};
  EXPECT_DOUBLE_EQ(data.CaseRate(), 0.75);
  EXPECT_DOUBLE_EQ(BinaryData{}.CaseRate(), 0.0);
}

TEST(LogisticScoreTest, ContributionsAreGenotypeTimesResidual) {
  BinaryData data;
  data.value = {1, 0};
  const auto u = LogisticScoreContributions(data, 0.5, {2, 1});
  EXPECT_DOUBLE_EQ(u[0], 2.0 * 0.5);
  EXPECT_DOUBLE_EQ(u[1], 1.0 * -0.5);
}

TEST(LogisticScoreTest, ScoreZeroForConstantGenotype) {
  Rng rng(4);
  BinaryData data;
  for (int i = 0; i < 200; ++i) {
    data.value.push_back(SampleBernoulli(rng, 0.4) ? 1 : 0);
  }
  const auto u = LogisticScoreContributions(
      data, data.CaseRate(), std::vector<std::uint8_t>(200, 1));
  EXPECT_NEAR(std::accumulate(u.begin(), u.end(), 0.0), 0.0, 1e-9);
}

// -- Phenotype / ScoreEngine --------------------------------------------------

TEST(PhenotypeTest, FactoriesSetModel) {
  EXPECT_EQ(Phenotype::Cox({}).model, ScoreModel::kCox);
  EXPECT_EQ(Phenotype::Gaussian({}).model, ScoreModel::kGaussian);
  EXPECT_EQ(Phenotype::Binomial({}).model, ScoreModel::kBinomial);
}

TEST(PhenotypeTest, ModelNames) {
  EXPECT_STREQ(ScoreModelName(ScoreModel::kCox), "Cox");
  EXPECT_STREQ(ScoreModelName(ScoreModel::kGaussian), "Gaussian");
  EXPECT_STREQ(ScoreModelName(ScoreModel::kBinomial), "Binomial");
}

TEST(PhenotypeTest, NCountsActiveArm) {
  QuantitativeData q;
  q.value = {1.0, 2.0, 3.0};
  EXPECT_EQ(Phenotype::Gaussian(q).n(), 3u);
  BinaryData b;
  b.value = {1};
  EXPECT_EQ(Phenotype::Binomial(b).n(), 1u);
}

TEST(PhenotypeTest, PermutedGaussian) {
  QuantitativeData q;
  q.value = {10.0, 20.0, 30.0};
  const Phenotype p = Phenotype::Gaussian(q).Permuted({2, 0, 1});
  EXPECT_EQ(p.quantitative.value, (std::vector<double>{30.0, 10.0, 20.0}));
}

TEST(PhenotypeTest, PermutedBinomial) {
  BinaryData b;
  b.value = {1, 0, 0};
  const Phenotype p = Phenotype::Binomial(b).Permuted({1, 2, 0});
  EXPECT_EQ(p.binary.value, (std::vector<std::uint8_t>{0, 0, 1}));
}

TEST(ScoreEngineTest, CoxMatchesDirectComputation) {
  Rng rng(7);
  SurvivalData data;
  std::vector<std::uint8_t> g;
  for (int i = 0; i < 80; ++i) {
    data.time.push_back(SampleExponential(rng, 0.1));
    data.event.push_back(SampleBernoulli(rng, 0.85) ? 1 : 0);
    g.push_back(static_cast<std::uint8_t>(SampleBinomial(rng, 2, 0.3)));
  }
  const ScoreEngine engine(Phenotype::Cox(data));
  const RiskSetIndex index(data);
  EXPECT_EQ(engine.Contributions(g), CoxScoreContributions(data, index, g));
}

TEST(ScoreEngineTest, GaussianMatchesDirectComputation) {
  QuantitativeData data;
  data.value = {1.0, 4.0, 2.0, 5.0};
  const ScoreEngine engine(Phenotype::Gaussian(data));
  EXPECT_EQ(engine.Contributions({0, 1, 2, 1}),
            LinearScoreContributions(data, data.Mean(), {0, 1, 2, 1}));
}

TEST(ScoreEngineTest, BinomialMatchesDirectComputation) {
  BinaryData data;
  data.value = {1, 0, 1, 0, 0};
  const ScoreEngine engine(Phenotype::Binomial(data));
  EXPECT_EQ(engine.Contributions({2, 2, 0, 1, 1}),
            LogisticScoreContributions(data, data.CaseRate(), {2, 2, 0, 1, 1}));
}

TEST(ScoreEngineTest, MoveOnlyButBroadcastable) {
  // The engine is moved (not copied) into shared ownership — compile-time
  // behaviour exercised by the pipeline; here we just verify move works.
  SurvivalData data;
  data.time = {1.0, 2.0};
  data.event = {1, 1};
  ScoreEngine engine(Phenotype::Cox(data));
  ScoreEngine moved = std::move(engine);
  EXPECT_EQ(moved.n(), 2u);
}

// ScoreEngine::ContributionsInto is the buffer form the fused Algorithm 2
// pass scores with; it must reproduce Contributions bit for bit, and so
// must the ascending sum U_j = Σ_i U_ij that pass takes of it, even when
// the caller's buffers are dirty and sized for another SNP.

bool BitEqual(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

/// 12 SNPs over n patients: random Binomial(2, p) rows at several allele
/// frequencies plus an all-0 and an all-2 row.
std::vector<std::vector<std::uint8_t>> TestSnps(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> snps;
  snps.emplace_back(n, 0);
  snps.emplace_back(n, 2);
  for (int j = 0; j < 10; ++j) {
    std::vector<std::uint8_t> g(n);
    for (std::uint8_t& dosage : g) {
      dosage = static_cast<std::uint8_t>(SampleBinomial(rng, 2, 0.05 + 0.09 * j));
    }
    snps.push_back(std::move(g));
  }
  return snps;
}

void ExpectBufferFormBitwise(const ScoreEngine& engine, std::uint64_t seed) {
  // One pair of buffers for every SNP, as a task uses them; both start
  // oversized and full of garbage.
  std::vector<double> scratch(3 * engine.n() + 7, -1.5);
  std::vector<double> out(2 * engine.n() + 5, 42.0);
  for (const std::vector<std::uint8_t>& g : TestSnps(engine.n(), seed)) {
    const std::vector<double> expected = engine.Contributions(g);
    engine.ContributionsInto(g, &scratch, &out);
    ASSERT_EQ(out.size(), expected.size());
    double expected_sum = 0.0;
    double out_sum = 0.0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(BitEqual(out[i], expected[i])) << "patient " << i;
      expected_sum += expected[i];
      out_sum += out[i];
    }
    EXPECT_TRUE(BitEqual(out_sum, expected_sum));
  }
}

/// Survival data on integer times 1..6, so most patients share a time.
SurvivalData TiedSurvival(std::size_t n, double event_rate,
                          std::uint64_t seed) {
  Rng rng(seed);
  SurvivalData data;
  for (std::size_t i = 0; i < n; ++i) {
    data.time.push_back(
        static_cast<double>(1 + SampleBinomial(rng, 5, 0.4)));
    data.event.push_back(SampleBernoulli(rng, event_rate) ? 1 : 0);
  }
  return data;
}

TEST(ContributionsIntoTest, CoxRiskSetWithTiedTimes) {
  ExpectBufferFormBitwise(ScoreEngine(Phenotype::Cox(TiedSurvival(97, 0.7, 3))),
                          11);
}

TEST(ContributionsIntoTest, CoxPaperFaithfulWithTiedTimes) {
  ExpectBufferFormBitwise(
      ScoreEngine(Phenotype::Cox(TiedSurvival(97, 0.7, 3)),
                  /*paper_faithful=*/true),
      11);
}

TEST(ContributionsIntoTest, CoxAllCensored) {
  for (bool paper_faithful : {false, true}) {
    SCOPED_TRACE(paper_faithful ? "paper-faithful" : "risk-set");
    ExpectBufferFormBitwise(
        ScoreEngine(Phenotype::Cox(TiedSurvival(41, 0.0, 5)), paper_faithful),
        13);
  }
}

TEST(ContributionsIntoTest, Gaussian) {
  Rng rng(17);
  QuantitativeData data;
  for (int i = 0; i < 83; ++i) data.value.push_back(SampleNormal(rng) * 3.0);
  ExpectBufferFormBitwise(ScoreEngine(Phenotype::Gaussian(data)), 19);
}

TEST(ContributionsIntoTest, Binomial) {
  Rng rng(23);
  BinaryData data;
  for (int i = 0; i < 83; ++i) {
    data.value.push_back(SampleBernoulli(rng, 0.3) ? 1 : 0);
  }
  ExpectBufferFormBitwise(ScoreEngine(Phenotype::Binomial(data)), 29);
}

}  // namespace
}  // namespace ss::stats
