// The factored Monte Carlo score Σ_l G_lj w_l against its definition
// Σ_i Z_i U_ij: Cox weights against the O(n²) brute-force contributions
// (ties and censoring included), and the GLM weights bit for bit against
// the contributions path.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "stats/cox_score.hpp"
#include "stats/resampling.hpp"
#include "stats/score_engine.hpp"
#include "support/rng.hpp"

namespace ss::stats {
namespace {

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::vector<std::uint8_t> RandomDosages(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> dosages(n);
  for (std::uint8_t& d : dosages) {
    d = static_cast<std::uint8_t>(rng.NextBounded(3));
  }
  return dosages;
}

/// n = 60 patients: 27 of them share nine tied times (three each), the
/// rest have distinct times; about a third are censored.
SurvivalData TiedCensoredCohort() {
  Rng rng(20160601);
  SurvivalData data;
  for (std::size_t i = 0; i < 60; ++i) {
    data.time.push_back(i < 27 ? 1.0 + static_cast<double>(i % 9)
                               : 0.5 + rng.NextDouble() * 12.0);
    data.event.push_back(rng.NextBounded(3) != 0 ? 1 : 0);
  }
  return data;
}

TEST(FactoredScoresTest, CoxMatchesBruteForceWithTiesAndCensoring) {
  const SurvivalData data = TiedCensoredCohort();
  const std::size_t n = data.n();
  constexpr std::size_t kCount = 7;
  const std::vector<double> zblock = MonteCarloZBlock(11, n, 0, kCount);
  Rng rng(20160602);
  for (bool faithful : {false, true}) {
    const ScoreEngine engine(Phenotype::Cox(data), faithful);
    const ScaledReplicateWeights weights =
        MakeScaledReplicateWeights(engine, zblock, kCount);
    for (int snp = 0; snp < 20; ++snp) {
      const std::vector<std::uint8_t> dosages = RandomDosages(rng, n);
      const std::vector<double> u = CoxScoreContributionsNaive(data, dosages);
      std::vector<double> factored;
      ASSERT_TRUE(FactoredReplicateScores(dosages, weights, &factored));
      ASSERT_EQ(factored.size(), kCount);
      for (std::size_t r = 0; r < kCount; ++r) {
        double direct = 0.0;
        double magnitude = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          direct += zblock[i * kCount + r] * u[i];
          magnitude += std::fabs(zblock[i * kCount + r] * u[i]);
        }
        EXPECT_LE(std::fabs(factored[r] - direct), 1e-13 * magnitude)
            << "snp " << snp << " r " << r << " faithful " << faithful;
      }
    }
  }
}

TEST(FactoredScoresTest, GlmScoresBitwiseEqualTheContributionsPath) {
  // For dosages 0-2, z·(G·r) = G·(z·r) exactly (a zero dosage adds a
  // signed zero, and doubling is exact), and both paths add patients in
  // ascending order, so the factored scores are the U path's bits.
  Rng rng(20160603);
  const std::size_t n = 75;
  QuantitativeData quantitative;
  BinaryData binary;
  for (std::size_t i = 0; i < n; ++i) {
    quantitative.value.push_back(rng.NextDouble() * 10.0 - 3.0);
    binary.value.push_back(static_cast<std::uint8_t>(rng.NextBounded(2)));
  }
  constexpr std::size_t kCount = 13;
  const std::vector<double> zblock = MonteCarloZBlock(12, n, 5, kCount);
  for (const Phenotype& phenotype :
       {Phenotype::Gaussian(quantitative), Phenotype::Binomial(binary)}) {
    const ScoreEngine engine(phenotype);
    const ScaledReplicateWeights weights =
        MakeScaledReplicateWeights(engine, zblock, kCount);
    for (int snp = 0; snp < 30; ++snp) {
      const std::vector<std::uint8_t> dosages = RandomDosages(rng, n);
      std::vector<double> expected;
      BatchedReplicateScores(engine.Contributions(dosages), zblock.data(),
                             kCount, &expected);
      std::vector<double> factored;
      ASSERT_TRUE(FactoredReplicateScores(dosages, weights, &factored));
      for (std::size_t r = 0; r < kCount; ++r) {
        EXPECT_EQ(Bits(factored[r]), Bits(expected[r]))
            << ScoreModelName(phenotype.model) << " snp " << snp << " r " << r;
      }
    }
  }
}

TEST(FactoredScoresTest, ColumnDependsOnlyOnItsMultipliers) {
  // Replicate b's weights and scores are the same bits whether it is
  // scored alone or inside a batch, which is what makes results
  // invariant to the batch size.
  const SurvivalData data = TiedCensoredCohort();
  const ScoreEngine engine(Phenotype::Cox(data));
  const std::size_t n = data.n();
  constexpr std::size_t kCount = 9;
  const ScaledReplicateWeights batch = MakeScaledReplicateWeights(
      engine, MonteCarloZBlock(13, n, 0, kCount), kCount);
  Rng rng(20160604);
  const std::vector<std::uint8_t> dosages = RandomDosages(rng, n);
  std::vector<double> batched;
  ASSERT_TRUE(FactoredReplicateScores(dosages, batch, &batched));
  for (std::size_t b = 0; b < kCount; ++b) {
    const ScaledReplicateWeights alone =
        MakeScaledReplicateWeights(engine, MonteCarloZBlock(13, n, b, 1), 1);
    for (std::size_t l = 0; l < n; ++l) {
      ASSERT_EQ(Bits(alone.scaled[l]), Bits(batch.scaled[l * kCount + b]));
    }
    std::vector<double> single;
    ASSERT_TRUE(FactoredReplicateScores(dosages, alone, &single));
    EXPECT_EQ(Bits(single[0]), Bits(batched[b])) << "b " << b;
  }
}

TEST(FactoredScoresTest, DosageAboveTwoIsRefused) {
  const SurvivalData data = TiedCensoredCohort();
  const ScoreEngine engine(Phenotype::Cox(data));
  const ScaledReplicateWeights weights =
      MakeScaledReplicateWeights(engine, MonteCarloZBlock(14, data.n(), 0, 2), 2);
  std::vector<std::uint8_t> dosages(data.n(), 1);
  dosages[17] = 3;
  std::vector<double> scores;
  EXPECT_FALSE(FactoredReplicateScores(dosages, weights, &scores));
}

}  // namespace
}  // namespace ss::stats
