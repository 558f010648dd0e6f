// Statistical-equivalence battery for the factored Monte Carlo scores.
//
// Monte Carlo replicates are scored as Σ_l G_lj w_l (per-replicate
// residual weights) instead of Σ_i Z_i U_ij over the contributions. The
// two sums are the same number added in a different order, so on every
// test cohort × Cox/Gaussian/Binomial each replicate score must agree
// with stats::BatchedReplicateScores on U within 1e-13 × Σ_i |Z_ib U_ij|,
// and the SKAT exceedance counts of the two paths must be equal. The
// tolerance is fixed; docs/KERNELS.md records the largest deviation seen.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/serial_skat.hpp"
#include "stats/resampling.hpp"

namespace ss::baseline {
namespace {

constexpr double kTolerance = 1e-13;
constexpr std::size_t kReplicates = 64;

/// The cohorts the pipeline, oracle, soak and determinism tests run on.
std::vector<simdata::GeneratorConfig> Cohorts() {
  const auto cohort = [](std::uint32_t patients, std::uint32_t snps,
                         std::uint32_t sets, std::uint64_t seed) {
    simdata::GeneratorConfig config;
    config.num_patients = patients;
    config.num_snps = snps;
    config.num_sets = sets;
    config.seed = seed;
    return config;
  };
  return {cohort(60, 50, 5, 33),   cohort(80, 60, 6, 21),
          cohort(40, 60, 6, 7),    cohort(60, 48, 6, 20160521),
          cohort(80, 120, 12, 45), cohort(120, 400, 12, 2016)};
}

/// Cox on the cohort's survival data, Gaussian on log survival time,
/// Binomial on the event indicator.
std::vector<stats::Phenotype> Phenotypes(const simdata::SyntheticDataset& d) {
  stats::QuantitativeData quantitative;
  stats::BinaryData binary;
  for (std::size_t i = 0; i < d.survival.n(); ++i) {
    quantitative.value.push_back(std::log(d.survival.time[i]));
    binary.value.push_back(d.survival.event[i]);
  }
  return {stats::Phenotype::Cox(d.survival),
          stats::Phenotype::Gaussian(quantitative),
          stats::Phenotype::Binomial(binary)};
}

std::vector<double> SetStatistics(const simdata::SyntheticDataset& d,
                                  const std::vector<double>& scores) {
  std::unordered_map<std::uint32_t, double> squared;
  std::unordered_map<std::uint32_t, double> weights;
  for (std::uint32_t j = 0; j < scores.size(); ++j) {
    squared[j] = scores[j] * scores[j];
    weights[j] = d.weights[j];
  }
  return stats::SkatStatistics(d.sets, squared, weights);
}

TEST(FactoredEquivalenceBattery, ReplicateScoresAndExceedancesMatchUPath) {
  double worst = 0.0;
  for (const simdata::GeneratorConfig& config : Cohorts()) {
    const simdata::SyntheticDataset dataset = simdata::Generate(config);
    for (const stats::Phenotype& phenotype : Phenotypes(dataset)) {
      SCOPED_TRACE(std::string(stats::ScoreModelName(phenotype.model)) +
                   " cohort seed " + std::to_string(config.seed));
      const stats::ScoreEngine engine(phenotype);
      const std::size_t n = phenotype.n();
      const std::vector<double> zblock =
          stats::MonteCarloZBlock(config.seed, n, 0, kReplicates);
      const stats::ScaledReplicateWeights weights =
          stats::MakeScaledReplicateWeights(engine, zblock, kReplicates);

      const std::uint32_t m = dataset.genotypes.num_snps();
      std::vector<double> observed(m);
      // [replicate][snp] for the two paths.
      std::vector<std::vector<double>> by_u(kReplicates,
                                            std::vector<double>(m));
      std::vector<std::vector<double>> by_g(kReplicates,
                                            std::vector<double>(m));
      std::vector<double> u_scores;
      std::vector<double> g_scores;
      for (std::uint32_t j = 0; j < m; ++j) {
        const std::vector<std::uint8_t>& dosages = dataset.genotypes.by_snp[j];
        const std::vector<double> u = engine.Contributions(dosages);
        observed[j] = 0.0;
        for (double contribution : u) observed[j] += contribution;
        stats::BatchedReplicateScores(u, zblock.data(), kReplicates,
                                      &u_scores);
        ASSERT_TRUE(
            stats::FactoredReplicateScores(dosages, weights, &g_scores));
        for (std::size_t r = 0; r < kReplicates; ++r) {
          double magnitude = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            magnitude += std::fabs(zblock[i * kReplicates + r] * u[i]);
          }
          const double difference = std::fabs(g_scores[r] - u_scores[r]);
          ASSERT_LE(difference, kTolerance * magnitude)
              << "snp " << j << " replicate " << r;
          if (magnitude > 0.0) worst = std::max(worst, difference / magnitude);
          by_u[r][j] = u_scores[r];
          by_g[r][j] = g_scores[r];
        }
      }

      const std::vector<double> observed_sets =
          SetStatistics(dataset, observed);
      std::vector<std::uint64_t> exceed_u(dataset.sets.size(), 0);
      std::vector<std::uint64_t> exceed_g(dataset.sets.size(), 0);
      for (std::size_t r = 0; r < kReplicates; ++r) {
        const std::vector<double> stat_u = SetStatistics(dataset, by_u[r]);
        const std::vector<double> stat_g = SetStatistics(dataset, by_g[r]);
        for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
          exceed_u[k] += stat_u[k] >= observed_sets[k] ? 1 : 0;
          exceed_g[k] += stat_g[k] >= observed_sets[k] ? 1 : 0;
        }
      }
      EXPECT_EQ(exceed_g, exceed_u);
    }
  }
  std::printf("[factored-battery] largest |factored - U| / sum|Z U| = %.3g\n",
              worst);
}

TEST(FactoredEquivalenceBattery, SerialOracleCountsMatchUPath) {
  // The serial oracle scores replicates in the factored order; its
  // exceedance counts equal a count over U-path replicate scores.
  for (const simdata::GeneratorConfig& config : Cohorts()) {
    const simdata::SyntheticDataset dataset = simdata::Generate(config);
    for (const stats::Phenotype& phenotype : Phenotypes(dataset)) {
      SCOPED_TRACE(std::string(stats::ScoreModelName(phenotype.model)) +
                   " cohort seed " + std::to_string(config.seed));
      const SkatInputs inputs{&dataset.genotypes, &phenotype,
                              &dataset.weights, &dataset.sets};
      const SkatAnalysis analysis = SerialMonteCarlo(inputs, 5, 32);
      const stats::ScoreEngine engine(phenotype);
      const stats::MonteCarloWeights mc(5, phenotype.n(), 32);
      std::vector<std::uint64_t> exceed(dataset.sets.size(), 0);
      std::vector<double> scores(dataset.genotypes.num_snps());
      std::vector<std::vector<double>> contributions;
      for (const auto& dosages : dataset.genotypes.by_snp) {
        contributions.push_back(engine.Contributions(dosages));
      }
      for (std::size_t b = 0; b < 32; ++b) {
        for (std::size_t j = 0; j < scores.size(); ++j) {
          scores[j] =
              stats::MonteCarloReplicateScore(contributions[j], mc.Get(b));
        }
        const std::vector<double> statistics = SetStatistics(dataset, scores);
        for (std::size_t k = 0; k < exceed.size(); ++k) {
          exceed[k] += statistics[k] >= analysis.observed[k] ? 1 : 0;
        }
      }
      EXPECT_EQ(analysis.exceed_count, exceed);
    }
  }
}

}  // namespace
}  // namespace ss::baseline
