#include "baseline/serial_skat.hpp"

#include <algorithm>
#include <unordered_map>

#include "stats/pvalue.hpp"
#include "stats/resampling.hpp"
#include "support/status.hpp"

namespace ss::baseline {
namespace {

void CheckInputs(const SkatInputs& inputs) {
  SS_CHECK(inputs.genotypes != nullptr);
  SS_CHECK(inputs.phenotype != nullptr);
  SS_CHECK(inputs.weights != nullptr);
  SS_CHECK(inputs.sets != nullptr);
  SS_CHECK(inputs.genotypes->num_patients == inputs.phenotype->n());
  SS_CHECK(inputs.weights->size() == inputs.genotypes->num_snps());
}

/// SKAT statistics for all sets given per-SNP marginal scores U_j.
std::vector<double> SkatFromScores(const SkatInputs& inputs,
                                   const std::vector<double>& scores) {
  std::unordered_map<std::uint32_t, double> squared;
  squared.reserve(scores.size());
  for (std::uint32_t j = 0; j < scores.size(); ++j) {
    squared[j] = scores[j] * scores[j];
  }
  std::unordered_map<std::uint32_t, double> weights;
  weights.reserve(inputs.weights->size());
  for (std::uint32_t j = 0; j < inputs.weights->size(); ++j) {
    weights[j] = (*inputs.weights)[j];
  }
  return stats::SkatStatistics(*inputs.sets, squared, weights);
}

/// Marginal scores U_j for all SNPs under `engine`'s phenotype.
std::vector<double> MarginalScores(const SkatInputs& inputs,
                                   const stats::ScoreEngine& engine) {
  const std::uint32_t m = inputs.genotypes->num_snps();
  std::vector<double> scores(m);
  for (std::uint32_t j = 0; j < m; ++j) {
    double total = 0.0;
    for (double u : engine.Contributions(inputs.genotypes->by_snp[j])) {
      total += u;
    }
    scores[j] = total;
  }
  return scores;
}

/// Algorithm 3's replicate scores for one batch of `count` Z columns, in
/// the distributed pass's factored order: per SNP j, out[j][r] =
/// Σ_l G_lj W_lr (stats::FactoredReplicateScores).
void FactoredBlockScores(const SkatInputs& inputs,
                         const stats::ScoreEngine& engine,
                         const std::vector<double>& zblock, std::size_t count,
                         std::vector<std::vector<double>>* out) {
  const stats::ScaledReplicateWeights weights =
      stats::MakeScaledReplicateWeights(engine, zblock, count);
  const std::uint32_t m = inputs.genotypes->num_snps();
  out->resize(m);
  for (std::uint32_t j = 0; j < m; ++j) {
    SS_CHECK(stats::FactoredReplicateScores(inputs.genotypes->by_snp[j],
                                            weights, &(*out)[j]));
  }
}

/// Per-set statistics of every replicate of one factored batch.
std::vector<std::vector<double>> BatchStatistics(
    const SkatInputs& inputs, const stats::ScoreEngine& engine,
    const std::vector<double>& zblock, std::size_t count) {
  std::vector<std::vector<double>> block_scores;  // [snp][replicate]
  FactoredBlockScores(inputs, engine, zblock, count, &block_scores);
  std::vector<std::vector<double>> statistics;
  statistics.reserve(count);
  std::vector<double> replicate_scores(block_scores.size());
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t j = 0; j < block_scores.size(); ++j) {
      replicate_scores[j] = block_scores[j][r];
    }
    statistics.push_back(SkatFromScores(inputs, replicate_scores));
  }
  return statistics;
}

/// Observed statistics plus the exceedance counts of `replicates`
/// Monte Carlo replicates scored in batches of `batch` Z columns.
SkatAnalysis MonteCarloAnalysis(const SkatInputs& inputs, std::uint64_t seed,
                                std::uint64_t replicates,
                                std::uint64_t batch) {
  CheckInputs(inputs);
  stats::ScoreEngine engine(*inputs.phenotype);
  SkatAnalysis analysis;
  analysis.observed = SkatFromScores(inputs, MarginalScores(inputs, engine));
  analysis.exceed_count.assign(inputs.sets->size(), 0);
  analysis.replicates = replicates;
  const std::size_t n = inputs.phenotype->n();
  for (std::uint64_t begin = 0; begin < replicates; begin += batch) {
    const std::size_t count =
        static_cast<std::size_t>(std::min(replicates, begin + batch) - begin);
    for (const std::vector<double>& statistics : BatchStatistics(
             inputs, engine, stats::MonteCarloZBlock(seed, n, begin, count),
             count)) {
      for (std::size_t k = 0; k < statistics.size(); ++k) {
        if (statistics[k] >= analysis.observed[k]) ++analysis.exceed_count[k];
      }
    }
  }
  return analysis;
}

}  // namespace

double SkatAnalysis::PValue(std::size_t k) const {
  return stats::EmpiricalPValue(exceed_count[k], replicates);
}

SkatAnalysis SerialObserved(const SkatInputs& inputs) {
  CheckInputs(inputs);
  stats::ScoreEngine engine(*inputs.phenotype);
  SkatAnalysis analysis;
  analysis.observed = SkatFromScores(inputs, MarginalScores(inputs, engine));
  analysis.exceed_count.assign(inputs.sets->size(), 0);
  return analysis;
}

SkatAnalysis SerialPermutation(const SkatInputs& inputs, std::uint64_t seed,
                               std::uint64_t replicates) {
  SkatAnalysis analysis = SerialObserved(inputs);
  analysis.replicates = replicates;
  const stats::PermutationPlan plan(seed, inputs.phenotype->n(), replicates);
  for (std::uint64_t b = 0; b < replicates; ++b) {
    // Full recomputation per replicate: new phenotype ordering, new
    // SNP-invariant structures, new scores — exactly Algorithm 2.
    const stats::Phenotype permuted = inputs.phenotype->Permuted(plan.Get(b));
    stats::ScoreEngine engine(permuted);
    const std::vector<double> statistics =
        SkatFromScores(inputs, MarginalScores(inputs, engine));
    for (std::size_t k = 0; k < statistics.size(); ++k) {
      if (statistics[k] >= analysis.observed[k]) ++analysis.exceed_count[k];
    }
  }
  return analysis;
}

SkatAnalysis SerialMonteCarlo(const SkatInputs& inputs, std::uint64_t seed,
                              std::uint64_t replicates) {
  // One Z column per replicate: the per-replicate multipliers of
  // stats::MonteCarloWeights, in the one-column MonteCarloZBlock layout.
  return MonteCarloAnalysis(inputs, seed, replicates, 1);
}

std::vector<std::vector<double>> SerialMonteCarloReplicateStatistics(
    const SkatInputs& inputs, std::uint64_t seed, std::uint64_t replicates) {
  CheckInputs(inputs);
  stats::ScoreEngine engine(*inputs.phenotype);
  const stats::MonteCarloWeights mc(seed, inputs.phenotype->n(), replicates);
  std::vector<std::vector<double>> statistics;
  statistics.reserve(replicates);
  for (std::uint64_t b = 0; b < replicates; ++b) {
    statistics.push_back(BatchStatistics(inputs, engine, mc.Get(b), 1).front());
  }
  return statistics;
}

SkatAnalysis SerialMonteCarloBatched(const SkatInputs& inputs,
                                     std::uint64_t seed,
                                     std::uint64_t replicates,
                                     std::uint64_t batch_size) {
  return MonteCarloAnalysis(inputs, seed, replicates,
                            std::max<std::uint64_t>(1, batch_size));
}

}  // namespace ss::baseline
