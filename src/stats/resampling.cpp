#include "stats/resampling.hpp"

#include <algorithm>

#include "stats/kernels/kernels.hpp"
#include "support/distributions.hpp"
#include "support/status.hpp"

namespace ss::stats {

PermutationPlan::PermutationPlan(std::uint64_t seed, std::size_t n,
                                 std::size_t replicates)
    : n_(n) {
  permutations_.reserve(replicates);
  Rng root(seed);
  for (std::size_t b = 0; b < replicates; ++b) {
    Rng rng = root.Split(b + 1);
    permutations_.push_back(SamplePermutation(rng, n));
  }
}

MonteCarloWeights::MonteCarloWeights(std::uint64_t seed, std::size_t n,
                                     std::size_t replicates)
    : n_(n) {
  weights_.reserve(replicates);
  Rng root(seed);
  for (std::size_t b = 0; b < replicates; ++b) {
    Rng rng = root.Split(b + 1);
    weights_.push_back(SampleNormalVector(rng, n));
  }
}

double MonteCarloReplicateScore(const std::vector<double>& contributions,
                                const std::vector<double>& multipliers) {
  SS_CHECK(contributions.size() == multipliers.size());
  double score = 0.0;
  for (std::size_t i = 0; i < contributions.size(); ++i) {
    score += multipliers[i] * contributions[i];
  }
  return score;
}

std::vector<double> MonteCarloZBlock(std::uint64_t seed, std::size_t n,
                                     std::uint64_t first, std::size_t count) {
  std::vector<double> block(n * count);
  Rng root(seed);
  for (std::size_t r = 0; r < count; ++r) {
    // Replicate r's draws come from the same splittable stream as the
    // per-replicate path; only the storage is transposed to patient-major
    // so the MAC kernels read each patient's `count` multipliers as one
    // contiguous vector (no transpose or strided loads on the hot path).
    Rng rng = root.Split(first + r + 1);
    const std::vector<double> row = SampleNormalVector(rng, n);
    for (std::size_t i = 0; i < n; ++i) block[i * count + r] = row[i];
  }
  return block;
}

void BatchedReplicateScores(const std::vector<double>& contributions,
                            const double* zblock, std::size_t count,
                            std::vector<double>* out) {
  const std::size_t n = contributions.size();
  out->resize(count);
  // The blocked scalar MAC moved to kernels::internal::BatchedMacScalar;
  // the dispatch table selects it or a bitwise-identical SIMD variant.
  kernels::ActiveKernels().batched_mac(contributions.data(), n, zblock, count,
                                       out->data());
}

ScaledReplicateWeights MakeScaledReplicateWeights(
    const ScoreEngine& engine, const std::vector<double>& zblock,
    std::size_t count) {
  const std::size_t n = engine.n();
  SS_CHECK(zblock.size() == n * count);
  ScaledReplicateWeights weights;
  weights.n = n;
  weights.count = count;
  weights.scaled.reserve(2 * n * count);
  engine.ReplicateWeightsInto(zblock.data(), count, &weights.scaled);
  const std::size_t block = n * count;
  weights.scaled.resize(2 * block);
  for (std::size_t k = 0; k < block; ++k) {
    weights.scaled[block + k] = 2.0 * weights.scaled[k];
  }
  return weights;
}

bool FactoredReplicateScores(const std::vector<std::uint8_t>& dosages,
                             const ScaledReplicateWeights& weights,
                             std::vector<double>* out) {
  SS_CHECK(dosages.size() == weights.n);
  if (std::any_of(dosages.begin(), dosages.end(),
                  [](std::uint8_t d) { return d > 2; })) {
    return false;
  }
  out->resize(weights.count);
  kernels::ActiveKernels().genotype_mac(dosages.data(), weights.n,
                                        weights.scaled.data(), weights.count,
                                        out->data());
  return true;
}

}  // namespace ss::stats
