// Resampling plans: the randomness of Algorithms 2 and 3, generated up
// front so replicate b is a pure function of (seed, b) — independent of
// how replicates are scheduled across the cluster.
//
//   * PermutationPlan: B random shufflings of the phenotype pairs
//     (Algorithm 2 step 2).
//   * MonteCarloWeights: B x n standard-normal multipliers Z_i (Lin 2005;
//     Algorithm 3 step 3), applied as Ũ_j = Σ_i Z_i U_ij — which the
//     factored form below evaluates as Σ_l G_lj w_l from the genotypes.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/score_engine.hpp"

namespace ss::stats {

/// B permutations of 0..n-1.
class PermutationPlan {
 public:
  PermutationPlan(std::uint64_t seed, std::size_t n, std::size_t replicates);

  std::size_t replicates() const { return permutations_.size(); }
  std::size_t n() const { return n_; }

  /// Permutation for replicate b (deterministic in (seed, b)).
  const std::vector<std::uint32_t>& Get(std::size_t b) const {
    return permutations_[b];
  }

 private:
  std::size_t n_;
  std::vector<std::vector<std::uint32_t>> permutations_;
};

/// B vectors of n standard-normal Monte Carlo multipliers.
class MonteCarloWeights {
 public:
  MonteCarloWeights(std::uint64_t seed, std::size_t n, std::size_t replicates);

  std::size_t replicates() const { return weights_.size(); }
  std::size_t n() const { return n_; }

  const std::vector<double>& Get(std::size_t b) const { return weights_[b]; }

 private:
  std::size_t n_;
  std::vector<std::vector<double>> weights_;
};

/// Ũ_j for one replicate: dot product of the multipliers with the observed
/// per-patient contributions — the O(n) inner loop that makes Algorithm 3
/// cheap compared to recomputing scores from scratch.
double MonteCarloReplicateScore(const std::vector<double>& contributions,
                                const std::vector<double>& multipliers);

/// Contiguous patient-major block of standard-normal multipliers for
/// replicates [first, first+count): replicate r's multiplier for patient
/// i sits at [i*count + r], i.e. each patient's `count` multipliers are
/// adjacent. That layout is what lets the batched MAC kernels load a
/// vector of replicate lanes with one contiguous read instead of a
/// transpose. Each replicate is drawn from the same splittable stream as
/// MonteCarloWeights — Rng(seed).Split(b+1) — so replicate b's
/// multipliers are bitwise identical for every partitioning of the
/// replicate range into batches.
std::vector<double> MonteCarloZBlock(std::uint64_t seed, std::size_t n,
                                     std::uint64_t first, std::size_t count);

/// The batched form of MonteCarloReplicateScore: one pass over the
/// contributions computes Ũ_jb for all `count` replicates of a Z block
/// (MonteCarloZBlock layout), writing out[r] = Σ_i Z[i*count+r] · U_i. The
/// kernel is blocked over replicates so each contribution load feeds
/// several accumulators, but every accumulator still sums over i in
/// ascending order — out[r] is bitwise equal to
/// MonteCarloReplicateScore(contributions, row r).
void BatchedReplicateScores(const std::vector<double>& contributions,
                            const double* zblock, std::size_t count,
                            std::vector<double>* out);

/// One batch's residual weights (ScoreEngine::ReplicateWeightsInto),
/// prescaled for the factored kernel: `scaled` stacks two patient-major
/// n×count blocks, W and then 2·W. Multiplying by 2 is exact, so a
/// dosage-2 row is bitwise 2·w.
struct ScaledReplicateWeights {
  std::size_t n = 0;
  std::size_t count = 0;
  std::vector<double> scaled;
};

/// The weights of `engine`'s phenotype for a patient-major Z block of
/// `count` columns (MonteCarloZBlock layout).
ScaledReplicateWeights MakeScaledReplicateWeights(
    const ScoreEngine& engine, const std::vector<double>& zblock,
    std::size_t count);

/// Factored Monte Carlo scores of one SNP: out[r] = Σ_l G_l W_lr over the
/// patients with nonzero dosage, in ascending patient order (the routed
/// KernelTable::genotype_mac). Equal to Σ_i Z_ir U_ij up to rounding; for
/// Gaussian and Binomial scores with dosages 0-2 bitwise equal to
/// BatchedReplicateScores on the SNP's contributions. Column r depends
/// only on Z's column r, so results are invariant to batching. Returns
/// false, leaving `out` unspecified, when a dosage exceeds 2.
bool FactoredReplicateScores(const std::vector<std::uint8_t>& dosages,
                             const ScaledReplicateWeights& weights,
                             std::vector<double>* out);

}  // namespace ss::stats
