// Serial (engine-free) reference implementation of the SparkScore
// analysis: observed SKAT statistics plus permutation and Monte Carlo
// resampling, computed in a single thread directly over in-memory arrays.
//
// Two roles:
//   1. Correctness oracle — the distributed pipeline must reproduce these
//      numbers bit-for-bit from the same seed (cross-validated in tests).
//   2. The "native" comparator a practitioner would run on one machine,
//      used by the benches to report parallel speedup honestly.
#pragma once

#include <cstdint>
#include <vector>

#include "simdata/generator.hpp"
#include "stats/score_engine.hpp"
#include "stats/skat.hpp"

namespace ss::baseline {

/// Outcome of a resampling analysis over K SNP-sets.
struct SkatAnalysis {
  std::vector<double> observed;            ///< S_k^0 per set (sets order).
  std::vector<std::uint64_t> exceed_count; ///< #{b : S_k^b >= S_k^0}.
  std::uint64_t replicates = 0;            ///< B.

  /// Empirical p-value of set k ((c+1)/(B+1)).
  double PValue(std::size_t k) const;
};

/// Inputs by reference; the genotype matrix can be large.
struct SkatInputs {
  const simdata::GenotypeMatrix* genotypes = nullptr;
  const stats::Phenotype* phenotype = nullptr;
  const std::vector<double>* weights = nullptr;   ///< ω_j per SNP.
  const std::vector<stats::SnpSet>* sets = nullptr;
};

/// Observed statistics only (Algorithm 1, serial).
SkatAnalysis SerialObserved(const SkatInputs& inputs);

/// Permutation resampling (Algorithm 2, serial): B full recomputations
/// over shuffled phenotypes.
SkatAnalysis SerialPermutation(const SkatInputs& inputs, std::uint64_t seed,
                               std::uint64_t replicates);

/// Lin's Monte Carlo resampling (Algorithm 3, serial): every replicate
/// scores Ũ_j = Σ_i Z_i U_ij in its factored form Σ_l G_lj w_l, with the
/// per-replicate residual weights w of ScoreEngine::ReplicateWeightsInto
/// — the summation order of the distributed pass, so the two agree bit
/// for bit.
SkatAnalysis SerialMonteCarlo(const SkatInputs& inputs, std::uint64_t seed,
                              std::uint64_t replicates);

/// Per-replicate per-set Monte Carlo statistics S_k^b; result[b][k]
/// corresponds to (replicate b, (*inputs.sets)[k]). The bit-for-bit
/// oracle for the batched distributed driver's per-replicate stream
/// (core::ProgressSink::OnReplicateScores).
std::vector<std::vector<double>> SerialMonteCarloReplicateStatistics(
    const SkatInputs& inputs, std::uint64_t seed, std::uint64_t replicates);

/// SerialMonteCarlo evaluated through Z blocks of `batch_size` replicates
/// (stats::MonteCarloZBlock) and one weight block per batch instead of
/// one column at a time. Must be bitwise equal to SerialMonteCarlo for
/// every batch size; this is the serial half of the batching-invariance
/// argument the distributed driver relies on (cross-checked in tests).
SkatAnalysis SerialMonteCarloBatched(const SkatInputs& inputs,
                                     std::uint64_t seed,
                                     std::uint64_t replicates,
                                     std::uint64_t batch_size);

}  // namespace ss::baseline
