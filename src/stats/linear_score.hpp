// Gaussian (linear-model) efficient score for quantitative phenotypes.
//
// For a quantitative trait Y (e.g. expression level in eQTL studies — the
// extension the paper's abstract names), the score for the slope of
// Y ~ G at β = 0 with an intercept is
//
//     U_ij = G_ij (Y_i − Ȳ),   U_j = Σ_i U_ij.
//
// Centering Y removes the intercept's nuisance direction; the statistic is
// the (unnormalized) covariance between genotype and phenotype.
#pragma once

#include <cstdint>
#include <vector>

namespace ss::stats {

/// Quantitative phenotype vector.
struct QuantitativeData {
  std::vector<double> value;
  std::size_t n() const { return value.size(); }
  double Mean() const;
};

/// Per-patient contributions U_ij = G_ij (Y_i − Ȳ). `mean` is passed in so
/// resampling replicates can reuse the observed-data mean where the method
/// requires it (Lin's multipliers reuse the observed contributions anyway).
std::vector<double> LinearScoreContributions(
    const QuantitativeData& data, double mean,
    const std::vector<std::uint8_t>& genotypes);

/// Buffer form of LinearScoreContributions (`out` resized to n).
void LinearScoreContributionsInto(const QuantitativeData& data, double mean,
                                  const std::vector<std::uint8_t>& genotypes,
                                  std::vector<double>* out);

}  // namespace ss::stats
