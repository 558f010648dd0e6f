// Binomial (logistic-model) efficient score for case/control phenotypes.
//
// For binary Y ∈ {0,1} (case/control GWAS), the score for the slope of
// logit P(Y=1) ~ G at β = 0 with an intercept is
//
//     U_ij = G_ij (Y_i − p̄),   p̄ = (Σ Y_i) / n,
//
// i.e. genotype times the residual under the null of no association.
#pragma once

#include <cstdint>
#include <vector>

namespace ss::stats {

/// Case/control phenotype vector (1 = case).
struct BinaryData {
  std::vector<std::uint8_t> value;
  std::size_t n() const { return value.size(); }
  double CaseRate() const;
};

/// Per-patient contributions U_ij = G_ij (Y_i − p̄).
std::vector<double> LogisticScoreContributions(
    const BinaryData& data, double case_rate,
    const std::vector<std::uint8_t>& genotypes);

/// Buffer form of LogisticScoreContributions (`out` resized to n).
void LogisticScoreContributionsInto(const BinaryData& data, double case_rate,
                                    const std::vector<std::uint8_t>& genotypes,
                                    std::vector<double>* out);

}  // namespace ss::stats
