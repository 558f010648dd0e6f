// The Cox efficient score statistic (Cox 1972; paper Section II).
//
// Under the marginal null H_0j (SNP j independent of survival), the
// per-patient score contribution is
//
//     U_ij = Δ_i (G_ij − a_ij / b_i),
//     a_ij = Σ_l 1(Y_l >= Y_i) G_lj,    b_i = Σ_l 1(Y_l >= Y_i),
//
// and the marginal score is U_j = Σ_i U_ij. Unlike the Wald and likelihood
// ratio tests it needs no numerical optimization — one pass per SNP.
//
// `CoxScoreContributions` evaluates all U_ij for one SNP in O(n) after the
// O(n log n) RiskSetIndex is built once per analysis; the naive O(n²)
// definition is kept as a test/ablation reference.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/survival.hpp"

namespace ss::stats {

/// Per-patient contributions U_ij for one SNP (fast path).
/// `genotypes[i]` = G_ij in {0, 1, 2} (any non-negative dosage works).
std::vector<double> CoxScoreContributions(const SurvivalData& data,
                                          const RiskSetIndex& index,
                                          const std::vector<std::uint8_t>& genotypes);

/// Buffer form of CoxScoreContributions: the same values, written to
/// `out` (resized to n) with `prefix` as scratch (resized to n + 1), so a
/// caller scoring many SNPs allocates both once.
void CoxScoreContributionsInto(const SurvivalData& data,
                               const RiskSetIndex& index,
                               const std::vector<std::uint8_t>& genotypes,
                               std::vector<double>* prefix,
                               std::vector<double>* out);

/// Same values computed directly from the definition in O(n^2); reference
/// implementation for tests and the risk-set ablation bench.
std::vector<double> CoxScoreContributionsNaive(
    const SurvivalData& data, const std::vector<std::uint8_t>& genotypes);

/// Buffer form of CoxScoreContributionsNaive (`out` resized to n).
void CoxScoreContributionsNaiveInto(const SurvivalData& data,
                                    const std::vector<std::uint8_t>& genotypes,
                                    std::vector<double>* out);

/// Stratified Cox score: patients are divided into strata (e.g. by study
/// site, sex, or a discretized baseline covariate) and risk sets are
/// formed WITHIN each stratum; the contributions are the per-stratum Cox
/// contributions placed back at the patients' positions. This is the
/// classical way to adjust the Cox score for categorical baseline
/// covariates without fitting them. `strata[i]` is patient i's stratum
/// label (any small non-negative integers).
std::vector<double> StratifiedCoxScoreContributions(
    const SurvivalData& data, const std::vector<std::uint32_t>& strata,
    const std::vector<std::uint8_t>& genotypes);

/// Marginal score U_j = Σ_i U_ij.
double CoxScoreStatistic(const std::vector<double>& contributions);

/// Null-variance estimate of U_j: V_j = Σ_i U_ij² (the empirical second
/// moment of the contributions; used to standardize for asymptotics).
double CoxScoreVariance(const std::vector<double>& contributions);

}  // namespace ss::stats
