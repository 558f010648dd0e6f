#include "stats/cox_score.hpp"

#include "stats/kernels/kernels.hpp"
#include "support/status.hpp"

namespace ss::stats {

std::vector<double> CoxScoreContributions(
    const SurvivalData& data, const RiskSetIndex& index,
    const std::vector<std::uint8_t>& genotypes) {
  std::vector<double> prefix;
  std::vector<double> contributions;
  CoxScoreContributionsInto(data, index, genotypes, &prefix, &contributions);
  return contributions;
}

void CoxScoreContributionsInto(const SurvivalData& data,
                               const RiskSetIndex& index,
                               const std::vector<std::uint8_t>& genotypes,
                               std::vector<double>* prefix,
                               std::vector<double>* out) {
  const std::size_t n = data.n();
  SS_CHECK(genotypes.size() == n);
  SS_CHECK(index.n() == n);

  // Prefix sums of genotype over the time-descending order: prefix[k] =
  // Σ_{r<k} G[order[r]]. Then a_ij = prefix[prefix_end(i)].
  const std::vector<std::uint32_t>& order = index.order();
  prefix->resize(n + 1);
  double* p = prefix->data();
  p[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    p[k + 1] = p[k] + static_cast<double>(genotypes[order[k]]);
  }

  // The per-patient scan is a routed kernel (risk_count(i) ==
  // prefix_end(i), so the kernel derives b from the prefix-end array).
  // Every level writes all n outputs, censored patients as 0.
  out->resize(n);
  kernels::ActiveKernels().cox_scan(data.event.data(), genotypes.data(), p,
                                    index.prefix_ends().data(), n,
                                    out->data());
}

std::vector<double> CoxScoreContributionsNaive(
    const SurvivalData& data, const std::vector<std::uint8_t>& genotypes) {
  std::vector<double> contributions;
  CoxScoreContributionsNaiveInto(data, genotypes, &contributions);
  return contributions;
}

void CoxScoreContributionsNaiveInto(const SurvivalData& data,
                                    const std::vector<std::uint8_t>& genotypes,
                                    std::vector<double>* out) {
  const std::size_t n = data.n();
  SS_CHECK(genotypes.size() == n);
  out->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (data.event[i] == 0) {
      (*out)[i] = 0.0;  // censored patients contribute 0
      continue;
    }
    double a = 0.0;
    double b = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
      if (data.time[l] >= data.time[i]) {
        a += static_cast<double>(genotypes[l]);
        b += 1.0;
      }
    }
    (*out)[i] = static_cast<double>(genotypes[i]) - a / b;
  }
}

std::vector<double> StratifiedCoxScoreContributions(
    const SurvivalData& data, const std::vector<std::uint32_t>& strata,
    const std::vector<std::uint8_t>& genotypes) {
  const std::size_t n = data.n();
  SS_CHECK(strata.size() == n);
  SS_CHECK(genotypes.size() == n);

  // Group patient indices by stratum.
  std::uint32_t num_strata = 0;
  for (std::uint32_t s : strata) num_strata = std::max(num_strata, s + 1);
  std::vector<std::vector<std::uint32_t>> members(num_strata);
  for (std::uint32_t i = 0; i < n; ++i) {
    members[strata[i]].push_back(i);
  }

  std::vector<double> contributions(n, 0.0);
  for (const auto& stratum : members) {
    if (stratum.empty()) continue;
    // Per-stratum sub-problem, solved with the fast path.
    SurvivalData sub;
    std::vector<std::uint8_t> sub_genotypes;
    sub.time.reserve(stratum.size());
    sub.event.reserve(stratum.size());
    sub_genotypes.reserve(stratum.size());
    for (std::uint32_t i : stratum) {
      sub.time.push_back(data.time[i]);
      sub.event.push_back(data.event[i]);
      sub_genotypes.push_back(genotypes[i]);
    }
    const RiskSetIndex sub_index(sub);
    const std::vector<double> sub_contributions =
        CoxScoreContributions(sub, sub_index, sub_genotypes);
    for (std::size_t k = 0; k < stratum.size(); ++k) {
      contributions[stratum[k]] = sub_contributions[k];
    }
  }
  return contributions;
}

double CoxScoreStatistic(const std::vector<double>& contributions) {
  double total = 0.0;
  for (double u : contributions) total += u;
  return total;
}

double CoxScoreVariance(const std::vector<double>& contributions) {
  double total = 0.0;
  for (double u : contributions) total += u * u;
  return total;
}

}  // namespace ss::stats
