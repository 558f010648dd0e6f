#include "stats/logistic_score.hpp"

#include "support/status.hpp"

namespace ss::stats {

double BinaryData::CaseRate() const {
  if (value.empty()) return 0.0;
  double cases = 0.0;
  for (std::uint8_t y : value) cases += y;
  return cases / static_cast<double>(value.size());
}

std::vector<double> LogisticScoreContributions(
    const BinaryData& data, double case_rate,
    const std::vector<std::uint8_t>& genotypes) {
  std::vector<double> contributions;
  LogisticScoreContributionsInto(data, case_rate, genotypes, &contributions);
  return contributions;
}

void LogisticScoreContributionsInto(const BinaryData& data, double case_rate,
                                    const std::vector<std::uint8_t>& genotypes,
                                    std::vector<double>* out) {
  SS_CHECK(genotypes.size() == data.n());
  out->resize(data.n());
  for (std::size_t i = 0; i < data.n(); ++i) {
    (*out)[i] = static_cast<double>(genotypes[i]) *
                (static_cast<double>(data.value[i]) - case_rate);
  }
}

}  // namespace ss::stats
