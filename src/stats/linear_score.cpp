#include "stats/linear_score.hpp"

#include "support/status.hpp"

namespace ss::stats {

double QuantitativeData::Mean() const {
  if (value.empty()) return 0.0;
  double sum = 0.0;
  for (double v : value) sum += v;
  return sum / static_cast<double>(value.size());
}

std::vector<double> LinearScoreContributions(
    const QuantitativeData& data, double mean,
    const std::vector<std::uint8_t>& genotypes) {
  std::vector<double> contributions;
  LinearScoreContributionsInto(data, mean, genotypes, &contributions);
  return contributions;
}

void LinearScoreContributionsInto(const QuantitativeData& data, double mean,
                                  const std::vector<std::uint8_t>& genotypes,
                                  std::vector<double>* out) {
  SS_CHECK(genotypes.size() == data.n());
  out->resize(data.n());
  for (std::size_t i = 0; i < data.n(); ++i) {
    (*out)[i] = static_cast<double>(genotypes[i]) * (data.value[i] - mean);
  }
}

}  // namespace ss::stats
