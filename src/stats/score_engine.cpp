#include "stats/score_engine.hpp"

#include "stats/cox_score.hpp"
#include "support/status.hpp"

namespace ss::stats {

const char* ScoreModelName(ScoreModel model) {
  switch (model) {
    case ScoreModel::kCox: return "Cox";
    case ScoreModel::kGaussian: return "Gaussian";
    case ScoreModel::kBinomial: return "Binomial";
  }
  return "?";
}

Phenotype Phenotype::Cox(SurvivalData data) {
  Phenotype p;
  p.model = ScoreModel::kCox;
  p.survival = std::move(data);
  return p;
}

Phenotype Phenotype::Gaussian(QuantitativeData data) {
  Phenotype p;
  p.model = ScoreModel::kGaussian;
  p.quantitative = std::move(data);
  return p;
}

Phenotype Phenotype::Binomial(BinaryData data) {
  Phenotype p;
  p.model = ScoreModel::kBinomial;
  p.binary = std::move(data);
  return p;
}

std::size_t Phenotype::n() const {
  switch (model) {
    case ScoreModel::kCox: return survival.n();
    case ScoreModel::kGaussian: return quantitative.n();
    case ScoreModel::kBinomial: return binary.n();
  }
  return 0;
}

Phenotype Phenotype::Permuted(const std::vector<std::uint32_t>& perm) const {
  SS_CHECK(perm.size() == n());
  Phenotype out;
  out.model = model;
  switch (model) {
    case ScoreModel::kCox:
      out.survival = survival.Permuted(perm);
      break;
    case ScoreModel::kGaussian:
      out.quantitative.value.resize(n());
      for (std::size_t i = 0; i < n(); ++i) {
        out.quantitative.value[i] = quantitative.value[perm[i]];
      }
      break;
    case ScoreModel::kBinomial:
      out.binary.value.resize(n());
      for (std::size_t i = 0; i < n(); ++i) {
        out.binary.value[i] = binary.value[perm[i]];
      }
      break;
  }
  return out;
}

ScoreEngine::ScoreEngine(Phenotype phenotype, bool paper_faithful)
    : phenotype_(std::move(phenotype)), paper_faithful_(paper_faithful) {
  switch (phenotype_.model) {
    case ScoreModel::kCox:
      // The faithful contributions ignore it, but the replicate weights
      // need b_i and the time order in either mode.
      risk_index_ = std::make_unique<RiskSetIndex>(phenotype_.survival);
      break;
    case ScoreModel::kGaussian:
      center_ = phenotype_.quantitative.Mean();
      break;
    case ScoreModel::kBinomial:
      center_ = phenotype_.binary.CaseRate();
      break;
  }
}

std::vector<double> ScoreEngine::Contributions(
    const std::vector<std::uint8_t>& genotypes) const {
  std::vector<double> scratch;
  std::vector<double> contributions;
  ContributionsInto(genotypes, &scratch, &contributions);
  return contributions;
}

void ScoreEngine::ContributionsInto(const std::vector<std::uint8_t>& genotypes,
                                    std::vector<double>* scratch,
                                    std::vector<double>* out) const {
  switch (phenotype_.model) {
    case ScoreModel::kCox:
      if (paper_faithful_) {
        CoxScoreContributionsNaiveInto(phenotype_.survival, genotypes, out);
      } else {
        CoxScoreContributionsInto(phenotype_.survival, *risk_index_,
                                  genotypes, scratch, out);
      }
      return;
    case ScoreModel::kGaussian:
      LinearScoreContributionsInto(phenotype_.quantitative, center_,
                                   genotypes, out);
      return;
    case ScoreModel::kBinomial:
      LogisticScoreContributionsInto(phenotype_.binary, center_, genotypes,
                                     out);
      return;
  }
}

void ScoreEngine::ReplicateWeightsInto(const double* zblock, std::size_t count,
                                       std::vector<double>* out) const {
  const std::size_t n = this->n();
  out->resize(n * count);
  double* w = out->data();
  if (phenotype_.model != ScoreModel::kCox) {
    for (std::size_t l = 0; l < n; ++l) {
      // The same residual the contributions multiply G by.
      const double residual =
          phenotype_.model == ScoreModel::kGaussian
              ? phenotype_.quantitative.value[l] - center_
              : static_cast<double>(phenotype_.binary.value[l]) - center_;
      for (std::size_t r = 0; r < count; ++r) {
        w[l * count + r] = zblock[l * count + r] * residual;
      }
    }
    return;
  }
  // Walk the risk index's time-descending order backwards, one tied-time
  // group [begin, end) at a time: every member's risk set is the first
  // `end` sorted entries, so b = end, and the group's own events enter
  // the running hazard Σ z_i Δ_i / b_i before its weights are written.
  const std::vector<std::uint32_t>& order = risk_index_->order();
  const std::vector<std::uint8_t>& event = phenotype_.survival.event;
  std::vector<double> hazard(count, 0.0);
  std::size_t end = n;
  while (end > 0) {
    std::size_t begin = end - 1;
    while (begin > 0 && risk_index_->prefix_end(order[begin - 1]) == end) {
      --begin;
    }
    const double b = static_cast<double>(end);
    for (std::size_t k = begin; k < end; ++k) {
      if (event[order[k]] == 0) continue;
      const double* z = zblock + order[k] * count;
      for (std::size_t r = 0; r < count; ++r) hazard[r] += z[r] / b;
    }
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t l = order[k];
      const double* z = zblock + l * count;
      for (std::size_t r = 0; r < count; ++r) {
        w[l * count + r] = (event[l] != 0 ? z[r] : 0.0) - hazard[r];
      }
    }
    end = begin;
  }
}

}  // namespace ss::stats
