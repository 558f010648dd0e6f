#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <vector>

#include "dfs/genotype_store.hpp"
#include "simdata/store_codec.hpp"
#include "stats/adaptive_pvalue.hpp"
#include "stats/kernels/kernels.hpp"
#include "stats/resampling.hpp"
#include "stats/score_engine.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// The resampling loop's per-set SKAT fold of one score block (set members in
/// declaration order through the routed skat_fold kernel), producing the
/// per-replicate set scores the exceedance count reads.
std::vector<ss::core::SetScores> FoldBlock(
    const std::vector<ss::stats::SnpSet>& sets,
    const std::unordered_map<std::uint32_t, std::vector<double>>& block,
    const std::unordered_map<std::uint32_t, double>& weights,
    std::size_t count) {
  std::vector<ss::core::SetScores> out(count);
  std::vector<double> acc(count);
  for (const ss::stats::SnpSet& set : sets) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::uint32_t snp : set.snps) {
      const auto scores = block.find(snp);
      if (scores == block.end()) continue;
      const auto weight = weights.find(snp);
      const double w = weight == weights.end() ? 1.0 : weight->second;
      ss::stats::kernels::ActiveKernels().skat_fold(scores->second.data(),
                                                    count, w * w, acc.data());
    }
    for (std::size_t r = 0; r < count; ++r) out[r][set.id] = acc[r];
  }
  return out;
}

}  // namespace

void ReplayStoreLayers(const std::string& store_path,
                       const ss::stats::Phenotype& phenotype,
                       std::uint64_t mc_seed, std::size_t batch,
                       LayerReplays* out) {
  auto opened = ss::dfs::GenotypeStore::Open(store_path);
  if (!opened.ok()) return;
  const ss::dfs::GenotypeStore& store = *opened.value();
  const ss::stats::ScoreEngine engine(phenotype);
  const std::size_t n = phenotype.n();

  std::vector<double> zblocks;
  std::vector<double> zblock;
  for (int trial = 0; trial < 3; ++trial) {
    const auto begin = Clock::now();
    zblock = ss::stats::MonteCarloZBlock(mc_seed, n, 0, batch);
    zblocks.push_back(Since(begin));
  }
  std::sort(zblocks.begin(), zblocks.end());
  out->zblock_s = zblocks[1];

  std::vector<double> scores;
  for (std::uint32_t p = 0; p < store.num_partitions(); ++p) {
    auto begin = Clock::now();
    auto frame = store.ReadGenotypeFrame(p);
    out->read_s += Since(begin);
    if (!frame.ok()) continue;
    out->read_bytes += static_cast<double>(frame.value().size());

    begin = Clock::now();
    auto records = ss::simdata::DecodeGenotypePartition(frame.value());
    if (!records.ok()) continue;
    std::vector<std::vector<std::uint8_t>> dosages;
    dosages.reserve(records.value().size());
    for (const ss::stats::PackedSnpRecord& record : records.value()) {
      dosages.push_back(record.genotypes.Unpack());
    }
    out->decode_s += Since(begin);
    out->decode_bytes += static_cast<double>(frame.value().size());

    begin = Clock::now();
    std::vector<std::vector<double>> contributions;
    contributions.reserve(dosages.size());
    for (const std::vector<std::uint8_t>& row : dosages) {
      contributions.push_back(engine.Contributions(row));
    }
    out->contributions_s += Since(begin);
    out->contribution_cells += static_cast<double>(dosages.size() * n);

    begin = Clock::now();
    for (const std::vector<double>& u : contributions) {
      ss::stats::BatchedReplicateScores(u, zblock.data(), batch, &scores);
    }
    out->mac_s += Since(begin);
    out->macs += static_cast<double>(contributions.size() * n * batch);
  }
}

void ReplayPipelineLayers(ss::core::SkatPipeline& pipeline,
                          const WorkloadSpec& spec, const JobOutcome& job,
                          std::uint64_t mc_seed, LayerReplays* out) {
  const BatchTimes& batches = job.batches;
  if (spec.method == ss::core::ResamplingMethod::kPermutation) {
    const ss::stats::PermutationPlan plan(mc_seed, pipeline.n(),
                                          spec.replicates);
    for (std::size_t i = 0; i < batches.count.size(); ++i) {
      for (std::uint64_t r = 0; r < batches.count[i]; ++r) {
        const auto begin = Clock::now();
        pipeline.ComputePermutationReplicate(
            plan.Get(batches.begin_replicate[i] + r));
        out->score_block_s += Since(begin);
      }
    }
    return;
  }

  if (spec.pvalue_method != ss::core::PValueMethod::kResampling) {
    auto begin = Clock::now();
    const auto grams = pipeline.CollectSetGramMatrices();
    out->gram_s = Since(begin);
    begin = Clock::now();
    for (const auto& [set_id, observed] : job.result.observed) {
      std::vector<double> lambda;
      const auto gram = grams.find(set_id);
      if (gram != grams.end()) {
        lambda = ss::stats::NullSpectrumFromGram(gram->second);
      }
      ss::stats::SaddlepointPValue(lambda, observed);
    }
    out->spectrum_s = Since(begin);
  }

  const auto& weights = pipeline.DriverWeights();
  for (std::size_t i = 0; i < batches.count.size(); ++i) {
    const std::size_t count = batches.count[i];
    const std::vector<double> zblock = ss::stats::MonteCarloZBlock(
        mc_seed, pipeline.n(), batches.begin_replicate[i], count);
    auto begin = Clock::now();
    const auto block = pipeline.ComputeMonteCarloScoreBlock(zblock, count);
    out->score_block_s += Since(begin);
    begin = Clock::now();
    const auto folded = FoldBlock(pipeline.sets(), block, weights, count);
    out->fold_s += Since(begin);
  }
}

}  // namespace perfbench
