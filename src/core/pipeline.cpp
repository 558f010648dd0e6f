#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>

#include "core/record_traits.hpp"  // IWYU pragma: keep (ApproxBytesImpl specializations)
#include "core/store_source.hpp"
#include "dfs/genotype_store.hpp"
#include "engine/dataset.hpp"
#include "simdata/store_codec.hpp"
#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "stats/kernels/kernels.hpp"
#include "stats/resampling.hpp"

namespace ss::core {
namespace {

using engine::Dataset;
using simdata::SnpRecord;

/// Parses one genotype line inside a task; malformed input is a task
/// failure (fails the job after retries rather than skewing results).
SnpRecord ParseSnpRecordOrThrow(const std::string& line) {
  Result<SnpRecord> record = simdata::ParseSnpRecord(line);
  if (!record.ok()) {
    throw engine::TaskFailure(record.status().ToString());
  }
  return std::move(record).value();
}

std::pair<std::uint32_t, double> ParseWeightSquaredOrThrow(
    const std::string& line) {
  Result<simdata::WeightRecord> record = simdata::ParseWeight(line);
  if (!record.ok()) {
    throw engine::TaskFailure(record.status().ToString());
  }
  // Step 2 emits (SNP j, ω_j²).
  return {record.value().snp, record.value().weight * record.value().weight};
}

std::pair<std::uint32_t, double> ParseWeightOrThrow(const std::string& line) {
  Result<simdata::WeightRecord> record = simdata::ParseWeight(line);
  if (!record.ok()) {
    throw engine::TaskFailure(record.status().ToString());
  }
  return {record.value().snp, record.value().weight};
}

/// snp -> list of containing set ids (step 11's aggregation map).
std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> BuildSnpToSets(
    const std::vector<stats::SnpSet>& sets) {
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> map;
  for (const stats::SnpSet& set : sets) {
    for (std::uint32_t snp : set.snps) {
      map[snp].push_back(set.id);
    }
  }
  return map;
}

/// Membership bitmap over 0..max_snp: step 4's filter over all sets, a
/// score-block mask over the live ones.
std::vector<std::uint8_t> BuildMembership(
    const std::vector<stats::SnpSet>& sets) {
  std::uint32_t max_snp = 0;
  for (const stats::SnpSet& set : sets) {
    for (std::uint32_t snp : set.snps) max_snp = std::max(max_snp, snp);
  }
  std::vector<std::uint8_t> member(max_snp + 1, 0);
  for (const stats::SnpSet& set : sets) {
    for (std::uint32_t snp : set.snps) member[snp] = 1;
  }
  return member;
}

/// A record's dosage vector: a packed record is unpacked into the task's
/// buffer (decode time, untraced: one span per record would flood the
/// Chrome trace; coalescing keeps the accounting exact).
const std::vector<std::uint8_t>& Dosages(const stats::PackedSnpRecord& record,
                                         std::vector<std::uint8_t>* buffer) {
  ss::engine::PhaseTimer decode_phase(ss::engine::TaskPhase::kDecode,
                                      /*trace=*/false);
  record.genotypes.UnpackInto(buffer);
  return *buffer;
}

const std::vector<std::uint8_t>& Dosages(const SnpRecord& record,
                                         std::vector<std::uint8_t>*) {
  return record.genotypes;
}

/// One MapPartitions pass over the genotype partitions in their cached
/// form: `fn(records)` gets a partition of packed records when `packed`,
/// else of plain ones, and reads each record's dosages through Dosages.
template <typename Fn>
auto MapGenotypePartitions(bool packed,
                           const Dataset<stats::PackedSnpRecord>& packed_records,
                           const Dataset<SnpRecord>& records, Fn fn) {
  if (packed) {
    return packed_records.MapPartitions(
        [fn](std::uint32_t,
             const std::vector<stats::PackedSnpRecord>& partition) {
          return fn(partition);
        });
  }
  return records.MapPartitions(
      [fn](std::uint32_t, const std::vector<SnpRecord>& partition) {
        return fn(partition);
      });
}

}  // namespace

SkatPipeline::SkatPipeline(engine::EngineContext& ctx,
                           const PipelineConfig& config,
                           Dataset<SnpRecord> genotypes,
                           stats::Phenotype phenotype,
                           std::vector<double> weights,
                           std::vector<stats::SnpSet> sets)
    : ctx_(&ctx), config_(config), phenotype_(std::move(phenotype)),
      sets_(std::move(sets)) {
  SS_CHECK(!sets_.empty());

  if (config_.cache_budget_bytes != 0) {
    ctx.cache().SetCapacityBytes(config_.cache_budget_bytes);
  }

  // Every run reports which kernel tier it executed with (the gauge
  // lands in the metrics JSON "kernel" section).
  engine::CounterRegistry::Global()
      .Get("kernel.dispatch")
      .store(static_cast<std::uint64_t>(stats::kernels::ActiveDispatchLevel()),
             std::memory_order_relaxed);

  // Step 4: filter the genotype matrix to the union of all SNP-sets. The
  // membership bitmap is broadcast (it is tiny relative to genotypes).
  auto membership = engine::MakeBroadcast(ctx, BuildMembership(sets_));
  fgm_ = genotypes.Filter([membership](const SnpRecord& record) {
    return record.snp < membership->size() && (*membership)[record.snp] != 0;
  });

  if (config_.pack_genotypes) {
    // The genotype partitions that live in the cache are the 2-bit
    // packed form — 4x fewer bytes. The byte counters track both
    // representations so the run report can show the savings; lineage
    // recomputation re-adds to both, preserving the packed/unpacked
    // ratio.
    auto& registry = engine::CounterRegistry::Global();
    std::atomic<std::uint64_t>* packed_bytes =
        &registry.Get("genotype.packed_bytes");
    std::atomic<std::uint64_t>* unpacked_bytes =
        &registry.Get("genotype.unpacked_bytes");
    fgm_packed_ = fgm_.Map(
        [packed_bytes, unpacked_bytes](const SnpRecord& record) {
          stats::PackedSnpRecord packed{
              record.snp, stats::PackedGenotypeBlock::Pack(record.genotypes)};
          unpacked_bytes->fetch_add(record.genotypes.size(),
                                    std::memory_order_relaxed);
          packed_bytes->fetch_add(packed.genotypes.payload().size(),
                                  std::memory_order_relaxed);
          return packed;
        });
    if (config_.cache_genotypes) {
      // Every Monte Carlo batch and permutation replicate rescores the
      // genotypes; caching the packed form keeps those passes off the
      // parse chain at a quarter of the unpacked footprint.
      fgm_packed_.Cache();
    }
  } else if (config_.cache_genotypes) {
    fgm_.Cache();
  }

  // Step 2 result, from driver-side weights (in-memory construction path).
  std::vector<std::pair<std::uint32_t, double>> weight_sq_pairs;
  std::vector<std::pair<std::uint32_t, double>> weight_pairs;
  weight_sq_pairs.reserve(weights.size());
  weight_pairs.reserve(weights.size());
  for (std::uint32_t j = 0; j < weights.size(); ++j) {
    weight_sq_pairs.push_back({j, weights[j] * weights[j]});
    weight_pairs.push_back({j, weights[j]});
  }
  weights_sq_ = engine::PartitionByKey(
      engine::Parallelize(ctx, weight_sq_pairs, config_.num_partitions),
      config_.num_reducers);
  weights_ = engine::Parallelize(ctx, weight_pairs, config_.num_partitions);

  snp_to_sets_ = engine::MakeBroadcast(ctx, BuildSnpToSets(sets_));
}

Result<SkatPipeline> SkatPipeline::Open(engine::EngineContext& ctx,
                                        const simdata::StudyPaths& paths,
                                        const PipelineConfig& config) {
  SS_CHECK(ctx.dfs() != nullptr);

  // Phenotype: small, read whole on the driver then broadcast (step 5).
  // The file's "#model" header selects Cox/Gaussian/Binomial.
  Result<std::vector<std::string>> phenotype_lines =
      ctx.dfs()->ReadTextFile(paths.phenotype);
  if (!phenotype_lines.ok()) return phenotype_lines.status();
  Result<stats::Phenotype> phenotype =
      simdata::ParsePhenotypeFile(phenotype_lines.value());
  if (!phenotype.ok()) return phenotype.status();

  // SNP-sets: also small and driver-resident.
  Result<std::vector<std::string>> set_lines =
      ctx.dfs()->ReadTextFile(paths.snp_sets);
  if (!set_lines.ok()) return set_lines.status();
  std::vector<stats::SnpSet> sets;
  sets.reserve(set_lines.value().size());
  for (const std::string& line : set_lines.value()) {
    Result<stats::SnpSet> set = simdata::ParseSnpSet(line);
    if (!set.ok()) return set.status();
    sets.push_back(std::move(set).value());
  }

  // Weights: distributed parse (step 2). Note: unlike the in-memory
  // constructor we keep them as a dataset end-to-end.
  Dataset<std::string> weight_lines = engine::TextFile(ctx, paths.weights);
  Dataset<std::pair<std::uint32_t, double>> weights_sq =
      weight_lines.Map(ParseWeightSquaredOrThrow);
  Dataset<std::pair<std::uint32_t, double>> weights_unsquared =
      weight_lines.Map(ParseWeightOrThrow);

  // Genotype matrix: distributed parse (step 3), one partition per block.
  Dataset<SnpRecord> genotypes =
      engine::TextFile(ctx, paths.genotypes).Map(ParseSnpRecordOrThrow);

  SkatPipeline pipeline(ctx, config, genotypes, std::move(phenotype).value(),
                        /*weights=*/{}, sets);
  // Replace the (empty) in-memory weights.
  pipeline.weights_sq_ =
      engine::PartitionByKey(weights_sq, pipeline.config_.num_reducers);
  pipeline.weights_ = weights_unsquared;
  // The staged file's model is authoritative.
  pipeline.config_.model = pipeline.phenotype_.model;
  return pipeline;
}

Result<SkatPipeline> SkatPipeline::OpenFromStore(
    engine::EngineContext& ctx, const std::string& store_path,
    const PipelineConfig& config,
    std::optional<std::uint64_t> expected_fingerprint) {
  auto store_or = dfs::GenotypeStore::Open(store_path);
  if (!store_or.ok()) return store_or.status();
  std::shared_ptr<dfs::GenotypeStore> store = std::move(store_or).value();

  if (expected_fingerprint.has_value() &&
      *expected_fingerprint != store->fingerprint()) {
    // Never silently re-ingest over a mismatch: the caller asked for one
    // specific cohort and this file holds another.
    return Status(
        StatusCode::kInvalidArgument,
        "genotype store fingerprint mismatch at " + store_path +
            ": expected " + std::to_string(*expected_fingerprint) +
            " but the file has " + std::to_string(store->fingerprint()) +
            " (staged as: " + store->description() +
            "); restage the store or pass the parameters it was staged with");
  }

  // Aux frames -> driver-side phenotype / weights / SNP-sets, through the
  // same strict parsers as the DFS text path.
  auto phenotype_bytes = store->ReadAuxFrame(dfs::StoreFrameKind::kPhenotype);
  if (!phenotype_bytes.ok()) return phenotype_bytes.status();
  Result<stats::Phenotype> phenotype = simdata::ParsePhenotypeFile(
      simdata::DecodeTextLines(phenotype_bytes.value()));
  if (!phenotype.ok()) return phenotype.status();

  auto set_bytes = store->ReadAuxFrame(dfs::StoreFrameKind::kSets);
  if (!set_bytes.ok()) return set_bytes.status();
  std::vector<stats::SnpSet> sets;
  for (const std::string& line :
       simdata::DecodeTextLines(set_bytes.value())) {
    Result<stats::SnpSet> set = simdata::ParseSnpSet(line);
    if (!set.ok()) return set.status();
    sets.push_back(std::move(set).value());
  }
  if (sets.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "genotype store " + store_path + " has no SNP-sets");
  }

  auto weight_bytes = store->ReadAuxFrame(dfs::StoreFrameKind::kWeights);
  if (!weight_bytes.ok()) return weight_bytes.status();
  std::vector<std::pair<std::uint32_t, double>> weight_sq_pairs;
  std::vector<std::pair<std::uint32_t, double>> weight_pairs;
  for (const std::string& line :
       simdata::DecodeTextLines(weight_bytes.value())) {
    Result<simdata::WeightRecord> record = simdata::ParseWeight(line);
    if (!record.ok()) return record.status();
    weight_sq_pairs.push_back(
        {record.value().snp, record.value().weight * record.value().weight});
    weight_pairs.push_back({record.value().snp, record.value().weight});
  }

  SkatPipeline pipeline;
  pipeline.ctx_ = &ctx;
  pipeline.config_ = config;
  pipeline.config_.pack_genotypes = true;  // store frames ARE packed
  pipeline.config_.model = phenotype.value().model;  // staged file rules
  pipeline.phenotype_ = std::move(phenotype).value();
  pipeline.sets_ = std::move(sets);

  if (pipeline.config_.cache_budget_bytes != 0) {
    ctx.cache().SetCapacityBytes(pipeline.config_.cache_budget_bytes);
  }
  engine::CounterRegistry::Global()
      .Get("kernel.dispatch")
      .store(static_cast<std::uint64_t>(stats::kernels::ActiveDispatchLevel()),
             std::memory_order_relaxed);

  // Step 4's filter happens inside the store node (membership bitmap);
  // steps 1 + 3 collapse into frame read + decode off the mmap.
  auto membership = std::make_shared<const std::vector<std::uint8_t>>(
      BuildMembership(pipeline.sets_));
  auto node = std::make_shared<StoreGenotypeNode>(&ctx, std::move(store),
                                                  std::move(membership));
  if (pipeline.config_.cache_genotypes) {
    // Cache decoded partitions under the budget; an evicted partition is
    // re-read from the store (see StoreGenotypeNode).
    node->EnableCache();
  }
  pipeline.fgm_packed_ =
      engine::Dataset<stats::PackedSnpRecord>(&ctx, std::move(node));

  pipeline.weights_sq_ = engine::PartitionByKey(
      engine::Parallelize(ctx, weight_sq_pairs,
                          pipeline.config_.num_partitions),
      pipeline.config_.num_reducers);
  pipeline.weights_ =
      engine::Parallelize(ctx, weight_pairs, pipeline.config_.num_partitions);
  pipeline.snp_to_sets_ =
      engine::MakeBroadcast(ctx, BuildSnpToSets(pipeline.sets_));
  return pipeline;
}

SkatPipeline SkatPipeline::FromMemory(engine::EngineContext& ctx,
                                      const simdata::SyntheticDataset& dataset,
                                      const PipelineConfig& config) {
  std::vector<SnpRecord> records;
  records.reserve(dataset.genotypes.num_snps());
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  Dataset<SnpRecord> genotypes =
      engine::Parallelize(ctx, records, config.num_partitions);
  return SkatPipeline(ctx, config, genotypes,
                      stats::Phenotype::Cox(dataset.survival),
                      dataset.weights, dataset.sets);
}

Dataset<std::pair<std::uint32_t, std::vector<double>>> SkatPipeline::BuildU()
    const {
  // Steps 6-7: per-SNP contributions under the broadcast phenotype.
  auto engine = engine::MakeBroadcast(
      *ctx_, stats::ScoreEngine(phenotype_, config_.paper_faithful_scores));
  return MapGenotypePartitions(
      config_.pack_genotypes, fgm_packed_, fgm_,
      [engine](const auto& records) {
        std::vector<std::pair<std::uint32_t, std::vector<double>>> out;
        out.reserve(records.size());
        std::vector<std::uint8_t> buffer;
        for (const auto& record : records) {
          out.emplace_back(record.snp,
                           engine->Contributions(Dosages(record, &buffer)));
        }
        return out;
      });
}

Dataset<std::pair<std::uint32_t, double>> SkatPipeline::MarginalScores(
    stats::Phenotype phenotype) const {
  // Step 5 broadcasts the phenotype's score engine. Steps 6-8 run fused,
  // one pass per genotype partition: each task allocates its buffers
  // once, fills one SNP's contributions U_ij, sums them in ascending
  // patient order and emits U_j. Same values, same order as materializing
  // the U RDD and summing each record, without an n-vector per SNP.
  auto engine = engine::MakeBroadcast(
      *ctx_, stats::ScoreEngine(std::move(phenotype),
                                config_.paper_faithful_scores));
  return MapGenotypePartitions(
      config_.pack_genotypes, fgm_packed_, fgm_,
      [engine](const auto& records) {
        // Filled by index: with no call between the sum and its store the
        // accumulator stays in a register. Kept live across an
        // emplace_back, it is spilled on every addition and the pass runs
        // about a third slower.
        std::vector<std::pair<std::uint32_t, double>> out(records.size());
        std::vector<std::uint8_t> buffer;
        std::vector<double> scratch;
        std::vector<double> contributions;
        for (std::size_t k = 0; k < records.size(); ++k) {
          engine->ContributionsInto(Dosages(records[k], &buffer), &scratch,
                                    &contributions);
          double total = 0.0;
          for (double contribution : contributions) total += contribution;
          out[k] = {records[k].snp, total};
        }
        return out;
      });
}

SetScores SkatPipeline::ScoreSets(stats::Phenotype phenotype) const {
  // Step 9: join U_j with the squared weights, which are stored already
  // partitioned, so only the scores are shuffled here. Steps 8 and 10:
  // the per-SNP score ω_j² (U_j U_j).
  auto joined = engine::Join(weights_sq_, MarginalScores(std::move(phenotype)),
                             config_.num_reducers);
  auto snp_scores =
      joined.Map([](const std::pair<std::uint32_t, std::pair<double, double>>&
                        record) {
        const double score = record.second.second;
        return std::pair<std::uint32_t, double>(
            record.first, record.second.first * (score * score));
      });

  // Steps 11-12: scatter each SNP's score to its containing sets and sum.
  auto map = snp_to_sets_;
  auto set_contributions = snp_scores.FlatMap(
      [map](const std::pair<std::uint32_t, double>& record) {
        std::vector<std::pair<std::uint32_t, double>> out;
        auto it = map->find(record.first);
        if (it != map->end()) {
          out.reserve(it->second.size());
          for (std::uint32_t set_id : it->second) {
            out.push_back({set_id, record.second});
          }
        }
        return out;
      });
  auto set_scores = engine::ReduceByKey(
      set_contributions, [](double a, double b) { return a + b; },
      config_.num_reducers);
  SetScores observed = engine::CollectAsMap(set_scores, "collect-set-scores");
  // Sets none of whose SNPs survived filtering score 0.
  for (const stats::SnpSet& set : sets_) {
    observed.try_emplace(set.id, 0.0);
  }
  return observed;
}

SetScores SkatPipeline::ComputeObserved() {
  engine::TraceSpan span(engine::Tracer::Global(), "algo", "observed skat");
  return ScoreSets(phenotype_);
}

std::unordered_map<std::uint32_t, std::vector<double>>
SkatPipeline::ComputeObservedScoreBlock() {
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "observed score block");
  auto block = MarginalScores(phenotype_)
                   .Map([](const std::pair<std::uint32_t, double>& score) {
                     return std::pair<std::uint32_t, std::vector<double>>(
                         score.first, {score.second});
                   });
  return engine::CollectAsMap(block, "collect-observed-block");
}

std::unordered_map<std::uint32_t, std::vector<double>>
SkatPipeline::ComputeMonteCarloScoreBlock(
    const std::vector<double>& zblock, std::size_t count,
    const std::vector<stats::SnpSet>* live) {
  static std::atomic<std::uint64_t>& snp_replicates =
      engine::CounterRegistry::Global().Get("resampling.snp_replicates");
  SS_CHECK(zblock.size() == count * n());
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "monte-carlo score block",
                         {engine::Arg("replicates", count)});
  if (observed_engine_ == nullptr) {
    observed_engine_ = std::make_shared<const stats::ScoreEngine>(
        phenotype_, config_.paper_faithful_scores);
  }
  // The batch's residual weights: O(n·count) on the driver, then every
  // replicate score is a sum of weight rows over the SNP's carriers.
  auto weights = engine::MakeBroadcast(
      *ctx_, stats::MakeScaledReplicateWeights(*observed_engine_, zblock,
                                               count));
  auto snp_mask = engine::MakeBroadcast(
      *ctx_, BuildMembership(live == nullptr ? sets_ : *live));
  auto scored = MapGenotypePartitions(
      config_.pack_genotypes, fgm_packed_, fgm_,
      [weights, snp_mask](const auto& records) {
        std::vector<std::pair<std::uint32_t, std::vector<double>>> out;
        out.reserve(records.size());
        std::vector<std::uint8_t> buffer;
        std::vector<double> scores;
        for (const auto& record : records) {
          if (record.snp >= snp_mask->size() ||
              (*snp_mask)[record.snp] == 0) {
            continue;
          }
          if (!stats::FactoredReplicateScores(Dosages(record, &buffer),
                                              *weights, &scores)) {
            throw engine::TaskFailure("SNP " + std::to_string(record.snp) +
                                      " has a dosage above 2");
          }
          out.emplace_back(record.snp, scores);
        }
        return out;
      });
  auto block = engine::CollectAsMap(scored, "collect-score-block");
  snp_replicates.fetch_add(block.size() * count, std::memory_order_relaxed);
  return block;
}

const std::unordered_map<std::uint32_t, double>& SkatPipeline::DriverWeights() {
  if (!driver_weights_built_) {
    driver_weights_ = engine::CollectAsMap(weights_, "collect-weights");
    driver_weights_built_ = true;
  }
  return driver_weights_;
}

std::unordered_map<std::uint32_t, stats::Matrix>
SkatPipeline::CollectSetGramMatrices() {
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "collect set gram matrices");
  // Driver-side copy of the per-SNP contribution vectors, built from the
  // cached genotypes and not kept; set sizes are a few to a few dozen
  // members, so d×d Grams are tiny and the n-vectors dominate.
  const auto u_by_snp = engine::CollectAsMap(BuildU(), "collect-u-vectors");
  const std::unordered_map<std::uint32_t, double>& weights = DriverWeights();
  // One task per set. Each task writes only its own slot, so a retried
  // attempt simply overwrites it.
  std::vector<stats::Matrix> slots(sets_.size());
  ctx_->RunTasks(
      "set-gram", static_cast<std::uint32_t>(sets_.size()),
      [&](engine::TaskContext& task) {
        const std::size_t k = task.partition();
        // Members with live (unfiltered) U vectors, in declaration order.
        std::vector<const std::vector<double>*> u;
        std::vector<double> w;
        for (std::uint32_t snp : sets_[k].snps) {
          auto u_it = u_by_snp.find(snp);
          if (u_it == u_by_snp.end()) continue;  // SNP filtered out
          auto w_it = weights.find(snp);
          u.push_back(&u_it->second);
          w.push_back(w_it == weights.end() ? 1.0 : w_it->second);
        }
        const std::size_t d = u.size();
        stats::Matrix gram(d, d);
        for (std::size_t a = 0; a < d; ++a) {
          for (std::size_t b = a; b < d; ++b) {
            double dot = 0.0;
            const std::vector<double>& ua = *u[a];
            const std::vector<double>& ub = *u[b];
            for (std::size_t i = 0; i < ua.size(); ++i) dot += ua[i] * ub[i];
            const double m = w[a] * w[b] * dot;
            gram.at(a, b) = m;
            gram.at(b, a) = m;
          }
        }
        slots[k] = std::move(gram);
      });
  std::unordered_map<std::uint32_t, stats::Matrix> grams;
  grams.reserve(sets_.size());
  for (std::size_t k = 0; k < sets_.size(); ++k) {
    grams.emplace(sets_[k].id, std::move(slots[k]));
  }
  return grams;
}

SetScores SkatPipeline::ComputePermutationReplicate(
    const std::vector<std::uint32_t>& perm) {
  // Algorithm 2: rebroadcast a permuted phenotype and rerun steps 5-12.
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "permutation replicate");
  return ScoreSets(phenotype_.Permuted(perm));
}

}  // namespace ss::core
