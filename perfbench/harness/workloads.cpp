#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "baseline/serial_skat.hpp"
#include "engine/context.hpp"
#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "host.hpp"
#include "simdata/dfs_writer.hpp"
#include "simdata/store_codec.hpp"

namespace perfbench {
namespace {

using ss::core::PValueMethod;
using ss::core::ResamplingMethod;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

ss::simdata::GeneratorConfig Cohort(std::uint32_t patients,
                                    std::uint32_t snps, std::uint32_t sets) {
  ss::simdata::GeneratorConfig config;
  config.num_patients = patients;
  config.num_snps = snps;
  config.num_sets = sets;
  return config;
}

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> specs;
  {
    // Monte Carlo over a fully resident U: the MAC kernel and the U build.
    WorkloadSpec s;
    s.name = "mc_resident";
    s.generator = Cohort(1000, 10000, 200);
    s.partitions = 10;
    s.replicates = 256;
    s.batch = 32;
    specs.push_back(s);
  }
  {
    // The same cohort with a cache budget of 1/16 of the store: cache,
    // spill tier, reloads and prefetch dominate.
    WorkloadSpec s;
    s.name = "mc_budget";
    s.generator = Cohort(1000, 10000, 200);
    s.partitions = 10;
    s.replicates = 64;
    s.batch = 32;
    s.budget_divisor = 16;
    specs.push_back(s);
  }
  {
    // Saddlepoint screen, resampling refinement with early stopping.
    WorkloadSpec s;
    s.name = "hybrid_pvalue";
    s.generator = Cohort(1000, 8000, 400);
    s.partitions = 10;
    s.pvalue_method = PValueMethod::kHybrid;
    s.refine_threshold = 0.05;
    s.early_stop = 9;
    s.replicates = 1000;
    s.batch = 32;
    specs.push_back(s);
  }
  {
    // Algorithm 2 on the hybrid cohort: U rebuilt, shuffled and joined
    // for every replicate.
    WorkloadSpec s;
    s.name = "permutation";
    s.generator = Cohort(1000, 8000, 400);
    s.partitions = 10;
    s.method = ResamplingMethod::kPermutation;
    s.replicates = 32;
    s.batch = 32;
    specs.push_back(s);
  }
  return specs;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = BuildWorkloads();
  return specs;
}

/// Stamps batch boundaries relative to the job's analysis start.
class BatchSink final : public ss::core::ProgressSink {
 public:
  BatchSink(BatchTimes* times, const Clock::time_point* origin)
      : times_(times), origin_(origin) {}

  void OnBatchBegin(std::uint64_t, std::uint64_t begin,
                    std::uint64_t end) override {
    times_->begin_s.push_back(Since(*origin_));
    times_->begin_replicate.push_back(begin);
    times_->count.push_back(end - begin);
  }
  void OnBatchEnd(std::uint64_t, std::uint64_t, std::uint64_t) override {
    times_->end_s.push_back(Since(*origin_));
  }

 private:
  BatchTimes* times_;
  const Clock::time_point* origin_;
};

ss::engine::EngineContext::Options EngineOptions(std::size_t threads,
                                                 std::uint64_t seed) {
  ss::engine::EngineContext::Options options;
  options.topology = ss::cluster::EmrCluster(6);
  options.physical_threads = threads;
  options.seed = seed;
  return options;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The request the workload sends (seed, method, p-value engine, batch).
ss::core::ResamplingRequest MakeRequest(const WorkloadSpec& spec,
                                        std::uint64_t mc_seed) {
  ss::core::ResamplingRequest request(spec.method, spec.replicates);
  request.batch_size = spec.batch;
  request.seed = mc_seed;
  request.pvalue_method = spec.pvalue_method;
  request.refine_threshold = spec.refine_threshold;
  request.early_stop = spec.early_stop;
  return request;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

JobOutcome RunAnalysisJob(const WorkloadSpec& spec, const RunEnv& env,
                          bool traced, const AfterJob& after) {
  JobOutcome out;
  auto& counters = ss::engine::CounterRegistry::Global();
  counters.ResetAll();
  ss::engine::EngineContext::Options options =
      EngineOptions(env.threads, env.mc_seed);
  options.cache_capacity_bytes = env.budget_bytes;
  options.spill_dir = env.spill_dir;
  options.exec.io_threads = env.io_threads;
  ss::engine::EngineContext ctx(options);

  ss::core::PipelineConfig config;
  config.seed = env.mc_seed;
  config.num_partitions = spec.partitions;
  config.resampling_batch_size = spec.batch;
  config.cache_budget_bytes = env.budget_bytes;

  Clock::time_point origin;
  BatchSink sink(&out.batches, &origin);
  ss::core::ResamplingRequest request = MakeRequest(spec, env.mc_seed);
  if (traced) request.sink = &sink;

  TrimHeap();
  RssSampler rss;
  const std::int64_t origin_ns = ss::engine::ProfileNowNs();
  origin = Clock::now();
  auto pipeline = ss::core::SkatPipeline::OpenFromStore(
      ctx, env.store_path, config, env.fingerprint);
  out.open_s = Since(origin);
  if (!pipeline.ok()) {
    rss.Stop();
    out.error = "OpenFromStore: " + pipeline.status().ToString();
    return out;
  }
  ss::core::ResamplingRun run =
      ss::core::RunResampling(pipeline.value(), request);
  out.analysis_s = Since(origin);
  rss.Stop();

  out.rss_delta_mib =
      static_cast<double>(rss.peak() - std::min(rss.peak(), rss.baseline())) /
      (1024.0 * 1024.0);
  for (const auto& [name, value] : counters.Snapshot()) {
    out.counters[name] = value;
  }
  for (const ss::engine::StageMetrics& stage : ctx.metrics().stages()) {
    if (stage.begin_ns >= origin_ns && stage.end_ns > stage.begin_ns) {
      out.engine_stage_s += static_cast<double>(stage.end_ns - stage.begin_ns) / 1e9;
    }
  }
  out.result_hash = out.counters["resampling.result_hash"];
  out.result = std::move(run.scores);
  if (out.counters["store.corrupt"] != 0) {
    out.error = "store.corrupt = " + std::to_string(out.counters["store.corrupt"]);
  } else {
    out.ok = true;
  }
  if (after) after(pipeline.value(), out);
  return out;
}

std::string CheckAgainstSerialOracle(std::uint64_t gen_seed,
                                     std::uint64_t mc_seed,
                                     const std::string& workdir,
                                     std::size_t threads) {
  constexpr std::uint64_t kReplicates = 40;
  ss::simdata::GeneratorConfig cohort = Cohort(120, 400, 12);
  cohort.seed = gen_seed;
  const std::string path = workdir + "/oracle.ssg";
  std::filesystem::remove(path);
  auto staged = ss::simdata::GenerateToStore(cohort, path, 4);
  if (!staged.ok()) return "oracle staging: " + staged.status().ToString();

  const ss::simdata::SyntheticDataset dataset = ss::simdata::Generate(cohort);
  const ss::stats::Phenotype phenotype =
      ss::stats::Phenotype::Cox(dataset.survival);
  const ss::baseline::SkatInputs inputs{&dataset.genotypes, &phenotype,
                                        &dataset.weights, &dataset.sets};
  const ss::baseline::SkatAnalysis serial =
      ss::baseline::SerialMonteCarlo(inputs, mc_seed, kReplicates);

  std::string error;
  {
    ss::engine::EngineContext ctx(EngineOptions(threads, mc_seed));
    ss::core::PipelineConfig config;
    config.seed = mc_seed;
    config.num_partitions = 4;
    auto pipeline = ss::core::SkatPipeline::OpenFromStore(
        ctx, path, config, ss::simdata::StoreFingerprint(cohort));
    if (!pipeline.ok()) {
      error = "oracle OpenFromStore: " + pipeline.status().ToString();
    } else {
      ss::core::ResamplingRequest request(ResamplingMethod::kMonteCarlo,
                                          kReplicates);
      request.batch_size = 16;
      request.seed = mc_seed;
      const ss::core::ResamplingResult result =
          ss::core::RunResampling(pipeline.value(), request).scores;
      for (std::size_t k = 0; k < dataset.sets.size() && error.empty(); ++k) {
        const std::uint32_t id = dataset.sets[k].id;
        const auto observed = result.observed.find(id);
        const auto exceed = result.exceed.find(id);
        if (observed == result.observed.end() || exceed == result.exceed.end() ||
            !BitEqual(observed->second, serial.observed[k]) ||
            exceed->second != serial.exceed_count[k]) {
          error = "serial Monte Carlo oracle disagrees on set " +
                  std::to_string(id);
        }
      }
    }
  }
  std::filesystem::remove(path);
  return error;
}

Equivalence CompareWithExhaustive(const ss::core::ResamplingResult& adaptive,
                                  const ss::core::ResamplingResult& exhaustive,
                                  std::uint64_t replicates,
                                  std::uint64_t early_stop) {
  constexpr double kAlpha = 0.05;
  Equivalence out;
  if (adaptive.observed.size() != exhaustive.observed.size()) {
    out.error = "adaptive and exhaustive runs cover different sets";
    return out;
  }
  for (const auto& [set_id, observed] : exhaustive.observed) {
    const double p_exh = exhaustive.PValue(set_id);
    const double p_ada = adaptive.PValue(set_id);
    const double sd = std::sqrt(std::max(p_exh * (1.0 - p_exh), 1e-12) /
                                static_cast<double>(replicates));
    double tolerance = 5.0 * sd + 0.03 * p_exh;
    const auto info = adaptive.inference.find(set_id);
    if (info != adaptive.inference.end() && info->second.early_stopped &&
        early_stop > 1) {
      tolerance += 5.0 * p_exh / std::sqrt(static_cast<double>(early_stop - 1));
    }
    const std::string where = "set " + std::to_string(set_id) +
                              ": adaptive p=" + std::to_string(p_ada) +
                              " vs exhaustive p=" + std::to_string(p_exh);
    if (std::fabs(p_ada - p_exh) > tolerance && out.error.empty()) {
      out.error = where + " (tolerance " + std::to_string(tolerance) + ")";
    }
    const bool in_band = p_exh >= 0.5 * kAlpha && p_exh <= 2.0 * kAlpha;
    if (!in_band && (p_exh < kAlpha) != (p_ada < kAlpha)) {
      out.alpha_disagreements.push_back(where);
    }
  }
  return out;
}

}  // namespace perfbench
