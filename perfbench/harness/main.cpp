// perfbench: one run of one SparkScore benchmark workload, in this process.
//
//   perfbench --workload NAME --gen-seed N --mc-seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// Set-up stages the workload's cohort into a private genotype store
// (simdata::GenerateToStore + GenotypeStore::Open, repeated through the
// run, median reported). The run repeats the analysis job --
// OpenFromStore through RunResampling, one job at a time -- for
// `--seconds`, then cross-checks the program against its serial oracle
// (and, for the adaptive workload, against exhaustive resampling). With
// --trace 1 it alternates untraced and traced jobs for three quarters of
// the interval, then runs one traced job whose layers are replayed and
// attributed, and the host bound probes.
//
// Human-readable lines go first; the last stdout line is one JSON object
// with the run's correctness tally, its result hash and its metrics.
// Exit status: 0 all checks passed, 1 a correctness check failed,
// 2 the run could not be set up.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "dfs/genotype_store.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "simdata/dfs_writer.hpp"
#include "simdata/store_codec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

struct Options {
  std::string workload;
  std::uint64_t gen_seed = 1;
  std::uint64_t mc_seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

/// Set-ups per run: one before the jobs, the rest spread among them.
constexpr int kSetupReps = 12;

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--gen-seed") {
      options->gen_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--mc-seed") {
      options->mc_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--workdir") {
      options->workdir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "perfbench: options come in --key value pairs\n");
    return false;
  }
  return !options->workload.empty() && !options->workdir.empty() &&
         options->seconds > 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Metrics in print order; values keep all their digits.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!json_.empty()) json_ += ',';
    json_ += JsonString(name) + ":{\"value\":" + number +
             ",\"unit\":" + JsonString(unit) + "}";
    std::printf("  %-34s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

/// Correctness tally: every analysis job and every cross-check is one
/// attempted operation; any error string fails it.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void Record(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      if (errors.size() < 8) errors.push_back(error);
      std::fprintf(stderr, "perfbench: FAILED: %s\n", error.c_str());
    }
  }
};

/// RunAnalysisJob with exceptions (SS_CHECK throws) turned into errors.
JobOutcome GuardedJob(const WorkloadSpec& spec, const RunEnv& env, bool traced,
                      const AfterJob& after = nullptr) {
  try {
    return RunAnalysisJob(spec, env, traced, after);
  } catch (const std::exception& e) {
    JobOutcome failed;
    failed.error = std::string("exception: ") + e.what();
    return failed;
  }
}

int Run(const Options& options) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const HostFingerprint host = ReadHostFingerprint();
  const std::size_t threads = std::min<std::size_t>(4, host.nproc);
  namespace fs = std::filesystem;
  const fs::path workdir = fs::absolute(options.workdir);
  fs::create_directories(workdir / "spill");

  ss::simdata::GeneratorConfig cohort = spec->generator;
  cohort.seed = options.gen_seed;
  const std::string store_path = (workdir / "cohort.ssg").string();

  // Set-up: stage into an empty private directory, then open. The first
  // rep precedes everything; the rest are spread over the measured
  // interval so set-up sees the same host conditions as the jobs.
  std::vector<double> setup_s;
  std::vector<double> stage_s;
  std::vector<double> open_s;
  const auto set_up = [&]() {
    fs::remove(store_path);
    const auto begin = Clock::now();
    auto staged =
        ss::simdata::GenerateToStore(cohort, store_path, spec->partitions);
    const double staged_at = Since(begin);
    if (!staged.ok()) {
      std::fprintf(stderr, "perfbench: staging failed: %s\n",
                   staged.status().ToString().c_str());
      return false;
    }
    auto store = ss::dfs::GenotypeStore::Open(store_path);
    const double opened_at = Since(begin);
    if (!store.ok()) {
      std::fprintf(stderr, "perfbench: store open failed: %s\n",
                   store.status().ToString().c_str());
      return false;
    }
    setup_s.push_back(opened_at);
    stage_s.push_back(staged_at);
    open_s.push_back(opened_at - staged_at);
    return true;
  };
  if (!set_up()) return 2;
  const std::uint64_t store_bytes = fs::file_size(store_path);
  const double resident_pct = PageCacheResidentPct(store_path);

  RunEnv env;
  env.store_path = store_path;
  env.spill_dir = (workdir / "spill").string();
  env.fingerprint = ss::simdata::StoreFingerprint(cohort);
  env.budget_bytes =
      spec->budget_divisor != 0 ? store_bytes / spec->budget_divisor : 0;
  env.mc_seed = options.mc_seed;
  env.threads = threads;
  env.io_threads = 1;

  Tally tally;
  // Closed loop, one job at a time, for the measured interval.
  std::vector<double> analysis_s;
  std::vector<double> rss_delta_mib;
  std::optional<std::uint64_t> result_hash;
  std::optional<ss::core::ResamplingResult> first_result;
  const auto check_job = [&](JobOutcome& job) {
    std::string error = job.error;
    if (job.ok && result_hash.has_value() && job.result_hash != *result_hash) {
      error = "resampling.result_hash differs between jobs of one run";
    }
    if (job.ok && !result_hash.has_value()) {
      result_hash = job.result_hash;
      first_result = std::move(job.result);
    }
    tally.Record(error);
  };
  // A traced run alternates untraced and traced jobs, so the tracing
  // overhead compares jobs from the same stretch of the run, and keeps a
  // quarter of the interval for the attributed job and the probes.
  const double measure_s =
      options.trace ? options.seconds * 0.75 : options.seconds;
  std::vector<double> traced_s;
  const auto measure_begin = Clock::now();
  while (analysis_s.size() < 3 || (options.trace && traced_s.size() < 2) ||
         Since(measure_begin) < measure_s) {
    const double elapsed = Since(measure_begin);
    if (static_cast<int>(setup_s.size()) < kSetupReps &&
        elapsed >= measure_s * static_cast<double>(setup_s.size()) /
                       kSetupReps) {
      if (!set_up()) return 2;
    }
    const bool traced = options.trace && analysis_s.size() > traced_s.size();
    JobOutcome job = GuardedJob(*spec, env, traced);
    check_job(job);
    if (!job.ok) {
      if (tally.failed > 3) break;
      continue;
    }
    if (traced) {
      traced_s.push_back(job.analysis_s);
    } else {
      analysis_s.push_back(job.analysis_s);
      rss_delta_mib.push_back(job.rss_delta_mib);
    }
  }

  // Cross-checks run after the measured jobs, so the first job meets the
  // process as a user's single analysis would.
  tally.Record(CheckAgainstSerialOracle(options.gen_seed, options.mc_seed,
                                        workdir.string(), threads));
  std::vector<std::string> alpha_disagreements;
  if (spec->pvalue_method != ss::core::PValueMethod::kResampling &&
      first_result.has_value()) {
    // The adaptive workload's reference: exhaustive resampling, same seeds.
    WorkloadSpec reference = *spec;
    reference.pvalue_method = ss::core::PValueMethod::kResampling;
    reference.early_stop = 0;
    const JobOutcome exhaustive = GuardedJob(reference, env, false);
    if (!exhaustive.ok) {
      tally.Record("exhaustive reference: " + exhaustive.error);
    } else {
      Equivalence equivalence =
          CompareWithExhaustive(*first_result, exhaustive.result,
                                spec->replicates, spec->early_stop);
      tally.Record(equivalence.error);
      alpha_disagreements = std::move(equivalence.alpha_disagreements);
    }
  }
  const double analysis_median = Median(analysis_s);
  std::vector<double> sorted_s = analysis_s;
  std::sort(sorted_s.begin(), sorted_s.end());
  const double snp_replicates = static_cast<double>(cohort.num_snps) *
                                static_cast<double>(spec->replicates);

  std::printf("perfbench workload=%s gen_seed=%" PRIu64 " mc_seed=%" PRIu64
              "\n",
              spec->name.c_str(), options.gen_seed, options.mc_seed);
  std::printf("  cohort: %u patients x %u SNPs x %u sets, %u frames; B=%" PRIu64
              " batch=%" PRIu64 "\n",
              cohort.num_patients, cohort.num_snps, cohort.num_sets,
              spec->partitions, spec->replicates, spec->batch);
  std::printf("  engine: physical_threads=%zu io_threads=%d kernel=%s "
              "cache_budget=%" PRIu64 " bytes (store %" PRIu64 " bytes)\n",
              threads, env.io_threads, host.dispatch_level.c_str(),
              env.budget_bytes, store_bytes);
  std::printf("  host: nproc=%u cpu=\"%s\" llc=%" PRIu64 " bytes\n", host.nproc,
              host.cpu_model.c_str(), host.llc_bytes);
  std::printf("  store page-cache residency when the analysis starts: %.1f%% "
              "(written during set-up)\n",
              resident_pct);
  for (const std::string& finding : alpha_disagreements) {
    std::printf("  finding: alpha=0.05 call differs from exhaustive outside "
                "[alpha/2, 2 alpha] (reported, not gated): %s\n",
                finding.c_str());
  }
  std::printf("  jobs=%zu attempted=%" PRIu64 " failed=%" PRIu64
              " error_rate=%.6g ratio result_hash=%016" PRIx64 "\n",
              analysis_s.size(), tally.attempted, tally.failed,
              Ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
              result_hash.value_or(0));

  if (!sorted_s.empty()) {
    std::printf("  analysis_s over %zu jobs: min %.4f  median %.4f  max %.4f\n",
                sorted_s.size(), sorted_s.front(), analysis_median,
                sorted_s.back());
  }

  MetricList metrics;
  if (!options.trace) {
    metrics.Add("analysis_s", analysis_median, "s");
    metrics.Add("mscores_per_s", Ratio(snp_replicates, analysis_median) / 1e6,
                "Mscores/s");
    metrics.Add("setup_s", Median(setup_s), "s");
    // Later jobs reuse heap the allocator kept from earlier ones, so only
    // the first job's growth is what a fresh process running one analysis
    // sees.
    metrics.Add("rss_delta_mib", rss_delta_mib.empty() ? 0.0 : rss_delta_mib.front(),
                "MiB");
  } else {
    LayerReplays replays;
    JobOutcome traced = GuardedJob(
        *spec, env, true,
        [&](ss::core::SkatPipeline& pipeline, const JobOutcome& job) {
          ReplayStoreLayers(store_path, pipeline.phenotype(), options.mc_seed,
                            spec->batch, &replays);
          ReplayPipelineLayers(pipeline, *spec, job, options.mc_seed,
                               &replays);
        });
    check_job(traced);
    const StreamResult stream = StreamTriad(host.llc_bytes, threads);
    const double mac_peak = MacPeakGmacPerSec();
    std::printf("  stream triad: 3 arrays x %" PRIu64 " bytes (llc %" PRIu64
                " bytes), %zu threads\n",
                stream.array_bytes, host.llc_bytes, threads);

    auto counter = [&](const char* name) {
      const auto it = traced.counters.find(name);
      return it == traced.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
    };
    const double analysis = traced.analysis_s;
    const BatchTimes& batches = traced.batches;
    std::vector<double> batch_s;
    for (std::size_t i = 0; i < batches.end_s.size(); ++i) {
      batch_s.push_back(batches.end_s[i] - batches.begin_s[i]);
    }
    const double first_batch =
        batches.begin_s.empty() ? analysis : batches.begin_s.front();
    const double observed_pass = first_batch - traced.open_s -
                                 replays.gram_s - replays.spectrum_s;
    const double attributed = traced.open_s + observed_pass + replays.gram_s +
                              replays.spectrum_s + replays.score_block_s +
                              replays.fold_s;
    const double mac_rate = Ratio(replays.macs, replays.mac_s) / 1e9;
    const double read_rate = Ratio(replays.read_bytes, replays.read_s) / 1e9;

    metrics.Add("simdata.stage_s", Median(stage_s), "s");
    metrics.Add("dfs.open_s", Median(open_s), "s");
    metrics.Add("dfs.frame_reads", counter("store.frame_reads"), "count");
    metrics.Add("dfs.read_bytes", counter("store.read_bytes"), "bytes");
    metrics.Add("dfs.read_gb_s", read_rate, "GB/s");
    metrics.Add("dfs.read_pct_of_stream",
                100.0 * Ratio(read_rate, stream.gb_per_s), "%");
    metrics.Add("kernels.decode_gb_s",
                Ratio(replays.decode_bytes, replays.decode_s) / 1e9, "GB/s");
    metrics.Add("kernels.mac_gmac_s", mac_rate, "GMAC/s");
    metrics.Add("kernels.mac_pct_of_peak", 100.0 * Ratio(mac_rate, mac_peak),
                "%");
    metrics.Add("stats.u_cells_per_s",
                Ratio(replays.contribution_cells, replays.contributions_s),
                "cells/s");
    metrics.Add("stats.zblock_s", replays.zblock_s, "s");
    metrics.Add("pvalue.gram_s", replays.gram_s, "s");
    metrics.Add("pvalue.spectrum_s", replays.spectrum_s, "s");
    metrics.Add("pvalue.refined_sets", counter("pvalue.refined_sets"), "count");
    metrics.Add("pvalue.set_replicates",
                static_cast<double>(cohort.num_sets) *
                        static_cast<double>(spec->replicates) -
                    counter("pvalue.replicates_saved"),
                "count");
    metrics.Add("cache.hit_ratio",
                Ratio(counter("cache.hits"),
                      counter("cache.hits") + counter("cache.misses")),
                "ratio");
    metrics.Add("cache.spill_bytes", counter("cache.spill_bytes"), "bytes");
    metrics.Add("cache.reloads", counter("cache.reloads"), "count");
    metrics.Add("cache.reload_s", counter("cache.reload_nanos") / 1e9,
                "task-s");
    metrics.Add("exec.io_wait_s", counter("exec.io_wait_nanos") / 1e9,
                "task-s");
    metrics.Add("exec.prefetch_declined", counter("exec.prefetch_declined"),
                "count");
    metrics.Add("pool.util",
                Ratio(counter("pool.busy_nanos") / 1e9,
                      static_cast<double>(threads) * analysis),
                "ratio");
    metrics.Add("engine.shuffle_bytes",
                counter("engine.shuffle.write_bytes"), "bytes");
    metrics.Add("engine.timeline_unexplained_pct",
                100.0 * Ratio(analysis - traced.engine_stage_s, analysis), "%");
    metrics.Add("core.open_s", traced.open_s, "s");
    metrics.Add("core.observed_pass_s", observed_pass, "s");
    metrics.Add("core.score_block_s", replays.score_block_s, "s");
    metrics.Add("core.fold_s", replays.fold_s, "s");
    metrics.Add("core.batch_s_p50", Median(batch_s), "s");
    metrics.Add("core.batch_s_max",
                batch_s.empty() ? 0.0
                                : *std::max_element(batch_s.begin(), batch_s.end()),
                "s");
    metrics.Add("core.unattributed_s", analysis - attributed, "s");
    metrics.Add("trace.analysis_s", analysis, "s");
    metrics.Add("trace.overhead_pct",
                100.0 * Ratio(Median(traced_s) - analysis_median, analysis_median),
                "%");
    metrics.Add("host.stream_gb_s", stream.gb_per_s, "GB/s");
    metrics.Add("host.mac_peak_gmac_s", mac_peak, "GMAC/s");
  }

  std::string errors;
  for (const std::string& error : tally.errors) {
    if (!errors.empty()) errors += ',';
    errors += JsonString(error);
  }
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, result_hash.value_or(0));
  std::printf("{\"workload\":%s,\"gen_seed\":%" PRIu64 ",\"mc_seed\":%" PRIu64
              ",\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"jobs\":%zu,\"result_hash\":\"%s\",\"errors\":[%s],"
              "\"metrics\":{%s}}\n",
              JsonString(spec->name).c_str(), options.gen_seed,
              options.mc_seed, tally.failed == 0 ? "true" : "false",
              tally.attempted, tally.failed, analysis_s.size(), hash,
              errors.c_str(), metrics.json().c_str());
  std::fflush(stdout);
  fs::remove_all(workdir / "spill");
  fs::remove(store_path);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --gen-seed N --mc-seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  return perfbench::Run(options);
}
