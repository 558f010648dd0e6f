// The benchmark's workloads and the one analysis job each run repeats:
// open the staged genotype store, run RunResampling to completion, and
// record wall time, RSS growth, the result hash and the engine counters.
// Also the correctness cross-checks every run makes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/resampling_methods.hpp"
#include "simdata/generator.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  ss::simdata::GeneratorConfig generator;  ///< seed is set per run
  std::uint32_t partitions = 8;            ///< store genotype frames
  ss::core::ResamplingMethod method = ss::core::ResamplingMethod::kMonteCarlo;
  ss::core::PValueMethod pvalue_method = ss::core::PValueMethod::kResampling;
  double refine_threshold = 0.01;
  std::uint64_t early_stop = 0;
  std::uint64_t replicates = 0;  ///< requested B
  std::uint64_t batch = 32;
  /// Cache budget = store file bytes / budget_divisor; 0 = unlimited.
  std::uint64_t budget_divisor = 0;
};

/// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Where and how one run executes; shared by every job of the run.
struct RunEnv {
  std::string store_path;
  std::string spill_dir;
  std::uint64_t fingerprint = 0;
  std::uint64_t budget_bytes = 0;
  std::uint64_t mc_seed = 0;
  std::size_t threads = 4;  ///< engine physical_threads
  int io_threads = 1;       ///< async-executor I/O lane
};

/// Batch boundaries seen through a ProgressSink, on the steady clock.
struct BatchTimes {
  std::vector<std::uint64_t> begin_replicate;
  std::vector<std::uint64_t> count;
  std::vector<double> begin_s;  ///< Seconds since the job's analysis start.
  std::vector<double> end_s;
};

struct JobOutcome {
  bool ok = false;
  std::string error;
  double analysis_s = 0.0;   ///< OpenFromStore .. RunResampling returned
  double open_s = 0.0;       ///< OpenFromStore alone
  double rss_delta_mib = 0.0;
  std::uint64_t result_hash = 0;
  std::map<std::string, std::uint64_t> counters;  ///< Snapshot at the end.
  double engine_stage_s = 0.0;  ///< Sum of the engine's stage spans.
  BatchTimes batches;           ///< Filled only when traced.
  ss::core::ResamplingResult result;
};

/// Hook run after the job's timers and counter snapshot, while the
/// pipeline and its context are still alive (the traced run's replays).
using AfterJob =
    std::function<void(ss::core::SkatPipeline&, const JobOutcome&)>;

/// One analysis job in a fresh engine context. `traced` attaches the
/// batch-boundary sink; the analysis itself is identical either way.
JobOutcome RunAnalysisJob(const WorkloadSpec& spec, const RunEnv& env,
                          bool traced, const AfterJob& after = nullptr);

/// Small-shape cross-check: the store-backed Monte Carlo path must be
/// bitwise equal to baseline::SerialMonteCarlo. Empty string = pass.
std::string CheckAgainstSerialOracle(std::uint64_t gen_seed,
                                     std::uint64_t mc_seed,
                                     const std::string& workdir,
                                     std::size_t threads);

struct Equivalence {
  std::string error;  ///< First set outside the tolerance; empty = pass.
  /// Sets whose alpha = 0.05 call differs from the exhaustive one outside
  /// the exemption band [alpha/2, 2 alpha]. Reported, not gated: the
  /// early-stopped estimate h/L carries about 1/sqrt(h-1) relative noise,
  /// so near the band edge its call can flip while staying in tolerance.
  std::vector<std::string> alpha_disagreements;
};

/// Adaptive p-values against an exhaustive run on the same seed, with the
/// adaptive battery's per-set tolerance: 5 sd_MC + 3% of p, plus
/// 5 p/sqrt(h-1) for early-stopped sets.
Equivalence CompareWithExhaustive(const ss::core::ResamplingResult& adaptive,
                                  const ss::core::ResamplingResult& exhaustive,
                                  std::uint64_t replicates,
                                  std::uint64_t early_stop);

}  // namespace perfbench
