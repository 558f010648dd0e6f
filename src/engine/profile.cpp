#include "engine/profile.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "engine/trace.hpp"
#include "support/table.hpp"

namespace ss::engine {

namespace {

/// The executing attempt's timeline, bound for the duration of the task
/// body; nullptr on the driver and between tasks.
thread_local TaskTimeline* t_active_timeline = nullptr;

/// True while a PhaseTimer is open on this thread; inner timers stay
/// inert so phase spans never overlap within one task.
thread_local bool t_phase_open = false;

std::atomic<bool> g_profiling_enabled{true};

constexpr const char* kPhaseNames[kNumTaskPhases] = {
    "queue_wait", "fetch", "decode", "compute", "handoff", "prefetch",
    "io_wait"};

void AppendNum(std::string* out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  *out += buffer;
}

/// q-th quantile of an ascending-sorted sample (nearest-rank, matching
/// the stage stats in metrics.cpp).
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double Seconds(std::int64_t nanos) {
  return static_cast<double>(nanos) / 1e9;
}

}  // namespace

std::int64_t ProfileNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetProfilingEnabled(bool enabled) {
  g_profiling_enabled.store(enabled, std::memory_order_relaxed);
}

bool ProfilingEnabled() {
  return g_profiling_enabled.load(std::memory_order_relaxed);
}

TaskTimeline* ActiveTaskTimeline() { return t_active_timeline; }

TaskTimelineScope::TaskTimelineScope(TaskTimeline* timeline)
    : previous_(t_active_timeline) {
  if (timeline != nullptr) t_active_timeline = timeline;
}

TaskTimelineScope::~TaskTimelineScope() { t_active_timeline = previous_; }

const char* TaskPhaseName(TaskPhase phase) {
  const auto index = static_cast<std::size_t>(phase);
  return index < kNumTaskPhases ? kPhaseNames[index] : "unknown";
}

PhaseTimer::PhaseTimer(TaskPhase phase, bool trace)
    : timeline_(t_phase_open ? nullptr : t_active_timeline), phase_(phase) {
  if (timeline_ == nullptr) return;
  t_phase_open = true;
  begin_ns_ = ProfileNowNs();
  if (trace) {
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled()) {
      traced_ = true;
      tracer.Begin("phase", TaskPhaseName(phase_));
    }
  }
}

PhaseTimer::~PhaseTimer() {
  if (timeline_ == nullptr) return;
  const std::int64_t duration = ProfileNowNs() - begin_ns_;
  auto& spans = timeline_->phases;
  if (!spans.empty() && spans.back().phase == phase_) {
    // Merge bursts of the same phase (per-record decode loops):
    // end_ns slides forward by the exact duration, keeping the
    // accounting invariant without one span per record.
    spans.back().end_ns += duration;
  } else {
    spans.push_back({phase_, begin_ns_, begin_ns_ + duration});
  }
  t_phase_open = false;
  if (traced_) Tracer::Global().End("phase", TaskPhaseName(phase_));
}

std::array<double, kNumTaskPhases> PhaseSecondsOf(const TaskTimeline& t) {
  std::array<double, kNumTaskPhases> seconds{};
  seconds[static_cast<std::size_t>(TaskPhase::kQueueWait)] =
      Seconds(std::max<std::int64_t>(0, t.start_ns - t.enqueue_ns));
  double attributed = 0.0;
  for (const PhaseSpan& span : t.phases) {
    const double s = Seconds(std::max<std::int64_t>(0, span.end_ns - span.begin_ns));
    seconds[static_cast<std::size_t>(span.phase)] += s;
    attributed += s;
  }
  const double total = Seconds(std::max<std::int64_t>(0, t.end_ns - t.start_ns));
  seconds[static_cast<std::size_t>(TaskPhase::kCompute)] +=
      std::max(0.0, total - attributed);
  return seconds;
}

RunProfile BuildRunProfile(const std::vector<StageMetrics>& stages,
                           double straggler_mad_k) {
  RunProfile profile;
  profile.straggler_mad_k = straggler_mad_k;

  std::int64_t run_begin = 0;
  std::int64_t run_end = 0;
  bool any = false;
  for (const StageMetrics& stage : stages) {
    for (const TaskTimeline& t : stage.timelines) {
      if (!any) {
        run_begin = stage.begin_ns != 0 ? stage.begin_ns : t.enqueue_ns;
        run_end = t.end_ns;
        any = true;
      }
      if (stage.begin_ns != 0) run_begin = std::min(run_begin, stage.begin_ns);
      run_begin = std::min(run_begin, t.enqueue_ns);
      run_end = std::max(run_end, t.end_ns);
    }
  }
  profile.collected = any;
  if (!any) return profile;
  profile.wall_seconds = Seconds(run_end - run_begin);

  struct WorkerSpan {
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };
  std::vector<std::vector<WorkerSpan>> worker_spans;

  for (const StageMetrics& stage : stages) {
    if (stage.timelines.empty()) continue;
    StageTimingStats s;
    s.stage_id = stage.stage_id;
    s.label = stage.label;
    s.tasks = stage.timelines.size();
    s.queue_peak = stage.queue_peak;
    const std::int64_t stage_begin =
        stage.begin_ns != 0 ? stage.begin_ns : stage.timelines.front().enqueue_ns;
    const std::int64_t stage_end = stage.end_ns;
    s.stage_seconds =
        Seconds(std::max<std::int64_t>(0, stage_end - stage_begin));

    std::vector<double> task_seconds;
    task_seconds.reserve(s.tasks);
    std::int64_t critical_end = 0;
    for (const TaskTimeline& t : stage.timelines) {
      const auto phase_seconds = PhaseSecondsOf(t);
      for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        s.phase_seconds[p] += phase_seconds[p];
      }
      const double total = Seconds(std::max<std::int64_t>(0, t.end_ns - t.start_ns));
      task_seconds.push_back(total);
      s.records_total += t.records_out;
      s.records_max = std::max(s.records_max, t.records_out);
      s.bytes_total += t.bytes;
      s.bytes_max = std::max(s.bytes_max, t.bytes);
      if (t.end_ns > critical_end) {
        critical_end = t.end_ns;
        s.critical_partition = t.partition;
        s.critical_seconds =
            Seconds(std::max<std::int64_t>(0, t.end_ns - stage_begin));
        s.critical_phase_seconds = phase_seconds;
      }
      if (t.worker != ~0u) {
        if (worker_spans.size() <= t.worker) worker_spans.resize(t.worker + 1);
        worker_spans[t.worker].push_back({t.start_ns, t.end_ns});
      }
    }
    s.records_mean =
        static_cast<double>(s.records_total) / static_cast<double>(s.tasks);

    std::vector<double> sorted = task_seconds;
    std::sort(sorted.begin(), sorted.end());
    s.p50_seconds = Quantile(sorted, 0.50);
    s.p95_seconds = Quantile(sorted, 0.95);
    s.max_seconds = sorted.back();
    const double median = Median(sorted);
    std::vector<double> deviations;
    deviations.reserve(sorted.size());
    for (double v : sorted) deviations.push_back(std::fabs(v - median));
    s.mad_seconds = Median(std::move(deviations));
    s.straggler_threshold_seconds =
        median + straggler_mad_k * s.mad_seconds;
    // MAD on < 4 samples is too noisy to call anything a straggler; and
    // when every task runs in near-identical time (MAD ~ 0 at microsecond
    // scale) flagging is meaningless, so require a minimum spread.
    if (s.tasks >= 4 && s.mad_seconds > 1e-7) {
      for (const TaskTimeline& t : stage.timelines) {
        const double total =
            Seconds(std::max<std::int64_t>(0, t.end_ns - t.start_ns));
        if (total > s.straggler_threshold_seconds) {
          s.straggler_partitions.push_back(t.partition);
        }
      }
      std::sort(s.straggler_partitions.begin(), s.straggler_partitions.end());
    }

    profile.critical_path.push_back(
        {s.stage_id, s.critical_partition, s.critical_seconds});
    profile.critical_path_seconds += s.critical_seconds;
    profile.stages.push_back(std::move(s));
  }

  // Per-worker occupancy and idle-gap inventory over [run_begin, run_end].
  constexpr std::int64_t kIdleFloorNs = 1000;  // ignore sub-microsecond gaps
  for (std::size_t w = 0; w < worker_spans.size(); ++w) {
    auto& spans = worker_spans[w];
    if (spans.empty()) continue;
    std::sort(spans.begin(), spans.end(),
              [](const WorkerSpan& a, const WorkerSpan& b) {
                return a.begin_ns < b.begin_ns;
              });
    WorkerStats ws;
    ws.worker = static_cast<std::uint32_t>(w);
    ws.tasks = spans.size();
    std::int64_t cursor = run_begin;
    for (const WorkerSpan& span : spans) {
      ws.busy_seconds += Seconds(std::max<std::int64_t>(0, span.end_ns - span.begin_ns));
      const std::int64_t gap = span.begin_ns - cursor;
      if (gap > kIdleFloorNs) {
        ++ws.idle_gaps;
        ws.idle_total_seconds += Seconds(gap);
        ws.idle_max_seconds = std::max(ws.idle_max_seconds, Seconds(gap));
      }
      cursor = std::max(cursor, span.end_ns);
    }
    const std::int64_t tail = run_end - cursor;
    if (tail > kIdleFloorNs) {
      ++ws.idle_gaps;
      ws.idle_total_seconds += Seconds(tail);
      ws.idle_max_seconds = std::max(ws.idle_max_seconds, Seconds(tail));
    }
    ws.utilization =
        profile.wall_seconds > 0.0 ? ws.busy_seconds / profile.wall_seconds : 0.0;
    profile.workers.push_back(ws);
  }
  return profile;
}

std::string FormatProfileReport(const RunProfile& profile) {
  if (!profile.collected) {
    return "profile: no timelines collected (profiling disabled)\n";
  }
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "profile: wall %.4fs, critical path %.4fs (%.1f%%) across "
                "%zu stages\n",
                profile.wall_seconds, profile.critical_path_seconds,
                profile.wall_seconds > 0.0
                    ? 100.0 * profile.critical_path_seconds / profile.wall_seconds
                    : 0.0,
                profile.critical_path.size());
  out += line;

  Table stages("Stage phase breakdown (seconds)",
               {"id", "label", "tasks", "queue", "fetch", "decode", "compute",
                "handoff", "prefetch", "io_wait", "p50", "p95", "max",
                "stragglers"});
  for (const StageTimingStats& s : profile.stages) {
    std::string stragglers = std::to_string(s.straggler_partitions.size());
    if (!s.straggler_partitions.empty()) {
      stragglers += " (p" + std::to_string(s.straggler_partitions.front());
      if (s.straggler_partitions.size() > 1) stragglers += ", ...";
      stragglers += ")";
    }
    stages.AddRow({std::to_string(s.stage_id), s.label,
                   std::to_string(s.tasks),
                   Table::Num(s.phase_seconds[0], 4),
                   Table::Num(s.phase_seconds[1], 4),
                   Table::Num(s.phase_seconds[2], 4),
                   Table::Num(s.phase_seconds[3], 4),
                   Table::Num(s.phase_seconds[4], 4),
                   Table::Num(s.phase_seconds[5], 4),
                   Table::Num(s.phase_seconds[6], 4),
                   Table::Num(s.p50_seconds, 4), Table::Num(s.p95_seconds, 4),
                   Table::Num(s.max_seconds, 4), stragglers});
  }
  out += stages.ToString();

  Table critical("Critical path (stage-binding tasks)",
                 {"stage", "partition", "seconds", "share"});
  for (const RunProfile::CriticalSpan& span : profile.critical_path) {
    critical.AddRow({std::to_string(span.stage_id),
                     std::to_string(span.partition),
                     Table::Num(span.seconds, 4),
                     Table::Num(profile.critical_path_seconds > 0.0
                                    ? 100.0 * span.seconds /
                                          profile.critical_path_seconds
                                    : 0.0,
                                1) +
                         "%"});
  }
  out += critical.ToString();

  Table workers("Worker utilization",
                {"worker", "tasks", "busy s", "util", "idle gaps",
                 "idle total s", "idle max s"});
  for (const WorkerStats& w : profile.workers) {
    workers.AddRow({std::to_string(w.worker), std::to_string(w.tasks),
                    Table::Num(w.busy_seconds, 4),
                    Table::Num(100.0 * w.utilization, 1) + "%",
                    std::to_string(w.idle_gaps),
                    Table::Num(w.idle_total_seconds, 4),
                    Table::Num(w.idle_max_seconds, 4)});
  }
  out += workers.ToString();
  return out;
}

void AppendTimelineJson(std::string* out, const RunProfile& profile) {
  *out += "\"timeline\":{\"collected\":";
  *out += profile.collected ? "true" : "false";
  *out += ",\"wall_seconds\":";
  AppendNum(out, profile.wall_seconds);
  *out += ",\"straggler_mad_k\":";
  AppendNum(out, profile.straggler_mad_k);
  *out += ",\"phases\":[";
  for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
    if (p != 0) *out += ",";
    *out += std::string("\"") + kPhaseNames[p] + "\"";
  }
  *out += "],\"stages\":[";
  for (std::size_t i = 0; i < profile.stages.size(); ++i) {
    const StageTimingStats& s = profile.stages[i];
    if (i != 0) *out += ",";
    *out += "\n{\"id\":" + std::to_string(s.stage_id);
    *out += ",\"label\":\"" + JsonEscape(s.label) + "\"";
    *out += ",\"tasks\":" + std::to_string(s.tasks);
    *out += ",\"stage_seconds\":";
    AppendNum(out, s.stage_seconds);
    *out += ",\"queue_peak\":" + std::to_string(s.queue_peak);
    *out += ",\"phase_seconds\":[";
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
      if (p != 0) *out += ",";
      AppendNum(out, s.phase_seconds[p]);
    }
    *out += "],\"task_seconds\":{\"p50\":";
    AppendNum(out, s.p50_seconds);
    *out += ",\"p95\":";
    AppendNum(out, s.p95_seconds);
    *out += ",\"max\":";
    AppendNum(out, s.max_seconds);
    *out += ",\"mad\":";
    AppendNum(out, s.mad_seconds);
    *out += "},\"straggler_threshold_seconds\":";
    AppendNum(out, s.straggler_threshold_seconds);
    *out += ",\"stragglers\":[";
    for (std::size_t j = 0; j < s.straggler_partitions.size(); ++j) {
      if (j != 0) *out += ",";
      *out += std::to_string(s.straggler_partitions[j]);
    }
    *out += "],\"records\":{\"total\":" + std::to_string(s.records_total);
    *out += ",\"mean\":";
    AppendNum(out, s.records_mean);
    *out += ",\"max\":" + std::to_string(s.records_max);
    *out += "},\"bytes\":{\"total\":" + std::to_string(s.bytes_total);
    *out += ",\"max\":" + std::to_string(s.bytes_max);
    *out += "},\"critical\":{\"partition\":" +
            std::to_string(s.critical_partition);
    *out += ",\"seconds\":";
    AppendNum(out, s.critical_seconds);
    *out += ",\"phase_seconds\":[";
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
      if (p != 0) *out += ",";
      AppendNum(out, s.critical_phase_seconds[p]);
    }
    *out += "]}}";
  }
  *out += "],\"critical_path\":{\"seconds\":";
  AppendNum(out, profile.critical_path_seconds);
  *out += ",\"spans\":[";
  for (std::size_t i = 0; i < profile.critical_path.size(); ++i) {
    const RunProfile::CriticalSpan& span = profile.critical_path[i];
    if (i != 0) *out += ",";
    *out += "{\"stage\":" + std::to_string(span.stage_id);
    *out += ",\"partition\":" + std::to_string(span.partition);
    *out += ",\"seconds\":";
    AppendNum(out, span.seconds);
    *out += "}";
  }
  *out += "]},\"workers\":[";
  for (std::size_t i = 0; i < profile.workers.size(); ++i) {
    const WorkerStats& w = profile.workers[i];
    if (i != 0) *out += ",";
    *out += "{\"worker\":" + std::to_string(w.worker);
    *out += ",\"tasks\":" + std::to_string(w.tasks);
    *out += ",\"busy_seconds\":";
    AppendNum(out, w.busy_seconds);
    *out += ",\"utilization\":";
    AppendNum(out, w.utilization);
    *out += ",\"idle\":{\"gaps\":" + std::to_string(w.idle_gaps);
    *out += ",\"total_seconds\":";
    AppendNum(out, w.idle_total_seconds);
    *out += ",\"max_seconds\":";
    AppendNum(out, w.idle_max_seconds);
    *out += "}}";
  }
  *out += "]}";
}

}  // namespace ss::engine
