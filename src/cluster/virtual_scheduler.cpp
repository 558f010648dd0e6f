#include "cluster/virtual_scheduler.hpp"

#include <algorithm>
#include <queue>

namespace ss::cluster {

double VirtualScheduler::SimulateStage(const StageProfile& stage) const {
  const int slots = std::max(1, topology_.TotalSlots());
  // Min-heap of slot free times.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int i = 0; i < slots; ++i) free_at.push(0.0);

  // Shuffle read cost is paid by the stage's tasks; spread it evenly (hash
  // partitioning yields near-uniform bucket sizes for our keys).
  const double per_task_shuffle_read =
      stage.task_compute_s.empty()
          ? 0.0
          : cost_model_.TransferSeconds(stage.shuffle_read_bytes) /
                static_cast<double>(stage.task_compute_s.size());
  const double per_task_shuffle_write =
      stage.task_compute_s.empty()
          ? 0.0
          : cost_model_.TransferSeconds(stage.shuffle_write_bytes) /
                static_cast<double>(stage.task_compute_s.size());

  double makespan = 0.0;
  for (double compute : stage.task_compute_s) {
    const double start = free_at.top();
    free_at.pop();
    const double duration = cost_model_.task_launch_overhead_s + compute +
                            per_task_shuffle_read + per_task_shuffle_write;
    const double end = start + duration;
    free_at.push(end);
    makespan = std::max(makespan, end);
  }
  return makespan + cost_model_.stage_overhead_s;
}

MakespanReport VirtualScheduler::Simulate(const JobProfile& job) const {
  MakespanReport report;
  report.slots = topology_.TotalSlots();
  report.total_s = cost_model_.job_overhead_s;
  for (const StageProfile& stage : job.stages) {
    const double stage_time = SimulateStage(stage);
    report.stage_s.push_back(stage_time);
    report.total_s += stage_time;
    for (double compute : stage.task_compute_s) report.compute_s += compute;
  }
  // Overhead relative to the ideal (perfectly divisible work, no barriers).
  report.overhead_s =
      report.total_s - report.compute_s / std::max(1, report.slots);
  return report;
}

}  // namespace ss::cluster
