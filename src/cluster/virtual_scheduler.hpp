// Event-driven makespan simulation: replays per-task costs onto the slots
// of a ClusterTopology.
//
// Given the (measured or modelled) compute seconds of every task in every
// stage of a job, the simulator performs list scheduling: each stage's
// tasks are queued; `TotalSlots()` slots pull tasks as they free up; a
// barrier separates stages (Spark stages cannot overlap across a shuffle
// dependency); CostModel overheads are added per task, stage, and job.
// The result is the job's virtual wall-clock on the simulated cluster.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cost_model.hpp"
#include "cluster/topology.hpp"

namespace ss::cluster {

/// One stage's workload: per-task compute seconds plus shuffle volume.
struct StageProfile {
  std::vector<double> task_compute_s;  ///< One entry per task.
  std::uint64_t shuffle_read_bytes = 0;   ///< Total fetched by this stage.
  std::uint64_t shuffle_write_bytes = 0;  ///< Total emitted by this stage.
};

/// A job is an ordered list of stages (barriers between them).
struct JobProfile {
  std::vector<StageProfile> stages;
};

/// Simulation output.
struct MakespanReport {
  double total_s = 0.0;
  std::vector<double> stage_s;    ///< Per-stage makespan incl. overheads.
  double compute_s = 0.0;         ///< Sum of raw task compute (work).
  double overhead_s = 0.0;        ///< Everything that is not task compute.
  int slots = 0;
};

class VirtualScheduler {
 public:
  VirtualScheduler(ClusterTopology topology, CostModel cost_model)
      : topology_(std::move(topology)), cost_model_(cost_model) {}

  /// Simulates one stage on `slots` slots; returns its makespan (seconds).
  /// Greedy earliest-available-slot assignment in task order — exactly what
  /// Spark's task scheduler does within a stage with FIFO pools.
  double SimulateStage(const StageProfile& stage) const;

  /// Simulates a whole job: sum of stage makespans + job overhead.
  MakespanReport Simulate(const JobProfile& job) const;

  const ClusterTopology& topology() const { return topology_; }
  const CostModel& cost_model() const { return cost_model_; }

 private:
  ClusterTopology topology_;
  CostModel cost_model_;
};

}  // namespace ss::cluster
