// Cost model translating task metrics into simulated-cluster time.
//
// One physical core cannot demonstrate 6-node vs 18-node scaling, so the
// scaling benches replay *measured* per-task compute costs through an
// explicit analytical model of the distributed overheads Spark adds on a
// real cluster. Every parameter is documented and adjustable; defaults are
// order-of-magnitude figures for 2015-era EMR (1 GbE-ish effective
// inter-node bandwidth after TCP/serialization overheads, Spark task launch
// latency as reported by the Spark 1.x docs and the Sparrow paper).
//
// The model is deliberately simple and conservative: it captures the three
// effects the paper's experiments exercise — per-wave task scheduling,
// shuffle data movement, and the driver-side barrier between stages — and
// nothing speculative.
#pragma once

#include <cstdint>

namespace ss::cluster {

struct CostModel {
  /// Driver-side latency to launch one task (serialization of the closure,
  /// RPC, deserialization). Spark 1.x measured ~5-20 ms per task.
  double task_launch_overhead_s = 0.010;

  /// Fixed per-stage cost: DAG scheduling, broadcast of task binaries.
  double stage_overhead_s = 0.150;

  /// Effective point-to-point bandwidth for shuffle/broadcast traffic.
  double network_bandwidth_bytes_per_s = 100e6;  // ~0.8 Gb/s effective

  /// Per-byte serialization + deserialization CPU cost (both ends).
  double serialization_s_per_byte = 4e-9;

  /// Job submission/result collection constant.
  double job_overhead_s = 0.300;

  /// Cost to move `bytes` across the network once, including ser/deser.
  double TransferSeconds(std::uint64_t bytes) const {
    return static_cast<double>(bytes) / network_bandwidth_bytes_per_s +
           static_cast<double>(bytes) * serialization_s_per_byte;
  }
};

}  // namespace ss::cluster
