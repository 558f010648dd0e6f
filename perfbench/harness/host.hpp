// Host-side measurement helpers for the benchmark harness: process RSS
// sampling, the host fingerprint, page-cache residency of a file, and the
// two same-run bounds (STREAM-style triad bandwidth, dependent-chain MAC
// peak) that the per-layer rates are stated against.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace perfbench {

/// Returns freed heap pages to the OS so the next RSS baseline is the
/// process's live footprint, not the allocator's high-water mark.
void TrimHeap();

/// Samples RSS every 10 ms on a background thread and keeps the maximum,
/// the same way bench_scale's sampler does.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling (idempotent) after one final sample.
  void Stop();
  std::uint64_t baseline() const { return baseline_; }
  std::uint64_t peak() const { return peak_.load(); }

 private:
  void Sample();

  std::uint64_t baseline_;
  std::atomic<std::uint64_t> peak_;
  std::atomic<bool> stopped_{false};
  std::thread thread_;
};

struct HostFingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::uint64_t llc_bytes = 0;
  std::string dispatch_level;  ///< Active kernel tier (scalar|sse2|avx2).
};

HostFingerprint ReadHostFingerprint();

/// Percent of `path`'s pages resident in the page cache (-1 on error).
double PageCacheResidentPct(const std::string& path);

struct StreamResult {
  double gb_per_s = 0.0;         ///< Best triad pass, 24 bytes per element.
  std::uint64_t array_bytes = 0;  ///< Bytes of each of the three arrays.
};

/// STREAM triad a[i] = b[i] + s*c[i] on `threads` threads; the three
/// arrays together are at least 4x `llc_bytes`.
StreamResult StreamTriad(std::uint64_t llc_bytes, unsigned threads);

/// Single-thread peak of the replicate-lane MAC shape at the active
/// kernel tier: 32 independent accumulators (one batch of replicate
/// lanes), each a dependent chain acc += x*y over L1-resident inputs,
/// compiled like the kernels (no FMA contraction). GMAC/s.
double MacPeakGmacPerSec();

}  // namespace perfbench
