// RankedMutex: a std::mutex wrapper carrying a name and a static rank
// (src/support/lock_ranks.hpp) that — in Debug and sanitizer builds —
// feeds a process-global lock-order analyzer in the style of absl::Mutex's
// deadlock graph:
//
//   * every thread keeps a stack of the RankedMutexes it currently holds;
//   * every acquisition while holding other locks records held→acquired
//     edges (keyed by rank) in a process-global acquisition graph, along
//     with the full acquisition chain that first created each edge;
//   * before blocking, the acquisition runs a DFS over that graph: if the
//     rank being acquired can already reach a held rank, the two orders
//     form a cycle — a potential ABBA deadlock — and the process aborts,
//     printing BOTH acquisition chains (the current one and the recorded
//     chain of every edge on the conflicting path). This fires the first
//     time both orders have ever been observed, even on schedules where
//     no deadlock manifests.
//
// Release builds (no SPARKSCORE_DCHECKS) compile all of this out:
// lock()/unlock() inline straight to the underlying std::mutex, proven
// bitwise-identical on results by the deadlock_smoke ctest
// (resampling.result_hash with the analyzer on vs. forced off). In
// instrumented builds the env var SS_LOCK_CHECK=0 force-disables the
// analyzer at runtime — the hook deadlock_smoke uses for that identity
// comparison.
//
// The scoped guards below (MutexLock, UniqueLock) are the only way
// project code should hold a RankedMutex: they carry the
// SS_SCOPED_CAPABILITY annotations Clang's -Wthread-safety analysis
// needs (std::lock_guard is not annotated under libstdc++). UniqueLock
// additionally satisfies BasicLockable so it can sit under a
// std::condition_variable_any wait.
#pragma once

#include <cstdint>
#include <mutex>

#include "support/check.hpp"
#include "support/lock_ranks.hpp"

/// The runtime lock-order analyzer rides the same switch as SS_DCHECK:
/// on in Debug and sanitizer builds, compiled out elsewhere.
#if defined(SPARKSCORE_DCHECKS)
#define SS_LOCK_ORDER_CHECKS 1
#endif

namespace ss::support {

namespace lock_order {

/// Snapshot of the process-global acquisition graph.
struct Stats {
  std::uint64_t acquisitions = 0;  ///< Tracked lock() calls so far.
  int graph_nodes = 0;             ///< Unique ranks ever held.
  int graph_edges = 0;             ///< Unique held→acquired rank pairs.
  /// Acquisitions outside the declared rank order (non-increasing rank)
  /// that did not (yet) complete a cycle. Warned once per rank pair;
  /// deadlock_smoke asserts zero on clean runs.
  std::uint64_t rank_violations = 0;
  bool acyclic = true;             ///< Full-graph cycle check result.
};

/// True when the analyzer is compiled into this binary.
constexpr bool CompiledIn() {
#if defined(SS_LOCK_ORDER_CHECKS)
  return true;
#else
  return false;
#endif
}

/// True when the analyzer is compiled in AND not disabled via
/// SS_LOCK_CHECK=0 in the environment (checked once, at first use).
bool RuntimeEnabled();

/// Current snapshot (all zero / acyclic when the analyzer is off).
Stats GetStats();

/// Number of RankedMutexes the calling thread holds right now. Always 0
/// when the analyzer is off. Tests assert this returns to zero at pool
/// shutdown.
int HeldByThisThread();

/// Test-only: forgets the acquisition graph and counters (NOT the
/// per-thread held stacks — callers must not hold any RankedMutex).
/// Keeps death tests and unit tests from seeing each other's edges.
void ResetForTest();

}  // namespace lock_order

class SS_CAPABILITY("mutex") RankedMutex {
 public:
  explicit RankedMutex(LockRank rank) noexcept : rank_(rank) {}

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  const char* name() const { return rank_.name; }
  int rank() const { return rank_.rank; }

#if defined(SS_LOCK_ORDER_CHECKS)
  void lock() SS_ACQUIRE();
  void unlock() SS_RELEASE();
  bool try_lock() SS_TRY_ACQUIRE(true);
#else
  void lock() SS_ACQUIRE() { mutex_.lock(); }
  void unlock() SS_RELEASE() { mutex_.unlock(); }
  bool try_lock() SS_TRY_ACQUIRE(true) { return mutex_.try_lock(); }
#endif

 private:
  std::mutex mutex_;
  const LockRank rank_;
};

/// std::lock_guard over a RankedMutex, annotated so Clang's analysis
/// tracks the capability through the scope.
class SS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(RankedMutex& mutex) SS_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() SS_RELEASE() { mutex_.unlock(); }

 private:
  RankedMutex& mutex_;
};

/// Scoped lock that also satisfies BasicLockable, for use with
/// std::condition_variable_any: the wait's internal unlock/relock goes
/// through RankedMutex, so the analyzer's held stack stays exact across
/// blocking waits. Like MutexLock it is held for its whole scope — the
/// lock()/unlock() surface exists for the condition variable, not for
/// manual toggling (Clang flags double-acquire/release through it).
class SS_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(RankedMutex& mutex) SS_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  ~UniqueLock() SS_RELEASE() { mutex_.unlock(); }

  void lock() SS_ACQUIRE() { mutex_.lock(); }
  void unlock() SS_RELEASE() { mutex_.unlock(); }

 private:
  RankedMutex& mutex_;
};

}  // namespace ss::support
