// Partition cache — the engine's equivalent of Spark's BlockManager at the
// MEMORY_ONLY storage level that `RDD.cache()` selects.
//
// Entries are type-erased (`shared_ptr<void>` owning a `vector<T>`; the
// typed layer in node.hpp does the casts). Under a byte budget the least
// recently used entry is dropped; a later miss recomputes the partition
// through its lineage, which for a store-backed dataset means re-reading
// its frame off the mmap. Each entry also records the simulated node
// where the computing task ran so that an injected node failure drops
// exactly that node's partitions, forcing the same lineage recomputation
// — the fault-tolerance property the RDD paper centres on.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "support/check.hpp"
#include "support/ranked_mutex.hpp"

namespace ss::engine {

/// Identifies a cached partition: (dataset node id, partition index).
struct CacheKey {
  std::uint64_t node_id = 0;
  std::uint32_t partition = 0;
  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    return static_cast<std::size_t>(key.node_id * 0x9e3779b97f4a7c15ULL) ^
           key.partition;
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dropped_by_failure = 0;
  std::uint64_t bytes_cached = 0;  ///< Current occupancy.
};

/// One partition materialized from an external backing store (the
/// genotype store): the decoded value and its memory charge. A null
/// `value` means the fetch failed; the cache admits nothing and the
/// eventual demand lookup surfaces the error.
struct FetchedPartition {
  std::shared_ptr<void> value;
  std::uint64_t bytes = 0;
};

/// Reads + decodes one partition from a backing store. Must be
/// thread-safe (it runs on the I/O lane, outside the cache lock) and must
/// not call back into the cache.
using PartitionFetcher = std::function<FetchedPartition(std::uint32_t)>;

class CacheManager {
 public:
  /// `capacity_bytes` caps the cache; 0 means unlimited (nothing is ever
  /// evicted).
  explicit CacheManager(std::uint64_t capacity_bytes = 0)
      : capacity_bytes_(capacity_bytes) {}

  /// Returns the cached partition or nullptr (counting a hit/miss). When
  /// the I/O lane is fetching `key` from its backing store, the lookup
  /// waits for that fetch (task-side the wait is the `io_wait` phase +
  /// `exec.io_wait_nanos`) instead of duplicating it.
  std::shared_ptr<void> Lookup(const CacheKey& key);

  /// Advisory warm-up from the I/O lane: when `key` is not resident and
  /// its dataset has a registered fetcher, fetch it from the backing
  /// store and admit it — without touching hit/miss accounting, so
  /// observable cache stats stay comparable across prefetch depths.
  ///
  /// A prefetch only fills SPARE capacity: when admitting the partition
  /// would push the cache over budget — forcing an eviction — the lane
  /// declines (counting `exec.prefetch_declined`) instead. An eviction
  /// forced from the prefetch lane displaces exactly the partitions the
  /// compute frontier is about to consume; declining keeps the demand
  /// path's working set intact.
  ///
  /// Returns true when the key is now (or already was) resident or
  /// being fetched, or when the cache deliberately declined as above.
  /// False means the cache has nothing to offer for this key (not
  /// resident, no fetcher): the caller may fall through to a coarser
  /// target, e.g. the store-backed ancestor of an uncomputed derived
  /// partition.
  bool Prefetch(const CacheKey& key);

  /// Declares that dataset `node_id`'s partitions can be materialized
  /// from a backing store (the mmap'd genotype store). A Prefetch of a
  /// key that is not resident then FETCHES it instead of no-opping, so
  /// the prefetch lane streams frames ahead of the compute wave. Demand
  /// lookups are unaffected (the miss recomputes, which reads the store
  /// through the node's own ComputePartition). Admitted fetches count
  /// `store.prefetch_frames`, not cache hits/misses/insertions.
  void RegisterFetcher(std::uint64_t node_id, PartitionFetcher fetcher);

  /// Whether any dataset in `node_ids` has a registered fetcher: only
  /// then can a Prefetch along that chain do any work.
  bool AnyFetcher(const std::vector<std::uint64_t>& node_ids) const;

  /// Removes the fetcher and BLOCKS until no fetch for `node_id` is in
  /// flight, so a fetcher's captures (the store handle) outlive every
  /// use. Must be called before the backing dataset dies.
  void UnregisterFetcher(std::uint64_t node_id);

  /// Inserts (or refreshes) an entry as most recently used, then evicts
  /// least-recently-used entries down to the budget. The MRU entry is
  /// exempt, so an oversized single entry (larger than the whole budget)
  /// is admitted and the cache simply holds only it; matching Spark, the
  /// computation must still succeed even if caching is ineffective.
  void Insert(const CacheKey& key, std::shared_ptr<void> value,
              std::uint64_t bytes, int node);

  /// Removes all partitions of a dataset (Dataset::Unpersist).
  void DropDataset(std::uint64_t node_id);

  /// Removes everything cached on a simulated node (node failure).
  /// Returns the number of partitions dropped.
  int DropNode(int node);

  /// Drops everything.
  void Clear();

  /// Re-applies the budget (0 = unlimited), evicting down to the new
  /// value. Lets PipelineConfig::cache_budget_bytes constrain a context
  /// after construction.
  void SetCapacityBytes(std::uint64_t capacity_bytes);

  CacheStats stats() const;
  std::size_t entry_count() const;

 private:
  struct Entry {
    std::shared_ptr<void> value;
    std::uint64_t bytes = 0;
    int node = 0;
    std::list<CacheKey>::iterator lru_it;
  };

  /// True when admitting `bytes_hint` more bytes would force an eviction
  /// (the prefetch lane declines in that case; see Prefetch).
  bool PrefetchWouldEvictLocked(std::uint64_t bytes_hint) const
      SS_REQUIRES(mutex_);
  void EvictIfNeededLocked() SS_REQUIRES(mutex_);
  void EraseLocked(const CacheKey& key) SS_REQUIRES(mutex_);
  /// The claimed backing-store fetch: run `fetcher` with the lock
  /// RELEASED, then re-lock to admit (unless a concurrent insert
  /// superseded it, or the fetch failed). Always un-claims and wakes
  /// waiters, including an UnregisterFetcher blocked on this key.
  void FinishFetch(const CacheKey& key, const PartitionFetcher& fetcher);
  bool InflightLocked(const CacheKey& key) const SS_REQUIRES(mutex_);

  mutable support::RankedMutex mutex_{support::lock_rank::kCache};
  std::uint64_t capacity_bytes_ SS_GUARDED_BY(mutex_);
  std::unordered_map<CacheKey, Entry, CacheKeyHash> entries_
      SS_GUARDED_BY(mutex_);
  std::list<CacheKey> lru_ SS_GUARDED_BY(mutex_);  ///< Front = MRU.
  CacheStats stats_ SS_GUARDED_BY(mutex_);
  /// Keys whose backing-store fetch is running outside the lock.
  std::vector<CacheKey> inflight_ SS_GUARDED_BY(mutex_);
  /// Backing-store fetchers by dataset id (RegisterFetcher).
  std::unordered_map<std::uint64_t, PartitionFetcher> fetchers_
      SS_GUARDED_BY(mutex_);
  std::condition_variable_any inflight_cv_;
};

}  // namespace ss::engine
