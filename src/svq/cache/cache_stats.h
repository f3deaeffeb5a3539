#ifndef SVQ_CACHE_CACHE_STATS_H_
#define SVQ_CACHE_CACHE_STATS_H_

#include <atomic>
#include <cstdint>

namespace svq::cache {

/// Engine-lifetime cache counters, shared by every snapshot generation's
/// SnapshotCache. Hits/misses/evictions are cumulative across generations;
/// `bytes` tracks the live footprint (each LRU tier adds on insert,
/// subtracts on evict, and releases its remainder when its snapshot's last
/// pin drops). All fields are relaxed atomics: recording from the query hot
/// path is a single add, never a lock — the same discipline as
/// observability::Counter.
struct CacheStats {
  std::atomic<int64_t> result_hits{0};
  std::atomic<int64_t> result_misses{0};
  std::atomic<int64_t> result_evictions{0};
  std::atomic<int64_t> plan_hits{0};
  std::atomic<int64_t> plan_misses{0};
  std::atomic<int64_t> plan_evictions{0};
  /// Identical in-flight statements that waited on a single-flight leader
  /// instead of recomputing.
  std::atomic<int64_t> single_flight_waits{0};
  /// Nothing writes these two: critical values come from process-wide
  /// exact tables (core::CriticalValueTable), not from a cache tier. They
  /// stay only because the end-to-end benchmark's traced replay reads them
  /// (e2ebench/lib/traced.cc); delete them once it reads the registry.
  std::atomic<int64_t> kcrit_hits{0};
  std::atomic<int64_t> kcrit_computes{0};
  /// Live bytes across all current snapshot caches.
  std::atomic<int64_t> bytes{0};

  /// Plain-value copy for delta bridging into a MetricsRegistry.
  struct Snapshot {
    /// Always zero: the candidate-sequence tier is gone. These stay only
    /// because the end-to-end benchmark's traced replay reads them
    /// (e2ebench/lib/traced.cc); delete them once it reads the registry.
    int64_t candidate_hits = 0;
    int64_t candidate_misses = 0;
    int64_t candidate_evictions = 0;
    int64_t result_hits = 0;
    int64_t result_misses = 0;
    int64_t result_evictions = 0;
    int64_t plan_hits = 0;
    int64_t plan_misses = 0;
    int64_t plan_evictions = 0;
    int64_t single_flight_waits = 0;
    int64_t kcrit_hits = 0;
    int64_t kcrit_computes = 0;
    int64_t bytes = 0;

    int64_t hits() const { return result_hits + plan_hits; }
    int64_t misses() const { return result_misses + plan_misses; }
    int64_t evictions() const { return result_evictions + plan_evictions; }
  };

  Snapshot Read() const {
    Snapshot s;
    s.result_hits = result_hits.load(std::memory_order_relaxed);
    s.result_misses = result_misses.load(std::memory_order_relaxed);
    s.result_evictions = result_evictions.load(std::memory_order_relaxed);
    s.plan_hits = plan_hits.load(std::memory_order_relaxed);
    s.plan_misses = plan_misses.load(std::memory_order_relaxed);
    s.plan_evictions = plan_evictions.load(std::memory_order_relaxed);
    s.single_flight_waits =
        single_flight_waits.load(std::memory_order_relaxed);
    s.kcrit_hits = kcrit_hits.load(std::memory_order_relaxed);
    s.kcrit_computes = kcrit_computes.load(std::memory_order_relaxed);
    s.bytes = bytes.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace svq::cache

#endif  // SVQ_CACHE_CACHE_STATS_H_
