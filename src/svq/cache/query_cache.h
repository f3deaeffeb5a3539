#ifndef SVQ_CACHE_QUERY_CACHE_H_
#define SVQ_CACHE_QUERY_CACHE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "svq/cache/cache_options.h"
#include "svq/cache/cache_stats.h"
#include "svq/cache/lru_cache.h"
#include "svq/video/interval_set.h"

namespace svq::cache {

/// A memoized ranked top-K answer. Stored in the cache layer's own value
/// type (intervals + certified bounds) so the cache library stays below
/// svq_core in the dependency stack; the engine converts to/from its
/// TopKResult at the boundary.
struct CachedTopK {
  struct Entry {
    video::Interval clips;
    double lower_bound = 0.0;
    double upper_bound = 0.0;
  };

  /// At most `computed_k` sequences, highest score first.
  std::vector<Entry> entries;
  /// The K the producing run was asked for.
  int computed_k = 0;
  /// Whether the producing run resolved exact scores
  /// (OfflineOptions::compute_exact_scores). Only exact entries may serve a
  /// smaller K: their ranking is by final exact score, so the K'-prefix of
  /// a K-run is the true top-K' for any K' <= K.
  bool exact = true;

  /// Fewer candidates existed than the run asked for: the entry ranks the
  /// entire candidate population and can serve any K.
  bool exhaustive() const {
    return static_cast<int>(entries.size()) < computed_k;
  }

  /// Whether this entry can answer a request for `k` sequences with results
  /// bit-identical to a fresh run at that k.
  bool Serves(int k) const {
    if (computed_k == k) return true;
    if (!exact) return false;  // non-exact bounds depend on the exact K
    return computed_k >= k || exhaustive();
  }

  size_t ByteSize() const {
    return sizeof(CachedTopK) + entries.size() * sizeof(Entry);
  }
};

/// Type-erased base for cached physical plans. The plan IR lives in
/// svq_plan, *above* this library in the dependency stack, so the cache
/// stores plans behind this interface and the planner downcasts on lookup
/// (it only ever retrieves entries it inserted itself, keyed on its own
/// fingerprints).
class CachedPlan {
 public:
  virtual ~CachedPlan() = default;
  /// Approximate heap footprint, charged against CacheOptions::plan_bytes.
  virtual size_t ByteSize() const = 0;
};

/// Deduplicates concurrent identical computations: the first caller to
/// Begin(key) becomes the leader and computes; followers wait briefly, then
/// re-check the cache (the leader inserts before End). A leader that fails
/// simply Ends without inserting, and the next waiter promotes itself — no
/// error is ever served from the flight table.
///
/// Deadline handling stays with the caller: waiters use short waits and
/// poll their ExecutionContext between them, so the cache library needs no
/// context dependency.
class SingleFlight {
 public:
  /// True when this caller became the leader for `key` and must call End.
  bool Begin(uint64_t key);

  /// Releases leadership of `key` and wakes every waiter.
  void End(uint64_t key);

  /// Blocks until `key` has no active leader, or `max_wait` elapses.
  void WaitBriefly(uint64_t key,
                   std::chrono::milliseconds max_wait =
                       std::chrono::milliseconds(1));

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_set<uint64_t> active_;
};

/// RAII leadership release for SingleFlight: arms after a successful
/// Begin, Ends on scope exit (success and error paths alike).
class SingleFlightLease {
 public:
  SingleFlightLease() = default;
  SingleFlightLease(SingleFlight* flights, uint64_t key)
      : flights_(flights), key_(key) {}
  ~SingleFlightLease() {
    if (flights_ != nullptr) flights_->End(key_);
  }

  SingleFlightLease(SingleFlightLease&& other) noexcept
      : flights_(other.flights_), key_(other.key_) {
    other.flights_ = nullptr;
  }
  SingleFlightLease& operator=(SingleFlightLease&& other) noexcept {
    if (this != &other) {
      if (flights_ != nullptr) flights_->End(key_);
      flights_ = other.flights_;
      key_ = other.key_;
      other.flights_ = nullptr;
    }
    return *this;
  }
  SingleFlightLease(const SingleFlightLease&) = delete;
  SingleFlightLease& operator=(const SingleFlightLease&) = delete;

 private:
  SingleFlight* flights_ = nullptr;
  uint64_t key_ = 0;
};

/// The per-snapshot query cache (docs/caching.md): two tiers keyed on
/// fingerprints whose implicit first component is the snapshot itself — a
/// fresh SnapshotCache is attached to every published CatalogSnapshot, so
/// invalidation is structural (old generations die with the snapshot
/// refcount) and a pinned snapshot can never observe entries from a newer
/// catalog.
///
///  - results: whole ranked top-K answers per statement fingerprint, with
///    K-prefix reuse and single-flight deduplication.
///  - plans: lowered physical plans per statement fingerprint.
///
/// All tiers are safe for concurrent use; `stats` (shared with the owning
/// engine) survives snapshot churn, so hit/miss counters are cumulative
/// while the bytes gauge tracks only live entries.
class SnapshotCache {
 public:
  SnapshotCache(const CacheOptions& options,
                std::shared_ptr<CacheStats> stats);

  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  // Top-K results.
  std::optional<std::shared_ptr<const CachedTopK>> LookupResult(uint64_t key);
  void InsertResult(uint64_t key, std::shared_ptr<const CachedTopK> value);
  SingleFlight& result_flights() { return result_flights_; }

  // Physical plans per statement fingerprint. Like every tier the
  // keys are implicitly snapshot-scoped, so a cached plan's embedded cost
  // estimates always reflect the statistics of the snapshot it serves.
  std::optional<std::shared_ptr<const CachedPlan>> LookupPlan(uint64_t key);
  void InsertPlan(uint64_t key, std::shared_ptr<const CachedPlan> value);

  const std::shared_ptr<CacheStats>& stats() const { return stats_; }

  size_t result_entries() const { return results_.size(); }
  size_t plan_entries() const { return plans_.size(); }

 private:
  std::shared_ptr<CacheStats> stats_;
  ShardedLruCache<std::shared_ptr<const CachedTopK>> results_;
  ShardedLruCache<std::shared_ptr<const CachedPlan>> plans_;
  SingleFlight result_flights_;
};

}  // namespace svq::cache

#endif  // SVQ_CACHE_QUERY_CACHE_H_
