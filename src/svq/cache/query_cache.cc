#include "svq/cache/query_cache.h"

#include <utility>

namespace svq::cache {

bool SingleFlight::Begin(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.insert(key).second;
}

void SingleFlight::End(uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.erase(key);
  }
  cv_.notify_all();
}

void SingleFlight::WaitBriefly(uint64_t key, std::chrono::milliseconds max_wait) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, max_wait,
               [this, key] { return active_.count(key) == 0; });
}

SnapshotCache::SnapshotCache(const CacheOptions& options,
                             std::shared_ptr<CacheStats> stats)
    : stats_(std::move(stats)),
      results_(options.result_bytes, options.shards,
               stats_ ? &stats_->result_hits : nullptr,
               stats_ ? &stats_->result_misses : nullptr,
               stats_ ? &stats_->result_evictions : nullptr,
               stats_ ? &stats_->bytes : nullptr),
      plans_(options.plan_bytes, options.shards,
             stats_ ? &stats_->plan_hits : nullptr,
             stats_ ? &stats_->plan_misses : nullptr,
             stats_ ? &stats_->plan_evictions : nullptr,
             stats_ ? &stats_->bytes : nullptr) {}

std::optional<std::shared_ptr<const CachedTopK>> SnapshotCache::LookupResult(
    uint64_t key) {
  return results_.Lookup(key);
}

void SnapshotCache::InsertResult(uint64_t key,
                                 std::shared_ptr<const CachedTopK> value) {
  const size_t bytes = value ? value->ByteSize() : sizeof(CachedTopK);
  results_.Insert(key, std::move(value), bytes);
}

std::optional<std::shared_ptr<const CachedPlan>> SnapshotCache::LookupPlan(
    uint64_t key) {
  return plans_.Lookup(key);
}

void SnapshotCache::InsertPlan(uint64_t key,
                               std::shared_ptr<const CachedPlan> value) {
  const size_t bytes = value ? value->ByteSize() : sizeof(CachedPlan);
  plans_.Insert(key, std::move(value), bytes);
}

}  // namespace svq::cache
