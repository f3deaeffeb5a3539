#ifndef SVQ_CACHE_CACHE_OPTIONS_H_
#define SVQ_CACHE_CACHE_OPTIONS_H_

#include <cstddef>

namespace svq::cache {

/// Engine-level cache sizing (docs/caching.md). Passed to the
/// VideoQueryEngine constructor; every snapshot the engine publishes gets a
/// fresh SnapshotCache built from these knobs. Disabled by default so that
/// single-shot tools, tests and benchmarks keep their historical cold-path
/// behavior byte for byte; serving deployments (svqd) enable it.
struct CacheOptions {
  /// Master switch: when false, snapshots carry no cache at all and every
  /// per-statement policy toggle is inert.
  bool enabled = false;
  /// Inert: nothing reads it since the candidate-sequence tier was
  /// deleted. It stays only because the end-to-end benchmark still sets it
  /// (e2ebench/lib/stack.cc); delete it once the benchmark reads the
  /// registry.
  size_t candidate_bytes = size_t{64} << 20;
  /// LRU byte budget of the top-K result tier (keyed on the statement
  /// fingerprint; a cached K answers any smaller K).
  size_t result_bytes = size_t{32} << 20;
  /// LRU byte budget of the physical-plan tier (keyed on the statement
  /// fingerprint; plans are tiny, so this is generous).
  size_t plan_bytes = size_t{4} << 20;
  /// Lock shards per LRU tier; bounds writer contention on the hot lookup
  /// path. Must be >= 1.
  int shards = 8;

  /// Convenience: an enabled configuration whose result tier gets all of
  /// `total_mb` (the plan tier keeps its own small budget).
  static CacheOptions Enabled(size_t total_mb = 96) {
    CacheOptions options;
    options.enabled = true;
    options.result_bytes = total_mb << 20;
    return options;
  }
};

/// Per-statement cache policy, threaded through StatementOptions /
/// OfflineOptions. The toggles default on; they only take effect when the
/// pinned snapshot actually carries a cache (CacheOptions::enabled). The
/// oracle tests flip these off to re-run a statement uncached against the
/// same snapshot and compare bit-identical results.
struct CachePolicy {
  /// Inert: the candidate-sequence tier is gone. It stays only because the
  /// end-to-end benchmark still sets it (e2ebench/lib/stack.cc); delete it
  /// once the benchmark reads the registry.
  bool use_candidate_cache = true;
  bool use_result_cache = true;
  bool use_plan_cache = true;
};

}  // namespace svq::cache

#endif  // SVQ_CACHE_CACHE_OPTIONS_H_
