// Tests of the snapshot-keyed query cache (docs/caching.md): fingerprint
// stability, LRU bounds, top-K K-prefix reuse, single-flight
// deduplication, and the structural staleness guarantee (a publish swaps
// in a fresh cache while pinned snapshots keep their own generation).
// Labeled `tsan` so the concurrent pieces also run under ThreadSanitizer.

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "svq/cache/fingerprint.h"
#include "svq/cache/lru_cache.h"
#include "svq/cache/query_cache.h"
#include "svq/core/engine.h"
#include "svq/query/executor.h"

namespace svq::cache {
namespace {

std::shared_ptr<const video::SyntheticVideo> DemoVideo(const std::string& name,
                                                       uint64_t seed) {
  video::SyntheticVideoSpec spec;
  spec.name = name;
  spec.num_frames = 16000;
  spec.seed = seed;
  spec.actions.push_back({"jumping", 350.0, 4200.0});
  video::SyntheticObjectSpec car;
  car.label = "car";
  car.correlate_with_action = "jumping";
  car.correlation = 0.9;
  car.coverage = 0.9;
  car.mean_on_frames = 250.0;
  car.mean_off_frames = 2200.0;
  spec.objects.push_back(car);
  video::SyntheticObjectSpec human;
  human.label = "human";
  human.correlate_with_action = "jumping";
  human.correlation = 0.8;
  human.coverage = 0.8;
  human.mean_on_frames = 300.0;
  human.mean_off_frames = 1800.0;
  spec.objects.push_back(human);
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

core::Query JumpingCar() {
  core::Query q;
  q.action = "jumping";
  q.objects = {"car"};
  return q;
}

TEST(FingerprintTest, DeterministicAndOrderSensitive) {
  const uint64_t ab = Fingerprint().Mix("a").Mix("b").value();
  EXPECT_EQ(ab, Fingerprint().Mix("a").Mix("b").value());
  EXPECT_NE(ab, Fingerprint().Mix("b").Mix("a").value());
  // Length prefixing: concatenation cannot alias across field boundaries.
  EXPECT_NE(Fingerprint().Mix("ab").Mix("c").value(),
            Fingerprint().Mix("a").Mix("bc").value());
  // Numeric overloads distinguish values and the double path is bit-exact.
  EXPECT_NE(Fingerprint().Mix(1).value(), Fingerprint().Mix(2).value());
  EXPECT_NE(Fingerprint().Mix(0.0).value(), Fingerprint().Mix(-0.0).value());
  // Seeded resume is deterministic too.
  EXPECT_EQ(Fingerprint(ab).Mix(7).value(), Fingerprint(ab).Mix(7).value());
}

TEST(ShardedLruCacheTest, InsertLookupAndCounters) {
  std::atomic<int64_t> hits{0}, misses{0}, evictions{0}, bytes{0};
  ShardedLruCache<int> cache(/*max_bytes=*/4096, /*num_shards=*/2, &hits,
                             &misses, &evictions, &bytes);
  EXPECT_FALSE(cache.Lookup(1).has_value());
  EXPECT_EQ(misses.load(), 1);
  cache.Insert(1, 42, 100);
  auto found = cache.Lookup(1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 42);
  EXPECT_EQ(hits.load(), 1);
  EXPECT_GT(bytes.load(), 0);
  // Replacement keeps one entry and does not leak byte accounting.
  cache.Insert(1, 43, 100);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Lookup(1), 43);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsedByBytes) {
  std::atomic<int64_t> evictions{0}, bytes{0};
  // One shard, tight budget: only a few entries fit.
  ShardedLruCache<int> cache(/*max_bytes=*/1000, /*num_shards=*/1, nullptr,
                             nullptr, &evictions, &bytes);
  for (int i = 0; i < 10; ++i) {
    cache.Insert(static_cast<uint64_t>(i), i, 200);
  }
  EXPECT_GT(evictions.load(), 0);
  EXPECT_LE(cache.bytes(), 1000u + 264u);  // at most one oversized admit
  // The most recent insert survived; the oldest did not.
  EXPECT_TRUE(cache.Lookup(9).has_value());
  EXPECT_FALSE(cache.Lookup(0).has_value());
  EXPECT_EQ(bytes.load(), static_cast<int64_t>(cache.bytes()));
}

TEST(ShardedLruCacheTest, DestructorReleasesLiveBytes) {
  std::atomic<int64_t> bytes{0};
  {
    ShardedLruCache<int> cache(4096, 2, nullptr, nullptr, nullptr, &bytes);
    cache.Insert(1, 1, 100);
    cache.Insert(2, 2, 100);
    EXPECT_GT(bytes.load(), 0);
  }
  EXPECT_EQ(bytes.load(), 0);
}

TEST(CachedTopKTest, ServesSemantics) {
  CachedTopK exact;
  exact.computed_k = 5;
  exact.exact = true;
  exact.entries.resize(5);
  EXPECT_TRUE(exact.Serves(5));
  EXPECT_TRUE(exact.Serves(3));
  EXPECT_FALSE(exact.Serves(6));

  // Fewer candidates than K: the whole population is ranked.
  CachedTopK exhaustive = exact;
  exhaustive.entries.resize(2);
  EXPECT_TRUE(exhaustive.Serves(10));

  // Non-exact bounds depend on the run's K: only the same K is served.
  CachedTopK bounds_only = exact;
  bounds_only.exact = false;
  EXPECT_TRUE(bounds_only.Serves(5));
  EXPECT_FALSE(bounds_only.Serves(3));
}

TEST(SingleFlightTest, OneLeaderPerKey) {
  SingleFlight flights;
  EXPECT_TRUE(flights.Begin(7));
  EXPECT_FALSE(flights.Begin(7));
  EXPECT_TRUE(flights.Begin(8));  // other keys are independent
  flights.End(7);
  EXPECT_TRUE(flights.Begin(7));
  flights.End(7);
  flights.End(8);
}

TEST(QueryCacheTest, ResultCacheServesRepeatAndSmallerK) {
  core::VideoQueryEngine engine(models::ModelSuite(), core::OnlineConfig(),
                                core::IngestOptions(),
                                CacheOptions::Enabled());
  ASSERT_TRUE(engine.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());

  auto first = engine.ExecuteTopK(JumpingCar(), "demo", 5);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GE(first->sequences.size(), 1u);

  // Identical repeat: served from cache, bit-identical, zero storage work.
  storage::StorageMetrics sink;
  ExecutionContext context;
  context.set_storage_sink(&sink);
  auto repeat = engine.ExecuteTopK(JumpingCar(), "demo", 5,
                                   core::OfflineAlgorithm::kRvaq,
                                   core::OfflineOptions(), context);
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  EXPECT_GT(engine.cache_stats()->Read().result_hits, 0);
  EXPECT_EQ(sink.sorted_accesses + sink.random_accesses, 0);
  ASSERT_EQ(repeat->sequences.size(), first->sequences.size());
  for (size_t i = 0; i < repeat->sequences.size(); ++i) {
    EXPECT_EQ(repeat->sequences[i].clips, first->sequences[i].clips);
    EXPECT_EQ(repeat->sequences[i].lower_bound,
              first->sequences[i].lower_bound);
    EXPECT_EQ(repeat->sequences[i].upper_bound,
              first->sequences[i].upper_bound);
  }

  // K' = 3 < 5 is the exact K-prefix. A direct K=3 run ranks the same
  // sequences; exact scores may differ by float-summation order across
  // different K runs, so scores are compared to tolerance, clips exactly.
  auto smaller = engine.ExecuteTopK(JumpingCar(), "demo", 3);
  ASSERT_TRUE(smaller.ok()) << smaller.status();
  core::VideoQueryEngine plain;
  ASSERT_TRUE(plain.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(plain.Ingest("demo").ok());
  auto direct = plain.ExecuteTopK(JumpingCar(), "demo", 3);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(smaller->sequences.size(), direct->sequences.size());
  for (size_t i = 0; i < smaller->sequences.size(); ++i) {
    EXPECT_EQ(smaller->sequences[i].clips, direct->sequences[i].clips);
    EXPECT_NEAR(smaller->sequences[i].lower_bound,
                direct->sequences[i].lower_bound, 1e-9);
    EXPECT_NEAR(smaller->sequences[i].upper_bound,
                direct->sequences[i].upper_bound, 1e-9);
  }
}

TEST(QueryCacheTest, CachePolicyOptOutBypassesBothTiers) {
  core::VideoQueryEngine engine(models::ModelSuite(), core::OnlineConfig(),
                                core::IngestOptions(),
                                CacheOptions::Enabled());
  ASSERT_TRUE(engine.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());

  core::OfflineOptions uncached;
  uncached.cache.use_result_cache = false;
  ASSERT_TRUE(engine
                  .ExecuteTopK(JumpingCar(), "demo", 3,
                               core::OfflineAlgorithm::kRvaq, uncached)
                  .ok());
  ASSERT_TRUE(engine
                  .ExecuteTopK(JumpingCar(), "demo", 3,
                               core::OfflineAlgorithm::kRvaq, uncached)
                  .ok());
  const CacheStats::Snapshot stats = engine.cache_stats()->Read();
  EXPECT_EQ(stats.result_hits + stats.result_misses, 0);
}

TEST(QueryCacheTest, PublishSwapsInFreshCacheAndPinsKeepTheirs) {
  core::VideoQueryEngine engine(models::ModelSuite(), core::OnlineConfig(),
                                core::IngestOptions(),
                                CacheOptions::Enabled());
  ASSERT_TRUE(engine.AddVideo(DemoVideo("a", 1)).ok());
  ASSERT_TRUE(engine.Ingest("a").ok());

  const core::SnapshotPtr old_pin = engine.Pin();
  ASSERT_NE(old_pin->cache, nullptr);
  auto warm = core::ExecuteTopKOn(old_pin, JumpingCar(), "a", 3);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(old_pin->cache->result_entries(), 0u);

  // Churn: a new ingest publishes a snapshot with a *different, empty*
  // cache — entries derived from the old artifact set cannot leak forward.
  ASSERT_TRUE(engine.AddVideo(DemoVideo("b", 2)).ok());
  ASSERT_TRUE(engine.Ingest("b").ok());
  const core::SnapshotPtr new_pin = engine.Pin();
  ASSERT_NE(new_pin->cache, nullptr);
  EXPECT_NE(new_pin->cache, old_pin->cache);
  EXPECT_EQ(new_pin->cache->result_entries(), 0u);

  // The new snapshot serves the new catalog: a repository sweep sees both
  // videos even though the old cache held entries for one.
  auto all = core::ExecuteTopKAllOn(new_pin, JumpingCar(), 8);
  ASSERT_TRUE(all.ok()) << all.status();
  bool saw_b = false;
  for (const auto& entry : all->sequences) {
    if (entry.video_name == "b") saw_b = true;
  }
  EXPECT_TRUE(saw_b);

  // The old pin still answers from its own generation, identically.
  auto again = core::ExecuteTopKOn(old_pin, JumpingCar(), "a", 3);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->sequences.size(), warm->sequences.size());
  for (size_t i = 0; i < again->sequences.size(); ++i) {
    EXPECT_EQ(again->sequences[i].clips, warm->sequences[i].clips);
  }
}

TEST(QueryCacheTest, SingleFlightDeduplicatesConcurrentIdenticalQueries) {
  core::VideoQueryEngine engine(models::ModelSuite(), core::OnlineConfig(),
                                core::IngestOptions(),
                                CacheOptions::Enabled());
  ASSERT_TRUE(engine.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());

  // Baseline storage cost of one cold run, from an identical engine.
  core::VideoQueryEngine baseline_engine(models::ModelSuite(),
                                         core::OnlineConfig(),
                                         core::IngestOptions(),
                                         CacheOptions::Enabled());
  ASSERT_TRUE(baseline_engine.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(baseline_engine.Ingest("demo").ok());
  storage::StorageMetrics baseline;
  {
    ExecutionContext context;
    context.set_storage_sink(&baseline);
    ASSERT_TRUE(baseline_engine
                    .ExecuteTopK(JumpingCar(), "demo", 3,
                                 core::OfflineAlgorithm::kRvaq,
                                 core::OfflineOptions(), context)
                    .ok());
  }
  const int64_t cold_accesses =
      baseline.sorted_accesses + baseline.random_accesses;
  ASSERT_GT(cold_accesses, 0);

  // N identical concurrent statements: exactly one (the single-flight
  // leader) pays the storage cost; followers wait and serve from cache.
  constexpr int kThreads = 8;
  std::vector<storage::StorageMetrics> sinks(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecutionContext context;
      context.set_storage_sink(&sinks[t]);
      auto result = engine.ExecuteTopK(JumpingCar(), "demo", 3,
                                       core::OfflineAlgorithm::kRvaq,
                                       core::OfflineOptions(), context);
      if (!result.ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  int64_t total = 0;
  for (const storage::StorageMetrics& sink : sinks) {
    total += sink.sorted_accesses + sink.random_accesses;
  }
  EXPECT_EQ(total, cold_accesses);
}

TEST(QueryCacheTest, StatementPathPopulatesAndServesCache) {
  const std::string statement =
      "SELECT MERGE(clipID), RANK(act, obj) "
      "FROM (PROCESS demo PRODUCE clipID, obj USING ObjectTracker, "
      "act USING ActionRecognizer) "
      "WHERE act='jumping' AND obj.include('car') "
      "ORDER BY RANK(act, obj) LIMIT 3";
  core::VideoQueryEngine engine(models::ModelSuite(), core::OnlineConfig(),
                                core::IngestOptions(),
                                CacheOptions::Enabled());
  ASSERT_TRUE(engine.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());

  auto cold = query::ExecuteStatement(&engine, statement);
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_TRUE(cold->topk.has_value());
  auto warm = query::ExecuteStatement(&engine, statement);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_GT(engine.cache_stats()->Read().result_hits, 0);
  ASSERT_EQ(warm->topk->sequences.size(), cold->topk->sequences.size());
  for (size_t i = 0; i < warm->topk->sequences.size(); ++i) {
    EXPECT_EQ(warm->topk->sequences[i].clips, cold->topk->sequences[i].clips);
    EXPECT_EQ(warm->topk->sequences[i].lower_bound,
              cold->topk->sequences[i].lower_bound);
    EXPECT_EQ(warm->topk->sequences[i].upper_bound,
              cold->topk->sequences[i].upper_bound);
  }
}

TEST(QueryCacheTest, DisabledEngineCarriesNoCache) {
  core::VideoQueryEngine engine;  // default: caching off
  ASSERT_TRUE(engine.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());
  EXPECT_EQ(engine.Pin()->cache, nullptr);
  ASSERT_TRUE(engine.ExecuteTopK(JumpingCar(), "demo", 3).ok());
  ASSERT_TRUE(engine.ExecuteTopK(JumpingCar(), "demo", 3).ok());
  const CacheStats::Snapshot stats = engine.cache_stats()->Read();
  EXPECT_EQ(stats.hits() + stats.misses(), 0);
}

}  // namespace
}  // namespace svq::cache
