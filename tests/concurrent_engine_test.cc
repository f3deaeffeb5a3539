// Concurrency tests of the snapshot-isolated VideoQueryEngine: query
// threads race a writer thread mutating the catalog, and every query result
// must match a serial oracle computed up front (the synthetic models are
// seed-deterministic, so any divergence means shared state leaked between
// a query and a concurrent writer). Labeled `tsan` so the suite also runs
// under ThreadSanitizer via `ctest -L tsan` with -DSVQ_SANITIZE=thread.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "svq/core/engine.h"
#include "svq/query/executor.h"

namespace svq::core {
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
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

Query JumpingCar() {
  Query q;
  q.action = "jumping";
  q.objects = {"car"};
  return q;
}

TEST(ConcurrentEngineTest, QueriesRacingWriterMatchSerialOracle) {
  constexpr int kQueryThreads = 4;
  constexpr int kQueriesPerThread = 8;
  constexpr int kWriterVideos = 6;

  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo("base_a", 12)).ok());
  ASSERT_TRUE(engine.AddVideo(DemoVideo("base_b", 34)).ok());
  ASSERT_TRUE(engine.Ingest("base_a").ok());
  ASSERT_TRUE(engine.Ingest("base_b").ok());

  // Serial oracle, computed before any concurrency starts.
  auto oracle_a = engine.ExecuteTopK(JumpingCar(), "base_a", 3);
  auto oracle_b = engine.ExecuteTopK(JumpingCar(), "base_b", 3);
  auto oracle_online = engine.ExecuteOnline(JumpingCar(), "base_a");
  ASSERT_TRUE(oracle_a.ok()) << oracle_a.status();
  ASSERT_TRUE(oracle_b.ok()) << oracle_b.status();
  ASSERT_TRUE(oracle_online.ok()) << oracle_online.status();

  // Writer: register + ingest new videos and churn the suite while the
  // query threads run. None of it may affect queries over base_a/base_b.
  std::atomic<bool> writer_failed{false};
  std::thread writer([&]() {
    for (int i = 0; i < kWriterVideos; ++i) {
      const std::string name = "extra_" + std::to_string(i);
      if (!engine.AddVideo(DemoVideo(name, 100 + i)).ok() ||
          !engine.Ingest(name).ok()) {
        writer_failed.store(true);
        return;
      }
      engine.set_suite(engine.suite());  // snapshot churn, same values
    }
  });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t]() {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const bool use_a = (t + i) % 2 == 0;
        auto topk = engine.ExecuteTopK(JumpingCar(),
                                       use_a ? "base_a" : "base_b", 3);
        const TopKResult& expected = use_a ? *oracle_a : *oracle_b;
        if (!topk.ok() ||
            topk->sequences.size() != expected.sequences.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t s = 0; s < topk->sequences.size(); ++s) {
          if (!(topk->sequences[s].clips == expected.sequences[s].clips)) {
            mismatches.fetch_add(1);
          }
        }
        if (i % 4 == 0) {
          auto online = engine.ExecuteOnline(JumpingCar(), "base_a");
          if (!online.ok() ||
              !(online->sequences == oracle_online->sequences)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  writer.join();

  EXPECT_FALSE(writer_failed.load());
  EXPECT_EQ(mismatches.load(), 0);
  // The writer's catalog churn landed.
  for (int i = 0; i < kWriterVideos; ++i) {
    EXPECT_NE(engine.Ingested("extra_" + std::to_string(i)), nullptr);
  }
}

TEST(ConcurrentEngineTest, StatementsRacingWriterMatchSerialOracle) {
  const std::string statement =
      "SELECT MERGE(clipID), RANK(act, obj) "
      "FROM (PROCESS base PRODUCE clipID, obj USING ObjectTracker, "
      "act USING ActionRecognizer) "
      "WHERE act='jumping' AND obj.include('car') "
      "ORDER BY RANK(act, obj) LIMIT 2";

  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo("base", 7)).ok());
  ASSERT_TRUE(engine.Ingest("base").ok());
  auto oracle = query::ExecuteStatement(&engine, statement);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_TRUE(oracle->topk.has_value());

  std::thread writer([&]() {
    for (int i = 0; i < 4; ++i) {
      const std::string name = "w_" + std::to_string(i);
      ASSERT_TRUE(engine.AddVideo(DemoVideo(name, 200 + i)).ok());
      ASSERT_TRUE(engine.Ingest(name).ok());
    }
  });
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&]() {
      for (int i = 0; i < 6; ++i) {
        auto result = query::ExecuteStatement(&engine, statement);
        if (!result.ok() || !result->topk.has_value() ||
            result->topk->sequences.size() != oracle->topk->sequences.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t s = 0; s < result->topk->sequences.size(); ++s) {
          if (!(result->topk->sequences[s].clips ==
                oracle->topk->sequences[s].clips)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentEngineTest, PinnedSnapshotIsInvisibleToLaterIngest) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo("demo", 12)).ok());

  // Pin BEFORE the ingest: the snapshot must keep the pre-ingest view.
  const SnapshotPtr before = engine.Pin();
  ASSERT_TRUE(engine.Ingest("demo").ok());

  auto on_pinned = ExecuteTopKOn(before, JumpingCar(), "demo", 3);
  EXPECT_EQ(on_pinned.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(before->Find("demo")->ingested, nullptr);

  // The live engine (and a fresh pin) see the ingest.
  auto live = engine.ExecuteTopK(JumpingCar(), "demo", 3);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_NE(engine.Pin()->Find("demo")->ingested, nullptr);
}

TEST(ConcurrentEngineTest, PinnedSnapshotIsInvisibleToLaterAddVideo) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo("first", 1)).ok());
  const SnapshotPtr before = engine.Pin();
  ASSERT_TRUE(engine.AddVideo(DemoVideo("second", 2)).ok());
  EXPECT_EQ(before->Find("second"), nullptr);
  EXPECT_NE(before->Find("first"), nullptr);
  EXPECT_TRUE(engine.HasVideo("second"));
}

TEST(ConcurrentEngineTest, PinnedArtifactsSurviveCatalogChurn) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());
  const SnapshotPtr pinned = engine.Pin();
  auto expected = ExecuteTopKOn(pinned, JumpingCar(), "demo", 3);
  ASSERT_TRUE(expected.ok());

  // Churn the catalog: a new video plus suite swaps publish new snapshots.
  ASSERT_TRUE(engine.AddVideo(DemoVideo("later", 99)).ok());
  ASSERT_TRUE(engine.Ingest("later").ok());
  engine.set_suite(models::IdealSuite());

  // The pinned snapshot still answers, identically, from its own suite.
  auto again = ExecuteTopKOn(pinned, JumpingCar(), "demo", 3);
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_EQ(again->sequences.size(), expected->sequences.size());
  for (size_t i = 0; i < again->sequences.size(); ++i) {
    EXPECT_EQ(again->sequences[i].clips, expected->sequences[i].clips);
  }
  EXPECT_EQ(pinned->Find("later"), nullptr);
  EXPECT_FALSE(pinned->suite.object_profile.ideal);
  EXPECT_TRUE(engine.suite().object_profile.ideal);
}

TEST(ConcurrentEngineTest, ExpiredDeadlineFailsWithoutTouchingStorage) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());

  storage::StorageMetrics sink;
  ExecutionContext context = ExecutionContext::WithDeadline(
      ExecutionContext::Clock::now() - std::chrono::seconds(1));
  context.set_storage_sink(&sink);

  auto topk = engine.ExecuteTopK(JumpingCar(), "demo", 3,
                                 OfflineAlgorithm::kRvaq, OfflineOptions(),
                                 context);
  EXPECT_TRUE(topk.status().IsDeadlineExceeded()) << topk.status();
  EXPECT_EQ(sink.sorted_accesses, 0);
  EXPECT_EQ(sink.random_accesses, 0);
  EXPECT_EQ(sink.sequential_reads, 0);

  auto online = engine.ExecuteOnline(JumpingCar(), "demo",
                                     OnlineEngine::Mode::kSvaqd, context);
  EXPECT_TRUE(online.status().IsDeadlineExceeded()) << online.status();

  auto all = engine.ExecuteTopKAll(JumpingCar(), 3, OfflineOptions(), context);
  EXPECT_TRUE(all.status().IsDeadlineExceeded()) << all.status();
}

TEST(ConcurrentEngineTest, GenerousDeadlineDoesNotChangeResults) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());
  auto plain = engine.ExecuteTopK(JumpingCar(), "demo", 3);
  ASSERT_TRUE(plain.ok());

  ExecutionContext context =
      ExecutionContext::WithTimeout(std::chrono::minutes(10));
  auto limited = engine.ExecuteTopK(JumpingCar(), "demo", 3,
                                    OfflineAlgorithm::kRvaq, OfflineOptions(),
                                    context);
  ASSERT_TRUE(limited.ok()) << limited.status();
  ASSERT_EQ(limited->sequences.size(), plain->sequences.size());
  for (size_t i = 0; i < limited->sequences.size(); ++i) {
    EXPECT_EQ(limited->sequences[i].clips, plain->sequences[i].clips);
  }
}

TEST(ConcurrentEngineTest, CancellationAbortsMidQuery) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo("demo", 12)).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());

  // Pre-cancelled: fails before any work.
  CancellationSource source;
  source.Cancel();
  ExecutionContext context;
  context.set_cancellation(source.token());
  auto topk = engine.ExecuteTopK(JumpingCar(), "demo", 3,
                                 OfflineAlgorithm::kRvaq, OfflineOptions(),
                                 context);
  EXPECT_TRUE(topk.status().IsCancelled()) << topk.status();
  auto online = engine.ExecuteOnline(JumpingCar(), "demo",
                                     OnlineEngine::Mode::kSvaqd, context);
  EXPECT_TRUE(online.status().IsCancelled()) << online.status();

  // Cancel fired from another thread while queries loop: every query ends,
  // each either OK (finished first) or Cancelled — never anything else.
  CancellationSource racing;
  ExecutionContext racing_context;
  racing_context.set_cancellation(racing.token());
  std::atomic<int> bad_status{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < 20; ++i) {
        auto result = engine.ExecuteTopK(JumpingCar(), "demo", 3,
                                         OfflineAlgorithm::kRvaq,
                                         OfflineOptions(), racing_context);
        if (!result.ok() && !result.status().IsCancelled()) {
          bad_status.fetch_add(1);
        }
        if (racing.cancelled()) return;
      }
    });
  }
  racing.Cancel();
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(bad_status.load(), 0);
}

TEST(ConcurrentEngineTest, CachedExecutionMatchesUncachedUnderChurn) {
  // Cached-vs-uncached oracle stress: readers pin a snapshot, run a
  // statement through the default (cached) policy and again with both cache
  // tiers disabled ON THE SAME PIN, and the two must agree bit for bit —
  // clips and both certified bounds — while a writer churns the catalog
  // (every ingest swaps in a fresh snapshot cache). Each statement keeps a
  // fixed LIMIT so cached entries are always same-key-same-K, which is
  // exactly deterministic.
  constexpr int kReaders = 3;
  constexpr int kIterations = 6;
  const std::string videos[] = {"pool_a", "pool_b", "pool_c"};
  const int limits[] = {2, 3, 4};

  VideoQueryEngine engine(models::ModelSuite(), OnlineConfig(),
                          IngestOptions(), cache::CacheOptions::Enabled());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.AddVideo(DemoVideo(videos[i], 40 + i)).ok());
    ASSERT_TRUE(engine.Ingest(videos[i]).ok());
  }

  std::thread writer([&]() {
    for (int i = 0; i < 5; ++i) {
      const std::string name = "churn_" + std::to_string(i);
      ASSERT_TRUE(engine.AddVideo(DemoVideo(name, 300 + i)).ok());
      ASSERT_TRUE(engine.Ingest(name).ok());
    }
  });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      for (int i = 0; i < kIterations; ++i) {
        const int pick = (t + i) % 3;
        const std::string statement =
            "SELECT MERGE(clipID), RANK(act, obj) "
            "FROM (PROCESS " + videos[pick] +
            " PRODUCE clipID, obj USING ObjectTracker, "
            "act USING ActionRecognizer) "
            "WHERE act='jumping' AND obj.include('car') "
            "ORDER BY RANK(act, obj) LIMIT " + std::to_string(limits[pick]);
        const SnapshotPtr pin = engine.Pin();
        query::StatementOptions uncached;
        uncached.offline.cache.use_result_cache = false;
        auto cached = query::ExecuteStatementOn(pin, statement);
        auto plain = query::ExecuteStatementOn(pin, statement, {}, uncached);
        if (!cached.ok() || !plain.ok() || !cached->topk.has_value() ||
            !plain->topk.has_value() ||
            cached->topk->sequences.size() != plain->topk->sequences.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t s = 0; s < cached->topk->sequences.size(); ++s) {
          const RankedSequence& lhs = cached->topk->sequences[s];
          const RankedSequence& rhs = plain->topk->sequences[s];
          if (!(lhs.clips == rhs.clips) ||
              lhs.lower_bound != rhs.lower_bound ||
              lhs.upper_bound != rhs.upper_bound) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
  // The point of caching: the repeated statements actually hit.
  EXPECT_GT(engine.cache_stats()->Read().hits(), 0);
}

TEST(ConcurrentEngineTest, BroadcastsMatchUnfilteredFanOutUnderChurn) {
  // A broadcast runs only the videos its snapshot's label index says carry
  // every label. Readers pin mid-churn and compare each broadcast with the
  // unfiltered fan-out over every ingested video of the same pin: sequences
  // and bounds bit for bit, storage counters exactly. The writer alternates
  // videos with different labels, so the index both keeps and drops videos.
  constexpr int kReaders = 3;
  constexpr int kIterations = 6;
  auto waving_video = [](const std::string& name, uint64_t seed) {
    video::SyntheticVideoSpec spec;
    spec.name = name;
    spec.num_frames = 16000;
    spec.seed = seed;
    spec.actions.push_back({"waving", 350.0, 4200.0});
    video::SyntheticObjectSpec human;
    human.label = "human";
    human.correlate_with_action = "waving";
    human.correlation = 0.9;
    human.coverage = 0.9;
    human.mean_on_frames = 250.0;
    human.mean_off_frames = 2200.0;
    spec.objects.push_back(human);
    auto video = video::SyntheticVideo::Generate(spec);
    EXPECT_TRUE(video.ok());
    return *video;
  };
  Query waving_human;
  waving_human.action = "waving";
  waving_human.objects = {"human"};
  Query jumping_human;  // no video carries both labels
  jumping_human.action = "jumping";
  jumping_human.objects = {"human"};
  const Query queries[] = {JumpingCar(), waving_human, jumping_human};

  VideoQueryEngine engine(models::ModelSuite(), OnlineConfig(),
                          IngestOptions(), cache::CacheOptions::Enabled());
  ASSERT_TRUE(engine.AddVideo(DemoVideo("pool_a", 40)).ok());
  ASSERT_TRUE(engine.Ingest("pool_a").ok());

  std::thread writer([&]() {
    for (int i = 0; i < 6; ++i) {
      const std::string name = "churn_" + std::to_string(i);
      ASSERT_TRUE(engine
                      .AddVideo(i % 2 == 0 ? waving_video(name, 500 + i)
                                           : DemoVideo(name, 500 + i))
                      .ok());
      ASSERT_TRUE(engine.Ingest(name).ok());
    }
  });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      const AdditiveScoring scoring;
      for (int i = 0; i < kIterations; ++i) {
        const Query& query = queries[(t + i) % 3];
        const int k = 1 + 2 * ((t + i) % 3);
        OfflineOptions options;
        options.runtime.num_threads = 1 + 3 * (i % 2);
        const SnapshotPtr pin = engine.Pin();
        std::vector<const IngestedVideo*> all;
        for (const auto& [name, entry] : pin->videos) {
          if (entry.ingested != nullptr) all.push_back(entry.ingested.get());
        }
        auto got = ExecuteTopKAllOn(pin, query, k, options);
        auto want = RunRepositoryTopK(all, query, k, scoring, options);
        if (!got.ok() || !want.ok() ||
            got->sequences.size() != want->sequences.size() ||
            got->stats.storage.sorted_accesses !=
                want->stats.storage.sorted_accesses ||
            got->stats.storage.random_accesses !=
                want->stats.storage.random_accesses) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t s = 0; s < got->sequences.size(); ++s) {
          const RepositoryEntry& lhs = got->sequences[s];
          const RepositoryEntry& rhs = want->sequences[s];
          if (lhs.video_name != rhs.video_name ||
              !(lhs.sequence.clips == rhs.sequence.clips) ||
              lhs.sequence.lower_bound != rhs.sequence.lower_bound ||
              lhs.sequence.upper_bound != rhs.sequence.upper_bound) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentEngineTest, ConcurrentIngestAllPublishesAtomically) {
  VideoQueryEngine engine;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        engine.AddVideo(DemoVideo("v_" + std::to_string(i), 10 + i)).ok());
  }
  // Readers poll the catalog while IngestAll runs in parallel waves.
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread poller([&]() {
    while (!done.load()) {
      const SnapshotPtr snap = engine.Pin();
      // Monotonicity within one snapshot: every entry is fully formed.
      for (const auto& [name, entry] : snap->videos) {
        if (entry.video == nullptr) violations.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  ASSERT_TRUE(engine.IngestAll(/*parallelism=*/2).ok());
  done.store(true);
  poller.join();
  EXPECT_EQ(violations.load(), 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(engine.Ingested("v_" + std::to_string(i)), nullptr);
  }
}

}  // namespace
}  // namespace svq::core
