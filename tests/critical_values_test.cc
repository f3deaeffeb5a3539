// Tests of the exact critical-value tables (svq/core/critical_values.h):
// CriticalValueTable::Get must equal the floored direct
// stats::CriticalValue at every p, whatever order the p values arrive in,
// from one thread or many, and every k_crit an SVAQD run reports must be
// the floored direct value of the background p it reports beside it.
// Labeled `tsan` so the concurrent fill runs under ThreadSanitizer.

#include "svq/core/critical_values.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "svq/core/engine.h"
#include "svq/core/online_engine.h"
#include "svq/models/synthetic_models.h"
#include "svq/stats/scan_statistics.h"
#include "svq/stream/dispatcher.h"
#include "svq/video/synthetic_video.h"
#include "svq/video/video_stream.h"

namespace svq::core {
namespace {

struct Tuple {
  int window;
  double num_windows;
  double alpha;
};

/// The oracle: direct evaluation, floored as the engines floor it, and the
/// most conservative quota when CriticalValue rejects its input.
int Direct(const Tuple& t, double p) {
  auto result = stats::CriticalValue({p, t.window, t.num_windows}, t.alpha);
  const int k = result.ok() ? *result : t.window + 1;
  return std::max(k, std::min(kMinCriticalValue, t.window));
}

std::string Describe(const Tuple& t, double p) {
  return "window " + std::to_string(t.window) + ", L " +
         std::to_string(t.num_windows) + ", alpha " +
         std::to_string(t.alpha) + ", p " + std::to_string(p);
}

TEST(CriticalValueTableTest, EqualsDirectCriticalValueEverywhere) {
  const std::vector<Tuple> tuples = {
      {80, 200.0, 0.05}, {5, 200.0, 0.05}, {16, 200.0, 0.01}, {40, 50.0, 0.1}};
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> log10_p(-12.0, 0.0);
  for (const Tuple& t : tuples) {
    std::vector<double> ps = {0.0,  -0.0, 1.0, -1e-9, -0.5, 1.0 + 1e-12,
                              1.5, std::numeric_limits<double>::infinity(),
                              std::nan("")};
    // 12k log-spaced p over [1e-12, 0.98].
    constexpr int kGrid = 12000;
    for (int i = 0; i < kGrid; ++i) {
      ps.push_back(std::exp(std::log(1e-12) + (std::log(0.98) -
                                               std::log(1e-12)) *
                                                  i / (kGrid - 1)));
    }
    // 20k seeded random p, log-uniform over [1e-12, 1]. Not uniform on
    // [0, 1]: direct evaluation costs up to a millisecond per p near 1.
    for (int i = 0; i < 20000; ++i) {
      ps.push_back(std::pow(10.0, log10_p(rng)));
    }
    const CriticalValueTable& table =
        CriticalValueTable::For(t.window, t.num_windows, t.alpha);
    int mismatches = 0;
    for (double p : ps) {
      const int want = Direct(t, p);
      const int got = table.Get(p);
      if (got != want && ++mismatches <= 5) {
        ADD_FAILURE() << Describe(t, p) << ": table " << got << ", direct "
                      << want;
      }
    }
    EXPECT_EQ(mismatches, 0) << Describe(t, 0.0);
    // Out-of-range p gets the conservative quota, never the floor.
    EXPECT_EQ(table.Get(-1e-9), t.window + 1);
    EXPECT_EQ(table.Get(1.5), t.window + 1);
    EXPECT_EQ(table.Get(std::nan("")), t.window + 1);
    EXPECT_EQ(table.Get(0.0), std::min(kMinCriticalValue, t.window));
    EXPECT_EQ(table.Get(1.0), t.window + 1);
  }
}

TEST(CriticalValueTableTest, RejectedParametersGiveTheConservativeQuota) {
  // Direct evaluation fails for these tuples at every p.
  for (const Tuple& t : {Tuple{10, 200.0, 0.0}, Tuple{10, 200.0, 1.0},
                         Tuple{10, 0.5, 0.05}, Tuple{0, 200.0, 0.05}}) {
    const CriticalValueTable& table =
        CriticalValueTable::For(t.window, t.num_windows, t.alpha);
    for (double p : {0.0, 1e-4, 0.5, 1.0}) {
      EXPECT_EQ(table.Get(p), Direct(t, p)) << Describe(t, p);
      EXPECT_EQ(table.Get(p), t.window + 1) << Describe(t, p);
    }
  }
}

TEST(CriticalValueTableTest, AnswersDoNotDependOnArrivalOrder) {
  // Window 80, L 200, alpha 0.05 steps from 2 to 3 near p = 2.06004e-4. A
  // memo that keeps the first p to reach a bucket answered 2, 2 for
  // (below, above) and 3, 3 for (above, below).
  const Tuple t{80, 200.0, 0.05};
  const double below = 2.05994e-4;
  const double above = 2.06014e-4;
  ASSERT_EQ(Direct(t, below), 2);
  ASSERT_EQ(Direct(t, above), 3);

  CriticalValueTable below_first(t.window, t.num_windows, t.alpha);
  EXPECT_EQ(below_first.Get(below), 2);
  EXPECT_EQ(below_first.Get(above), 3);

  CriticalValueTable above_first(t.window, t.num_windows, t.alpha);
  EXPECT_EQ(above_first.Get(above), 3);
  EXPECT_EQ(above_first.Get(below), 2);

  const CriticalValueTable& shared =
      CriticalValueTable::For(t.window, t.num_windows, t.alpha);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(shared.Get(above), 3);
    EXPECT_EQ(shared.Get(below), 2);
  }
}

TEST(CriticalValueTableTest, ConcurrentFirstFillMatchesDirect) {
  // A tuple no other test uses, so the levels fill while 8 threads read.
  const Tuple t{37, 123.0, 0.0333};
  const CriticalValueTable& table =
      CriticalValueTable::For(t.window, t.num_windows, t.alpha);
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::mt19937_64 rng(1000 + i);
      std::uniform_real_distribution<double> log10_p(-9.0, 0.0);
      for (int n = 0; n < 400; ++n) {
        const double p = std::pow(10.0, log10_p(rng));
        if (table.Get(p) != Direct(t, p)) ++mismatches[i];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(mismatches[i], 0) << i;
}

TEST(NullExclusionQuotaTest, CapsAtHalfTheClipAndFloorsAtTwo) {
  EXPECT_EQ(NullExclusionQuota(1, 80), 2);
  EXPECT_EQ(NullExclusionQuota(5, 80), 5);
  EXPECT_EQ(NullExclusionQuota(81, 80), 40);
  EXPECT_EQ(NullExclusionQuota(81, 81), 41);
  EXPECT_EQ(NullExclusionQuota(6, 3), 2);
}

std::shared_ptr<const video::SyntheticVideo> DriftingVideo(
    const std::string& name, uint64_t seed) {
  video::SyntheticVideoSpec spec;
  spec.name = name;
  spec.num_frames = 24000;
  spec.seed = seed;
  spec.actions.push_back({"smoking", 350.0, 3000.0});
  video::SyntheticObjectSpec cup;
  cup.label = "cup";
  cup.correlate_with_action = "smoking";
  cup.correlation = 0.8;
  cup.coverage = 0.9;
  cup.mean_on_frames = 250.0;
  cup.mean_off_frames = 1800.0;
  spec.objects.push_back(cup);
  video::SyntheticObjectSpec car;
  car.label = "car";
  car.mean_on_frames = 120.0;
  car.mean_off_frames = 900.0;
  spec.objects.push_back(car);
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok()) << video.status();
  return *video;
}

/// Every k_crit in `stats` is the floored direct critical value of the
/// background p reported beside it.
void ExpectReportedKcritsExact(const OnlineStats& stats,
                               const video::VideoLayout& layout,
                               const OnlineConfig& config,
                               const std::string& where) {
  ASSERT_EQ(stats.object_kcrits.size(), stats.object_p.size()) << where;
  const Tuple frames{layout.FramesPerClip(), config.reference_windows,
                     config.alpha};
  for (size_t i = 0; i < stats.object_p.size(); ++i) {
    EXPECT_EQ(stats.object_kcrits[i], Direct(frames, stats.object_p[i]))
        << where << ", frame predicate " << i << ", "
        << Describe(frames, stats.object_p[i]);
  }
  const Tuple shots{layout.shots_per_clip, config.reference_windows,
                    config.alpha};
  EXPECT_EQ(stats.action_kcrit, Direct(shots, stats.action_p))
      << where << ", " << Describe(shots, stats.action_p);
}

TEST(CriticalValueTableTest, DedicatedSvaqdRunsReportExactKcrits) {
  Query query;
  query.action = "smoking";
  query.objects = {"cup", "car"};
  for (uint64_t seed : {11u, 12u}) {
    for (UpdatePolicy policy :
         {UpdatePolicy::kNegativeUnits, UpdatePolicy::kEveryClip}) {
      auto video = DriftingVideo("drift", seed);
      OnlineConfig config;
      config.markov_action_null = false;
      config.update_policy = policy;
      config.object_bandwidth = 512.0;
      config.action_bandwidth = 64.0;
      models::ModelSet models = models::MakeModelSet(
          video, models::ModelSuite(), query.AllObjectLabels(),
          query.AllActions());
      auto engine = OnlineEngine::Create(
          OnlineEngine::Mode::kSvaqd, query, config, video->layout(),
          models.detector.get(), models.recognizer.get());
      ASSERT_TRUE(engine.ok()) << engine.status();
      video::SyntheticVideoStream stream(video, 0);
      int64_t clips = 0;
      std::vector<double> seen_p;
      while (auto clip = stream.NextClip()) {
        ASSERT_TRUE((*engine)->ProcessClip(*clip).ok());
        const OnlineStats stats = (*engine)->Snapshot();
        ExpectReportedKcritsExact(stats, video->layout(), config,
                                  "seed " + std::to_string(seed) +
                                      ", clip " + std::to_string(clips));
        seen_p.push_back(stats.object_p.front());
        ++clips;
      }
      EXPECT_GT(clips, 100);
      // The background estimate must actually drift for the check to bite.
      std::sort(seen_p.begin(), seen_p.end());
      EXPECT_GT(std::unique(seen_p.begin(), seen_p.end()) - seen_p.begin(),
                clips / 2);
    }
  }
}

TEST(CriticalValueTableTest, FeedSubscribersReportExactKcrits) {
  OnlineConfig config;
  config.markov_action_null = false;
  config.object_bandwidth = 512.0;
  config.action_bandwidth = 64.0;
  VideoQueryEngine engine(models::ModelSuite(), config);
  auto video = DriftingVideo("feed_drift", 21);
  ASSERT_TRUE(engine.AddVideo(video).ok());
  stream::StreamDispatcher dispatcher(&engine);
  const std::vector<std::string> statements = {
      "SELECT MERGE(clipID) FROM (PROCESS feed_drift PRODUCE clipID, obj "
      "USING ObjectDetector, act USING ActionRecognizer) WHERE "
      "act='smoking' AND obj.include('cup')",
      "SELECT MERGE(clipID) FROM (PROCESS feed_drift PRODUCE clipID, obj "
      "USING ObjectDetector, act USING ActionRecognizer) WHERE "
      "act='smoking' AND obj.include('cup', 'car')"};
  std::vector<stream::SubscriptionPtr> subs;
  for (const std::string& statement : statements) {
    auto sub = dispatcher.Subscribe("lobby", statement);
    ASSERT_TRUE(sub.ok()) << sub.status();
    subs.push_back(*sub);
  }
  int64_t clips = 0;
  for (;; ++clips) {
    auto progress = dispatcher.FeedClips("lobby", 1);
    ASSERT_TRUE(progress.ok()) << progress.status();
    if (progress->closed) break;
    for (size_t s = 0; s < subs.size(); ++s) {
      const OnlineStats stats = subs[s]->stats();
      ASSERT_EQ(stats.clips_processed, clips + 1);
      ExpectReportedKcritsExact(stats, video->layout(), config,
                                "subscriber " + std::to_string(s) +
                                    ", clip " + std::to_string(clips));
    }
  }
  EXPECT_GT(clips, 100);
}

}  // namespace
}  // namespace svq::core
