// Tests for the streaming subsystem (src/svq/stream, docs/streaming.md):
// standing SVAQ/SVAQD queries over live feeds, shared inference across
// co-located subscribers, and the bounded event queue's lag/drop policy.
//
// The central check is an oracle equivalence: N subscribers fed clip by
// clip through the dispatcher must each produce exactly the sequence
// events a serial OnlineEngine::Run of the same statement produces —
// including the trailing sequence flushed by OnlineEngine::Finish at feed
// close. Runs under `ctest -L tsan` (with -DSVQ_SANITIZE=thread) to prove
// the dispatcher's feed/subscription locking discipline is race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "svq/core/engine.h"
#include "svq/models/synthetic_models.h"
#include "svq/query/binder.h"
#include "svq/query/executor.h"
#include "svq/stream/dispatcher.h"
#include "svq/stream/stream_event.h"
#include "svq/video/synthetic_video.h"
#include "svq/video/video_stream.h"

namespace svq::stream {
namespace {

using core::OnlineEngine;
using video::Interval;

std::string StreamingStatement(const std::string& video) {
  return "SELECT MERGE(clipID) FROM (PROCESS " + video +
         " PRODUCE clipID, obj USING ObjectDetector, act USING "
         "ActionRecognizer) WHERE act='smoking' AND obj.include('cup')";
}

std::shared_ptr<const video::SyntheticVideo> StreamVideo(
    const std::string& name, uint64_t seed) {
  video::SyntheticVideoSpec spec;
  spec.name = name;
  spec.num_frames = 36000;
  spec.seed = seed;
  spec.actions.push_back({"smoking", 350.0, 4500.0});
  video::SyntheticObjectSpec cup;
  cup.label = "cup";
  cup.correlate_with_action = "smoking";
  cup.correlation = 0.9;
  cup.coverage = 0.9;
  cup.mean_on_frames = 250.0;
  cup.mean_off_frames = 2600.0;
  spec.objects.push_back(cup);
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    video_ = StreamVideo("stream_0", 4200);
    ASSERT_TRUE(engine_.AddVideo(video_).ok());
    ASSERT_TRUE(engine_.IngestAll().ok());
  }

  /// The serial reference answer: the exact sequences OnlineEngine::Run
  /// produces for this statement through the ordinary executor path.
  std::vector<Interval> Oracle(const std::string& statement) {
    auto reference = query::ExecuteStatementOn(engine_.Pin(), statement);
    EXPECT_TRUE(reference.ok()) << reference.status();
    EXPECT_TRUE(reference->online.has_value());
    return reference->online->sequences.intervals();
  }

  /// Drains everything queued on `sub` right now, appending sequence
  /// intervals to `sequences` and returning the terminal kind seen (or
  /// kSequence if none yet).
  static StreamEvent::Kind Drain(const SubscriptionPtr& sub,
                                 std::vector<Interval>* sequences,
                                 int64_t* gap_dropped = nullptr) {
    StreamEvent::Kind terminal = StreamEvent::Kind::kSequence;
    for (const StreamEvent& event : sub->Poll()) {
      switch (event.kind) {
        case StreamEvent::Kind::kSequence:
          sequences->push_back(event.sequence);
          break;
        case StreamEvent::Kind::kGap:
          EXPECT_TRUE(event.status.IsResourceExhausted());
          EXPECT_GT(event.dropped, 0);
          if (gap_dropped != nullptr) *gap_dropped += event.dropped;
          break;
        default:
          terminal = event.kind;
          break;
      }
    }
    return terminal;
  }

  std::shared_ptr<const video::SyntheticVideo> video_;
  core::VideoQueryEngine engine_;
};

TEST_F(StreamTest, SubscribersMatchSerialRunOracle) {
  const std::string statement = StreamingStatement("stream_0");
  const std::vector<Interval> oracle = Oracle(statement);
  ASSERT_FALSE(oracle.empty());

  StreamOptions options;
  options.event_queue_capacity = 4096;  // hold everything; no drops here
  StreamDispatcher dispatcher(&engine_, options);
  constexpr int kSubscribers = 4;
  std::vector<SubscriptionPtr> subs;
  for (int i = 0; i < kSubscribers; ++i) {
    auto sub = dispatcher.Subscribe("lobby", statement);
    ASSERT_TRUE(sub.ok()) << sub.status();
    subs.push_back(*sub);
  }
  EXPECT_TRUE(dispatcher.HasFeed("lobby"));

  // Feed in uneven batches, interleaving polls, until the video runs dry.
  std::vector<std::vector<Interval>> collected(kSubscribers);
  std::vector<StreamEvent::Kind> terminal(kSubscribers,
                                          StreamEvent::Kind::kSequence);
  const auto drain = [&](int i) {
    const StreamEvent::Kind kind = Drain(subs[i], &collected[i]);
    if (kind != StreamEvent::Kind::kSequence) terminal[i] = kind;
  };
  bool closed = false;
  int64_t batch = 1;
  while (!closed) {
    auto progress = dispatcher.FeedClips("lobby", batch);
    ASSERT_TRUE(progress.ok()) << progress.status();
    closed = progress->closed;
    batch = batch % 7 + 1;
    for (int i = 0; i < kSubscribers; i += 2) {  // poll only half mid-feed
      drain(i);
    }
  }
  // The feed closed: every subscriber is finished and drains to exactly
  // the serial result, trailing flushed sequence included.
  for (int i = 0; i < kSubscribers; ++i) {
    EXPECT_TRUE(subs[i]->finished()) << i;
    drain(i);
    EXPECT_EQ(terminal[i], StreamEvent::Kind::kEndOfStream) << i;
    EXPECT_EQ(subs[i]->dropped_total(), 0) << i;
    ASSERT_EQ(collected[i].size(), oracle.size()) << i;
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_EQ(collected[i][j].begin, oracle[j].begin) << i << "," << j;
      EXPECT_EQ(collected[i][j].end, oracle[j].end) << i << "," << j;
    }
  }
  // Closing erased the feed; feeding again is a clean NotFound.
  EXPECT_FALSE(dispatcher.HasFeed("lobby"));
  EXPECT_TRUE(dispatcher.FeedClips("lobby", 1).status().IsNotFound());

  const DispatcherStats stats = dispatcher.Stats();
  EXPECT_EQ(stats.feeds_created, 1);
  EXPECT_EQ(stats.feeds_open, 0);
  EXPECT_EQ(stats.subscriptions_opened, kSubscribers);
  EXPECT_EQ(stats.subscriptions_active, 0);
  EXPECT_EQ(stats.clips_dispatched, video_->NumClips());
  EXPECT_EQ(stats.events_dropped, 0);
}

TEST_F(StreamTest, SharedInferenceChargesManyRunsOnce) {
  // Eight identical standing queries on one feed: the shared model pool's
  // per-clip tables run each unit once, so the models RUN one subscriber's
  // worth of inference while the subscribers are CHARGED eight worths —
  // the headline multiplexing win (run <= 1.1x single).
  const std::string statement = StreamingStatement("stream_0");
  StreamOptions options;
  options.event_queue_capacity = 4096;
  StreamDispatcher dispatcher(&engine_, options);
  constexpr int kSubscribers = 8;
  std::vector<SubscriptionPtr> subs;
  for (int i = 0; i < kSubscribers; ++i) {
    auto sub = dispatcher.Subscribe("lobby", statement);
    ASSERT_TRUE(sub.ok()) << sub.status();
    subs.push_back(*sub);
  }
  while (true) {
    auto progress = dispatcher.FeedClips("lobby", 64);
    ASSERT_TRUE(progress.ok()) << progress.status();
    if (progress->closed) break;
  }
  const DispatcherStats stats = dispatcher.Stats();
  ASSERT_GT(stats.model_units_run, 0);
  ASSERT_GT(stats.model_units_charged, 0);
  // charged / kSubscribers is one dedicated engine's inference bill.
  EXPECT_LE(static_cast<double>(stats.model_units_run),
            1.1 * static_cast<double>(stats.model_units_charged) /
                kSubscribers)
      << "run=" << stats.model_units_run
      << " charged=" << stats.model_units_charged;
  EXPECT_LE(stats.model_ms_run,
            1.1 * stats.model_ms_charged / kSubscribers + 1e-9);
  // And sharing must not perturb results: all eight agree with the serial
  // run (per-query purity of the synthetic models).
  const std::vector<Interval> oracle = Oracle(statement);
  for (int i = 0; i < kSubscribers; ++i) {
    std::vector<Interval> got;
    EXPECT_EQ(Drain(subs[i], &got), StreamEvent::Kind::kEndOfStream);
    ASSERT_EQ(got.size(), oracle.size()) << i;
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_EQ(got[j].begin, oracle[j].begin) << i << "," << j;
      EXPECT_EQ(got[j].end, oracle[j].end) << i << "," << j;
    }
  }
}

/// Forwards to a dedicated detector and records every frame it ran on.
class RecordingDetector final : public models::ObjectDetector {
 public:
  RecordingDetector(models::ObjectDetector* inner,
                    std::set<video::FrameIndex>* frames)
      : inner_(inner), frames_(frames) {}

  Status Detect(const video::Interval& frames,
                std::vector<models::Emission>* emissions,
                std::vector<models::BoundingBox>* boxes) override {
    for (video::FrameIndex f = frames.begin; f < frames.end; ++f) {
      frames_->insert(f);
    }
    return inner_->Detect(frames, emissions, boxes);
  }
  const std::vector<std::string>& SupportedLabels() const override {
    return inner_->SupportedLabels();
  }
  const std::string& name() const override { return inner_->name(); }
  const models::InferenceStats& stats() const override {
    return inner_->stats();
  }

 private:
  models::ObjectDetector* inner_;
  std::set<video::FrameIndex>* frames_;
};

/// Forwards to a dedicated recognizer and records every shot it ran on.
class RecordingRecognizer final : public models::ActionRecognizer {
 public:
  RecordingRecognizer(models::ActionRecognizer* inner,
                      std::set<video::ShotIndex>* shots)
      : inner_(inner), shots_(shots) {}

  Status Recognize(const video::Interval& shots,
                   std::vector<models::Emission>* emissions) override {
    for (video::ShotIndex s = shots.begin; s < shots.end; ++s) {
      shots_->insert(s);
    }
    return inner_->Recognize(shots, emissions);
  }
  const std::vector<std::string>& SupportedLabels() const override {
    return inner_->SupportedLabels();
  }
  const std::string& name() const override { return inner_->name(); }
  const models::InferenceStats& stats() const override {
    return inner_->stats();
  }

 private:
  models::ActionRecognizer* inner_;
  std::set<video::ShotIndex>* shots_;
};

/// Two actions and four object types, so statements can mix objects,
/// any-of groups, relationships and action conjunctions.
std::shared_ptr<const video::SyntheticVideo> MixedVideo() {
  video::SyntheticVideoSpec spec;
  spec.name = "mixed_0";
  spec.num_frames = 24000;
  spec.seed = 4300;
  spec.actions.push_back({"smoking", 350.0, 3000.0});
  spec.actions.push_back({"drinking", 300.0, 2500.0});
  video::SyntheticObjectSpec cup;
  cup.label = "cup";
  cup.correlate_with_action = "smoking";
  cup.correlation = 0.9;
  cup.coverage = 0.9;
  cup.mean_on_frames = 250.0;
  cup.mean_off_frames = 2600.0;
  spec.objects.push_back(cup);
  video::SyntheticObjectSpec bottle;
  bottle.label = "bottle";
  bottle.correlate_with_action = "drinking";
  bottle.correlation = 0.8;
  bottle.coverage = 0.8;
  spec.objects.push_back(bottle);
  video::SyntheticObjectSpec person;
  person.label = "person";
  person.mean_on_frames = 2000.0;
  person.mean_off_frames = 600.0;
  spec.objects.push_back(person);
  video::SyntheticObjectSpec phone;
  phone.label = "phone";
  phone.mean_on_frames = 200.0;
  phone.mean_off_frames = 3000.0;
  spec.objects.push_back(phone);
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

TEST_F(StreamTest, SharedTablesMatchDedicatedRunsExactly) {
  // Every subscriber evaluates from the feed's shared per-clip tables; each
  // must end with the full OnlineStats of a dedicated serial
  // OnlineEngine::Run of its statement (model_ms, k_crits and background
  // probabilities included), and the dispatcher's ledgers must equal what
  // those dedicated runs imply: charged = the sum of their bills, run =
  // the union of the units they needed.
  const auto video = MixedVideo();
  const std::vector<std::string> predicates = {
      "act='smoking' AND obj.include('cup')",
      "act='drinking' AND obj.include_any('bottle','phone')",
      "act='drinking' AND rel.left_of('person','bottle')",
      "act='smoking' AND act='drinking' AND obj.include('person')",
      "act='smoking' AND act='drinking' AND obj.include('cup') AND "
      "obj.include_any('phone','bottle') AND rel.overlaps('person','cup')",
  };
  for (const auto order : {core::OnlineConfig::PredicateOrder::kObjectsFirst,
                           core::OnlineConfig::PredicateOrder::kAdaptive}) {
    SCOPED_TRACE(static_cast<int>(order));
    core::OnlineConfig config;
    config.predicate_order = order;
    core::VideoQueryEngine engine(models::ModelSuite(), config);
    ASSERT_TRUE(engine.AddVideo(video).ok());
    const core::SnapshotPtr snapshot = engine.Pin();

    struct Standing {
      std::string statement;
      OnlineEngine::Mode mode;
      SubscriptionPtr sub;
    };
    std::vector<Standing> standing;
    StreamOptions options;
    options.event_queue_capacity = 4096;
    StreamDispatcher dispatcher(&engine, options);
    for (const std::string& where : predicates) {
      for (const auto mode :
           {OnlineEngine::Mode::kSvaq, OnlineEngine::Mode::kSvaqd}) {
        const std::string statement =
            "SELECT MERGE(clipID) FROM (PROCESS mixed_0 PRODUCE clipID, obj "
            "USING ObjectDetector, act USING ActionRecognizer) WHERE " +
            where;
        SubscribeOptions subscribe;
        subscribe.mode = mode;
        auto sub = dispatcher.Subscribe("mixed", statement, subscribe);
        ASSERT_TRUE(sub.ok()) << statement << ": " << sub.status();
        standing.push_back({statement, mode, *sub});
      }
    }
    for (bool closed = false; !closed;) {
      auto progress = dispatcher.FeedClips("mixed", 16);
      ASSERT_TRUE(progress.ok()) << progress.status();
      closed = progress->closed;
    }

    std::set<video::FrameIndex> frames_run;
    std::set<video::ShotIndex> shots_run;
    int64_t units_charged = 0;
    double ms_charged = 0.0;
    double detector_cost = 0.0;
    double recognizer_cost = 0.0;
    for (const Standing& s : standing) {
      SCOPED_TRACE(s.statement);
      auto bound = query::ParseAndBind(s.statement);
      ASSERT_TRUE(bound.ok()) << bound.status();
      const models::ModelSuite suite =
          query::ResolveSuiteFor(snapshot->suite, *bound);
      detector_cost = suite.object_profile.cost_ms;
      recognizer_cost = suite.action_profile.cost_ms;
      models::ModelSet models =
          models::MakeModelSet(video, suite, bound->query.AllObjectLabels(),
                               bound->query.AllActions());
      RecordingDetector detector(models.detector.get(), &frames_run);
      RecordingRecognizer recognizer(models.recognizer.get(), &shots_run);
      auto dedicated =
          OnlineEngine::Create(s.mode, bound->query, snapshot->online_config,
                               video->layout(), &detector, &recognizer);
      ASSERT_TRUE(dedicated.ok()) << dedicated.status();
      video::SyntheticVideoStream stream(video,
                                         snapshot->Find("mixed_0")->id);
      auto result = (*dedicated)->Run(stream);
      ASSERT_TRUE(result.ok()) << result.status();
      units_charged += detector.stats().units + recognizer.stats().units;
      ms_charged += detector.stats().simulated_ms +
                    recognizer.stats().simulated_ms;

      const core::OnlineStats& want = result->stats;
      const core::OnlineStats got = s.sub->stats();
      EXPECT_EQ(got.clips_processed, want.clips_processed);
      EXPECT_EQ(got.clips_positive, want.clips_positive);
      EXPECT_EQ(got.clips_short_circuited, want.clips_short_circuited);
      EXPECT_EQ(got.clips_actions_first, want.clips_actions_first);
      EXPECT_EQ(got.model_ms, want.model_ms);
      EXPECT_EQ(got.object_kcrits, want.object_kcrits);
      EXPECT_EQ(got.action_kcrit, want.action_kcrit);
      EXPECT_EQ(got.object_p, want.object_p);
      EXPECT_EQ(got.action_p, want.action_p);

      std::vector<Interval> events;
      EXPECT_EQ(Drain(s.sub, &events),
                StreamEvent::Kind::kEndOfStream);
      const std::vector<Interval>& oracle = result->sequences.intervals();
      ASSERT_EQ(events.size(), oracle.size());
      for (size_t j = 0; j < oracle.size(); ++j) {
        EXPECT_EQ(events[j].begin, oracle[j].begin) << j;
        EXPECT_EQ(events[j].end, oracle[j].end) << j;
      }
    }
    // The statements exercise both stages' sharing: some clips need the
    // recognizer for some subscribers only.
    ASSERT_FALSE(frames_run.empty());
    ASSERT_FALSE(shots_run.empty());
    const DispatcherStats stats = dispatcher.Stats();
    EXPECT_EQ(stats.model_units_charged, units_charged);
    EXPECT_EQ(stats.model_ms_charged, ms_charged);
    EXPECT_EQ(stats.model_units_run,
              static_cast<int64_t>(frames_run.size() + shots_run.size()));
    EXPECT_EQ(stats.model_ms_run,
              static_cast<double>(frames_run.size()) * detector_cost +
                  static_cast<double>(shots_run.size()) * recognizer_cost);
  }
}

TEST_F(StreamTest, SlowConsumerGetsGapMarkersNotStalls) {
  const std::string statement = StreamingStatement("stream_0");
  StreamDispatcher dispatcher(&engine_);
  SubscribeOptions tiny;
  tiny.queue_capacity = 2;  // the minimum: one slot + the gap marker
  auto sub = dispatcher.Subscribe("lobby", statement, tiny);
  ASSERT_TRUE(sub.ok()) << sub.status();

  // Never poll while feeding: the queue overflows and coalesces.
  while (true) {
    auto progress = dispatcher.FeedClips("lobby", 256);
    ASSERT_TRUE(progress.ok()) << progress.status();
    if (progress->closed) break;
  }
  ASSERT_TRUE((*sub)->finished());
  const std::vector<Interval> oracle = Oracle(statement);
  ASSERT_GT(oracle.size(), 1u);

  std::vector<Interval> got;
  int64_t gap_dropped = 0;
  EXPECT_EQ(Drain(*sub, &got, &gap_dropped),
            StreamEvent::Kind::kEndOfStream);
  // Capacity 2 with no polling keeps at most one sequence... in fact every
  // buffered sequence was evicted into the gap by later pushes; what
  // survives is the coalesced gap + the terminal event.
  EXPECT_LT(got.size(), oracle.size());
  EXPECT_GT(gap_dropped, 0);
  EXPECT_EQ((*sub)->dropped_total(), gap_dropped);
  // Lost events are *reported*, not silently swallowed: gaps + survivors
  // account for every sequence the engine completed.
  EXPECT_EQ(gap_dropped + static_cast<int64_t>(got.size()),
            static_cast<int64_t>(oracle.size()));
  EXPECT_EQ(dispatcher.Stats().events_dropped, gap_dropped);
}

TEST_F(StreamTest, UnsubscribeCancelsAndDetaches) {
  const std::string statement = StreamingStatement("stream_0");
  StreamDispatcher dispatcher(&engine_);
  auto sub = dispatcher.Subscribe("lobby", statement);
  ASSERT_TRUE(sub.ok()) << sub.status();
  const uint64_t id = (*sub)->id();
  EXPECT_EQ(dispatcher.Find(id), *sub);

  ASSERT_TRUE(dispatcher.FeedClips("lobby", 32).ok());
  ASSERT_TRUE(dispatcher.Unsubscribe(id).ok());
  EXPECT_EQ(dispatcher.Find(id), nullptr);
  EXPECT_TRUE(dispatcher.Unsubscribe(id).IsNotFound());
  EXPECT_EQ(dispatcher.Stats().subscriptions_active, 0);

  // Events queued before the unsubscribe stay pollable; no terminal event
  // is appended (the consumer asked to stop), and further feeding pushes
  // nothing to the detached subscription.
  const size_t pending_before = (*sub)->pending();
  ASSERT_TRUE(dispatcher.FeedClips("lobby", 32).ok());
  EXPECT_EQ((*sub)->pending(), pending_before);
  EXPECT_FALSE((*sub)->finished());
}

TEST_F(StreamTest, CancelledSubscriptionGetsTerminalError) {
  const std::string statement = StreamingStatement("stream_0");
  StreamDispatcher dispatcher(&engine_);
  auto sub = dispatcher.Subscribe("lobby", statement);
  ASSERT_TRUE(sub.ok()) << sub.status();
  (*sub)->Cancel();
  // The next dispatched clip observes the fired CancellationSource: the
  // standing query fails and a terminal kError lands in the queue.
  ASSERT_TRUE(dispatcher.FeedClips("lobby", 1).ok());
  ASSERT_TRUE((*sub)->finished());
  const std::deque<StreamEvent> events = (*sub)->Poll();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, StreamEvent::Kind::kError);
  EXPECT_TRUE(events.back().status.IsCancelled()) << events.back().status;
}

TEST_F(StreamTest, SubscriptionDeadlineSurfacesAsError) {
  const std::string statement = StreamingStatement("stream_0");
  StreamDispatcher dispatcher(&engine_);
  SubscribeOptions options;
  options.timeout_ms = 1;
  auto sub = dispatcher.Subscribe("lobby", statement, options);
  ASSERT_TRUE(sub.ok()) << sub.status();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(dispatcher.FeedClips("lobby", 1).ok());
  ASSERT_TRUE((*sub)->finished());
  const std::deque<StreamEvent> events = (*sub)->Poll();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, StreamEvent::Kind::kError);
  EXPECT_TRUE(events.back().status.IsDeadlineExceeded())
      << events.back().status;
}

TEST_F(StreamTest, SubscribeRejectsBadStatements) {
  StreamDispatcher dispatcher(&engine_);
  // Ranked statements have a definite end; they belong on the QUERY verb.
  const std::string ranked =
      "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS stream_0 PRODUCE "
      "clipID, obj USING ObjectDetector, act USING ActionRecognizer) "
      "WHERE act='smoking' AND obj.include('cup') "
      "ORDER BY RANK(act, obj) LIMIT 3";
  EXPECT_TRUE(
      dispatcher.Subscribe("lobby", ranked).status().IsInvalidArgument());
  EXPECT_TRUE(dispatcher.Subscribe("lobby", "garbage((")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(dispatcher.Subscribe("lobby", StreamingStatement("no_such"))
                  .status()
                  .IsNotFound());
  // A feed is bound to its first statement's video for life.
  auto other = StreamVideo("stream_1", 4300);
  ASSERT_TRUE(engine_.AddVideo(other).ok());
  ASSERT_TRUE(engine_.IngestAll().ok());
  ASSERT_TRUE(
      dispatcher.Subscribe("lobby", StreamingStatement("stream_0")).ok());
  EXPECT_TRUE(dispatcher.Subscribe("lobby", StreamingStatement("stream_1"))
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(StreamTest, PerFeedSubscriptionCapEnforced) {
  StreamOptions options;
  options.max_subscriptions_per_feed = 2;
  StreamDispatcher dispatcher(&engine_, options);
  const std::string statement = StreamingStatement("stream_0");
  ASSERT_TRUE(dispatcher.Subscribe("lobby", statement).ok());
  ASSERT_TRUE(dispatcher.Subscribe("lobby", statement).ok());
  EXPECT_TRUE(dispatcher.Subscribe("lobby", statement)
                  .status()
                  .IsResourceExhausted());
}

/// Forwards to `inner`, but its first NextClip waits for `gate`.
class GatedStream final : public video::VideoStream {
 public:
  GatedStream(std::unique_ptr<video::VideoStream> inner,
              std::future<void> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}

  std::optional<video::ClipRef> NextClip() override {
    if (gate_.valid()) gate_.get();
    return inner_->NextClip();
  }
  const video::VideoLayout& layout() const override {
    return inner_->layout();
  }
  video::VideoId video_id() const override { return inner_->video_id(); }

 private:
  std::unique_ptr<video::VideoStream> inner_;
  std::future<void> gate_;
};

TEST_F(StreamTest, AttachedSourceWithConcurrentPollersMatchesOracle) {
  // The TSan-sensitive path: the dispatcher worker pumps an attached
  // VideoStream while one thread per subscriber polls concurrently and
  // the main thread reads Stats(). Every subscriber must still see
  // exactly the serial-run sequences, in order.
  const std::string statement = StreamingStatement("stream_0");
  const std::vector<Interval> oracle = Oracle(statement);
  ASSERT_FALSE(oracle.empty());

  StreamOptions options;
  options.event_queue_capacity = 4096;
  StreamDispatcher dispatcher(&engine_, options);
  constexpr int kSubscribers = 3;
  std::vector<SubscriptionPtr> subs;
  for (int i = 0; i < kSubscribers; ++i) {
    auto sub = dispatcher.Subscribe("live", statement);
    ASSERT_TRUE(sub.ok()) << sub.status();
    subs.push_back(*sub);
  }
  std::vector<std::vector<Interval>> collected(kSubscribers);
  std::atomic<int> eos{0};
  std::vector<std::thread> pollers;
  for (int i = 0; i < kSubscribers; ++i) {
    pollers.emplace_back([&, i]() {
      while (true) {
        for (const StreamEvent& event : subs[i]->Poll()) {
          if (event.kind == StreamEvent::Kind::kSequence) {
            collected[i].push_back(event.sequence);
          } else if (event.kind == StreamEvent::Kind::kEndOfStream) {
            eos.fetch_add(1);
            return;
          } else if (event.kind == StreamEvent::Kind::kError) {
            return;
          }
        }
        std::this_thread::yield();
      }
    });
  }
  // The first source holds its first clip until the second attach has
  // been tried, so that attach always meets a source still pumping: a fast
  // pump could otherwise finish the whole video, close the feed and let
  // the second attach open a new one.
  std::promise<void> release;
  auto source = std::make_unique<video::SyntheticVideoStream>(
      video_, engine_.Pin()->Find("stream_0")->id);
  ASSERT_TRUE(dispatcher
                  .AttachSource("live", "stream_0",
                                std::make_unique<GatedStream>(
                                    std::move(source), release.get_future()))
                  .ok());
  // A second attach on the same feed is refused while the first pumps.
  const Status again = dispatcher.AttachSource(
      "live", "stream_0",
      std::make_unique<video::SyntheticVideoStream>(
          video_, engine_.Pin()->Find("stream_0")->id));
  EXPECT_TRUE(again.IsFailedPrecondition()) << again;
  release.set_value();
  while (dispatcher.HasFeed("live")) {
    (void)dispatcher.Stats();  // racing reads must be clean under TSan
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& poller : pollers) poller.join();
  EXPECT_EQ(eos.load(), kSubscribers);
  for (int i = 0; i < kSubscribers; ++i) {
    ASSERT_EQ(collected[i].size(), oracle.size()) << i;
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_EQ(collected[i][j].begin, oracle[j].begin) << i << "," << j;
      EXPECT_EQ(collected[i][j].end, oracle[j].end) << i << "," << j;
    }
  }
  EXPECT_EQ(dispatcher.Stats().clips_dispatched, video_->NumClips());
}

TEST_F(StreamTest, CloseFeedFlushesAndTerminates) {
  const std::string statement = StreamingStatement("stream_0");
  StreamDispatcher dispatcher(&engine_);
  auto sub = dispatcher.Subscribe("lobby", statement);
  ASSERT_TRUE(sub.ok()) << sub.status();
  ASSERT_TRUE(dispatcher.FeedClips("lobby", 128).ok());
  ASSERT_TRUE(dispatcher.CloseFeed("lobby").ok());
  EXPECT_FALSE(dispatcher.HasFeed("lobby"));
  EXPECT_TRUE(dispatcher.CloseFeed("lobby").IsNotFound());
  ASSERT_TRUE((*sub)->finished());
  const std::deque<StreamEvent> events = (*sub)->Poll();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, StreamEvent::Kind::kEndOfStream);
  // Mid-stream close still flushed the trailing open run (if one existed):
  // every non-terminal event is a well-formed half-open interval.
  for (const StreamEvent& event : events) {
    if (event.kind == StreamEvent::Kind::kSequence) {
      EXPECT_LT(event.sequence.begin, event.sequence.end);
    }
  }
}

}  // namespace
}  // namespace svq::stream
