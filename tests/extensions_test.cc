// End-to-end tests of the paper's footnote extensions: multiple conjunctive
// actions (fn. 3), object disjunctions (fn. 4), and spatial relationship
// predicates (fn. 2), plus their offline behaviour.

#include <gtest/gtest.h>

#include <cstring>

#include "svq/core/engine.h"
#include "svq/core/online_engine.h"
#include "svq/eval/workloads.h"
#include "svq/models/synthetic_models.h"
#include "svq/video/video_stream.h"

namespace svq::core {
namespace {

using video::SyntheticVideo;
using video::SyntheticVideoSpec;

std::shared_ptr<const SyntheticVideo> MakeVideo(uint64_t seed = 33) {
  SyntheticVideoSpec spec;
  spec.name = "ext_test";
  spec.num_frames = 50000;
  spec.seed = seed;
  spec.actions.push_back({"jumping", 400.0, 4200.0});
  spec.actions.push_back({"waving", 500.0, 3500.0});
  for (const char* label : {"car", "human"}) {
    video::SyntheticObjectSpec obj;
    obj.label = label;
    obj.correlate_with_action = "jumping";
    obj.correlation = 0.9;
    obj.coverage = 0.95;
    obj.mean_on_frames = 250.0;
    obj.mean_off_frames = 2600.0;
    spec.objects.push_back(obj);
  }
  auto video = SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

Result<video::IntervalSet> RunOnline(
    const std::shared_ptr<const SyntheticVideo>& video, const Query& query) {
  models::ModelSet models = models::MakeModelSet(
      video, models::IdealSuite(), query.AllObjectLabels(),
      query.AllActions());
  SVQ_ASSIGN_OR_RETURN(
      std::unique_ptr<OnlineEngine> engine,
      OnlineEngine::Create(OnlineEngine::Mode::kSvaqd, query, OnlineConfig(),
                           video->layout(), models.detector.get(),
                           models.recognizer.get()));
  video::SyntheticVideoStream stream(video, 0);
  SVQ_ASSIGN_OR_RETURN(OnlineResult result, engine->Run(stream));
  return result.sequences;
}

TEST(MultiActionTest, ConjunctionIsSubsetOfEachSingleAction) {
  auto video = MakeVideo();
  Query both;
  both.action = "jumping";
  both.extra_actions = {"waving"};
  Query jumping;
  jumping.action = "jumping";
  Query waving;
  waving.action = "waving";

  auto r_both = RunOnline(video, both);
  auto r_jump = RunOnline(video, jumping);
  auto r_wave = RunOnline(video, waving);
  ASSERT_TRUE(r_both.ok());
  ASSERT_TRUE(r_jump.ok());
  ASSERT_TRUE(r_wave.ok());
  // With ideal models, every conjunctive result clip satisfies both
  // single-action queries (modulo estimator timing; require full overlap).
  EXPECT_EQ(r_both->OverlapLength(*r_jump), r_both->TotalLength());
  EXPECT_EQ(r_both->OverlapLength(*r_wave), r_both->TotalLength());
  // The conjunction is strictly more selective on this video.
  EXPECT_LT(r_both->TotalLength(), r_jump->TotalLength());
}

TEST(MultiActionTest, ConjunctionCoversJointTruth) {
  auto video = MakeVideo();
  Query both;
  both.action = "jumping";
  both.extra_actions = {"waving"};
  auto result = RunOnline(video, both);
  ASSERT_TRUE(result.ok());
  const video::IntervalSet joint = video::IntervalSet::Intersect(
      video->ground_truth().ActionPresence("jumping"),
      video->ground_truth().ActionPresence("waving"));
  // Sizeable joint occurrences are recovered.
  int64_t covered = 0;
  int64_t total = 0;
  const int64_t fpc = video->layout().FramesPerClip();
  for (const video::Interval& range : joint.intervals()) {
    if (range.length() < 3 * fpc) continue;  // skip boundary slivers
    total += range.length();
    covered += video::IntervalSet::Intersect(
                   result->Refine(fpc), video::IntervalSet({range}))
                   .TotalLength();
  }
  if (total > 0) {
    EXPECT_GT(static_cast<double>(covered) / static_cast<double>(total),
              0.7);
  }
}

TEST(DisjunctionTest, AnyOfMatchesSingleWhenOnlyOneMemberExists) {
  auto video = MakeVideo();
  Query anyof;
  anyof.action = "jumping";
  anyof.object_disjunctions = {{"car", "zeppelin"}};  // zeppelin never occurs
  Query single;
  single.action = "jumping";
  single.objects = {"car"};
  auto r_any = RunOnline(video, anyof);
  auto r_car = RunOnline(video, single);
  ASSERT_TRUE(r_any.ok());
  ASSERT_TRUE(r_car.ok());
  EXPECT_EQ(*r_any, *r_car);
}

TEST(DisjunctionTest, AnyOfIsSupersetOfEachMember) {
  auto video = MakeVideo();
  Query anyof;
  anyof.action = "jumping";
  anyof.object_disjunctions = {{"car", "human"}};
  Query car;
  car.action = "jumping";
  car.objects = {"car"};
  auto r_any = RunOnline(video, anyof);
  auto r_car = RunOnline(video, car);
  ASSERT_TRUE(r_any.ok());
  ASSERT_TRUE(r_car.ok());
  // Every car-certified clip also certifies the disjunction.
  EXPECT_EQ(r_any->OverlapLength(*r_car), r_car->TotalLength());
}

TEST(RelationshipTest, ResultsRequireBothObjectsPresent) {
  auto video = MakeVideo();
  Query query;
  query.action = "jumping";
  query.relationships = {{RelOp::kLeftOf, "human", "car"}};
  auto result = RunOnline(video, query);
  ASSERT_TRUE(result.ok());
  // Relationship-certified clips lie where both labels are present.
  const int64_t fpc = video->layout().FramesPerClip();
  const video::IntervalSet both_clips =
      video::IntervalSet::Intersect(
          video->ground_truth().ObjectPresence("human"),
          video->ground_truth().ObjectPresence("car"))
          .CoarsenAny(fpc);
  for (const video::Interval& seq : result->intervals()) {
    for (video::ClipIndex c = seq.begin; c < seq.end; ++c) {
      EXPECT_TRUE(both_clips.Contains(c)) << "clip " << c;
    }
  }
}

TEST(RelationshipTest, SwappedOperatorAndArgsAgree) {
  // left_of(human, car) and right_of(car, human) are the same constraint.
  auto video = MakeVideo();
  Query a;
  a.action = "jumping";
  a.relationships = {{RelOp::kLeftOf, "human", "car"}};
  Query b;
  b.action = "jumping";
  b.relationships = {{RelOp::kRightOf, "car", "human"}};
  auto r_a = RunOnline(video, a);
  auto r_b = RunOnline(video, b);
  ASSERT_TRUE(r_a.ok());
  ASSERT_TRUE(r_b.ok());
  EXPECT_EQ(*r_a, *r_b);
}

TEST(RelationshipTest, MutuallyExclusiveOperatorsRarelyCooccur) {
  // A frame cannot satisfy both left_of(h,c) and overlaps(h,c) with the
  // same single pair of boxes; with one instance of each label at a time
  // the two queries rarely certify the same clip.
  auto video = MakeVideo();
  Query left;
  left.action = "jumping";
  left.relationships = {{RelOp::kLeftOf, "human", "car"}};
  Query overlaps;
  overlaps.action = "jumping";
  overlaps.relationships = {{RelOp::kOverlaps, "human", "car"}};
  auto r_left = RunOnline(video, left);
  auto r_over = RunOnline(video, overlaps);
  ASSERT_TRUE(r_left.ok());
  ASSERT_TRUE(r_over.ok());
  const int64_t intersection = r_left->OverlapLength(*r_over);
  const int64_t smaller =
      std::min(r_left->TotalLength(), r_over->TotalLength());
  if (smaller > 0) {
    EXPECT_LT(static_cast<double>(intersection) /
                  static_cast<double>(smaller),
              0.5);
  }
}

TEST(RelationshipTest, EventsArePinned) {
  // A relationship predicate reads the detector's boxes, so the sequences
  // and statistics of relationship statements under a noisy suite pin the
  // boxes that decide them; the digest was recorded from the per-frame
  // model calls that the range calls replaced.
  auto video = MakeVideo();
  uint64_t digest = 0xcbf29ce484222325ULL;
  const auto mix = [&digest](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (value >> (8 * i)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  };
  size_t sequences = 0;
  for (const RelOp op : {RelOp::kLeftOf, RelOp::kOverlaps, RelOp::kAbove}) {
    for (const auto mode :
         {OnlineEngine::Mode::kSvaq, OnlineEngine::Mode::kSvaqd}) {
      Query query;
      query.action = "jumping";
      query.relationships = {{op, "human", "car"}};
      models::ModelSet models = models::MakeModelSet(
          video, models::MaskRcnnI3dSuite(), query.AllObjectLabels(),
          query.AllActions());
      auto engine = OnlineEngine::Create(
          mode, query, OnlineConfig(), video->layout(),
          models.detector.get(), models.recognizer.get());
      ASSERT_TRUE(engine.ok()) << engine.status();
      video::SyntheticVideoStream stream(video, 0);
      auto result = (*engine)->Run(stream);
      ASSERT_TRUE(result.ok()) << result.status();
      for (const video::Interval& seq : result->sequences.intervals()) {
        mix(static_cast<uint64_t>(seq.begin));
        mix(static_cast<uint64_t>(seq.end));
      }
      sequences += result->sequences.size();
      mix(static_cast<uint64_t>(result->stats.clips_positive));
      uint64_t model_ms = 0;
      std::memcpy(&model_ms, &result->stats.model_ms, sizeof(model_ms));
      mix(model_ms);
    }
  }
  EXPECT_GT(sequences, 0u);
  EXPECT_EQ(digest, 0x8d8bbddc083eacb9ULL);
}

TEST(OfflineExtensionsTest, ExtraActionsSupported) {
  auto video = MakeVideo();
  models::ModelSet models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  auto ingested = IngestVideo(video, 0, models.tracker.get(),
                              models.recognizer.get(), IngestOptions());
  ASSERT_TRUE(ingested.ok());
  Query query;
  query.action = "jumping";
  query.extra_actions = {"waving"};
  AdditiveScoring scoring;
  auto result = RunRvaq(*ingested, query, 3, scoring, OfflineOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  // Matches the brute-force baseline.
  auto traverse = RunPqTraverse(*ingested, query, 3, scoring,
                                storage::DiskCostModel());
  ASSERT_TRUE(traverse.ok());
  ASSERT_EQ(result->sequences.size(), traverse->sequences.size());
  for (size_t i = 0; i < result->sequences.size(); ++i) {
    EXPECT_EQ(result->sequences[i].clips, traverse->sequences[i].clips);
    EXPECT_NEAR(result->sequences[i].upper_bound,
                traverse->sequences[i].upper_bound, 1e-6);
  }
}

TEST(OfflineExtensionsTest, RelationshipsAndDisjunctionsUnimplemented) {
  auto video = MakeVideo();
  models::ModelSet models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  auto ingested = IngestVideo(video, 0, models.tracker.get(),
                              models.recognizer.get(), IngestOptions());
  ASSERT_TRUE(ingested.ok());
  AdditiveScoring scoring;

  Query rel_query;
  rel_query.action = "jumping";
  rel_query.relationships = {{RelOp::kLeftOf, "human", "car"}};
  EXPECT_EQ(RunRvaq(*ingested, rel_query, 3, scoring, OfflineOptions())
                .status()
                .code(),
            StatusCode::kUnimplemented);

  Query dis_query;
  dis_query.action = "jumping";
  dis_query.object_disjunctions = {{"car", "human"}};
  EXPECT_EQ(RunRvaq(*ingested, dis_query, 3, scoring, OfflineOptions())
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST(MarkovNullTest, BurstyNoiseRaisesActionQuota) {
  // Footnote 7: under positively dependent (bursty) action false positives,
  // the Markov-aware critical value is at least the i.i.d. one.
  video::SyntheticVideoSpec spec;
  spec.name = "markov_test";
  spec.num_frames = 60000;
  spec.seed = 91;
  spec.actions.push_back({"jumping", 400.0, 5200.0});
  auto video = video::SyntheticVideo::Generate(spec);
  ASSERT_TRUE(video.ok());

  Query query;
  query.action = "jumping";

  models::ModelSuite suite = models::MaskRcnnI3dSuite();
  suite.action_profile.fpr = 0.05;
  suite.action_profile.mean_fp_burst = 3.0;  // strongly bursty noise

  int iid_kcrit = 0;
  int markov_kcrit = 0;
  for (const bool markov : {false, true}) {
    OnlineConfig config;
    config.markov_action_null = markov;
    models::ModelSet models =
        models::MakeModelSet(*video, suite, {}, {query.action});
    auto engine = OnlineEngine::Create(
        OnlineEngine::Mode::kSvaqd, query, config, (*video)->layout(),
        models.detector.get(), models.recognizer.get());
    ASSERT_TRUE(engine.ok());
    video::SyntheticVideoStream stream(*video, 0);
    auto result = (*engine)->Run(stream);
    ASSERT_TRUE(result.ok());
    (markov ? markov_kcrit : iid_kcrit) = result->stats.action_kcrit;
  }
  EXPECT_GE(markov_kcrit, iid_kcrit);
}

TEST(PredicateOrderTest, OrderDoesNotChangeResultsUnderIdealModels) {
  auto video = MakeVideo();
  Query query;
  query.action = "jumping";
  query.objects = {"car"};
  video::IntervalSet results[3];
  int i = 0;
  for (const auto order : {OnlineConfig::PredicateOrder::kObjectsFirst,
                           OnlineConfig::PredicateOrder::kActionsFirst,
                           OnlineConfig::PredicateOrder::kAdaptive}) {
    models::ModelSet models = models::MakeModelSet(
        video, models::IdealSuite(), {"car"}, {"jumping"});
    OnlineConfig config;
    config.predicate_order = order;
    auto engine = OnlineEngine::Create(
        OnlineEngine::Mode::kSvaqd, query, config, video->layout(),
        models.detector.get(), models.recognizer.get());
    ASSERT_TRUE(engine.ok());
    video::SyntheticVideoStream stream(video, 0);
    auto result = (*engine)->Run(stream);
    ASSERT_TRUE(result.ok());
    results[i++] = result->sequences;
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(PredicateOrderTest, ActionsFirstShortCircuitsDetector) {
  // An action that never occurs: actions-first skips the (expensive)
  // detector pass on every non-sampling clip.
  auto video = MakeVideo();
  Query query;
  query.action = "moonwalking";  // not in the video
  query.objects = {"car"};
  models::ModelSet models = models::MakeModelSet(
      video, models::IdealSuite(), {"car"}, {"moonwalking"});
  OnlineConfig config;
  config.predicate_order = OnlineConfig::PredicateOrder::kActionsFirst;
  auto engine = OnlineEngine::Create(
      OnlineEngine::Mode::kSvaqd, query, config, video->layout(),
      models.detector.get(), models.recognizer.get());
  ASSERT_TRUE(engine.ok());
  video::SyntheticVideoStream stream(video, 0);
  auto result = (*engine)->Run(stream);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->sequences.empty());
  EXPECT_EQ(result->stats.clips_actions_first,
            result->stats.clips_processed);
  // Detector frames processed only on the sampling ticks.
  const int64_t sampled_clips =
      result->stats.clips_processed / config.action_null_sampling_period + 1;
  EXPECT_LE(models.detector->stats().units,
            sampled_clips * video->layout().FramesPerClip());
}

TEST(PredicateOrderTest, AdaptiveLearnsToPutSelectiveStageFirst) {
  // The action is rare and the object is everywhere: the action stage is
  // far more selective, and the detector (95 ms/frame * 80 frames) dwarfs
  // the recognizer (110 ms/shot * 5 shots), so adaptive ordering should
  // settle on actions-first for most clips.
  video::SyntheticVideoSpec spec;
  spec.name = "adaptive_test";
  spec.num_frames = 60000;
  spec.seed = 55;
  spec.actions.push_back({"jumping", 300.0, 12000.0});  // rare
  video::SyntheticObjectSpec car;
  car.label = "car";
  car.mean_on_frames = 5000.0;  // near-omnipresent
  car.mean_off_frames = 200.0;
  spec.objects.push_back(car);
  auto video = video::SyntheticVideo::Generate(spec);
  ASSERT_TRUE(video.ok());

  Query query;
  query.action = "jumping";
  query.objects = {"car"};
  models::ModelSet models = models::MakeModelSet(
      *video, models::MaskRcnnI3dSuite(), {"car"}, {"jumping"});
  OnlineConfig config;
  config.predicate_order = OnlineConfig::PredicateOrder::kAdaptive;
  auto engine = OnlineEngine::Create(
      OnlineEngine::Mode::kSvaqd, query, config, (*video)->layout(),
      models.detector.get(), models.recognizer.get());
  ASSERT_TRUE(engine.ok());
  video::SyntheticVideoStream stream(*video, 0);
  auto result = (*engine)->Run(stream);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.clips_actions_first,
            result->stats.clips_processed / 2);
  // And it saves real inference relative to the paper's objects-first.
  models::ModelSet baseline_models = models::MakeModelSet(
      *video, models::MaskRcnnI3dSuite(), {"car"}, {"jumping"});
  OnlineConfig baseline;
  baseline.predicate_order = OnlineConfig::PredicateOrder::kObjectsFirst;
  auto baseline_engine = OnlineEngine::Create(
      OnlineEngine::Mode::kSvaqd, query, baseline, (*video)->layout(),
      baseline_models.detector.get(), baseline_models.recognizer.get());
  ASSERT_TRUE(baseline_engine.ok());
  video::SyntheticVideoStream stream2(*video, 0);
  auto baseline_result = (*baseline_engine)->Run(stream2);
  ASSERT_TRUE(baseline_result.ok());
  EXPECT_LT(result->stats.model_ms, baseline_result->stats.model_ms);
}

TEST(QueryExtensionsTest, Validation) {
  Query q;
  q.action = "a";
  q.extra_actions = {"a"};
  EXPECT_FALSE(q.Validate().ok());  // duplicate action
  q.extra_actions = {"b"};
  EXPECT_TRUE(q.Validate().ok());
  q.object_disjunctions = {{}};
  EXPECT_FALSE(q.Validate().ok());  // empty group
  q.object_disjunctions = {{"x", "x"}};
  EXPECT_FALSE(q.Validate().ok());  // duplicate member
  q.object_disjunctions = {{"x", "y"}};
  EXPECT_TRUE(q.Validate().ok());
  q.relationships = {{RelOp::kLeftOf, "x", "x"}};
  EXPECT_FALSE(q.Validate().ok());  // self relationship
  q.relationships = {{RelOp::kLeftOf, "x", "y"}};
  EXPECT_TRUE(q.Validate().ok());
  EXPECT_EQ(q.AllActions(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(q.AllObjectLabels(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(q.ToString(), "{a=a&b; any(x|y); left_of(x, y)}");
}

}  // namespace
}  // namespace svq::core
