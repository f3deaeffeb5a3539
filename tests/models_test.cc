#include "svq/models/synthetic_models.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>
#include <tuple>

#include "svq/core/ingest.h"
#include "svq/io/env.h"

namespace svq::models {
namespace {

using video::Interval;
using video::IntervalSet;
using video::SyntheticVideo;
using video::SyntheticVideoSpec;

std::shared_ptr<const SyntheticVideo> MakeVideo(uint64_t seed = 3) {
  SyntheticVideoSpec spec;
  spec.name = "models_test";
  spec.num_frames = 24000;
  spec.seed = seed;
  spec.actions.push_back({"jumping", 320.0, 1000.0});
  video::SyntheticObjectSpec car;
  car.label = "car";
  car.correlate_with_action = "jumping";
  car.correlation = 0.9;
  car.coverage = 0.9;
  car.mean_on_frames = 250.0;
  car.mean_off_frames = 1800.0;
  spec.objects.push_back(car);
  auto video = SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

TEST(ProfileTest, Validation) {
  DetectorProfile p = MaskRcnnProfile();
  EXPECT_TRUE(p.Validate().ok());
  p.tpr = 1.4;
  EXPECT_FALSE(p.Validate().ok());
  p = MaskRcnnProfile();
  p.mean_fp_burst = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = MaskRcnnProfile();
  p.true_score.alpha = 0.0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ProfileTest, LabelOverrides) {
  DetectorProfile p = MaskRcnnProfile();
  p.label_accuracy["faucet"] = {0.7, 0.08};
  EXPECT_DOUBLE_EQ(p.TprFor("faucet"), 0.7);
  EXPECT_DOUBLE_EQ(p.FprFor("faucet"), 0.08);
  EXPECT_DOUBLE_EQ(p.TprFor("car"), p.tpr);
}

TEST(PresenceOverlayTest, IdealMatchesTruth) {
  IntervalSet truth({{100, 200}, {400, 450}});
  Rng rng(1);
  auto overlay =
      PresenceOverlay::Build(truth, 1000, 1.0, 0.0, 5, 3, true, rng);
  EXPECT_EQ(overlay.detected(), truth);
  EXPECT_TRUE(overlay.false_detected().empty());
}

TEST(PresenceOverlayTest, RatesApproximatelyRespected) {
  IntervalSet truth({{0, 50000}});
  Rng rng(2);
  auto overlay =
      PresenceOverlay::Build(truth, 100000, 0.9, 0.05, 6, 3, false, rng);
  const double tpr =
      static_cast<double>(overlay.true_detected().TotalLength()) / 50000.0;
  const double fpr =
      static_cast<double>(overlay.false_detected().TotalLength()) / 50000.0;
  EXPECT_NEAR(tpr, 0.9, 0.05);
  EXPECT_NEAR(fpr, 0.05, 0.03);
}

TEST(PresenceOverlayTest, FalsePositivesOutsideTruth) {
  IntervalSet truth({{1000, 2000}});
  Rng rng(3);
  auto overlay =
      PresenceOverlay::Build(truth, 10000, 0.8, 0.1, 6, 3, false, rng);
  EXPECT_EQ(overlay.false_detected().OverlapLength(truth), 0);
  // detected = true_detected ∪ false_detected, disjoint.
  EXPECT_EQ(overlay.detected().TotalLength(),
            overlay.true_detected().TotalLength() +
                overlay.false_detected().TotalLength());
}

/// One frame's detections: a one-frame range call.
std::vector<Emission> DetectFrame(ObjectDetector& det,
                                  video::FrameIndex frame) {
  std::vector<Emission> emissions;
  EXPECT_TRUE(det.Detect({frame, frame + 1}, &emissions, nullptr).ok());
  return emissions;
}

TEST(ObjectDetectorTest, DeterministicPerFrame) {
  auto video = MakeVideo();
  SyntheticObjectDetector det(video, MaskRcnnProfile(), {"bus"}, 9);
  const std::vector<Emission> first = DetectFrame(det, 1234);
  const std::vector<Emission> second = DetectFrame(det, 1234);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].label, second[i].label);
    EXPECT_DOUBLE_EQ(first[i].score, second[i].score);
  }
}

TEST(ObjectDetectorTest, VocabularyIncludesExtraLabels) {
  auto video = MakeVideo();
  SyntheticObjectDetector det(video, MaskRcnnProfile(), {"zebra"}, 9);
  const auto& vocab = det.SupportedLabels();
  EXPECT_NE(std::find(vocab.begin(), vocab.end(), "zebra"), vocab.end());
  EXPECT_NE(std::find(vocab.begin(), vocab.end(), "car"), vocab.end());
}

TEST(ObjectDetectorTest, RejectsOutOfRangeFrame) {
  auto video = MakeVideo();
  SyntheticObjectDetector det(video, MaskRcnnProfile(), {}, 9);
  std::vector<Emission> emissions;
  const video::FrameIndex n = video->num_frames();
  EXPECT_FALSE(det.Detect({-1, 0}, &emissions, nullptr).ok());
  EXPECT_FALSE(det.Detect({n, n + 1}, &emissions, nullptr).ok());
  EXPECT_FALSE(det.Detect({5, 4}, &emissions, nullptr).ok());
  EXPECT_TRUE(emissions.empty());
  EXPECT_EQ(det.stats().units, 0);
}

TEST(ObjectDetectorTest, IdealDetectorMatchesGroundTruth) {
  auto video = MakeVideo();
  SyntheticObjectDetector det(video, IdealObjectProfile(), {}, 9);
  const IntervalSet& truth = video->ground_truth().ObjectPresence("car");
  for (video::FrameIndex f = 0; f < 2000; ++f) {
    bool has_car = false;
    for (const Emission& d : DetectFrame(det, f)) {
      if (det.SupportedLabels()[d.label] == "car") {
        has_car = true;
        EXPECT_DOUBLE_EQ(d.score, 1.0);
      }
    }
    EXPECT_EQ(has_car, truth.Contains(f)) << "frame " << f;
  }
}

TEST(ObjectDetectorTest, AccruesInferenceCost) {
  auto video = MakeVideo();
  SyntheticObjectDetector det(video, MaskRcnnProfile(), {}, 9);
  DetectFrame(det, 0);
  DetectFrame(det, 1);
  EXPECT_EQ(det.stats().units, 2);
  EXPECT_DOUBLE_EQ(det.stats().simulated_ms,
                   2.0 * MaskRcnnProfile().cost_ms);
}

TEST(ObjectDetectorTest, ScoresAboveThresholdMostlyInTruth) {
  auto video = MakeVideo();
  SyntheticObjectDetector det(video, MaskRcnnProfile(), {}, 9);
  const IntervalSet& truth = video->ground_truth().ObjectPresence("car");
  int64_t positives = 0, true_positives = 0;
  for (video::FrameIndex f = 0; f < video->num_frames(); f += 3) {
    for (const Emission& d : DetectFrame(det, f)) {
      if (det.SupportedLabels()[d.label] == "car" && d.score >= 0.5) {
        ++positives;
        if (truth.Contains(f)) ++true_positives;
      }
    }
  }
  ASSERT_GT(positives, 0);
  EXPECT_GT(static_cast<double>(true_positives) / positives, 0.7);
}

TEST(ActionRecognizerTest, ShotTruthHalfCoverageRule) {
  auto video = MakeVideo();
  SyntheticActionRecognizer rec(video, IdealActionProfile(), {}, 9);
  const IntervalSet shots = rec.ShotTruth("jumping");
  const IntervalSet& frames = video->ground_truth().ActionPresence("jumping");
  // Every truth shot must overlap the frame truth by >= half a shot.
  const int fps = video->layout().frames_per_shot;
  for (const Interval& run : shots.intervals()) {
    for (int64_t s = run.begin; s < run.end; ++s) {
      const IntervalSet shot_set(
          std::vector<Interval>{{s * fps, (s + 1) * fps}});
      EXPECT_GE(2 * shot_set.OverlapLength(frames), fps) << "shot " << s;
    }
  }
}

TEST(ActionRecognizerTest, IdealRecognizerScoresTruthShots) {
  auto video = MakeVideo();
  SyntheticActionRecognizer rec(video, IdealActionProfile(), {}, 9);
  const IntervalSet shots = rec.ShotTruth("jumping");
  const video::ShotIndex shot = shots.intervals().front().begin;
  std::vector<Emission> scores;
  ASSERT_TRUE(rec.Recognize({shot, shot + 1}, &scores).ok());
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(rec.SupportedLabels()[scores[0].label], "jumping");
  EXPECT_EQ(scores[0].unit, shot);
  EXPECT_DOUBLE_EQ(scores[0].score, 1.0);
}

TEST(ActionRecognizerTest, RejectsOutOfRangeShot) {
  auto video = MakeVideo();
  SyntheticActionRecognizer rec(video, I3dProfile(), {}, 9);
  const video::ShotIndex shot = video->NumShots();
  std::vector<Emission> scores;
  EXPECT_FALSE(rec.Recognize({shot, shot + 1}, &scores).ok());
  EXPECT_FALSE(rec.Recognize({-1, 1}, &scores).ok());
  EXPECT_TRUE(scores.empty());
  EXPECT_EQ(rec.stats().units, 0);
}

/// One frame's tracked detections: a one-frame range call.
struct Tracked {
  std::vector<Emission> emissions;
  std::vector<BoundingBox> boxes;
  std::vector<int64_t> track_ids;
};

Tracked TrackFrame(ObjectTracker& tracker, video::FrameIndex frame) {
  Tracked out;
  EXPECT_TRUE(tracker
                  .Track({frame, frame + 1}, &out.emissions, &out.boxes,
                         &out.track_ids)
                  .ok());
  return out;
}

TEST(ObjectTrackerTest, StableIdsWithinASegment) {
  auto video = MakeVideo();
  TrackerProfile tracker_profile;
  tracker_profile.mean_segment_frames = 1e9;  // effectively no churn
  SyntheticObjectTracker tracker(video, IdealObjectProfile(), tracker_profile,
                                 {}, 9);
  const auto& instances = video->ground_truth().instances();
  ASSERT_FALSE(instances.empty());
  const video::TrackInstance& inst = instances.front();
  std::set<int64_t> ids;
  for (video::FrameIndex f = inst.frames.begin; f < inst.frames.end; ++f) {
    const Tracked tracked = TrackFrame(tracker, f);
    for (size_t i = 0; i < tracked.emissions.size(); ++i) {
      if (tracker.SupportedLabels()[tracked.emissions[i].label] ==
          inst.label) {
        ids.insert(tracked.track_ids[i]);
      }
    }
  }
  // Without churn and possibly overlapping instances, the id set is small
  // and every id is a valid (non-negative) track id.
  EXPECT_FALSE(ids.empty());
  for (const int64_t id : ids) EXPECT_GE(id, 0);
}

TEST(ObjectTrackerTest, ChurnSplitsLongTracks) {
  auto video = MakeVideo();
  TrackerProfile churny;
  churny.mean_segment_frames = 40.0;
  SyntheticObjectTracker tracker(video, IdealObjectProfile(), churny, {}, 9);
  // Find a long instance and count distinct ids across it.
  const video::TrackInstance* longest = nullptr;
  for (const auto& inst : video->ground_truth().instances()) {
    if (longest == nullptr ||
        inst.frames.length() > longest->frames.length()) {
      longest = &inst;
    }
  }
  ASSERT_NE(longest, nullptr);
  ASSERT_GT(longest->frames.length(), 120);
  std::set<int64_t> ids;
  for (video::FrameIndex f = longest->frames.begin; f < longest->frames.end;
       ++f) {
    const Tracked tracked = TrackFrame(tracker, f);
    for (size_t i = 0; i < tracked.emissions.size(); ++i) {
      if (tracker.SupportedLabels()[tracked.emissions[i].label] ==
          longest->label) {
        ids.insert(tracked.track_ids[i]);
      }
    }
  }
  EXPECT_GT(ids.size(), 1u);
}

TEST(ObjectTrackerTest, DeterministicPerFrame) {
  auto video = MakeVideo();
  SyntheticObjectTracker tracker(video, MaskRcnnProfile(),
                                 CenterTrackProfile(), {}, 9);
  const Tracked a = TrackFrame(tracker, 5000);
  const Tracked b = TrackFrame(tracker, 5000);
  ASSERT_EQ(a.emissions.size(), b.emissions.size());
  for (size_t i = 0; i < a.emissions.size(); ++i) {
    EXPECT_EQ(a.track_ids[i], b.track_ids[i]);
    EXPECT_DOUBLE_EQ(a.emissions[i].score, b.emissions[i].score);
  }
}

// ---------------------------------------------------------------------------
// Pinned output. The digests below were recorded from the per-frame model
// calls that the range calls replaced, and must not move: every (label,
// unit, score, box, track id) a synthetic model emits, its InferenceStats,
// and the bytes of a disk-ingested video file.

/// 64-bit FNV-1a over raw bytes.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Value(T v) {
    Bytes(&v, sizeof(v));
  }
};

/// One emission with its label spelled out, in a form that sorts and
/// compares bit for bit.
struct Record {
  std::string label;
  int64_t unit = 0;
  double score = 0.0;
  BoundingBox box;
  int64_t track_id = -1;
};

bool operator<(const Record& a, const Record& b) {
  return std::tie(a.label, a.unit) < std::tie(b.label, b.unit);
}

bool SameBits(const Record& a, const Record& b) {
  return a.label == b.label && a.unit == b.unit &&
         std::memcmp(&a.score, &b.score, sizeof(double)) == 0 &&
         std::memcmp(&a.box, &b.box, sizeof(BoundingBox)) == 0 &&
         a.track_id == b.track_id;
}

/// Every output of the detector, tracker or recognizer of `suite` over
/// `ranges` of `video`, sorted by (label, unit), plus the model's stats.
struct Outputs {
  std::vector<Record> detector, tracker, recognizer;
  InferenceStats detector_stats, tracker_stats, recognizer_stats;
};

Outputs RunModels(const std::shared_ptr<const SyntheticVideo>& video,
                  const ModelSuite& suite,
                  const std::vector<Interval>& frame_ranges,
                  const std::vector<Interval>& shot_ranges) {
  Outputs out;
  SyntheticObjectDetector det(video, suite.object_profile, {"zebra"},
                              suite.seed);
  SyntheticObjectTracker tracker(video, suite.object_profile,
                                 suite.tracker_profile, {"zebra"}, suite.seed);
  SyntheticActionRecognizer rec(video, suite.action_profile, {"juggling"},
                                suite.seed);
  for (const Interval& range : frame_ranges) {
    std::vector<Emission> emissions;
    std::vector<BoundingBox> boxes;
    EXPECT_TRUE(det.Detect(range, &emissions, &boxes).ok());
    EXPECT_EQ(boxes.size(), emissions.size());
    for (size_t i = 0; i < emissions.size(); ++i) {
      out.detector.push_back({det.SupportedLabels()[emissions[i].label],
                              emissions[i].unit, emissions[i].score,
                              boxes[i], -1});
    }
    emissions.clear();
    boxes.clear();
    std::vector<int64_t> ids;
    EXPECT_TRUE(tracker.Track(range, &emissions, &boxes, &ids).ok());
    EXPECT_EQ(ids.size(), emissions.size());
    for (size_t i = 0; i < emissions.size(); ++i) {
      out.tracker.push_back({tracker.SupportedLabels()[emissions[i].label],
                             emissions[i].unit, emissions[i].score, boxes[i],
                             ids[i]});
    }
  }
  for (const Interval& range : shot_ranges) {
    std::vector<Emission> emissions;
    EXPECT_TRUE(rec.Recognize(range, &emissions).ok());
    for (const Emission& e : emissions) {
      out.recognizer.push_back(
          {rec.SupportedLabels()[e.label], e.unit, e.score, {}, -1});
    }
  }
  std::sort(out.detector.begin(), out.detector.end());
  std::sort(out.tracker.begin(), out.tracker.end());
  std::sort(out.recognizer.begin(), out.recognizer.end());
  out.detector_stats = det.stats();
  out.tracker_stats = tracker.stats();
  out.recognizer_stats = rec.stats();
  return out;
}

uint64_t DigestOf(const std::vector<Record>& records,
                  const InferenceStats& stats) {
  Fnv fnv;
  for (const Record& r : records) {
    fnv.Value<uint64_t>(r.label.size());
    fnv.Bytes(r.label.data(), r.label.size());
    fnv.Value(r.unit);
    fnv.Value(r.score);
    fnv.Value(r.box.x);
    fnv.Value(r.box.y);
    fnv.Value(r.box.width);
    fnv.Value(r.box.height);
    fnv.Value(r.track_id);
  }
  fnv.Value(stats.units);
  fnv.Value(stats.simulated_ms);
  return fnv.h;
}

const std::vector<ModelSuite>& PinnedSuites() {
  static const std::vector<ModelSuite> suites = {
      MaskRcnnI3dSuite(), YoloV3I3dSuite(), IdealSuite()};
  return suites;
}

TEST(PinnedOutputTest, ModelsEmitThePinnedDigest) {
  // Both videos lack "zebra" and "juggling", which the models still score
  // (as false positives, except under the ideal profiles).
  Fnv all;
  for (const uint64_t video_seed : {3u, 11u}) {
    auto video = MakeVideo(video_seed);
    for (const ModelSuite& suite : PinnedSuites()) {
      const Outputs out = RunModels(video, suite, {{0, video->num_frames()}},
                                    {{0, video->NumShots()}});
      all.Value(DigestOf(out.detector, out.detector_stats));
      all.Value(DigestOf(out.tracker, out.tracker_stats));
      all.Value(DigestOf(out.recognizer, out.recognizer_stats));
    }
  }
  EXPECT_EQ(all.h, 0xeb64a000c80f6bb8ULL);
}

TEST(PinnedOutputTest, DiskIngestWritesThePinnedFile) {
  auto video = MakeVideo(3);
  ModelSet models =
      MakeModelSet(video, MaskRcnnI3dSuite(), {"zebra"}, {"juggling"});
  const std::string dir = ::testing::TempDir() + "/models_test_pinned_file";
  std::filesystem::remove_all(dir);
  core::IngestOptions options;
  options.backend = core::IngestOptions::TableBackend::kDisk;
  options.directory = dir;
  auto ingested = core::IngestVideo(video, 7, models.tracker.get(),
                                    models.recognizer.get(), options);
  ASSERT_TRUE(ingested.ok()) << ingested.status();
  auto bytes = io::ReadFileToString(dir + "/models_test");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(bytes->size(), 8482u);
  Fnv file;
  file.Bytes(bytes->data(), bytes->size());
  file.Value(ingested->ingest_inference.units);
  file.Value(ingested->ingest_inference.simulated_ms);
  EXPECT_EQ(file.h, 0x309488164a854c2aULL);
}

/// Splits [0, n) into consecutive ranges: single units first, then
/// empty and random-length ranges.
std::vector<Interval> SplitRange(int64_t n, uint64_t seed) {
  std::vector<Interval> ranges;
  int64_t cursor = 0;
  for (; cursor < std::min<int64_t>(n, 200); ++cursor) {
    ranges.push_back({cursor, cursor + 1});
  }
  Rng rng(seed);
  while (cursor < n) {
    const int64_t length = std::min<int64_t>(
        n - cursor, static_cast<int64_t>(rng.NextUint64(400)));
    ranges.push_back({cursor, cursor + length});
    cursor += length;
  }
  return ranges;
}

TEST(PinnedOutputTest, SplitRangesEmitWhatTheWholeRangeEmits) {
  auto video = MakeVideo(3);
  for (const ModelSuite& suite : PinnedSuites()) {
    SCOPED_TRACE(suite.object_profile.name);
    const Outputs whole = RunModels(video, suite, {{0, video->num_frames()}},
                                    {{0, video->NumShots()}});
    const Outputs split =
        RunModels(video, suite, SplitRange(video->num_frames(), 5),
                  SplitRange(video->NumShots(), 6));
    const auto same = [](const std::vector<Record>& a,
                         const std::vector<Record>& b) {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (!SameBits(a[i], b[i])) return false;
      }
      return true;
    };
    EXPECT_FALSE(whole.detector.empty());
    EXPECT_TRUE(same(whole.detector, split.detector));
    EXPECT_TRUE(same(whole.tracker, split.tracker));
    EXPECT_TRUE(same(whole.recognizer, split.recognizer));
    for (const auto& [a, b] :
         {std::pair{whole.detector_stats, split.detector_stats},
          std::pair{whole.tracker_stats, split.tracker_stats},
          std::pair{whole.recognizer_stats, split.recognizer_stats}}) {
      EXPECT_EQ(a.units, b.units);
      EXPECT_EQ(a.simulated_ms, b.simulated_ms);
    }
  }
}

TEST(ModelSetTest, FactoryBuildsAllThree) {
  auto video = MakeVideo();
  ModelSet set = MakeModelSet(video, MaskRcnnI3dSuite(), {"car", "bus"},
                              {"jumping"});
  ASSERT_NE(set.detector, nullptr);
  ASSERT_NE(set.recognizer, nullptr);
  ASSERT_NE(set.tracker, nullptr);
  EXPECT_EQ(set.detector->name(), "maskrcnn");
  EXPECT_EQ(set.recognizer->name(), "i3d");
}

TEST(ModelSetTest, SuitesDifferInQuality) {
  EXPECT_GT(MaskRcnnI3dSuite().object_profile.tpr,
            YoloV3I3dSuite().object_profile.tpr);
  EXPECT_LT(MaskRcnnI3dSuite().object_profile.fpr,
            YoloV3I3dSuite().object_profile.fpr);
  EXPECT_TRUE(IdealSuite().object_profile.ideal);
}

}  // namespace
}  // namespace svq::models
