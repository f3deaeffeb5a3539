#ifndef SVQ_MODELS_SYNTHETIC_MODELS_H_
#define SVQ_MODELS_SYNTHETIC_MODELS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "svq/common/result.h"
#include "svq/common/rng.h"
#include "svq/models/action_recognizer.h"
#include "svq/models/model_profile.h"
#include "svq/models/object_detector.h"
#include "svq/models/object_tracker.h"
#include "svq/video/interval_set.h"
#include "svq/video/synthetic_video.h"
#include "svq/video/video_stream.h"

namespace svq::models {

/// Per-label noise overlay over an occurrence-unit domain: which units the
/// model emits a detection on, given the true presence set and the
/// profile's burst-noise parameters. Detections inside true presence score
/// from the profile's true-score law, the rest from the false-score law.
///
/// The overlay is generated once per (video, label) from a deterministic
/// RNG stream, so that the emulated model is a pure function of the frame —
/// exactly like a real network — while its errors remain temporally
/// correlated (dropout and false-positive *bursts*, not i.i.d. flips).
class PresenceOverlay {
 public:
  static PresenceOverlay Build(const video::IntervalSet& truth,
                               int64_t num_units, double tpr, double fpr,
                               double mean_miss_burst, double mean_fp_burst,
                               bool ideal, Rng rng);

  /// Units on which the model emits a detection of this label.
  const video::IntervalSet& detected() const { return detected_; }
  /// Emitted units that are truly present (score from the true-score law).
  const video::IntervalSet& true_detected() const { return true_detected_; }
  /// Emitted units that are false positives.
  const video::IntervalSet& false_detected() const { return false_detected_; }

 private:
  video::IntervalSet detected_;
  video::IntervalSet true_detected_;
  video::IntervalSet false_detected_;
};

/// FNV-1a hash used to derive deterministic per-label RNG streams.
uint64_t HashLabel(const std::string& label);

/// Deterministic bounding box of a ground-truth instance at a frame: each
/// instance occupies a stable region of the frame and drifts slowly
/// (sinusoidal pan), which gives spatial relationships between instances
/// temporal coherence — the substrate for the paper's footnote-2
/// relationship predicates. Detector and tracker built with the same seed
/// produce identical boxes.
BoundingBox InstanceBox(const video::TrackInstance& instance,
                        video::FrameIndex frame, uint64_t seed);

/// Label -> covering ground-truth instance lookup shared by the synthetic
/// detector and tracker.
class InstanceLookup {
 public:
  explicit InstanceLookup(const video::GroundTruth& ground_truth);

  /// The latest-starting instance of `label` covering `frame`; nullptr
  /// when none does.
  const video::TrackInstance* At(const std::string& label,
                                 video::FrameIndex frame) const;

 private:
  std::map<std::string, std::vector<const video::TrackInstance*>> by_label_;
};

/// What a synthetic model resolves once per vocabulary label for its range
/// calls: the label's noise overlay and the seed of its per-unit score
/// draws.
struct LabelStream {
  PresenceOverlay overlay;
  uint64_t unit_seed = 0;
};

/// Object detector emulation over a synthetic video; see DetectorProfile.
/// A range call makes one pass per vocabulary label over that label's
/// overlay intervals inside the range.
class SyntheticObjectDetector final : public ObjectDetector {
 public:
  /// `extra_vocabulary` extends the model vocabulary beyond the labels in
  /// the video's ground truth (a query may ask for types that never occur).
  SyntheticObjectDetector(std::shared_ptr<const video::SyntheticVideo> video,
                          DetectorProfile profile,
                          std::vector<std::string> extra_vocabulary,
                          uint64_t seed);

  Status Detect(const video::Interval& frames,
                std::vector<Emission>* emissions,
                std::vector<BoundingBox>* boxes) override;
  const std::vector<std::string>& SupportedLabels() const override {
    return vocabulary_;
  }
  const std::string& name() const override { return profile_.name; }
  const InferenceStats& stats() const override { return stats_; }

 private:
  std::shared_ptr<const video::SyntheticVideo> video_;
  DetectorProfile profile_;
  std::vector<std::string> vocabulary_;
  uint64_t seed_;
  std::vector<LabelStream> streams_;  // by vocabulary index, on first call
  InstanceLookup lookup_;
  InferenceStats stats_;
};

/// Action recognizer emulation; occurrence units are shots. A shot is
/// treated as truly containing an action when at least half of its frames
/// lie inside the action's ground-truth range.
class SyntheticActionRecognizer final : public ActionRecognizer {
 public:
  SyntheticActionRecognizer(std::shared_ptr<const video::SyntheticVideo> video,
                            DetectorProfile profile,
                            std::vector<std::string> extra_vocabulary,
                            uint64_t seed);

  Status Recognize(const video::Interval& shots,
                   std::vector<Emission>* emissions) override;
  const std::vector<std::string>& SupportedLabels() const override {
    return vocabulary_;
  }
  const std::string& name() const override { return profile_.name; }
  const InferenceStats& stats() const override { return stats_; }

  /// Shot-domain ground truth for `label` under the half-coverage rule.
  video::IntervalSet ShotTruth(const std::string& label) const;

 private:
  std::shared_ptr<const video::SyntheticVideo> video_;
  DetectorProfile profile_;
  std::vector<std::string> vocabulary_;
  uint64_t seed_;
  std::vector<LabelStream> streams_;  // by vocabulary index, on first call
  InferenceStats stats_;
};

/// Tracker emulation: detector noise plus identity churn — long instances
/// fragment into several track ids with geometric segment lengths
/// (CenterTrack-style behaviour). Its emissions and boxes are those of a
/// SyntheticObjectDetector with the same profile and seed.
class SyntheticObjectTracker final : public ObjectTracker {
 public:
  SyntheticObjectTracker(std::shared_ptr<const video::SyntheticVideo> video,
                         DetectorProfile detector_profile,
                         TrackerProfile tracker_profile,
                         std::vector<std::string> extra_vocabulary,
                         uint64_t seed);

  Status Track(const video::Interval& frames,
               std::vector<Emission>* emissions,
               std::vector<BoundingBox>* boxes,
               std::vector<int64_t>* track_ids) override;
  const std::vector<std::string>& SupportedLabels() const override {
    return vocabulary_;
  }
  const std::string& name() const override { return tracker_profile_.name; }
  const InferenceStats& stats() const override { return stats_; }

 private:
  /// Track id of the ground-truth instance covering `frame`, after identity
  /// churn; -1 when no instance covers it.
  int64_t TrueTrackIdAt(const std::string& label, video::FrameIndex frame);
  /// Track id of the false-positive burst of vocabulary label `index`
  /// covering `frame`; -1 when none does.
  int64_t FalseTrackIdAt(size_t index, video::FrameIndex frame) const;

  std::shared_ptr<const video::SyntheticVideo> video_;
  DetectorProfile detector_profile_;
  TrackerProfile tracker_profile_;
  std::vector<std::string> vocabulary_;
  uint64_t seed_;
  std::vector<LabelStream> streams_;  // by vocabulary index, on first call
  std::map<int64_t, std::vector<int64_t>> segment_boundaries_;
  InstanceLookup lookup_;
  InferenceStats stats_;
};

/// Bundle of per-video model instances used by one query execution.
struct ModelSet {
  std::unique_ptr<ObjectDetector> detector;
  std::unique_ptr<ActionRecognizer> recognizer;
  std::unique_ptr<ObjectTracker> tracker;
};

/// Named model configuration for building ModelSets.
struct ModelSuite {
  DetectorProfile object_profile = MaskRcnnProfile();
  DetectorProfile action_profile = I3dProfile();
  TrackerProfile tracker_profile = CenterTrackProfile();
  uint64_t seed = 77;
};

/// Instantiates synthetic models over `video`; `query_labels` are added to
/// the detector/recognizer vocabularies.
ModelSet MakeModelSet(const std::shared_ptr<const video::SyntheticVideo>& video,
                      const ModelSuite& suite,
                      const std::vector<std::string>& query_object_labels,
                      const std::vector<std::string>& query_action_labels);

/// Suite presets matching the paper's model choices (Table 4 rows).
ModelSuite MaskRcnnI3dSuite();
ModelSuite YoloV3I3dSuite();
ModelSuite IdealSuite();

}  // namespace svq::models

#endif  // SVQ_MODELS_SYNTHETIC_MODELS_H_
