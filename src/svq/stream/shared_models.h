#ifndef SVQ_STREAM_SHARED_MODELS_H_
#define SVQ_STREAM_SHARED_MODELS_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "svq/core/clip_indicator.h"
#include "svq/models/model_profile.h"
#include "svq/models/synthetic_models.h"
#include "svq/video/synthetic_video.h"

namespace svq::stream {

/// Shared-inference model pool for one feed (docs/streaming.md).
///
/// Many standing queries over the same feed would each instantiate their
/// own detector/recognizer and re-run inference on every clip — N queries,
/// N model passes. The pool instead keeps ONE underlying synthetic model
/// per distinct profile, built with the union vocabulary of every
/// subscriber, and one per-clip table over each (core::FrameTable,
/// core::ShotTable) that every subscriber engine evaluates from. A table
/// runs its model over a clip on the first Fill for that clip and serves
/// later Fills from what it holds, so each frame / shot runs the real model
/// at most once per clip however many subscribers ask. Every Fill charges
/// the calling engine what a dedicated model would have accrued for the
/// stage, so the engines' virtual-time accounting, adaptive predicate
/// ordering, and OnlineStats::model_ms equal dedicated execution.
///
/// Correctness of the fan-out rests on a property of the synthetic models
/// (models/synthetic_models.cc): per-label output is a pure function of
/// (video, profile, seed, label, unit) — the vocabulary only selects which
/// labels are iterated. A union-vocabulary model therefore emits, for each
/// subscriber's labels, exactly the detections a dedicated model would,
/// and extra labels are ignored by predicate evaluation. Growing the
/// vocabulary when a new subscriber arrives is equally safe: overlays are
/// regenerated per label from the same seeds.
///
/// RunStats() is what was actually executed; ChargedStats() is what
/// dedicated per-query models would have executed. Their difference is the
/// shared-inference saving surfaced as svq_stream_* metrics.
///
/// Not thread-safe: the owning feed serializes every call and every
/// evaluation from the tables (subscribe, dispatch, stats folding).
class SharedModelPool {
 public:
  /// Frame tables mask detections at `object_threshold`, the feed's.
  SharedModelPool(std::shared_ptr<const video::SyntheticVideo> video,
                  double object_threshold);
  ~SharedModelPool();

  SharedModelPool(const SharedModelPool&) = delete;
  SharedModelPool& operator=(const SharedModelPool&) = delete;

  /// The frame table of the shared detector for `profile`/`seed`, with
  /// `labels` added to the union vocabulary (rebuilding the shared model
  /// if they are new). The table is valid for the pool's lifetime.
  core::FrameTable* Frames(const models::DetectorProfile& profile,
                           uint64_t seed,
                           const std::vector<std::string>& labels);

  /// Likewise for the shared recognizer.
  core::ShotTable* Shots(const models::DetectorProfile& profile,
                         uint64_t seed,
                         const std::vector<std::string>& labels);

  /// Inference actually executed by the shared models (units de-duplicated
  /// across subscribers).
  models::InferenceStats RunStats() const;
  /// Inference charged to subscriber engines — what N dedicated engines
  /// would have executed.
  models::InferenceStats ChargedStats() const;

 private:
  /// One shared model and its table. The model is rebuilt when a
  /// subscriber brings new vocabulary; `retired` keeps the replaced
  /// instances' stats so RunStats stays cumulative.
  template <typename Model, typename Table>
  struct Shared {
    std::set<std::string> vocabulary;
    std::unique_ptr<Model> model;
    models::InferenceStats retired;
    std::unique_ptr<Table> table;
  };
  using SharedDetector =
      Shared<models::SyntheticObjectDetector, core::FrameTable>;
  using SharedRecognizer =
      Shared<models::SyntheticActionRecognizer, core::ShotTable>;

  std::shared_ptr<const video::SyntheticVideo> video_;
  const double object_threshold_;
  std::unordered_map<uint64_t, SharedDetector> detectors_;
  std::unordered_map<uint64_t, SharedRecognizer> recognizers_;
};

}  // namespace svq::stream

#endif  // SVQ_STREAM_SHARED_MODELS_H_
