#ifndef SVQ_MODELS_OBJECT_TRACKER_H_
#define SVQ_MODELS_OBJECT_TRACKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "svq/common/status.h"
#include "svq/models/detection.h"
#include "svq/models/inference_stats.h"
#include "svq/video/interval_set.h"

namespace svq::models {

/// Black-box object tracking (paper §2): like a detector, but every
/// detection carries a tracking identifier that is stable while the same
/// instance stays visible. Used by the offline ingestion phase. The
/// paper's scoring function `h` aggregates scores per (type, track,
/// frame); svq's `h` sums them per type and clip, so ingestion reads no
/// track id and asks for none.
class ObjectTracker {
 public:
  virtual ~ObjectTracker() = default;

  /// Tracks every frame of `frames`, with ObjectDetector::Detect's
  /// emission order, boxes, accounting and errors. When `track_ids` is
  /// set, each emission's tracking identifier is appended to it in the
  /// same order.
  virtual Status Track(const video::Interval& frames,
                       std::vector<Emission>* emissions,
                       std::vector<BoundingBox>* boxes,
                       std::vector<int64_t>* track_ids) = 0;

  virtual const std::vector<std::string>& SupportedLabels() const = 0;

  virtual const std::string& name() const = 0;

  virtual const InferenceStats& stats() const = 0;
};

}  // namespace svq::models

#endif  // SVQ_MODELS_OBJECT_TRACKER_H_
