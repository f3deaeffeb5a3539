#ifndef SVQ_MODELS_OBJECT_DETECTOR_H_
#define SVQ_MODELS_OBJECT_DETECTOR_H_

#include <string>
#include <vector>

#include "svq/common/status.h"
#include "svq/models/detection.h"
#include "svq/models/inference_stats.h"
#include "svq/video/interval_set.h"

namespace svq::models {

/// Black-box per-frame object detection (paper §2 "Object Detection"),
/// called over a range of frames.
///
/// An instance is bound to one video (in a deployment this wraps a decoder
/// plus a network; here it wraps ground truth plus a noise overlay).
/// Implementations must be deterministic per frame: a frame's detections
/// do not depend on the range it is detected in, so a range split into
/// sub-ranges, down to single frames, emits the same detections and
/// accrues the same stats().
class ObjectDetector {
 public:
  virtual ~ObjectDetector() = default;

  /// Runs the detector on every frame of `frames` and appends one emission
  /// per detection to `emissions`, regardless of score (callers apply the
  /// score threshold `T_obj`): label by label in SupportedLabels() order,
  /// frames ascending within a label. When `boxes` is set, each emission's
  /// box is appended to it in the same order. Accrues `frames.length()`
  /// units. Errors: OutOfRange when `frames` is inverted or reaches past
  /// the video; nothing is appended or accrued then.
  virtual Status Detect(const video::Interval& frames,
                        std::vector<Emission>* emissions,
                        std::vector<BoundingBox>* boxes) = 0;

  /// Object vocabulary of the model (`O` in the paper).
  virtual const std::vector<std::string>& SupportedLabels() const = 0;

  virtual const std::string& name() const = 0;

  /// Cumulative inference accounting for this instance.
  virtual const InferenceStats& stats() const = 0;
};

}  // namespace svq::models

#endif  // SVQ_MODELS_OBJECT_DETECTOR_H_
