#ifndef SVQ_MODELS_DETECTION_H_
#define SVQ_MODELS_DETECTION_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "svq/common/status.h"
#include "svq/video/interval_set.h"

namespace svq::models {

/// Axis-aligned box in normalized [0,1] frame coordinates.
struct BoundingBox {
  double x = 0.0;
  double y = 0.0;
  double width = 0.0;
  double height = 0.0;
};

/// One model output of a range call (ObjectDetector::Detect,
/// ObjectTracker::Track, ActionRecognizer::Recognize): the label, as an
/// index into the emitting model's SupportedLabels(); the occurrence unit,
/// a frame or a shot; and the confidence score in [0, 1]
/// (`S_{o_i}^{(v)}` and `S_{a_j}^{(s)}` of paper §2).
struct Emission {
  int32_t label = 0;
  int64_t unit = 0;
  double score = 0.0;
};

/// Checks one emission of a range call against what its caller indexes
/// with: a label inside the model's vocabulary of `vocabulary_size` labels
/// and a unit inside the asked `range`. Errors: Internal.
inline Status CheckEmission(const Emission& emission, size_t vocabulary_size,
                            const video::Interval& range) {
  if (emission.label < 0 ||
      static_cast<size_t>(emission.label) >= vocabulary_size ||
      !range.Contains(emission.unit)) {
    return Status::Internal(
        "model emitted label " + std::to_string(emission.label) +
        " at unit " + std::to_string(emission.unit) +
        " outside its vocabulary or the asked range");
  }
  return Status::OK();
}

/// One object detection on one frame with its label spelled out and its
/// box: what a relationship predicate (paper footnote 2) reads.
struct ObjectDetection {
  std::string label;
  double score = 0.0;
  BoundingBox box;
};

}  // namespace svq::models

#endif  // SVQ_MODELS_DETECTION_H_
