#ifndef SVQ_MODELS_ACTION_RECOGNIZER_H_
#define SVQ_MODELS_ACTION_RECOGNIZER_H_

#include <string>
#include <vector>

#include "svq/common/status.h"
#include "svq/models/detection.h"
#include "svq/models/inference_stats.h"
#include "svq/video/interval_set.h"

namespace svq::models {

/// Black-box per-shot action recognition (paper §2 "Action Recognition"),
/// called over a range of shots.
///
/// The model consumes a shot (a fixed-length run of frames) and emits zero
/// or more action scores; callers apply the score threshold `T_act`.
/// Implementations must be deterministic per shot, like ObjectDetector is
/// per frame.
class ActionRecognizer {
 public:
  virtual ~ActionRecognizer() = default;

  /// Runs the recognizer on every shot of `shots` (shot indices) and
  /// appends one emission per action score to `emissions`: label by label
  /// in SupportedLabels() order, shots ascending within a label. Accrues
  /// `shots.length()` units. Errors: OutOfRange when `shots` is inverted
  /// or reaches past the video; nothing is appended or accrued then.
  virtual Status Recognize(const video::Interval& shots,
                           std::vector<Emission>* emissions) = 0;

  /// Action vocabulary of the model (`A` in the paper, e.g. Kinetics-600).
  virtual const std::vector<std::string>& SupportedLabels() const = 0;

  virtual const std::string& name() const = 0;

  virtual const InferenceStats& stats() const = 0;
};

}  // namespace svq::models

#endif  // SVQ_MODELS_ACTION_RECOGNIZER_H_
