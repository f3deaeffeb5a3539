#ifndef SVQ_CORE_CLIP_INDICATOR_H_
#define SVQ_CORE_CLIP_INDICATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "svq/common/result.h"
#include "svq/core/query.h"
#include "svq/models/action_recognizer.h"
#include "svq/models/inference_stats.h"
#include "svq/models/object_detector.h"
#include "svq/video/video_stream.h"

namespace svq::core {

/// One frame-granularity query predicate, normalized from the query's
/// conjunctive objects, any-of disjunction groups (footnote 4), and spatial
/// relationships (footnote 2). All are evaluated from the same per-frame
/// detector output and produce a per-frame event stream for the scan
/// statistics.
struct FramePredicate {
  enum class Kind { kObject, kAnyOf, kRelationship };
  Kind kind = Kind::kObject;
  /// The conjunctive label (kObject) or the disjunction members (kAnyOf).
  std::vector<std::string> labels;
  /// The spatial constraint (kRelationship).
  Relationship relationship;

  std::string Name() const;
};

/// The query's frame predicates in evaluation order: objects, disjunction
/// groups, relationships.
std::vector<FramePredicate> FramePredicatesOf(const Query& query);

/// Per-unit event indicators of one predicate over one clip, as a bitset:
/// unit `i` (a frame or shot offset within the clip) is bit `i % 64` of
/// word `i / 64`. Bits past the clip's last unit are zero.
using UnitBits = std::vector<uint64_t>;

inline bool UnitBit(const UnitBits& bits, int64_t i) {
  return ((bits[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1U) != 0;
}

/// One clip's detector output, shared by every predicate evaluation of
/// that clip: one frame-hit mask per registered label marking the frames
/// with a detection of that label scoring at least the table's threshold,
/// plus — once a relationship predicate registered as their reader — the
/// detections by frame offset with their boxes.
///
/// The table runs its detector once per clip, as one range call over the
/// clip's frames, on the first Fill for that clip; later Fills of the same
/// clip — by the same engine or by other standing queries sharing the
/// table (stream::SharedModelPool) — read what is held. Every Fill charges
/// its caller the clip's bill: the units the detector ran over the clip and
/// the simulated ms it accrued for them. A caller is thus charged what a
/// dedicated detector accrues; exactly so, to the bit, whenever the
/// per-unit cost sums exactly in floating point, as the whole-millisecond
/// costs of every preset profile do.
///
/// Not thread-safe: one engine, or one feed's serialized dispatch, uses a
/// table at a time.
class FrameTable {
 public:
  /// `detector` is borrowed and must outlive the table (or be replaced by
  /// Reset first).
  FrameTable(models::ObjectDetector* detector, double threshold);

  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  /// The mask slot of `label`, registering it on first use. Slots are
  /// stable for the table's lifetime; registering a new label drops the
  /// held clip so that the next Fill builds its mask.
  int Slot(const std::string& label);

  /// Registers a reader of detections() (a relationship predicate): from
  /// the next Fill on, the table keeps every detection with its box. The
  /// first registration drops the held clip, which has none.
  void KeepDetections();

  /// Replaces the detector (a rebuilt shared model) and drops the held
  /// clip. Slots, the detection reader and the charged ledger are kept.
  void Reset(models::ObjectDetector* detector);

  /// Makes the table hold `clip`'s frames, running the detector over them
  /// unless the table already holds them, then adds the clip's detector
  /// bill to `charge` and to charged(). Errors: the detector's, and
  /// Internal for an emission outside the clip or the vocabulary; the
  /// table then holds no clip and nothing is charged.
  Status Fill(const video::ClipRef& clip, models::InferenceStats* charge);

  /// Frames of the held clip.
  int64_t num_frames() const { return num_frames_; }
  /// Detections of the held clip's frame at `offset` (0-based within the
  /// clip), regardless of score; kept only after KeepDetections().
  const std::vector<models::ObjectDetection>& detections(
      int64_t offset) const {
    return detections_[static_cast<size_t>(offset)];
  }
  /// Frame-hit mask of `slot` over the held clip: words() words.
  const uint64_t* mask(int slot) const {
    return masks_.data() + static_cast<size_t>(slot) * words_;
  }
  size_t words() const { return words_; }
  double threshold() const { return threshold_; }
  /// Everything Fill has charged, over all consumers.
  const models::InferenceStats& charged() const { return charged_; }

 private:
  models::ObjectDetector* detector_;
  const double threshold_;
  std::vector<std::string> labels_;  // by slot
  std::vector<int> slot_of_;  // by detector vocabulary index; -1: no slot
  bool keep_detections_ = false;

  bool held_ = false;
  video::Interval frames_;  // the held clip's frames
  int64_t num_frames_ = 0;
  size_t words_ = 0;
  std::vector<models::Emission> emissions_;  // the held clip's, in order
  std::vector<models::BoundingBox> boxes_;   // with emissions_
  std::vector<std::vector<models::ObjectDetection>> detections_;
  std::vector<uint64_t> masks_;  // slot-major, words_ per slot
  models::InferenceStats bill_;  // what the held clip's detector pass accrued
  models::InferenceStats charged_;
};

/// One clip's recognizer output: the scores of every registered action
/// label by shot offset. Filled and charged like FrameTable.
class ShotTable {
 public:
  explicit ShotTable(models::ActionRecognizer* recognizer);

  ShotTable(const ShotTable&) = delete;
  ShotTable& operator=(const ShotTable&) = delete;

  /// The score slot of action `label`, registered like FrameTable::Slot.
  int Slot(const std::string& label);

  void Reset(models::ActionRecognizer* recognizer);

  /// Makes the table hold `clip`'s shots, running the recognizer over them
  /// unless it already holds them, then adds the clip's recognizer bill to
  /// `charge` and to charged(). Errors as FrameTable::Fill's.
  Status Fill(const video::ClipRef& clip, models::InferenceStats* charge);

  int64_t num_shots() const { return num_shots_; }
  /// Scores of `slot`'s label over the held clip by shot offset: NaN
  /// where the recognizer emitted none, which no threshold admits.
  const double* scores(int slot) const {
    return scores_.data() +
           static_cast<size_t>(slot) * static_cast<size_t>(num_shots_);
  }
  const models::InferenceStats& charged() const { return charged_; }

 private:
  models::ActionRecognizer* recognizer_;
  std::vector<std::string> labels_;  // by slot
  std::vector<int> slot_of_;  // by recognizer vocabulary index; -1: no slot

  bool held_ = false;
  video::Interval frames_;  // the held clip's frames
  int64_t num_shots_ = 0;
  std::vector<models::Emission> emissions_;  // the held clip's, in order
  std::vector<double> scores_;  // slot-major, num_shots_ per slot
  models::InferenceStats bill_;
  models::InferenceStats charged_;
};

/// A query's frame predicates and actions, prepared once for evaluating
/// every clip against one FrameTable and one ShotTable: object and any-of
/// predicates carry the frame table's mask slots of their labels, actions
/// the shot table's score slots.
struct ClipPredicates {
  std::vector<FramePredicate> frames;  ///< FramePredicatesOf(query)
  /// Mask slots per frame predicate; empty for relationships.
  std::vector<std::vector<int>> slots;
  std::vector<std::string> actions;  ///< query.AllActions()
  std::vector<int> action_slots;     ///< score slot per action
};

/// Prepares `query` for `frames` and `shots`, registering its object labels
/// and actions as slots, and its relationships as readers of detections.
ClipPredicates PrepareClipPredicates(const Query& query, FrameTable* frames,
                                     ShotTable* shots);

/// Outcome of evaluating one clip against a query (paper Algorithm 2,
/// generalized to the footnote extensions).
///
/// Frame predicates are decided in order with short-circuiting: once a
/// predicate's count falls short of its critical value, the action
/// recognizer pass is skipped for this clip (Alg. 2 lines 6-8). The
/// per-occurrence-unit event streams of everything that was evaluated are
/// returned so SVAQD can feed its background-probability estimators.
///
/// EvaluateClip overwrites every field; the vectors keep their capacity, so
/// one ClipEvaluation reused across clips allocates nothing per clip.
struct ClipEvaluation {
  /// `1_q^{(c)}`: the clip satisfies every query predicate (Eq. 3).
  bool positive = false;
  /// Number of frame predicates decided before a short-circuit.
  int evaluated_frame_predicates = 0;
  /// Whether the action recognizer ran on this clip.
  bool actions_evaluated = false;
  /// Frames and shots of the clip (the length of the event streams).
  int64_t num_frames = 0;
  int64_t num_shots = 0;
  /// Positive-prediction counts per frame predicate; the first
  /// `evaluated_frame_predicates` are valid.
  std::vector<int> frame_counts;
  /// Per-frame indicators per frame predicate, valid like frame_counts.
  std::vector<UnitBits> frame_events;
  /// Positive-prediction counts per action (primary first; valid when
  /// actions_evaluated).
  std::vector<int> action_counts;
  /// Per-shot indicators per action.
  std::vector<UnitBits> action_events;
  /// Inference charged for this clip's evaluated stages: what a dedicated
  /// detector and recognizer would have accrued.
  models::InferenceStats detector_charge;
  models::InferenceStats recognizer_charge;
};

/// Stage-ordering controls for one clip evaluation (paper footnote 5).
struct EvalOptions {
  /// Run the recognizer stage before the detector stage; a failing action
  /// then short-circuits the (usually costlier) detector pass.
  bool actions_first = false;
  /// Evaluate both stages regardless of outcomes (used on SVAQD's periodic
  /// background-sampling ticks so every estimator sees unbiased data).
  bool disable_short_circuit = false;
};

/// Evaluates Algorithm 2 on `clip` into `eval`, filling `frames` and
/// `shots` for the stages it evaluates. `predicates` must come from
/// PrepareClipPredicates over `frames`; `frame_kcrits` needs one entry per
/// frame predicate and `action_kcrits` one per action (primary first).
/// Errors: propagated model failures; InvalidArgument on size mismatch or
/// when `frames` masks at another threshold than config.object_threshold.
Status EvaluateClip(const video::ClipRef& clip,
                    const ClipPredicates& predicates,
                    const OnlineConfig& config,
                    const std::vector<int>& frame_kcrits,
                    const std::vector<int>& action_kcrits, FrameTable* frames,
                    ShotTable* shots, const EvalOptions& options,
                    ClipEvaluation* eval);

}  // namespace svq::core

#endif  // SVQ_CORE_CLIP_INDICATOR_H_
