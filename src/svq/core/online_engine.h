#ifndef SVQ_CORE_ONLINE_ENGINE_H_
#define SVQ_CORE_ONLINE_ENGINE_H_

#include <memory>
#include <vector>

#include "svq/common/execution_context.h"
#include "svq/common/result.h"
#include "svq/core/clip_indicator.h"
#include "svq/core/critical_values.h"
#include "svq/core/query.h"
#include "svq/stats/kernel_estimator.h"
#include "svq/video/interval_set.h"
#include "svq/video/video_stream.h"

namespace svq::core {

/// Aggregate statistics of one online run.
struct OnlineStats {
  int64_t clips_processed = 0;
  int64_t clips_positive = 0;
  /// Clips on which the first stage failed and short-circuited the other
  /// stage's model pass.
  int64_t clips_short_circuited = 0;
  /// Clips evaluated recognizer-first (footnote 5 predicate ordering).
  int64_t clips_actions_first = 0;
  /// Simulated model-inference time accrued during the run (ms).
  double model_ms = 0.0;
  /// Wall-clock time of everything else (the algorithm itself), in ms.
  double algorithm_ms = 0.0;
  /// Critical values in force after the last processed clip, one per frame
  /// predicate (objects, then disjunction groups, then relationships).
  std::vector<int> object_kcrits;
  /// Critical value of the primary action.
  int action_kcrit = 0;
  /// Background probabilities after the last processed clip, one per frame
  /// predicate.
  std::vector<double> object_p;
  /// Background probability of the primary action.
  double action_p = 0.0;
};

/// Result of an online run: the merged result sequences (clip domain,
/// half-open — the paper's `P_q` of Eq. 4) plus run statistics.
struct OnlineResult {
  video::IntervalSet sequences;
  OnlineStats stats;
};

/// Streaming query engine over a video stream: SVAQ (paper Alg. 1, fixed
/// background probabilities) and SVAQD (paper Alg. 3, kernel-estimated
/// probabilities with dynamically refreshed critical values).
///
/// Usage: construct, then either `Run()` a whole stream, or push clips one
/// at a time with `ProcessClip()` and read `sequences()` / `TakeCompleted()`
/// incrementally.
class OnlineEngine {
 public:
  enum class Mode {
    kSvaq,   ///< static background probabilities (Alg. 1)
    kSvaqd,  ///< dynamic background probabilities (Alg. 3)
  };

  /// Validates the query and configuration. Models are borrowed and must
  /// outlive the engine; the engine evaluates through its own FrameTable
  /// and ShotTable over them. `context` is copied into the engine and
  /// polled at the top of every ProcessClip, *before* any model inference —
  /// an already-expired deadline fails the first clip without running a
  /// model. Critical values come from the process-wide
  /// CriticalValueTable of the layout's windows and the config's
  /// (reference_windows, alpha).
  static Result<std::unique_ptr<OnlineEngine>> Create(
      Mode mode, Query query, OnlineConfig config,
      const video::VideoLayout& layout, models::ObjectDetector* detector,
      models::ActionRecognizer* recognizer,
      const ExecutionContext& context = {});

  /// Like the above, but evaluates through borrowed tables that other
  /// engines may share (stream::SharedModelPool): each clip's model output
  /// is computed once per table, and this engine is charged what dedicated
  /// models would have accrued. `frames` must mask at
  /// config.object_threshold; both tables must outlive every ProcessClip.
  static Result<std::unique_ptr<OnlineEngine>> Create(
      Mode mode, Query query, OnlineConfig config,
      const video::VideoLayout& layout, FrameTable* frames, ShotTable* shots,
      const ExecutionContext& context = {});

  /// Consumes one clip; updates sequences, estimators and critical values.
  /// Errors: Cancelled/DeadlineExceeded when the execution context expired
  /// (the clip is not processed and no model runs).
  Status ProcessClip(const video::ClipRef& clip);

  /// Drives the whole stream through ProcessClip.
  Result<OnlineResult> Run(video::VideoStream& stream);

  /// Result sequences over everything processed so far.
  const video::IntervalSet& sequences() const { return sequences_; }

  /// Sequences that are conclusively closed (a later negative clip ended
  /// them) and not yet taken; supports live monitoring use cases.
  std::vector<video::Interval> TakeCompleted();

  /// End-of-stream flush: closes the trailing still-open sequence (if any)
  /// and stages it for the next TakeCompleted(). Without this, a sequence
  /// still positive at the final clip is visible in sequences() but never
  /// surfaces through TakeCompleted — incremental consumers (the streaming
  /// dispatcher on feed drain/close) would silently lose it. Idempotent;
  /// the engine may keep processing clips afterwards (a positive clip
  /// simply starts a new run).
  void Finish();

  /// Statistics snapshot (model time is the inference charged so far).
  OnlineStats Snapshot() const;

  Mode mode() const { return mode_; }
  const Query& query() const { return query_; }
  const OnlineConfig& config() const { return config_; }

 private:
  OnlineEngine(Mode mode, Query query, OnlineConfig config,
               const video::VideoLayout& layout,
               std::unique_ptr<FrameTable> own_frames,
               std::unique_ptr<ShotTable> own_shots, FrameTable* frames,
               ShotTable* shots, ExecutionContext context);

  void RefreshCriticalValues();
  void FeedEstimators(const ClipEvaluation& eval);
  /// Feeds the action null-rate estimates from a periodic sampling tick,
  /// on which both stages always run (see
  /// OnlineConfig::action_null_sampling_period).
  void SampleActionBackground(const ClipEvaluation& eval);
  /// Feeds one action's rate and persistence estimators from a shot-event
  /// stream.
  void FeedActionStream(size_t action_index, const UnitBits& events,
                        int64_t num_shots);

  Mode mode_;
  Query query_;
  OnlineConfig config_;
  ExecutionContext context_;
  video::VideoLayout layout_;
  /// Tables this engine owns when it runs dedicated models; frames_ and
  /// shots_ point at them or at borrowed shared tables.
  std::unique_ptr<FrameTable> own_frames_;
  std::unique_ptr<ShotTable> own_shots_;
  FrameTable* frames_;
  ShotTable* shots_;

  ClipPredicates predicates_;
  /// Reused for every clip.
  ClipEvaluation eval_;
  const CriticalValueTable* frame_critical_values_;
  const CriticalValueTable* action_critical_values_;
  MarkovCriticalValueMemo markov_action_memo_;
  std::vector<stats::KernelRateEstimator> frame_estimators_;
  std::vector<stats::KernelRateEstimator> action_estimators_;
  /// Persistence estimators: P(event | previous shot had an event), one per
  /// action (footnote 7 Markov null).
  std::vector<stats::KernelRateEstimator> action_pair_estimators_;
  std::vector<int> frame_kcrits_;
  std::vector<int> action_kcrits_;

  video::IntervalSet sequences_;
  int64_t open_run_begin_ = -1;  // first clip of the current positive run
  int64_t last_positive_clip_ = -1;
  /// Decayed pass-rate estimates per stage, for adaptive predicate
  /// ordering (footnote 5).
  double frame_stage_pass_rate_ = 0.5;
  double action_stage_pass_rate_ = 0.5;
  std::vector<video::Interval> completed_;
  OnlineStats stats_;
  /// Inference charged by the evaluated stages.
  models::InferenceStats detector_charged_;
  models::InferenceStats recognizer_charged_;
};

}  // namespace svq::core

#endif  // SVQ_CORE_ONLINE_ENGINE_H_
