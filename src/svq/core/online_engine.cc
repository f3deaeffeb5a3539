#include "svq/core/online_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace svq::core {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

stats::KernelRateEstimator MakeEstimator(double bandwidth, double initial_p) {
  stats::KernelRateEstimator::Options options;
  options.bandwidth = bandwidth;
  options.initial_p = initial_p;
  // Blend away from the prior over a quarter bandwidth: enough data to
  // stabilize the kernel estimate, short enough that a bad prior (paper
  // Fig. 2) washes out quickly.
  options.warmup_ous = static_cast<int64_t>(bandwidth / 4.0);
  auto result = stats::KernelRateEstimator::Create(options);
  // Options are validated by OnlineConfig::Validate before reaching here.
  return *std::move(result);
}

Status ValidateEngineInputs(const Query& query, const OnlineConfig& config,
                            const video::VideoLayout& layout) {
  SVQ_RETURN_NOT_OK(query.Validate());
  SVQ_RETURN_NOT_OK(config.Validate());
  return layout.Validate();
}

}  // namespace

Result<std::unique_ptr<OnlineEngine>> OnlineEngine::Create(
    Mode mode, Query query, OnlineConfig config,
    const video::VideoLayout& layout, models::ObjectDetector* detector,
    models::ActionRecognizer* recognizer, const ExecutionContext& context) {
  SVQ_RETURN_NOT_OK(ValidateEngineInputs(query, config, layout));
  if (detector == nullptr || recognizer == nullptr) {
    return Status::InvalidArgument("detector and recognizer must be set");
  }
  auto frames =
      std::make_unique<FrameTable>(detector, config.object_threshold);
  auto shots = std::make_unique<ShotTable>(recognizer);
  FrameTable* frames_ptr = frames.get();
  ShotTable* shots_ptr = shots.get();
  return std::unique_ptr<OnlineEngine>(new OnlineEngine(
      mode, std::move(query), config, layout, std::move(frames),
      std::move(shots), frames_ptr, shots_ptr, context));
}

Result<std::unique_ptr<OnlineEngine>> OnlineEngine::Create(
    Mode mode, Query query, OnlineConfig config,
    const video::VideoLayout& layout, FrameTable* frames, ShotTable* shots,
    const ExecutionContext& context) {
  SVQ_RETURN_NOT_OK(ValidateEngineInputs(query, config, layout));
  if (frames == nullptr || shots == nullptr) {
    return Status::InvalidArgument("frame and shot tables must be set");
  }
  if (frames->threshold() != config.object_threshold) {
    return Status::InvalidArgument(
        "frame table masks at another threshold than the query's");
  }
  return std::unique_ptr<OnlineEngine>(
      new OnlineEngine(mode, std::move(query), config, layout, nullptr,
                       nullptr, frames, shots, context));
}

OnlineEngine::OnlineEngine(Mode mode, Query query, OnlineConfig config,
                           const video::VideoLayout& layout,
                           std::unique_ptr<FrameTable> own_frames,
                           std::unique_ptr<ShotTable> own_shots,
                           FrameTable* frames, ShotTable* shots,
                           ExecutionContext context)
    : mode_(mode),
      query_(std::move(query)),
      config_(config),
      context_(std::move(context)),
      layout_(layout),
      own_frames_(std::move(own_frames)),
      own_shots_(std::move(own_shots)),
      frames_(frames),
      shots_(shots),
      predicates_(PrepareClipPredicates(query_, frames_, shots_)),
      frame_critical_values_(&CriticalValueTable::For(
          layout.FramesPerClip(), config.reference_windows, config.alpha)),
      action_critical_values_(&CriticalValueTable::For(
          layout.shots_per_clip, config.reference_windows, config.alpha)),
      markov_action_memo_(layout.shots_per_clip, config.reference_windows,
                          config.alpha) {
  for (size_t i = 0; i < predicates_.frames.size(); ++i) {
    frame_estimators_.push_back(
        MakeEstimator(config_.object_bandwidth, config_.initial_object_p));
  }
  for (size_t a = 0; a < predicates_.actions.size(); ++a) {
    action_estimators_.push_back(
        MakeEstimator(config_.action_bandwidth, config_.initial_action_p));
    action_pair_estimators_.push_back(
        MakeEstimator(config_.action_bandwidth, config_.initial_action_p));
  }
  RefreshCriticalValues();
}

void OnlineEngine::RefreshCriticalValues() {
  frame_kcrits_.resize(predicates_.frames.size());
  for (size_t i = 0; i < predicates_.frames.size(); ++i) {
    const double p = mode_ == Mode::kSvaq ? config_.initial_object_p
                                          : frame_estimators_[i].rate();
    frame_kcrits_[i] = frame_critical_values_->Get(p);
  }
  action_kcrits_.resize(predicates_.actions.size());
  for (size_t a = 0; a < predicates_.actions.size(); ++a) {
    const double p = mode_ == Mode::kSvaq ? config_.initial_action_p
                                          : action_estimators_[a].rate();
    // The Markov null (footnote 7) engages in dynamic mode once enough
    // transition data has accumulated and the exact embedding is feasible.
    if (mode_ == Mode::kSvaqd && config_.markov_action_null &&
        layout_.shots_per_clip <= 20 &&
        action_pair_estimators_[a].total_ous() >= 32) {
      action_kcrits_[a] =
          markov_action_memo_.Get(p, action_pair_estimators_[a].rate());
    } else {
      action_kcrits_[a] = action_critical_values_->Get(p);
    }
  }
}

void OnlineEngine::FeedActionStream(size_t action_index,
                                    const UnitBits& events,
                                    int64_t num_shots) {
  auto& estimator = action_estimators_[action_index];
  auto& pairs = action_pair_estimators_[action_index];
  bool prev = false;
  for (int64_t s = 0; s < num_shots; ++s) {
    const bool event = UnitBit(events, s);
    estimator.Step(event);
    // Persistence stream: among shots following an event-bearing shot, how
    // often does the event continue?
    if (prev) pairs.Step(event);
    prev = event;
  }
}

void OnlineEngine::FeedEstimators(const ClipEvaluation& eval) {
  const bool null_only =
      config_.update_policy == UpdatePolicy::kNegativeUnits;
  for (int i = 0; i < eval.evaluated_frame_predicates; ++i) {
    const size_t index = static_cast<size_t>(i);
    // Under the default policy, a clip where this predicate reached its
    // quota is (statistically) signal, not background — exclude its units
    // from the null-rate estimate.
    if (null_only &&
        eval.frame_counts[index] >=
            NullExclusionQuota(frame_kcrits_[index], eval.num_frames)) {
      continue;
    }
    auto& estimator = frame_estimators_[index];
    const UnitBits& events = eval.frame_events[index];
    for (int64_t f = 0; f < eval.num_frames; ++f) {
      estimator.Step(UnitBit(events, f));
    }
  }
  // Under the null-only policy the action estimators learn exclusively from
  // the unconditional periodic sample (SampleActionBackground): clips that
  // reach the action stage are conditioned on the frame predicates, and
  // objects correlate with actions, so their shots over-represent the
  // actions and would bias the null estimates upward.
  if (eval.actions_evaluated && !null_only) {
    for (size_t a = 0; a < predicates_.actions.size(); ++a) {
      FeedActionStream(a, eval.action_events[a], eval.num_shots);
    }
  }
}

void OnlineEngine::SampleActionBackground(const ClipEvaluation& eval) {
  for (size_t a = 0; a < predicates_.actions.size(); ++a) {
    if (eval.action_counts[a] >=
        NullExclusionQuota(action_kcrits_[a], eval.num_shots)) {
      continue;
    }
    FeedActionStream(a, eval.action_events[a], eval.num_shots);
  }
}

Status OnlineEngine::ProcessClip(const video::ClipRef& clip) {
  // Deadline/cancellation gate: runs before any model inference, so an
  // expired context cannot cost a single detector or recognizer pass.
  SVQ_RETURN_NOT_OK(context_.Check());
  const double t0 = NowMs();

  EvalOptions options;
  // Periodic background-sampling tick: evaluate both stages so every
  // estimator sees unconditioned data (see action_null_sampling_period).
  const bool sampling_tick =
      mode_ == Mode::kSvaqd &&
      config_.update_policy == UpdatePolicy::kNegativeUnits &&
      config_.action_null_sampling_period > 0 &&
      (stats_.clips_processed + 1) % config_.action_null_sampling_period == 0;
  options.disable_short_circuit = sampling_tick;
  switch (config_.predicate_order) {
    case OnlineConfig::PredicateOrder::kObjectsFirst:
      break;
    case OnlineConfig::PredicateOrder::kActionsFirst:
      options.actions_first = true;
      break;
    case OnlineConfig::PredicateOrder::kAdaptive: {
      // Expected inference cost per order, from measured per-unit model
      // times and decayed stage pass rates (footnote 5).
      const auto per_unit = [](const models::InferenceStats& stats) {
        return stats.units > 0
                   ? stats.simulated_ms / static_cast<double>(stats.units)
                   : -1.0;
      };
      const double det_unit = per_unit(detector_charged_);
      const double act_unit = per_unit(recognizer_charged_);
      if (det_unit >= 0.0 && act_unit >= 0.0) {
        const double det_ms = det_unit * layout_.FramesPerClip();
        const double act_ms = act_unit * layout_.shots_per_clip;
        const double objects_first =
            det_ms + frame_stage_pass_rate_ * act_ms;
        const double actions_first =
            act_ms + action_stage_pass_rate_ * det_ms;
        options.actions_first = actions_first < objects_first;
      }
      break;
    }
  }
  if (options.actions_first) ++stats_.clips_actions_first;

  SVQ_RETURN_NOT_OK(EvaluateClip(clip, predicates_, config_, frame_kcrits_,
                                 action_kcrits_, frames_, shots_, options,
                                 &eval_));
  const ClipEvaluation& eval = eval_;
  detector_charged_ += eval.detector_charge;
  recognizer_charged_ += eval.recognizer_charge;

  ++stats_.clips_processed;
  const bool frames_decided =
      eval.evaluated_frame_predicates ==
      static_cast<int>(predicates_.frames.size());
  if (!eval.actions_evaluated || !frames_decided) {
    ++stats_.clips_short_circuited;
  }
  if (eval.positive) ++stats_.clips_positive;

  // Decayed stage pass rates for adaptive ordering.
  constexpr double kPassRateDecay = 0.05;
  if (frames_decided) {
    bool pass = true;
    for (size_t i = 0; i < predicates_.frames.size(); ++i) {
      if (eval.frame_counts[i] < frame_kcrits_[i]) pass = false;
    }
    frame_stage_pass_rate_ +=
        kPassRateDecay * ((pass ? 1.0 : 0.0) - frame_stage_pass_rate_);
  }
  if (eval.actions_evaluated) {
    bool pass = true;
    for (size_t a = 0; a < predicates_.actions.size(); ++a) {
      if (eval.action_counts[a] < action_kcrits_[a]) pass = false;
    }
    action_stage_pass_rate_ +=
        kPassRateDecay * ((pass ? 1.0 : 0.0) - action_stage_pass_rate_);
  }

  if (mode_ == Mode::kSvaqd) {
    const bool update =
        config_.update_policy != UpdatePolicy::kPositiveClip || eval.positive;
    if (update) {
      FeedEstimators(eval);
      if (sampling_tick) SampleActionBackground(eval);
      RefreshCriticalValues();
    }
  }

  // Merge positive clips into result sequences (Eq. 4), bridging gaps of
  // up to merge_gap_clips negative clips.
  if (eval.positive) {
    if (open_run_begin_ >= 0 &&
        clip.clip - last_positive_clip_ - 1 <= config_.merge_gap_clips) {
      // Continue the run; bridged gap clips become part of the sequence.
      sequences_.Add({last_positive_clip_, clip.clip + 1});
    } else {
      if (open_run_begin_ >= 0) {
        completed_.push_back({open_run_begin_, last_positive_clip_ + 1});
      }
      open_run_begin_ = clip.clip;
      sequences_.Add({clip.clip, clip.clip + 1});
    }
    last_positive_clip_ = clip.clip;
  } else if (open_run_begin_ >= 0 &&
             clip.clip - last_positive_clip_ > config_.merge_gap_clips) {
    completed_.push_back({open_run_begin_, last_positive_clip_ + 1});
    open_run_begin_ = -1;
  }
  stats_.algorithm_ms += NowMs() - t0;
  return Status::OK();
}

Result<OnlineResult> OnlineEngine::Run(video::VideoStream& stream) {
  while (auto clip = stream.NextClip()) {
    SVQ_RETURN_NOT_OK(ProcessClip(*clip));
  }
  OnlineResult result;
  result.sequences = sequences_;
  result.stats = Snapshot();
  return result;
}

std::vector<video::Interval> OnlineEngine::TakeCompleted() {
  std::vector<video::Interval> out;
  out.swap(completed_);
  return out;
}

void OnlineEngine::Finish() {
  if (open_run_begin_ < 0) return;
  completed_.push_back({open_run_begin_, last_positive_clip_ + 1});
  open_run_begin_ = -1;
}

OnlineStats OnlineEngine::Snapshot() const {
  OnlineStats stats = stats_;
  stats.object_kcrits = frame_kcrits_;
  stats.action_kcrit = action_kcrits_.empty() ? 0 : action_kcrits_.front();
  stats.object_p.clear();
  for (size_t i = 0; i < frame_estimators_.size(); ++i) {
    stats.object_p.push_back(mode_ == Mode::kSvaq
                                 ? config_.initial_object_p
                                 : frame_estimators_[i].rate());
  }
  stats.action_p = mode_ == Mode::kSvaq
                       ? config_.initial_action_p
                       : (action_estimators_.empty()
                              ? 0.0
                              : action_estimators_.front().rate());
  stats.model_ms =
      detector_charged_.simulated_ms + recognizer_charged_.simulated_ms;
  return stats;
}

}  // namespace svq::core
