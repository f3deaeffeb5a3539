#include "svq/eval/experiments.h"

#include <algorithm>

#include "svq/models/synthetic_models.h"
#include "svq/video/video_stream.h"

namespace svq::eval {

Result<OnlineEvalOutcome> RunOnlineScenario(const QueryScenario& scenario,
                                            models::ModelSuite suite,
                                            const core::OnlineConfig& config,
                                            core::OnlineEngine::Mode mode) {
  suite.object_profile = ApplyWorkloadAccuracy(suite.object_profile);
  OnlineEvalOutcome outcome;
  video::VideoId id = 0;
  for (const auto& v : scenario.videos) {
    models::ModelSet models = models::MakeModelSet(
        v, suite, scenario.query.objects, {scenario.query.action});
    SVQ_ASSIGN_OR_RETURN(
        std::unique_ptr<core::OnlineEngine> engine,
        core::OnlineEngine::Create(mode, scenario.query, config, v->layout(),
                                   models.detector.get(),
                                   models.recognizer.get()));
    video::SyntheticVideoStream stream(v, id++);
    SVQ_ASSIGN_OR_RETURN(core::OnlineResult result, engine->Run(stream));

    const int64_t fpc = v->layout().FramesPerClip();
    const video::IntervalSet truth_frames = TruthFrames(*v, scenario.query);
    const video::IntervalSet truth_clips = truth_frames.CoarsenAny(fpc);
    outcome.sequence_match +=
        SequenceMatch(result.sequences, truth_clips, /*iou_threshold=*/0.5);

    // Clamp refined clip ranges to the video extent (the last clip may be
    // partial).
    video::IntervalSet result_frames = video::IntervalSet::Intersect(
        result.sequences.Refine(fpc),
        video::IntervalSet({{0, v->num_frames()}}));
    outcome.frame_match += ElementMatch(result_frames, truth_frames);
    outcome.num_result_sequences +=
        static_cast<int64_t>(result.sequences.size());
    outcome.result_frames += result_frames.TotalLength();
    outcome.model_ms += result.stats.model_ms;
    outcome.algorithm_ms += result.stats.algorithm_ms;
  }
  return outcome;
}

Result<FprOutcome> MeasureFpr(const QueryScenario& scenario,
                              models::ModelSuite suite,
                              const core::OnlineConfig& config) {
  if (scenario.query.objects.empty()) {
    return Status::InvalidArgument("FPR scenario needs an object predicate");
  }
  suite.object_profile = ApplyWorkloadAccuracy(suite.object_profile);
  const std::string& object = scenario.query.objects.front();

  int64_t action_fp = 0, action_neg = 0;
  int64_t action_svaqd_fp = 0;
  int64_t object_fp = 0, object_neg = 0;
  int64_t object_svaqd_fp = 0;

  video::VideoId id = 0;
  for (const auto& v : scenario.videos) {
    models::ModelSet models = models::MakeModelSet(
        v, suite, scenario.query.objects, {scenario.query.action});

    // Raw model predictions over the whole video, one range call per clip
    // and model.
    const auto label_index = [](const std::vector<std::string>& vocabulary,
                                const std::string& label) {
      return static_cast<int32_t>(
          std::find(vocabulary.begin(), vocabulary.end(), label) -
          vocabulary.begin());
    };
    const int32_t object_label =
        label_index(models.detector->SupportedLabels(), object);
    const int32_t action_label = label_index(
        models.recognizer->SupportedLabels(), scenario.query.action);
    video::IntervalSet object_pred;
    video::IntervalSet action_pred;
    std::vector<models::Emission> emissions;
    video::SyntheticVideoStream clips(v, id);
    while (auto clip = clips.NextClip()) {
      emissions.clear();
      SVQ_RETURN_NOT_OK(
          models.detector->Detect(clip->frames, &emissions, nullptr));
      for (const models::Emission& e : emissions) {
        if (e.label == object_label && e.score >= config.object_threshold) {
          object_pred.Add({e.unit, e.unit + 1});
        }
      }
      emissions.clear();
      SVQ_RETURN_NOT_OK(
          models.recognizer->Recognize(clip->ShotRange(), &emissions));
      for (const models::Emission& e : emissions) {
        if (e.label == action_label && e.score >= config.action_threshold) {
          action_pred.Add({e.unit, e.unit + 1});
        }
      }
    }

    const video::IntervalSet& object_truth =
        v->ground_truth().ObjectPresence(object);
    const video::IntervalSet action_truth_frames =
        v->ground_truth().ActionPresence(scenario.query.action);
    const video::IntervalSet action_truth =
        ShotTruth(action_truth_frames, v->layout().frames_per_shot);
    const int64_t num_shots = v->NumShots();

    object_fp += object_pred.TotalLength() -
                 object_pred.OverlapLength(object_truth);
    object_neg += v->num_frames() - object_truth.TotalLength();
    action_fp += action_pred.TotalLength() -
                 action_pred.OverlapLength(action_truth);
    action_neg += num_shots - action_truth.TotalLength();

    // SVAQD output: only occurrence units inside reported sequences count
    // as positives.
    SVQ_ASSIGN_OR_RETURN(
        std::unique_ptr<core::OnlineEngine> engine,
        core::OnlineEngine::Create(core::OnlineEngine::Mode::kSvaqd,
                                   scenario.query, config, v->layout(),
                                   models.detector.get(),
                                   models.recognizer.get()));
    video::SyntheticVideoStream stream(v, id++);
    SVQ_ASSIGN_OR_RETURN(core::OnlineResult result, engine->Run(stream));
    const video::IntervalSet result_frames = video::IntervalSet::Intersect(
        result.sequences.Refine(v->layout().FramesPerClip()),
        video::IntervalSet({{0, v->num_frames()}}));
    const video::IntervalSet result_shots = video::IntervalSet::Intersect(
        result.sequences.Refine(v->layout().shots_per_clip),
        video::IntervalSet({{0, num_shots}}));

    // "With SVAQD": the model's raw false positives that survive inside the
    // reported sequences; everything outside the results is suppressed.
    const video::IntervalSet object_surviving =
        video::IntervalSet::Intersect(object_pred, result_frames);
    const video::IntervalSet action_surviving =
        video::IntervalSet::Intersect(action_pred, result_shots);
    object_svaqd_fp += object_surviving.TotalLength() -
                       object_surviving.OverlapLength(object_truth);
    action_svaqd_fp += action_surviving.TotalLength() -
                       action_surviving.OverlapLength(action_truth);
  }

  FprOutcome outcome;
  if (object_neg > 0) {
    outcome.object_raw =
        static_cast<double>(object_fp) / static_cast<double>(object_neg);
    outcome.object_svaqd = static_cast<double>(object_svaqd_fp) /
                           static_cast<double>(object_neg);
  }
  if (action_neg > 0) {
    outcome.action_raw =
        static_cast<double>(action_fp) / static_cast<double>(action_neg);
    outcome.action_svaqd = static_cast<double>(action_svaqd_fp) /
                           static_cast<double>(action_neg);
  }
  return outcome;
}

}  // namespace svq::eval
