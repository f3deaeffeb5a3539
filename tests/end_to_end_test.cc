// Whole-system integration tests: annotation-loaded footage, disk-backed
// ingestion, the SQL dialect, repository search, and error propagation from
// failing models through every engine path.

#include <gtest/gtest.h>

#include <filesystem>

#include "svq/core/clip_indicator.h"
#include "svq/core/engine.h"
#include "svq/query/executor.h"
#include "svq/video/annotation.h"

namespace svq {
namespace {

std::shared_ptr<const video::SyntheticVideo> Footage(const std::string& name,
                                                     uint64_t seed) {
  video::SyntheticVideoSpec spec;
  spec.name = name;
  spec.num_frames = 36000;
  spec.seed = seed;
  spec.actions.push_back({"smoking", 350.0, 4200.0});
  video::SyntheticObjectSpec cup;
  cup.label = "cup";
  cup.correlate_with_action = "smoking";
  cup.correlation = 0.9;
  cup.coverage = 0.9;
  cup.mean_on_frames = 250.0;
  cup.mean_off_frames = 2400.0;
  spec.objects.push_back(cup);
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

TEST(EndToEndTest, AnnotationToSqlToResults) {
  // Export the footage's ground truth to the annotation format, re-import
  // it as if hand-labeled, and run the full SQL path over it.
  auto original = Footage("cafe", 7);
  const std::string text = video::FormatAnnotations(*original);
  auto imported = video::ParseAnnotations(text);
  ASSERT_TRUE(imported.ok());

  core::VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(*imported).ok());
  auto streaming = query::ExecuteStatement(
      &engine,
      "SELECT MERGE(clipID) FROM (PROCESS cafe PRODUCE clipID, obj USING "
      "ObjectDetector, act USING ActionRecognizer) "
      "WHERE act='smoking' AND obj.include('cup')");
  ASSERT_TRUE(streaming.ok()) << streaming.status();
  EXPECT_FALSE(streaming->online->sequences.empty());

  ASSERT_TRUE(engine.Ingest("cafe").ok());
  auto ranked = query::ExecuteStatement(
      &engine,
      "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS cafe PRODUCE "
      "clipID, obj USING ObjectTracker, act USING ActionRecognizer) "
      "WHERE act='smoking' AND obj.include('cup') "
      "ORDER BY RANK(act, obj) LIMIT 2");
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  EXPECT_FALSE(ranked->topk->sequences.empty());
  // The top ranked sequence is one of the streaming results (same
  // underlying positives up to estimator timing differences across model
  // instances).
  EXPECT_LE(ranked->topk->sequences.size(), 2u);
}

TEST(EndToEndTest, DiskBackedRepositoryRestart) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "svq_e2e_repo").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  core::Query query;
  query.action = "smoking";
  query.objects = {"cup"};

  // Phase 1: ingest to disk.
  std::vector<core::RankedSequence> before;
  {
    core::IngestOptions options;
    options.backend = core::IngestOptions::TableBackend::kDisk;
    options.directory = dir;
    core::VideoQueryEngine engine(models::ModelSuite(),
                                  core::OnlineConfig(), options);
    ASSERT_TRUE(engine.AddVideo(Footage("cafe", 7)).ok());
    ASSERT_TRUE(engine.Ingest("cafe").ok());
    auto result = engine.ExecuteTopK(query, "cafe", 3);
    ASSERT_TRUE(result.ok());
    before = result->sequences;
    ASSERT_FALSE(before.empty());
  }

  // Phase 2: "restart" — reopen purely from the directory and answer the
  // same query without the video or any model. The engine writes each
  // video as one file named by the video.
  auto reopened = core::OpenIngestedVideo(dir + "/cafe");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  core::AdditiveScoring scoring;
  auto after =
      core::RunRvaq(*reopened, query, 3, scoring, core::OfflineOptions());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->sequences.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after->sequences[i].clips, before[i].clips);
    EXPECT_NEAR(after->sequences[i].upper_bound, before[i].upper_bound,
                1e-9);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Failure injection: model errors must propagate as Status, never crash or
// produce partial results.

class FailingDetector final : public models::ObjectDetector {
 public:
  FailingDetector(std::unique_ptr<models::ObjectDetector> inner,
                  video::FrameIndex fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}

  Status Detect(const video::Interval& frames,
                std::vector<models::Emission>* emissions,
                std::vector<models::BoundingBox>* boxes) override {
    if (frames.Contains(fail_at_)) {
      return Status::IOError("decoder hiccup at frame " +
                             std::to_string(fail_at_));
    }
    return inner_->Detect(frames, emissions, boxes);
  }
  const std::vector<std::string>& SupportedLabels() const override {
    return inner_->SupportedLabels();
  }
  const std::string& name() const override { return inner_->name(); }
  const models::InferenceStats& stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<models::ObjectDetector> inner_;
  video::FrameIndex fail_at_;
};

class FailingRecognizer final : public models::ActionRecognizer {
 public:
  FailingRecognizer(std::unique_ptr<models::ActionRecognizer> inner,
                    video::ShotIndex fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}

  Status Recognize(const video::Interval& shots,
                   std::vector<models::Emission>* emissions) override {
    if (shots.Contains(fail_at_)) {
      return Status::Internal("model crash at shot " +
                              std::to_string(fail_at_));
    }
    return inner_->Recognize(shots, emissions);
  }
  const std::vector<std::string>& SupportedLabels() const override {
    return inner_->SupportedLabels();
  }
  const std::string& name() const override { return inner_->name(); }
  const models::InferenceStats& stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<models::ActionRecognizer> inner_;
  video::ShotIndex fail_at_;
};

TEST(FailureInjectionTest, DetectorErrorPropagatesFromOnlineRun) {
  auto video = Footage("cafe", 7);
  models::ModelSet models = models::MakeModelSet(
      video, models::MaskRcnnI3dSuite(), {"cup"}, {"smoking"});
  FailingDetector failing(std::move(models.detector), /*fail_at=*/5000);
  core::Query query;
  query.action = "smoking";
  query.objects = {"cup"};
  auto engine = core::OnlineEngine::Create(
      core::OnlineEngine::Mode::kSvaqd, query, core::OnlineConfig(),
      video->layout(), &failing, models.recognizer.get());
  ASSERT_TRUE(engine.ok());
  video::SyntheticVideoStream stream(video, 0);
  auto result = (*engine)->Run(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_NE(result.status().message().find("frame 5000"), std::string::npos);
}

TEST(FailureInjectionTest, RecognizerErrorPropagatesFromIngestion) {
  auto video = Footage("cafe", 7);
  models::ModelSet models = models::MakeModelSet(
      video, models::MaskRcnnI3dSuite(), {}, {});
  FailingRecognizer failing(std::move(models.recognizer), /*fail_at=*/100);
  auto ingested = core::IngestVideo(video, 0, models.tracker.get(), &failing,
                                    core::IngestOptions());
  ASSERT_FALSE(ingested.ok());
  EXPECT_EQ(ingested.status().code(), StatusCode::kInternal);
}

TEST(FailureInjectionTest, EngineKeepsWorkingAfterFailedRun) {
  // A failed execution must not corrupt the engine: the same query with a
  // healthy model succeeds afterwards.
  auto video = Footage("cafe", 7);
  core::VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(video).ok());
  core::Query query;
  query.action = "smoking";
  query.objects = {"cup"};
  // Directly run a failing engine first (the facade builds its own healthy
  // models, so inject at the OnlineEngine layer).
  models::ModelSet models = models::MakeModelSet(
      video, models::MaskRcnnI3dSuite(), {"cup"}, {"smoking"});
  FailingDetector failing(std::move(models.detector), 0);
  auto broken = core::OnlineEngine::Create(
      core::OnlineEngine::Mode::kSvaqd, query, core::OnlineConfig(),
      video->layout(), &failing, models.recognizer.get());
  ASSERT_TRUE(broken.ok());
  video::SyntheticVideoStream stream(video, 0);
  EXPECT_FALSE((*broken)->Run(stream).ok());

  auto healthy = engine.ExecuteOnline(query, "cafe");
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy->sequences.empty());
}

TEST(FailureInjectionTest, FailedTableFillHoldsNoClipAndChargesNothing) {
  // A range call that contains the failing unit fails whole: the error
  // surfaces from Fill, the table drops the clip it held, and nothing is
  // charged for the failed clip.
  auto video = Footage("cafe", 7);
  const video::VideoLayout& layout = video->layout();
  models::ModelSet models = models::MakeModelSet(
      video, models::MaskRcnnI3dSuite(), {"cup"}, {"smoking"});
  FailingDetector detector(std::move(models.detector),
                           5 * layout.FramesPerClip() + 3);
  FailingRecognizer recognizer(std::move(models.recognizer),
                               5 * layout.shots_per_clip + 1);
  core::FrameTable frames(&detector, 0.5);
  core::ShotTable shots(&recognizer);
  frames.Slot("cup");
  shots.Slot("smoking");
  const video::ClipRef healthy =
      video::MakeClipRef(layout, 0, 4, video->num_frames());
  const video::ClipRef broken =
      video::MakeClipRef(layout, 0, 5, video->num_frames());

  models::InferenceStats charge;
  ASSERT_TRUE(frames.Fill(healthy, &charge).ok());
  ASSERT_TRUE(shots.Fill(healthy, &charge).ok());
  const models::InferenceStats bill = charge;
  ASSERT_EQ(bill.units, layout.FramesPerClip() + layout.shots_per_clip);

  const Status frame_error = frames.Fill(broken, &charge);
  EXPECT_TRUE(frame_error.IsIOError()) << frame_error;
  EXPECT_EQ(shots.Fill(broken, &charge).code(), StatusCode::kInternal);
  EXPECT_EQ(charge.units, bill.units);
  EXPECT_EQ(charge.simulated_ms, bill.simulated_ms);
  EXPECT_EQ(frames.charged().units + shots.charged().units, bill.units);

  // The healthy clip is no longer held: filling it again runs both models
  // over it again.
  const int64_t run = detector.stats().units + recognizer.stats().units;
  ASSERT_TRUE(frames.Fill(healthy, &charge).ok());
  ASSERT_TRUE(shots.Fill(healthy, &charge).ok());
  EXPECT_EQ(detector.stats().units + recognizer.stats().units - run,
            bill.units);
  EXPECT_EQ(charge.units, 2 * bill.units);
}

/// Appends one emission past what it was asked for — a unit past the
/// range, or a label past its vocabulary — to a healthy model's output.
class StrayModel final : public models::ObjectDetector,
                         public models::ObjectTracker {
 public:
  StrayModel(std::unique_ptr<models::ObjectDetector> inner, bool stray_label)
      : inner_(std::move(inner)), stray_label_(stray_label) {}

  Status Detect(const video::Interval& frames,
                std::vector<models::Emission>* emissions,
                std::vector<models::BoundingBox>* boxes) override {
    SVQ_RETURN_NOT_OK(inner_->Detect(frames, emissions, boxes));
    const int32_t vocabulary =
        static_cast<int32_t>(inner_->SupportedLabels().size());
    emissions->push_back(
        stray_label_ ? models::Emission{vocabulary, frames.begin, 0.9}
                     : models::Emission{0, frames.end, 0.9});
    if (boxes != nullptr) boxes->push_back({});
    return Status::OK();
  }
  Status Track(const video::Interval& frames,
               std::vector<models::Emission>* emissions,
               std::vector<models::BoundingBox>* boxes,
               std::vector<int64_t>*) override {
    return Detect(frames, emissions, boxes);
  }
  const std::vector<std::string>& SupportedLabels() const override {
    return inner_->SupportedLabels();
  }
  const std::string& name() const override { return inner_->name(); }
  const models::InferenceStats& stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<models::ObjectDetector> inner_;
  bool stray_label_;
};

TEST(FailureInjectionTest, StrayEmissionIsAnInternalError) {
  // An emission outside the asked range or the model's vocabulary is
  // refused before a table or an ingest array is indexed with it.
  auto video = Footage("cafe", 7);
  for (const bool stray_label : {false, true}) {
    SCOPED_TRACE(stray_label);
    models::ModelSet models = models::MakeModelSet(
        video, models::MaskRcnnI3dSuite(), {"cup"}, {"smoking"});
    StrayModel stray(std::move(models.detector), stray_label);
    auto ingested = core::IngestVideo(video, 0, &stray,
                                      models.recognizer.get(),
                                      core::IngestOptions());
    ASSERT_FALSE(ingested.ok());
    EXPECT_EQ(ingested.status().code(), StatusCode::kInternal);

    core::FrameTable frames(&stray, 0.5);
    frames.Slot("cup");
    models::InferenceStats charge;
    const Status filled = frames.Fill(
        video::MakeClipRef(video->layout(), 0, 3, video->num_frames()),
        &charge);
    EXPECT_EQ(filled.code(), StatusCode::kInternal) << filled;
    EXPECT_EQ(charge.units, 0);
    EXPECT_EQ(frames.charged().units, 0);
  }
}

}  // namespace
}  // namespace svq
