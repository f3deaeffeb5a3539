// Integration tests of the VideoQueryEngine facade and the SQL executor:
// register -> ingest -> query through the public API end to end.

#include "svq/core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "svq/query/executor.h"

namespace svq::core {
namespace {

std::shared_ptr<const video::SyntheticVideo> DemoVideo(
    const std::string& name = "demo", uint64_t seed = 12) {
  video::SyntheticVideoSpec spec;
  spec.name = name;
  spec.num_frames = 30000;
  spec.seed = seed;
  spec.actions.push_back({"jumping", 350.0, 4200.0});
  video::SyntheticObjectSpec car;
  car.label = "car";
  car.correlate_with_action = "jumping";
  car.correlation = 0.9;
  car.coverage = 0.9;
  car.mean_on_frames = 250.0;
  car.mean_off_frames = 2200.0;
  spec.objects.push_back(car);
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

Query JumpingCar() {
  Query q;
  q.action = "jumping";
  q.objects = {"car"};
  return q;
}

TEST(EngineTest, RegistrationLifecycle) {
  VideoQueryEngine engine;
  auto id = engine.AddVideo(DemoVideo());
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(engine.AddVideo(DemoVideo()).status().code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(engine.AddVideo(nullptr).status().IsInvalidArgument());
  EXPECT_EQ(engine.Ingested("demo"), nullptr);
  EXPECT_TRUE(engine.Ingest("missing").IsNotFound());
  ASSERT_TRUE(engine.Ingest("demo").ok());
  EXPECT_NE(engine.Ingested("demo"), nullptr);
  EXPECT_EQ(engine.Ingest("demo").code(), StatusCode::kAlreadyExists);
}

TEST(EngineTest, OnlineThenOffline) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo()).ok());
  auto online = engine.ExecuteOnline(JumpingCar(), "demo");
  ASSERT_TRUE(online.ok()) << online.status();
  EXPECT_FALSE(online->sequences.empty());

  // Offline requires ingestion first.
  auto premature = engine.ExecuteTopK(JumpingCar(), "demo", 3);
  EXPECT_EQ(premature.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.Ingest("demo").ok());
  auto topk = engine.ExecuteTopK(JumpingCar(), "demo", 3);
  ASSERT_TRUE(topk.ok()) << topk.status();
  EXPECT_FALSE(topk->sequences.empty());
  EXPECT_LE(topk->sequences.size(), 3u);
  // Scores come back ranked.
  for (size_t i = 1; i < topk->sequences.size(); ++i) {
    EXPECT_GE(topk->sequences[i - 1].upper_bound,
              topk->sequences[i].upper_bound - 1e-9);
  }
}

TEST(EngineTest, ServesReopenedArtifactsWithoutRawVideo) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "svq_engine_reopen").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  // First life: ingest to disk.
  IngestOptions disk_options;
  disk_options.backend = IngestOptions::TableBackend::kDisk;
  disk_options.directory = dir;
  VideoQueryEngine writer(models::ModelSuite(), OnlineConfig(), disk_options);
  ASSERT_TRUE(writer.AddVideo(DemoVideo()).ok());
  ASSERT_TRUE(writer.Ingest("demo").ok());
  auto reference = writer.ExecuteTopK(JumpingCar(), "demo", 3);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // Second life: a fresh engine serves the reopened artifacts with no raw
  // video and no re-ingestion.
  auto reopened = OpenIngestedVideo(dir + "/demo");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  VideoQueryEngine server;
  auto id = server.AddIngested(
      std::make_shared<const IngestedVideo>(std::move(reopened).value()));
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(server.HasVideo("demo"));
  EXPECT_TRUE(server.AddIngested(nullptr).status().IsInvalidArgument());

  auto topk = server.ExecuteTopK(JumpingCar(), "demo", 3);
  ASSERT_TRUE(topk.ok()) << topk.status();
  ASSERT_EQ(topk->sequences.size(), reference->sequences.size());
  for (size_t i = 0; i < topk->sequences.size(); ++i) {
    EXPECT_EQ(topk->sequences[i].clips, reference->sequences[i].clips);
  }

  // Online/streaming execution needs the raw frames, which only the
  // original ingest had: clean FailedPrecondition, not a crash.
  auto online = server.ExecuteOnline(JumpingCar(), "demo");
  EXPECT_EQ(online.status().code(), StatusCode::kFailedPrecondition);
  fs::remove_all(dir);
}

TEST(EngineTest, DiskIngestAllWritesOneFilePerVideo) {
  // Concurrent ingests into an ingest directory that does not exist yet:
  // each video becomes exactly one regular file named by the video, with
  // no subdirectory, and every file reopens as what was served.
  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "svq_engine_one_file").string();
  fs::remove_all(root);
  const std::string dir = root + "/catalog";
  IngestOptions disk_options;
  disk_options.backend = IngestOptions::TableBackend::kDisk;
  disk_options.directory = dir;
  VideoQueryEngine writer(models::ModelSuite(), OnlineConfig(), disk_options);
  const std::vector<std::string> names = {"clip_a", "clip_b", "clip_c"};
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(writer.AddVideo(DemoVideo(names[i], 40 + i)).ok());
  }
  ASSERT_TRUE(writer.IngestAll(static_cast<int>(names.size())).ok());

  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(entry.is_regular_file()) << entry.path();
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, names);
  for (const std::string& name : names) {
    auto reopened = OpenIngestedVideo(dir + "/" + name);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    const auto served = writer.Ingested(name);
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(reopened->id, served->id);
    EXPECT_EQ(reopened->object_sequences, served->object_sequences);
    EXPECT_EQ(reopened->action_sequences, served->action_sequences);
  }
  fs::remove_all(root);
}

TEST(EngineTest, AllOfflineAlgorithmsAgreeOnSequences) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo()).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());
  const int k = 4;
  auto rvaq =
      engine.ExecuteTopK(JumpingCar(), "demo", k, OfflineAlgorithm::kRvaq);
  auto noskip = engine.ExecuteTopK(JumpingCar(), "demo", k,
                                   OfflineAlgorithm::kRvaqNoSkip);
  auto fa =
      engine.ExecuteTopK(JumpingCar(), "demo", k, OfflineAlgorithm::kFagin);
  auto trav = engine.ExecuteTopK(JumpingCar(), "demo", k,
                                 OfflineAlgorithm::kPqTraverse);
  ASSERT_TRUE(rvaq.ok());
  ASSERT_TRUE(noskip.ok());
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(trav.ok());
  ASSERT_EQ(rvaq->sequences.size(), trav->sequences.size());
  for (size_t i = 0; i < rvaq->sequences.size(); ++i) {
    EXPECT_EQ(rvaq->sequences[i].clips, trav->sequences[i].clips);
    EXPECT_EQ(noskip->sequences[i].clips, trav->sequences[i].clips);
    EXPECT_EQ(fa->sequences[i].clips, trav->sequences[i].clips);
  }
}

TEST(ExecutorTest, StreamingStatement) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo()).ok());
  auto result = query::ExecuteStatement(
      &engine,
      "SELECT MERGE(clipID) AS Sequence "
      "FROM (PROCESS demo PRODUCE clipID, obj USING ObjectDetector, "
      "act USING ActionRecognizer) "
      "WHERE act='jumping' AND obj.include('car')");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->online.has_value());
  EXPECT_FALSE(result->topk.has_value());
  EXPECT_FALSE(result->online->sequences.empty());
}

TEST(ExecutorTest, RankedStatement) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo()).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());
  auto result = query::ExecuteStatement(
      &engine,
      "SELECT MERGE(clipID), RANK(act, obj) "
      "FROM (PROCESS demo PRODUCE clipID, obj USING ObjectTracker, "
      "act USING ActionRecognizer) "
      "WHERE act='jumping' AND obj.include('car') "
      "ORDER BY RANK(act, obj) LIMIT 2");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->topk.has_value());
  EXPECT_LE(result->topk->sequences.size(), 2u);
}

TEST(ExecutorTest, UsingSelectsModelSuite) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo()).ok());
  // Ideal models: the result must exactly match the ideal-model engine run.
  auto ideal = query::ExecuteStatement(
      &engine,
      "SELECT MERGE(clipID) FROM (PROCESS demo PRODUCE clipID, "
      "obj USING Ideal, act USING Ideal) "
      "WHERE act='jumping' AND obj.include('car')");
  ASSERT_TRUE(ideal.ok()) << ideal.status();
  // Engine suite restored afterwards.
  EXPECT_FALSE(engine.suite().object_profile.ideal);

  VideoQueryEngine ideal_engine{models::IdealSuite()};
  ASSERT_TRUE(ideal_engine.AddVideo(DemoVideo()).ok());
  auto direct = ideal_engine.ExecuteOnline(JumpingCar(), "demo");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(ideal->online->sequences, direct->sequences);
}

TEST(ExecutorTest, UnknownVideoFails) {
  VideoQueryEngine engine;
  auto result = query::ExecuteStatement(
      &engine,
      "SELECT MERGE(clipID) FROM (PROCESS ghost PRODUCE clipID, obj, act) "
      "WHERE act='jumping' AND obj.include('car')");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

}  // namespace
}  // namespace svq::core
