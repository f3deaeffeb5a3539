#include "svq/core/ingest.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "svq/core/rvaq.h"
#include "svq/models/synthetic_models.h"

namespace svq::core {
namespace {

using video::SyntheticVideo;
using video::SyntheticVideoSpec;

std::shared_ptr<const SyntheticVideo> MakeVideo(uint64_t seed = 8) {
  SyntheticVideoSpec spec;
  spec.name = "ingest_test";
  spec.num_frames = 30000;
  spec.seed = seed;
  spec.actions.push_back({"smoking", 400.0, 4800.0});
  video::SyntheticObjectSpec cup;
  cup.label = "cup";
  cup.correlate_with_action = "smoking";
  cup.correlation = 0.85;
  cup.coverage = 0.9;
  cup.mean_on_frames = 250.0;
  cup.mean_off_frames = 3000.0;
  spec.objects.push_back(cup);
  auto video = SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

TEST(ComputePositiveClipsTest, AllZerosIsEmpty) {
  std::vector<uint8_t> events(800, 0);
  auto positives = ComputePositiveClips(events, 80, 0.05, 200.0, 512.0, 1e-3);
  ASSERT_TRUE(positives.ok());
  EXPECT_TRUE(positives->empty());
}

TEST(ComputePositiveClipsTest, DenseBurstIsDetected) {
  std::vector<uint8_t> events(8000, 0);
  // A solid run of events across clips 40..44.
  for (int i = 3200; i < 3600; ++i) events[i] = 1;
  auto positives = ComputePositiveClips(events, 80, 0.05, 200.0, 2048.0, 1e-4);
  ASSERT_TRUE(positives.ok());
  EXPECT_TRUE(positives->Contains(40));
  EXPECT_TRUE(positives->Contains(44));
  EXPECT_FALSE(positives->Contains(10));
}

TEST(ComputePositiveClipsTest, SparseNoiseIsRejected) {
  std::vector<uint8_t> events(8000, 0);
  // One isolated event every 400 units: background noise, not a burst.
  for (size_t i = 200; i < events.size(); i += 400) events[i] = 1;
  auto positives = ComputePositiveClips(events, 80, 0.05, 200.0, 2048.0, 1e-4);
  ASSERT_TRUE(positives.ok());
  // The adaptive estimate absorbs the noise floor; at most a few early
  // clips fire before the estimate settles.
  EXPECT_LE(positives->TotalLength(), 3);
}

TEST(ComputePositiveClipsTest, ValidatesUnits) {
  std::vector<uint8_t> events(10, 0);
  EXPECT_FALSE(ComputePositiveClips(events, 0, 0.05, 200.0, 64.0, 0.1).ok());
}

TEST(IngestOptionsTest, Validation) {
  IngestOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.backend = IngestOptions::TableBackend::kDisk;
  EXPECT_FALSE(options.Validate().ok());  // needs directory
  options.directory = "/tmp";
  EXPECT_TRUE(options.Validate().ok());
  options = IngestOptions();
  options.alpha = 2.0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(IngestTest, ProducesTablesAndSequences) {
  auto video = MakeVideo();
  models::ModelSet models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  auto ingested = IngestVideo(video, 1, models.tracker.get(),
                              models.recognizer.get(), IngestOptions());
  ASSERT_TRUE(ingested.ok()) << ingested.status();
  EXPECT_EQ(ingested->id, 1);
  EXPECT_EQ(ingested->num_clips, video->NumClips());
  // Every type detected anywhere gets a table; the query-relevant types
  // certainly appear.
  ASSERT_NE(ingested->ObjectTable("cup"), nullptr);
  ASSERT_NE(ingested->ActionTable("smoking"), nullptr);
  ASSERT_NE(ingested->ObjectSequences("cup"), nullptr);
  ASSERT_NE(ingested->ActionSequences("smoking"), nullptr);
  EXPECT_FALSE(ingested->ObjectSequences("cup")->empty());
  EXPECT_FALSE(ingested->ActionSequences("smoking")->empty());
  EXPECT_EQ(ingested->ObjectTable("zebra"), nullptr);
  EXPECT_GT(ingested->ingest_inference.units, 0);
  EXPECT_GT(ingested->ingest_inference.simulated_ms, 0.0);
}

TEST(IngestTest, TableScoresArePositiveAndRanked) {
  auto video = MakeVideo();
  models::ModelSet models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  auto ingested = IngestVideo(video, 1, models.tracker.get(),
                              models.recognizer.get(), IngestOptions());
  ASSERT_TRUE(ingested.ok());
  const storage::ScoreTable* table = ingested->ObjectTable("cup");
  ASSERT_NE(table, nullptr);
  double prev = std::numeric_limits<double>::infinity();
  for (int64_t r = 0; r < table->NumRows(); ++r) {
    auto row = table->RowAt(r);
    ASSERT_TRUE(row.ok());
    // Zero-score rows exist only for bridged gap clips inside positive
    // sequences.
    EXPECT_GE(row->score, 0.0);
    EXPECT_LE(row->score, prev);
    EXPECT_GE(row->clip, 0);
    EXPECT_LT(row->clip, ingested->num_clips);
    prev = row->score;
  }
}

TEST(IngestTest, PositiveSequencesHaveTableRows) {
  // Invariant required by TBClip: every clip of every individual sequence
  // has a row in that type's score table.
  auto video = MakeVideo();
  models::ModelSet models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  auto ingested = IngestVideo(video, 1, models.tracker.get(),
                              models.recognizer.get(), IngestOptions());
  ASSERT_TRUE(ingested.ok());
  for (const auto& [label, sequences] : ingested->object_sequences) {
    const storage::ScoreTable* table = ingested->ObjectTable(label);
    ASSERT_NE(table, nullptr) << label;
    for (const video::Interval& seq : sequences.intervals()) {
      for (video::ClipIndex c = seq.begin; c < seq.end; ++c) {
        EXPECT_TRUE(table->ScoreOf(c).ok()) << label << " clip " << c;
      }
    }
  }
}

TEST(IngestTest, SequencesAlignWithGroundTruth) {
  auto video = MakeVideo();
  models::ModelSet models =
      models::MakeModelSet(video, models::IdealSuite(), {}, {});
  auto ingested = IngestVideo(video, 1, models.tracker.get(),
                              models.recognizer.get(), IngestOptions());
  ASSERT_TRUE(ingested.ok());
  const video::IntervalSet truth_clips =
      video->ground_truth()
          .ObjectPresence("cup")
          .CoarsenAny(video->layout().FramesPerClip());
  const video::IntervalSet* detected = ingested->ObjectSequences("cup");
  ASSERT_NE(detected, nullptr);
  // Under ideal models, detected positive clips cover most of the truth.
  const double coverage =
      static_cast<double>(detected->OverlapLength(truth_clips)) /
      static_cast<double>(truth_clips.TotalLength());
  EXPECT_GT(coverage, 0.8);
}

void ExpectSameTables(
    const std::map<std::string, std::unique_ptr<storage::ScoreTable>>& a,
    const std::map<std::string, std::unique_ptr<storage::ScoreTable>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [label, table] : a) {
    SCOPED_TRACE(label);
    ASSERT_TRUE(b.contains(label));
    const storage::ScoreTable& other = *b.at(label);
    ASSERT_EQ(table->NumRows(), other.NumRows());
    for (int64_t r = 0; r < table->NumRows(); ++r) {
      EXPECT_EQ(*table->RowAt(r), *other.RowAt(r)) << "rank " << r;
    }
  }
}

TEST(IngestTest, DiskBackendRoundTrips) {
  auto video = MakeVideo();
  // The ingest directory does not exist yet: the disk backend creates it.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "svq_ingest_test").string();
  std::filesystem::remove_all(dir);
  IngestOptions options;
  options.backend = IngestOptions::TableBackend::kDisk;
  options.directory = dir;

  models::ModelSet disk_models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  auto disk = IngestVideo(video, 1, disk_models.tracker.get(),
                          disk_models.recognizer.get(), options);
  ASSERT_TRUE(disk.ok()) << disk.status();

  models::ModelSet mem_models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  auto mem = IngestVideo(video, 1, mem_models.tracker.get(),
                         mem_models.recognizer.get(), IngestOptions());
  ASSERT_TRUE(mem.ok());

  // Disk and memory backends serve identical data.
  EXPECT_EQ(disk->object_sequences, mem->object_sequences);
  EXPECT_EQ(disk->action_sequences, mem->action_sequences);
  ExpectSameTables(disk->object_tables, mem->object_tables);
  ExpectSameTables(disk->action_tables, mem->action_tables);
  EXPECT_NE(disk->ObjectTable("cup"), nullptr);
  // The whole video is one regular file named by the video.
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(entry.is_regular_file()) << entry.path();
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"ingest_test"});
  std::filesystem::remove_all(dir);
}

TEST(IngestTest, DiskBackendNeedsAFileName) {
  SyntheticVideoSpec spec;
  spec.num_frames = 800;
  spec.actions.push_back({"smoking", 100.0, 300.0});
  IngestOptions options;
  options.backend = IngestOptions::TableBackend::kDisk;
  options.directory =
      (std::filesystem::temp_directory_path() / "svq_ingest_names").string();
  for (const std::string name : {"a/b", "..", "."}) {
    spec.name = name;
    auto video = SyntheticVideo::Generate(spec);
    ASSERT_TRUE(video.ok()) << name;
    models::ModelSet models =
        models::MakeModelSet(*video, models::MaskRcnnI3dSuite(), {}, {});
    EXPECT_TRUE(IngestVideo(*video, 1, models.tracker.get(),
                            models.recognizer.get(), options)
                    .status()
                    .IsInvalidArgument())
        << name;
  }
  std::filesystem::remove_all(options.directory);
}

TEST(IngestTest, ReopenedDirectoryServesIdenticalQueries) {
  auto video = MakeVideo();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "svq_ingest_reopen").string();
  std::filesystem::remove_all(dir);
  IngestOptions options;
  options.backend = IngestOptions::TableBackend::kDisk;
  options.directory = dir;
  models::ModelSet models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  auto fresh = IngestVideo(video, 3, models.tracker.get(),
                           models.recognizer.get(), options);
  ASSERT_TRUE(fresh.ok()) << fresh.status();

  // Reopen purely from disk: no video, no models.
  auto reopened = OpenIngestedVideo(dir + "/" + video->name());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->name, fresh->name);
  EXPECT_EQ(reopened->id, 3);
  EXPECT_EQ(reopened->num_frames, fresh->num_frames);
  EXPECT_EQ(reopened->num_clips, fresh->num_clips);
  EXPECT_EQ(reopened->layout.FramesPerClip(), fresh->layout.FramesPerClip());
  EXPECT_EQ(reopened->object_sequences, fresh->object_sequences);
  EXPECT_EQ(reopened->action_sequences, fresh->action_sequences);
  // Every table, row for row: the restart serves what the ingest served.
  ExpectSameTables(reopened->object_tables, fresh->object_tables);
  ExpectSameTables(reopened->action_tables, fresh->action_tables);

  // A ranked query over the reopened metadata returns the same answer.
  Query query;
  query.action = "smoking";
  query.objects = {"cup"};
  AdditiveScoring scoring;
  auto from_fresh = RunRvaq(*fresh, query, 3, scoring, OfflineOptions());
  auto from_reopened =
      RunRvaq(*reopened, query, 3, scoring, OfflineOptions());
  ASSERT_TRUE(from_fresh.ok());
  ASSERT_TRUE(from_reopened.ok());
  ASSERT_EQ(from_fresh->sequences.size(), from_reopened->sequences.size());
  for (size_t i = 0; i < from_fresh->sequences.size(); ++i) {
    EXPECT_EQ(from_fresh->sequences[i].clips,
              from_reopened->sequences[i].clips);
    EXPECT_NEAR(from_fresh->sequences[i].upper_bound,
                from_reopened->sequences[i].upper_bound, 1e-9);
  }
  std::filesystem::remove_all(dir);
}

TEST(IngestTest, OpenRejectsMissingOrCorruptManifest) {
  EXPECT_TRUE(OpenIngestedVideo("/nonexistent/video").status().IsIOError());
  const std::string dir =
      (std::filesystem::temp_directory_path() / "svq_ingest_badfile")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/old_layout");
  {
    std::ofstream out(dir + "/nonsense", std::ios::binary);
    out << "nonsense";
  }
  EXPECT_TRUE(OpenIngestedVideo(dir + "/nonsense").status().IsCorruption());
  // A per-video directory of the earlier format is no video file: the
  // caller is told to re-ingest, and nothing is quarantined.
  const Status old_layout = OpenIngestedVideo(dir + "/old_layout").status();
  EXPECT_TRUE(old_layout.IsIOError()) << old_layout;
  EXPECT_NE(old_layout.message().find("re-ingest"), std::string::npos)
      << old_layout;
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/old_layout"));
  std::filesystem::remove_all(dir);
}

TEST(IngestTest, ValidatesArguments) {
  auto video = MakeVideo();
  models::ModelSet models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  EXPECT_FALSE(IngestVideo(nullptr, 1, models.tracker.get(),
                           models.recognizer.get(), IngestOptions())
                   .ok());
  EXPECT_FALSE(IngestVideo(video, 1, nullptr, models.recognizer.get(),
                           IngestOptions())
                   .ok());
}

}  // namespace
}  // namespace svq::core
