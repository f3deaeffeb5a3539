// Crash-consistency sweeps over the storage write protocol (docs/storage.md):
// a simulated crash — clean syscall failure, torn write, or power cut — at
// every write boundary of a video file's write (and of a whole ingest) must
// leave the directory in a state that reopens as either the complete old
// contents or the complete new contents. A half-written file that *opens*
// is the bug class this suite exists to catch.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "svq/core/ingest.h"
#include "svq/io/env.h"
#include "svq/io/fault_injection_env.h"
#include "svq/models/synthetic_models.h"
#include "svq/storage/score_table.h"
#include "svq/video/interval_set.h"

namespace svq {
namespace {

namespace fs = std::filesystem;

/// A fresh directory private to the running test: ctest runs every test as
/// its own process, in parallel, and the IngestCrashTest fixtures would
/// otherwise share their reference directory.
std::string TempDir(const std::string& name) {
  const std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string dir =
      (fs::temp_directory_path() / ("svq_crash_" + test + "_" + name))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

using SequenceMap = std::map<std::string, video::IntervalSet>;

// ---------------------------------------------------------------------------
// Whole-ingest sweeps: a crash anywhere inside IngestVideo's disk phase must
// leave a directory in which the video's file either opens as the complete
// new video or is absent (or, at worst, fails to open cleanly). The rename
// is the commit point: no renamed file, no (partial) catalog entry.

constexpr const char* kVideoName = "crash_test";

std::shared_ptr<const video::SyntheticVideo> MakeVideo(uint64_t seed = 19) {
  video::SyntheticVideoSpec spec;
  spec.name = kVideoName;
  spec.num_frames = 4000;
  spec.seed = seed;
  spec.actions.push_back({"smoking", 300.0, 2500.0});
  video::SyntheticObjectSpec cup;
  cup.label = "cup";
  cup.correlate_with_action = "smoking";
  cup.correlation = 0.85;
  cup.coverage = 0.9;
  cup.mean_on_frames = 200.0;
  cup.mean_off_frames = 1500.0;
  spec.objects.push_back(cup);
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

/// Ingests MakeVideo() into `dir` through `env` (single-threaded, so the
/// op order is deterministic across runs).
Status IngestTo(const std::string& dir, io::Env* env,
                const std::shared_ptr<const video::SyntheticVideo>& video) {
  core::IngestOptions options;
  options.backend = core::IngestOptions::TableBackend::kDisk;
  options.directory = dir;
  options.env = env;
  models::ModelSet models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  return core::IngestVideo(video, 1, models.tracker.get(),
                           models.recognizer.get(), options)
      .status();
}

/// Everything an opened video serves, row for row, in comparable form.
struct DirSummary {
  using Rows = std::map<std::string, std::vector<storage::ClipScoreRow>>;
  std::string name;
  video::VideoId id = 0;
  int64_t num_frames = 0;
  int64_t num_clips = 0;
  Rows object_rows;
  Rows action_rows;
  SequenceMap object_sequences;
  SequenceMap action_sequences;

  friend bool operator==(const DirSummary&, const DirSummary&) = default;
};

DirSummary Summarize(const core::IngestedVideo& opened) {
  DirSummary summary;
  summary.name = opened.name;
  summary.id = opened.id;
  summary.num_frames = opened.num_frames;
  summary.num_clips = opened.num_clips;
  const auto rows_of = [](const storage::ScoreTable& table) {
    std::vector<storage::ClipScoreRow> rows;
    for (int64_t r = 0; r < table.NumRows(); ++r) rows.push_back(*table.RowAt(r));
    return rows;
  };
  for (const auto& [label, table] : opened.object_tables) {
    summary.object_rows[label] = rows_of(*table);
  }
  for (const auto& [label, table] : opened.action_tables) {
    summary.action_rows[label] = rows_of(*table);
  }
  summary.object_sequences = opened.object_sequences;
  summary.action_sequences = opened.action_sequences;
  return summary;
}


class IngestCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    video_ = MakeVideo();
    ASSERT_NE(video_, nullptr);
    // Reference: a clean ingest, and the op/byte budget of its disk phase.
    const std::string ref_dir = TempDir("ingest_ref");
    io::FaultInjectionEnv env;
    ASSERT_TRUE(IngestTo(ref_dir, &env, video_).ok());
    total_ops_ = env.ops_seen();
    total_bytes_ = env.bytes_appended();
    // One file: open, append, fsync, rename, directory fsync.
    ASSERT_EQ(total_ops_, 5) << "expected one file per video";
    auto reference = core::OpenIngestedVideo(ref_dir + "/" + kVideoName);
    ASSERT_TRUE(reference.ok()) << reference.status();
    reference_ = Summarize(*reference);
    fs::remove_all(ref_dir);
  }

  /// The sweep body: after a faulted ingest into a fresh directory, the
  /// video's file either opens as the complete reference state or fails
  /// with a clean IOError/Corruption — never a crash, never a partial open.
  void CheckDir(const std::string& dir, const std::string& what) {
    auto opened = core::OpenIngestedVideo(dir + "/" + kVideoName);
    if (opened.ok()) {
      EXPECT_EQ(Summarize(*opened), reference_) << what;
    } else {
      EXPECT_TRUE(opened.status().IsIOError() ||
                  opened.status().IsCorruption())
          << what << ": " << opened.status();
    }
  }

  std::shared_ptr<const video::SyntheticVideo> video_;
  int64_t total_ops_ = 0;
  uint64_t total_bytes_ = 0;
  DirSummary reference_;
};

TEST_F(IngestCrashTest, CleanFailureAtEverySyscall) {
  for (int64_t op = 0; op < total_ops_; ++op) {
    const std::string dir = TempDir("ingest_fail");
    io::FaultInjectionEnv env;
    env.FailOp(op);
    const Status status = IngestTo(dir, &env, video_);
    EXPECT_TRUE(env.fault_fired()) << "op " << op;
    if (status.ok()) {
      // The failed write was retried-free and one-shot: an ingest that
      // reports success must have produced the complete video file.
      auto opened = core::OpenIngestedVideo(dir + "/" + kVideoName);
      ASSERT_TRUE(opened.ok()) << "op " << op << ": " << opened.status();
      EXPECT_EQ(Summarize(*opened), reference_) << "op " << op;
    } else {
      CheckDir(dir, "op " + std::to_string(op));
    }
    fs::remove_all(dir);
  }
}

TEST_F(IngestCrashTest, PowerCutAtEverySyscall) {
  for (int64_t op = 0; op < total_ops_; ++op) {
    const std::string dir = TempDir("ingest_cut");
    io::FaultInjectionEnv env;
    env.CutAtOp(op);
    EXPECT_FALSE(IngestTo(dir, &env, video_).ok()) << "op " << op;
    // Dead env: temp files survive exactly as a crashed machine would
    // leave them. The directory must still open old-or-new-or-clean-error.
    CheckDir(dir, "cut at op " + std::to_string(op));
    fs::remove_all(dir);
  }
}

TEST_F(IngestCrashTest, PowerCutAcrossByteBoundaries) {
  // Every single byte would mean total_bytes_ full ingests; stride the
  // sweep to ~64 cut points while always including the first and last
  // byte of the stream. VideoFileCrashTest cuts the same write at every
  // byte, and the op-level sweeps above cover every syscall boundary.
  const uint64_t stride = std::max<uint64_t>(1, total_bytes_ / 64);
  for (uint64_t cut = 0; cut < total_bytes_; cut += stride) {
    const std::string dir = TempDir("ingest_cutbyte");
    io::FaultInjectionEnv env;
    env.CutAtByte(cut);
    EXPECT_FALSE(IngestTo(dir, &env, video_).ok()) << "cut " << cut;
    CheckDir(dir, "cut at byte " + std::to_string(cut));
    fs::remove_all(dir);
  }
  {
    const std::string dir = TempDir("ingest_cutbyte_last");
    io::FaultInjectionEnv env;
    env.CutAtByte(total_bytes_ - 1);
    EXPECT_FALSE(IngestTo(dir, &env, video_).ok());
    CheckDir(dir, "cut at last byte");
    fs::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// One-file sweeps: the bytes of one serialized video, written at every
// fault point — into a fresh directory and over an older complete file of
// the same video. The final path must then hold exactly the old bytes'
// video or exactly the new one's (absent counting as old in a fresh
// directory); a half-written file that opens is the bug.

class VideoFileCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Serialize each video once, through a clean ingest.
    old_file_ = Serialized(MakeVideo(23), &old_);
    new_file_ = Serialized(MakeVideo(19), &new_);
    ASSERT_FALSE(old_file_.empty());
    ASSERT_FALSE(new_file_.empty());
    ASSERT_NE(old_, new_) << "old and new must differ";
    dir_ = TempDir("video_file");
    path_ = dir_ + "/" + kVideoName;
    io::FaultInjectionEnv env;
    ASSERT_TRUE(io::WriteFileAtomic(&env, path_, new_file_).ok());
    total_ops_ = env.ops_seen();
    total_bytes_ = env.bytes_appended();
    ASSERT_EQ(total_ops_, 5);
    ASSERT_EQ(total_bytes_, new_file_.size());
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string Serialized(
      const std::shared_ptr<const video::SyntheticVideo>& video,
      DirSummary* summary) {
    const std::string dir = TempDir("serialize");
    EXPECT_TRUE(IngestTo(dir, nullptr, video).ok());
    auto opened = core::OpenIngestedVideo(dir + "/" + kVideoName);
    EXPECT_TRUE(opened.ok()) << opened.status();
    if (opened.ok()) *summary = Summarize(*opened);
    auto bytes = io::ReadFileToString(dir + "/" + kVideoName);
    fs::remove_all(dir);
    return bytes.ok() ? *bytes : std::string();
  }

  /// Puts the directory back to its pre-write state: the older complete
  /// file, or nothing.
  void Reset(bool over_old) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    if (over_old) {
      std::ofstream out(path_, std::ios::binary);
      out.write(old_file_.data(),
                static_cast<std::streamsize>(old_file_.size()));
      ASSERT_TRUE(out.good());
    }
  }

  /// What the final path serves now.
  enum class State { kAbsent, kOld, kNew, kOther };
  State Observe(const std::string& what) {
    if (!fs::exists(path_)) return State::kAbsent;
    auto opened = core::OpenIngestedVideo(path_);
    if (!opened.ok()) {
      ADD_FAILURE() << what << ": " << opened.status();
      return State::kOther;
    }
    const DirSummary summary = Summarize(*opened);
    if (summary == old_) return State::kOld;
    if (summary == new_) return State::kNew;
    return State::kOther;
  }

  void FailAtEveryOp(bool over_old) {
    const State before = over_old ? State::kOld : State::kAbsent;
    for (int64_t op = 0; op < total_ops_; ++op) {
      Reset(over_old);
      io::FaultInjectionEnv env;
      env.FailOp(op);
      const Status status = io::WriteFileAtomic(&env, path_, new_file_);
      EXPECT_TRUE(env.fault_fired()) << "op " << op;
      EXPECT_FALSE(status.ok()) << "op " << op;
      // Up to and including a failed rename nothing changed; once the
      // rename landed, only the directory fsync can fail, and the new
      // file stands.
      constexpr int64_t kRenameOp = 3;
      EXPECT_EQ(Observe("op " + std::to_string(op)),
                op <= kRenameOp ? before : State::kNew)
          << "op " << op;
    }
  }

  void PowerCutAtEveryByte(bool over_old) {
    const State before = over_old ? State::kOld : State::kAbsent;
    for (uint64_t cut = 0; cut < total_bytes_; ++cut) {
      Reset(over_old);
      io::FaultInjectionEnv env;
      env.CutAtByte(cut);
      EXPECT_FALSE(io::WriteFileAtomic(&env, path_, new_file_).ok())
          << "cut " << cut;
      // The machine died mid-append: the torn bytes stayed in the temp
      // file, and the final path still serves the previous state.
      ASSERT_EQ(Observe("cut " + std::to_string(cut)), before)
          << "cut " << cut;
    }
  }

  std::string old_file_;
  std::string new_file_;
  DirSummary old_;
  DirSummary new_;
  std::string dir_;
  std::string path_;
  int64_t total_ops_ = 0;
  uint64_t total_bytes_ = 0;
};

TEST_F(VideoFileCrashTest, FailAtEveryOpOverOldFileLeavesOldOrNew) {
  FailAtEveryOp(/*over_old=*/true);
}

TEST_F(VideoFileCrashTest, FailAtEveryOpInFreshDirLeavesNothingOrNew) {
  FailAtEveryOp(/*over_old=*/false);
}

TEST_F(VideoFileCrashTest, PowerCutAtEveryByteOverOldFileLeavesOld) {
  PowerCutAtEveryByte(/*over_old=*/true);
}

TEST_F(VideoFileCrashTest, PowerCutAtEveryByteInFreshDirLeavesNothing) {
  PowerCutAtEveryByte(/*over_old=*/false);
}

}  // namespace
}  // namespace svq
