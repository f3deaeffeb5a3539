// Corruption-path tests of OpenIngestedVideo: every broken on-disk state of
// a video file — truncated, missing, garbage bytes in its header, a table
// or its sequences, flipped bits, hostile but checksum-valid counts — must
// surface as a clean Corruption/IOError status, never a crash or a silently
// wrong IngestedVideo. Each test ingests a small video to a fresh temp
// directory, damages its one file, and reopens.

#include "svq/core/ingest.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "svq/io/bytes.h"
#include "svq/io/checksum_format.h"
#include "svq/models/synthetic_models.h"

namespace svq::core {
namespace {

namespace fs = std::filesystem;

constexpr const char* kVideoName = "corruption_test";

std::shared_ptr<const video::SyntheticVideo> MakeVideo(uint64_t seed = 8) {
  video::SyntheticVideoSpec spec;
  spec.name = kVideoName;
  spec.num_frames = 16000;
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
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

/// Where the parts of a sound video file sit (docs/storage.md).
struct FileLayout {
  struct Section {
    std::string label;
    size_t begin = 0;  ///< its length field
    size_t end = 0;    ///< one past its last byte
    size_t interval_count_at = 0;
    size_t row_count_at = 0;
  };
  size_t frames_at = 0;
  size_t clips_at = 0;
  size_t object_count_at = 0;
  size_t action_count_at = 0;
  size_t header_end = 0;
  uint64_t object_sections = 0;
  std::vector<Section> sections;
  size_t footer_begin = 0;

  const Section& Find(const std::string& label) const {
    for (const Section& section : sections) {
      if (section.label == label) return section;
    }
    ADD_FAILURE() << "no section " << label;
    return sections.front();
  }
};

/// Walks a sound file; every read is expected to succeed.
FileLayout LayoutOf(const std::string& file) {
  FileLayout layout;
  io::ByteReader in(file);
  uint32_t magic = 0;
  uint32_t version = 0;
  std::string name;
  int64_t id = 0;
  int32_t frames_per_shot = 0;
  int32_t shots_per_clip = 0;
  double fps = 0.0;
  int64_t count = 0;
  EXPECT_TRUE(in.Read(&magic) && in.Read(&version) &&
              in.ReadLengthPrefixedString(&name, 1u << 20) &&
              in.Read(&id) && in.Read(&frames_per_shot) &&
              in.Read(&shots_per_clip) && in.Read(&fps));
  layout.frames_at = in.position();
  EXPECT_TRUE(in.Read(&count));
  layout.clips_at = in.position();
  EXPECT_TRUE(in.Read(&count));
  layout.object_count_at = in.position();
  uint64_t objects = 0;
  uint64_t actions = 0;
  EXPECT_TRUE(in.Read(&objects));
  layout.action_count_at = in.position();
  EXPECT_TRUE(in.Read(&actions));
  layout.header_end = in.position();
  layout.object_sections = objects;
  for (uint64_t i = 0; i < objects + actions; ++i) {
    FileLayout::Section section;
    section.begin = in.position();
    uint64_t length = 0;
    EXPECT_TRUE(in.Read(&length));
    section.end = in.position() + length;
    EXPECT_TRUE(in.ReadLengthPrefixedString(&section.label, 1u << 20));
    section.interval_count_at = in.position();
    uint64_t intervals = 0;
    EXPECT_TRUE(in.Read(&intervals));
    std::string_view skipped;
    EXPECT_TRUE(in.ReadView(&skipped, intervals * 16));
    section.row_count_at = in.position();
    EXPECT_TRUE(in.ReadView(&skipped, section.end - in.position()));
    layout.sections.push_back(section);
  }
  layout.footer_begin = in.position();
  EXPECT_EQ(in.remaining(), io::kChecksumFooterSize);
  return layout;
}

template <typename T>
void Poke(std::string* bytes, size_t at, T value) {
  ASSERT_LE(at + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

/// Ingests MakeVideo() to a fresh disk-backed directory; the video's file
/// reopens cleanly until a test damages it.
class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("svq_corruption_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    path_ = dir_ + "/" + kVideoName;
    IngestOptions options;
    options.backend = IngestOptions::TableBackend::kDisk;
    options.directory = dir_;
    auto video = MakeVideo();
    models::ModelSet models =
        models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
    auto ingested = IngestVideo(video, 1, models.tracker.get(),
                                models.recognizer.get(), options);
    ASSERT_TRUE(ingested.ok()) << ingested.status();
    ASSERT_TRUE(OpenIngestedVideo(path_).ok());
    pristine_ = ReadRaw();
    layout_ = LayoutOf(pristine_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// Keeps only the first `bytes` bytes of the video's file.
  void Truncate(uint64_t bytes) {
    std::error_code ec;
    fs::resize_file(path_, bytes, ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  std::string ReadRaw() {
    std::ifstream in(path_, std::ios::binary);
    EXPECT_TRUE(in.good()) << path_;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  void WriteRaw(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path_;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// The pristine file minus its 24-byte checksum footer.
  std::string Payload() const {
    return pristine_.substr(0, pristine_.size() - io::kChecksumFooterSize);
  }

  /// Writes `payload` under a freshly computed, valid footer: only the
  /// parser's own checks can reject it.
  void WriteChecksummed(std::string payload) {
    io::AppendChecksumFooter(&payload);
    WriteRaw(payload);
  }

  /// Opens the file and expects Corruption; `what` names the damage.
  void ExpectCorruption(const std::string& what) {
    auto result = OpenIngestedVideo(path_);
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_TRUE(result.status().IsCorruption())
        << what << ": " << result.status();
  }

  void ExpectQuarantined() {
    EXPECT_FALSE(fs::exists(path_));
    EXPECT_TRUE(fs::exists(path_ + ".quarantined"));
    // A restart no longer trips over the damaged bytes: the video is
    // simply missing.
    EXPECT_TRUE(OpenIngestedVideo(path_).status().IsIOError());
  }

  std::string dir_;
  std::string path_;
  std::string pristine_;
  FileLayout layout_;
};

TEST_F(CorruptionTest, MissingDirectoryIsIOError) {
  auto result = OpenIngestedVideo(dir_ + "/does_not_exist/" + kVideoName);
  EXPECT_TRUE(result.status().IsIOError()) << result.status();
}

TEST_F(CorruptionTest, MissingManifestIsIOError) {
  // The header that replaced the manifest lives in the video's one file;
  // without the file the video is not in the catalog.
  fs::remove(path_);
  auto result = OpenIngestedVideo(path_);
  EXPECT_TRUE(result.status().IsIOError()) << result.status();
}

TEST_F(CorruptionTest, BadManifestMagicIsCorruption) {
  WriteRaw(std::string(128, '\x5a'));
  ExpectCorruption("garbage file");
  // A sound footer over a foreign magic is still not a video file.
  std::string payload = Payload();
  Poke(&payload, 0, uint32_t{0x324D5653});
  WriteChecksummed(payload);
  ExpectCorruption("foreign magic");
  payload = Payload();
  Poke(&payload, 4, uint32_t{2});
  WriteChecksummed(payload);
  ExpectCorruption("version 2");
}

TEST_F(CorruptionTest, ManifestTruncatedAfterMagicIsCorruption) {
  // Keep the 4-byte magic plus a sliver of the header.
  Truncate(6);
  ExpectCorruption("6 bytes");
  // Checksum-valid but cut inside the header's fixed fields.
  WriteChecksummed(Payload().substr(0, layout_.object_count_at + 4));
  ExpectCorruption("header cut in its section counts");
}

TEST_F(CorruptionTest, ManifestTruncatedInLabelListIsCorruption) {
  // Cut just short of the full size: the footer is gone.
  Truncate(pristine_.size() - 3);
  ExpectCorruption("footer cut");
  // Checksum-valid but cut inside the last section: the declared sections
  // no longer fit what remains.
  WriteChecksummed(Payload().substr(0, Payload().size() - 3));
  ExpectCorruption("last section cut");
}

TEST_F(CorruptionTest, EmptyManifestIsCorruption) {
  Truncate(0);
  ExpectCorruption("empty file");
}

TEST_F(CorruptionTest, GarbageObjectTableIsCorruption) {
  const FileLayout::Section& cup = layout_.Find("cup");
  std::string payload = Payload();
  for (size_t i = cup.row_count_at + 8; i < cup.end; ++i) payload[i] = '\x5a';
  WriteRaw(payload + pristine_.substr(payload.size()));
  ExpectCorruption("garbage rows under the old footer");
  WriteChecksummed(payload);
  ExpectCorruption("checksum-valid garbage rows");
}

TEST_F(CorruptionTest, TruncatedActionTableIsCorruption) {
  const FileLayout::Section& smoking = layout_.Find("smoking");
  ASSERT_GT(smoking.end, smoking.row_count_at + 8);
  Truncate((smoking.row_count_at + smoking.end) / 2);
  ExpectCorruption("cut inside the smoking table");
}

TEST_F(CorruptionTest, GarbageSequenceStoreIsCorruption) {
  const FileLayout::Section& smoking = layout_.Find("smoking");
  std::string payload = Payload();
  for (size_t i = smoking.interval_count_at; i < smoking.row_count_at; ++i) {
    payload[i] = '\x5a';
  }
  WriteChecksummed(payload);
  ExpectCorruption("checksum-valid garbage sequences");
}

TEST_F(CorruptionTest, QuarantinesCorruptTable) {
  const FileLayout::Section& cup = layout_.Find("cup");
  std::string damaged = pristine_;
  damaged[cup.end - 1] ^= 0x10;
  WriteRaw(damaged);
  ExpectCorruption("flipped table byte");
  // The whole video is renamed aside, its bytes kept for inspection.
  ExpectQuarantined();
}

TEST_F(CorruptionTest, QuarantinesCorruptManifest) {
  std::string damaged = pristine_;
  damaged[layout_.clips_at] ^= 0x01;
  WriteRaw(damaged);
  ExpectCorruption("flipped header byte");
  ExpectQuarantined();
}

TEST_F(CorruptionTest, QuarantinesCorruptSequenceStore) {
  const FileLayout::Section& smoking = layout_.Find("smoking");
  std::string damaged = pristine_;
  damaged[smoking.interval_count_at + 8] ^= 0x01;
  WriteRaw(damaged);
  ExpectCorruption("flipped sequence byte");
  ExpectQuarantined();
}

TEST_F(CorruptionTest, MissingFilesAreNotQuarantined) {
  fs::remove(path_);
  EXPECT_TRUE(OpenIngestedVideo(path_).status().IsIOError());
  EXPECT_FALSE(fs::exists(path_ + ".quarantined"));
}

TEST_F(CorruptionTest, ManifestBitFlipCorpus) {
  // Every single-bit flip (plus a full-byte flip) in every byte of the
  // header and the footer, and in the first and last byte of every
  // section, must yield Corruption — never a successful open, never a
  // crash. The CRC covers the whole payload and every footer field is
  // validated, so nothing in these ranges is slack.
  ASSERT_GE(layout_.sections.size(), 2u);
  std::vector<size_t> positions;
  for (size_t i = 0; i < layout_.header_end; ++i) positions.push_back(i);
  for (const FileLayout::Section& section : layout_.sections) {
    positions.push_back(section.begin);
    positions.push_back(section.end - 1);
  }
  for (size_t i = layout_.footer_begin; i < pristine_.size(); ++i) {
    positions.push_back(i);
  }
  for (const size_t i : positions) {
    for (int bit = 0; bit <= 8; ++bit) {
      std::string mutated = pristine_;
      mutated[i] ^=
          bit == 8 ? static_cast<char>(0xFF) : static_cast<char>(1 << bit);
      WriteRaw(mutated);
      ExpectCorruption("byte " + std::to_string(i) + " bit " +
                       std::to_string(bit));
    }
  }
}

TEST_F(CorruptionTest, ManifestTruncationSweep) {
  // A file cut at *any* byte boundary must be Corruption: the footer (or
  // the magic itself) is gone, so no truncation can masquerade as a
  // complete video.
  for (size_t n = 0; n < pristine_.size(); ++n) {
    WriteRaw(pristine_.substr(0, n));
    ExpectCorruption("length " + std::to_string(n));
  }
}

TEST_F(CorruptionTest, TableClipOutsideNumClipsIsCorruption) {
  // A checksum-valid file whose cup table's first row names clip
  // num_clips: only the clip-range check against the header catches it.
  auto intact = OpenIngestedVideo(path_);
  ASSERT_TRUE(intact.ok()) << intact.status();
  const FileLayout::Section& cup = layout_.Find("cup");
  ASSERT_GE(cup.end, cup.row_count_at + 8 + 16);  // at least one row
  std::string payload = Payload();
  Poke(&payload, cup.row_count_at + 8, intact->num_clips);
  WriteChecksummed(payload);
  ExpectCorruption("clip == num_clips");
  ExpectQuarantined();
}

TEST_F(CorruptionTest, ManifestCountsDisagreeingWithLayoutAreCorruption) {
  // Checksum-valid headers whose frame and clip counts disagree with
  // layout.NumClips(num_frames), or overflow what a table can index.
  auto intact = OpenIngestedVideo(path_);
  ASSERT_TRUE(intact.ok()) << intact.status();
  const int64_t frames = intact->num_frames;
  const int64_t clips = intact->num_clips;
  const int64_t per_clip = intact->layout.FramesPerClip();
  const int64_t big_clips = int64_t{1} << 31;
  const std::vector<std::pair<int64_t, int64_t>> counts = {
      {frames, clips + 1},
      {frames, clips - 1},
      {-1, clips},
      {std::numeric_limits<int64_t>::max(), clips},
      {big_clips * per_clip, big_clips},  // agrees, but beyond int32 ranks
  };
  for (const auto& [num_frames, num_clips] : counts) {
    std::string payload = Payload();
    Poke(&payload, layout_.frames_at, num_frames);
    Poke(&payload, layout_.clips_at, num_clips);
    WriteChecksummed(payload);
    ExpectCorruption(std::to_string(num_frames) + " frames, " +
                     std::to_string(num_clips) + " clips");
  }
  // Control: the unmodified counts still open.
  WriteChecksummed(Payload());
  EXPECT_TRUE(OpenIngestedVideo(path_).ok());
}

TEST_F(CorruptionTest, HostileSectionCountIsCorruption) {
  // Section counts are bounded by the bytes that remain before a single
  // section is read: neither 2^60 nor one more than exists can parse.
  const uint64_t objects = layout_.object_sections;
  for (const auto& [at, value] : std::vector<std::pair<size_t, uint64_t>>{
           {layout_.object_count_at, uint64_t{1} << 60},
           {layout_.action_count_at, std::numeric_limits<uint64_t>::max()},
           {layout_.object_count_at, objects + 1},
           {layout_.action_count_at, layout_.sections.size() - objects + 1},
       }) {
    std::string payload = Payload();
    Poke(&payload, at, value);
    WriteChecksummed(payload);
    ExpectCorruption("section count " + std::to_string(value));
  }
}

TEST_F(CorruptionTest, SectionLengthOverrunningTheFileIsCorruption) {
  const FileLayout::Section& first = layout_.sections.front();
  const uint64_t remaining = Payload().size() - first.begin - 8;
  for (const uint64_t length :
       {remaining + 1, uint64_t{1} << 62,
        std::numeric_limits<uint64_t>::max()}) {
    std::string payload = Payload();
    Poke(&payload, first.begin, length);
    WriteChecksummed(payload);
    ExpectCorruption("section length " + std::to_string(length));
  }
}

TEST_F(CorruptionTest, RowCountDisagreeingWithSectionIsCorruption) {
  const FileLayout::Section& cup = layout_.Find("cup");
  const uint64_t rows = (cup.end - cup.row_count_at - 8) / 16;
  for (const uint64_t count :
       {rows + 1, rows - 1, uint64_t{1} << 60, uint64_t{0}}) {
    if (count == rows) continue;
    std::string payload = Payload();
    Poke(&payload, cup.row_count_at, count);
    WriteChecksummed(payload);
    ExpectCorruption("row count " + std::to_string(count));
  }
}

TEST_F(CorruptionTest, IntervalCountAboveRemainingIsCorruption) {
  const FileLayout::Section& cup = layout_.Find("cup");
  const uint64_t remaining = cup.end - cup.interval_count_at - 8;
  for (const uint64_t count : {remaining / 16 + 1, uint64_t{1} << 60}) {
    std::string payload = Payload();
    Poke(&payload, cup.interval_count_at, count);
    WriteChecksummed(payload);
    ExpectCorruption("interval count " + std::to_string(count));
  }
}

TEST_F(CorruptionTest, OversizedLabelIsCorruption) {
  const FileLayout::Section& cup = layout_.Find("cup");
  for (const uint64_t length :
       {uint64_t{1} << 59, static_cast<uint64_t>(cup.end - cup.begin)}) {
    std::string payload = Payload();
    Poke(&payload, cup.begin + 8, length);
    WriteChecksummed(payload);
    ExpectCorruption("label length " + std::to_string(length));
  }
  // The video's name is bounded the same way.
  std::string payload = Payload();
  Poke(&payload, 8, uint64_t{1} << 59);
  WriteChecksummed(payload);
  ExpectCorruption("name length 2^59");
}

TEST_F(CorruptionTest, DuplicateSectionAndTrailingBytesAreCorruption) {
  // A second copy of the cup section under a raised object count.
  const FileLayout::Section& cup = layout_.Find("cup");
  std::string payload = Payload();
  payload.insert(cup.end, Payload().substr(cup.begin, cup.end - cup.begin));
  uint64_t objects = 0;
  std::memcpy(&objects, payload.data() + layout_.object_count_at, 8);
  Poke(&payload, layout_.object_count_at, objects + 1);
  WriteChecksummed(payload);
  ExpectCorruption("duplicate cup section");
  // Bytes after the last declared section.
  WriteChecksummed(Payload() + std::string(8, '\0'));
  ExpectCorruption("trailing bytes");
}

TEST_F(CorruptionTest, IntactDirectoryStillReopensAfterTests) {
  // Control: the fixture itself is sound, so the failures above are caused
  // by the damage each test inflicts, not by the setup.
  auto result = OpenIngestedVideo(path_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->name, kVideoName);
  EXPECT_NE(result->ObjectTable("cup"), nullptr);
  EXPECT_NE(result->ActionTable("smoking"), nullptr);
  // The directory holds the video's one file and nothing else.
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{kVideoName});
}

}  // namespace
}  // namespace svq::core
