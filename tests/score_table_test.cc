// Suite names follow the two ways a table comes to be: MemoryScoreTableTest
// builds tables from rows, DiskScoreTableTest encodes them as a video file
// stores them and parses them again. Both produce the one ScoreTable type.

#include "svq/storage/score_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "svq/common/rng.h"
#include "svq/io/bytes.h"

namespace svq::storage {
namespace {

/// Clip ids of SampleRows() lie in [0, kNumClips).
constexpr int64_t kNumClips = 10;

std::vector<ClipScoreRow> SampleRows() {
  return {{5, 0.9}, {2, 0.4}, {9, 0.7}, {1, 0.1}, {7, 0.7}};
}

std::unique_ptr<ScoreTable> SampleTable() {
  auto table = ScoreTable::Create(SampleRows(), kNumClips);
  EXPECT_TRUE(table.ok()) << table.status();
  return std::move(table).value();
}

std::string Encoded(const ScoreTable& table) {
  std::string bytes;
  table.AppendTo(&bytes);
  return bytes;
}

/// A table encoding whose row count reads `row_count` and whose body holds
/// `rows` verbatim, in the given order: inside a video file it would pass
/// the checksum, so only Parse's own validation can reject it.
std::string HandEncodedTable(uint64_t row_count,
                             const std::vector<ClipScoreRow>& rows) {
  std::string bytes;
  io::AppendValue(&bytes, row_count);
  for (const ClipScoreRow& row : rows) {
    io::AppendValue(&bytes, row.clip);
    io::AppendValue(&bytes, row.score);
  }
  return bytes;
}

TEST(MemoryScoreTableTest, SortsByScoreDescending) {
  auto table = SampleTable();
  EXPECT_EQ(table->NumRows(), 5);
  EXPECT_EQ(table->RowAt(0)->clip, 5);
  // Ties break by clip id.
  EXPECT_EQ(table->RowAt(1)->clip, 7);
  EXPECT_EQ(table->RowAt(2)->clip, 9);
  EXPECT_EQ(table->RowAt(4)->clip, 1);
}

TEST(MemoryScoreTableTest, RandomAccess) {
  auto table = SampleTable();
  EXPECT_DOUBLE_EQ(*table->ScoreOf(9), 0.7);
  EXPECT_DOUBLE_EQ(table->ScoreOrZero(2), 0.4);
  // Absent clips, inside and outside [0, num_clips): NotFound, and the
  // lookup builds no message.
  for (const video::ClipIndex absent : {3, 0, -1, 10, 42}) {
    const Status status = table->ScoreOf(absent).status();
    EXPECT_TRUE(status.IsNotFound()) << absent;
    EXPECT_TRUE(status.message().empty()) << absent;
    EXPECT_EQ(table->ScoreOrZero(absent), 0.0) << absent;
  }
}

TEST(MemoryScoreTableTest, RejectsDuplicates) {
  EXPECT_TRUE(ScoreTable::Create({{1, 0.5}, {1, 0.6}}, kNumClips)
                  .status()
                  .IsInvalidArgument());
}

TEST(MemoryScoreTableTest, RejectsClipsOutsideNumClips) {
  EXPECT_TRUE(ScoreTable::Create({{1, 0.5}, {kNumClips, 0.6}}, kNumClips)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ScoreTable::Create({{-1, 0.5}}, kNumClips)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ScoreTable::Create({}, -1).status().IsInvalidArgument());
  EXPECT_TRUE(ScoreTable::Create({}, ScoreTable::kMaxClips + 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ScoreTable::Create({{kNumClips - 1, 0.5}}, kNumClips).ok());
}

TEST(MemoryScoreTableTest, RankOutOfRange) {
  auto table = SampleTable();
  EXPECT_TRUE(table->RowAt(-1).status().IsOutOfRange());
  EXPECT_TRUE(table->RowAt(5).status().IsOutOfRange());
}

TEST(DiskScoreTableTest, RoundTripMatchesMemory) {
  auto built = SampleTable();
  auto disk = ScoreTable::Parse(Encoded(*built), kNumClips, "sample");
  ASSERT_TRUE(disk.ok()) << disk.status();
  ASSERT_EQ((*disk)->NumRows(), built->NumRows());
  for (int64_t r = -1; r <= built->NumRows(); ++r) {
    auto drow = (*disk)->RowAt(r);
    auto brow = built->RowAt(r);
    ASSERT_EQ(drow.ok(), brow.ok()) << "rank " << r;
    if (drow.ok()) {
      EXPECT_EQ(*drow, *brow) << "rank " << r;
    }
  }
  for (video::ClipIndex clip = -1; clip <= kNumClips; ++clip) {
    auto dscore = (*disk)->ScoreOf(clip);
    auto bscore = built->ScoreOf(clip);
    ASSERT_EQ(dscore.ok(), bscore.ok()) << "clip " << clip;
    if (dscore.ok()) {
      EXPECT_EQ(*dscore, *bscore) << "clip " << clip;
    }
  }
  // The encoding is the row count and 16 bytes per row, nothing else.
  EXPECT_EQ(Encoded(*built).size(), 8u + 16u * SampleRows().size());
}

TEST(DiskScoreTableTest, EmptyTable) {
  auto empty = ScoreTable::Create({}, 0);
  ASSERT_TRUE(empty.ok());
  auto disk = ScoreTable::Parse(Encoded(**empty), 0, "empty");
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ((*disk)->NumRows(), 0);
  EXPECT_TRUE((*disk)->RowAt(0).status().IsOutOfRange());
}

TEST(DiskScoreTableTest, DetectsTruncation) {
  const std::string bytes = Encoded(*SampleTable());
  for (size_t n = 0; n < bytes.size(); ++n) {
    auto result = ScoreTable::Parse(bytes.substr(0, n), kNumClips, "cut");
    ASSERT_FALSE(result.ok()) << "length " << n;
    EXPECT_TRUE(result.status().IsCorruption()) << result.status();
  }
}

TEST(DiskScoreTableTest, HostileRowCountIsCorruptionNotOOM) {
  // A row count of 2^60 over a short body must be rejected by size
  // validation, not drive a 2^60-element allocation.
  for (const std::vector<ClipScoreRow>& body :
       {std::vector<ClipScoreRow>{}, SampleRows()}) {
    auto result = ScoreTable::Parse(
        HandEncodedTable(uint64_t{1} << 60, body), kNumClips, "hostile");
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsCorruption()) << result.status();
  }
}

TEST(DiskScoreTableTest, EveryRowCountBitFlipIsCorruption) {
  // The row count must account for exactly the bytes that follow it, so
  // no flip of any of its bits, nor of a whole byte, can parse.
  const std::string pristine = Encoded(*SampleTable());
  for (size_t i = 0; i < sizeof(uint64_t); ++i) {
    for (int bit = 0; bit <= 8; ++bit) {
      std::string mutated = pristine;
      mutated[i] ^=
          bit == 8 ? static_cast<char>(0xFF) : static_cast<char>(1 << bit);
      auto result = ScoreTable::Parse(mutated, kNumClips, "flipped");
      ASSERT_FALSE(result.ok()) << "byte " << i << " bit " << bit;
      EXPECT_TRUE(result.status().IsCorruption()) << result.status();
    }
  }
}

TEST(DiskScoreTableTest, ChecksummedButInvalidRowsAreCorruption) {
  // Each encoding is well formed, as a checksum-valid file would carry it,
  // so only the row checks can catch it.
  const std::vector<std::vector<ClipScoreRow>> bad = {
      {{5, 0.9}, {kNumClips, 0.4}},  // clip == num_clips
      {{-3, 0.9}},                   // negative clip
      {{5, 0.4}, {2, 0.9}},          // ascending scores
      {{5, 0.9}, {5, 0.4}},          // duplicate clip
  };
  for (const std::vector<ClipScoreRow>& rows : bad) {
    auto result = ScoreTable::Parse(HandEncodedTable(rows.size(), rows),
                                    kNumClips, "bad rows");
    ASSERT_FALSE(result.ok()) << rows[0].clip;
    EXPECT_TRUE(result.status().IsCorruption()) << result.status();
  }
  // The same bytes parse once num_clips covers their clips.
  EXPECT_TRUE(ScoreTable::Parse(
                  HandEncodedTable(2, {{5, 0.9}, {kNumClips, 0.4}}),
                  kNumClips + 1, "wider")
                  .ok());
}

TEST(DiskScoreTableTest, LargeTableRandomSpotChecks) {
  Rng rng(77);
  std::vector<ClipScoreRow> rows;
  for (int i = 0; i < 20000; ++i) rows.push_back({i, rng.NextDouble()});
  auto built = ScoreTable::Create(rows, 20000);
  ASSERT_TRUE(built.ok());
  auto disk = ScoreTable::Parse(Encoded(**built), 20000, "large");
  ASSERT_TRUE(disk.ok());
  for (int i = 0; i < 200; ++i) {
    const auto& row = rows[rng.NextUint64(rows.size())];
    EXPECT_DOUBLE_EQ(*(*disk)->ScoreOf(row.clip), row.score);
  }
  // Sorted order survives the encoding.
  double prev = 2.0;
  for (int64_t r = 0; r < 100; ++r) {
    auto row = (*disk)->RowAt(r);
    ASSERT_TRUE(row.ok());
    EXPECT_LE(row->score, prev);
    prev = row->score;
  }
}

TEST(TableReaderTest, CountsAccessClasses) {
  auto table = SampleTable();
  StorageMetrics metrics;
  TableReader reader(table.get(), &metrics);
  ASSERT_TRUE(reader.SortedAccess(0).ok());
  ASSERT_TRUE(reader.SortedAccess(1).ok());
  auto last = reader.ReverseAccess(0);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->clip, 1);  // lowest score
  EXPECT_DOUBLE_EQ(reader.RandomAccessOrZero(9), 0.7);
  EXPECT_DOUBLE_EQ(reader.RandomAccessOrZero(1234), 0.0);
  EXPECT_DOUBLE_EQ(reader.SequentialReadOrZero(2), 0.4);
  EXPECT_EQ(metrics.sorted_accesses, 3);
  EXPECT_EQ(metrics.random_accesses, 2);
  EXPECT_EQ(metrics.sequential_reads, 1);
}

TEST(StorageMetricsTest, VirtualTimeUsesCostModel) {
  StorageMetrics metrics;
  metrics.sorted_accesses = 10;
  metrics.random_accesses = 4;
  metrics.sequential_reads = 2;
  DiskCostModel model{1.0, 5.0, 2.0};
  EXPECT_DOUBLE_EQ(metrics.VirtualMs(model), 10.0 + 20.0 + 4.0);
  StorageMetrics other;
  other.random_accesses = 1;
  metrics += other;
  EXPECT_EQ(metrics.random_accesses, 5);
  metrics.Reset();
  EXPECT_EQ(metrics.sorted_accesses, 0);
}

}  // namespace
}  // namespace svq::storage
