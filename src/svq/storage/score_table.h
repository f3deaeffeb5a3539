#ifndef SVQ_STORAGE_SCORE_TABLE_H_
#define SVQ_STORAGE_SCORE_TABLE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "svq/common/result.h"
#include "svq/storage/access_stats.h"
#include "svq/video/types.h"

namespace svq::storage {

/// One row of a clip score table (paper §4.2): the clip identifier and the
/// aggregated score of one object/action type on that clip.
struct ClipScoreRow {
  video::ClipIndex clip = 0;
  double score = 0.0;

  friend bool operator==(const ClipScoreRow&, const ClipScoreRow&) = default;
};

/// Read-only clip score table ordered by score (descending). Materialized
/// during the ingestion phase, one per object/action type per video.
///
/// Access paths mirror what the top-k algorithms need: sorted access from
/// the top, reverse access from the bottom, and random access by clip id.
/// The rows live in memory in rank order beside a dense clip -> rank index
/// of `num_clips` entries, so every access is an array load: no syscall,
/// no hash probe, no virtual call. A table built from rows (Create) and the
/// same table encoded and parsed again (AppendTo, Parse) serve identically.
/// Tables do not count accesses — use TableReader for per-query
/// instrumentation.
class ScoreTable {
 public:
  /// Largest `num_clips` a table indexes: ranks are stored as int32.
  static constexpr int64_t kMaxClips = std::numeric_limits<int32_t>::max();

  /// `rows` in any order; they are sorted by descending score, ties by clip
  /// id. Errors: InvalidArgument on duplicate clip ids, a clip outside
  /// [0, num_clips), or `num_clips` outside [0, kMaxClips].
  static Result<std::unique_ptr<ScoreTable>> Create(
      std::vector<ClipScoreRow> rows, int64_t num_clips);

  /// Parses an encoding written by AppendTo that spans all of `bytes`
  /// (the tail of a video file's section, docs/storage.md). Checks the row
  /// count against the byte count before allocating, then the descending
  /// row order, clip uniqueness, and that every clip lies in
  /// [0, num_clips). `source` names the bytes in error messages.
  /// Errors: Corruption (malformed or hostile bytes), InvalidArgument
  /// (`num_clips` out of range).
  static Result<std::unique_ptr<ScoreTable>> Parse(std::string_view bytes,
                                                   int64_t num_clips,
                                                   const std::string& source);

  /// Appends the table's encoding to `out`: the row count (uint64), then
  /// every row in rank order as (int64 clip, double score).
  void AppendTo(std::string* out) const;

  int64_t NumRows() const { return static_cast<int64_t>(rows_.size()); }

  /// Row at `rank` in descending score order (rank 0 = highest score).
  /// Errors: OutOfRange.
  Result<ClipScoreRow> RowAt(int64_t rank) const {
    if (rank < 0 || rank >= NumRows()) return RankOutOfRange(rank);
    return rows_[static_cast<size_t>(rank)];
  }

  /// Score of `clip`. Errors: NotFound, with no message, when the clip has
  /// no row (no detection of this type on that clip).
  Result<double> ScoreOf(video::ClipIndex clip) const {
    const int32_t rank = RankOf(clip);
    if (rank < 0) return Status(StatusCode::kNotFound, std::string());
    return rows_[static_cast<size_t>(rank)].score;
  }

  /// Score of `clip`, or 0 when the clip has no row.
  double ScoreOrZero(video::ClipIndex clip) const {
    const int32_t rank = RankOf(clip);
    return rank < 0 ? 0.0 : rows_[static_cast<size_t>(rank)].score;
  }

 private:
  ScoreTable() = default;

  /// Builds the clip -> rank index over rows already in rank order.
  /// Duplicate clips, clips outside [0, num_clips) and rows out of score
  /// order fail with `error_code`: InvalidArgument for caller rows,
  /// Corruption for parsed rows.
  static Result<std::unique_ptr<ScoreTable>> FromRankedRows(
      std::vector<ClipScoreRow> rows, int64_t num_clips,
      StatusCode error_code, const std::string& source);

  int32_t RankOf(video::ClipIndex clip) const {
    if (clip < 0 || clip >= static_cast<int64_t>(rank_of_clip_.size())) {
      return -1;
    }
    return rank_of_clip_[static_cast<size_t>(clip)];
  }

  Status RankOutOfRange(int64_t rank) const;

  std::vector<ClipScoreRow> rows_;
  /// Rank of each clip in [0, num_clips); -1 when the clip has no row.
  std::vector<int32_t> rank_of_clip_;
};

/// Instrumented per-query view over a ScoreTable: every access path bumps
/// the query's shared StorageMetrics.
class TableReader {
 public:
  TableReader(const ScoreTable* table, StorageMetrics* metrics)
      : table_(table), metrics_(metrics) {}

  int64_t NumRows() const { return table_->NumRows(); }

  /// Sorted access (top of the table downward).
  Result<ClipScoreRow> SortedAccess(int64_t rank) {
    ++metrics_->sorted_accesses;
    return table_->RowAt(rank);
  }

  /// Reverse sorted access: `rank_from_bottom` 0 = lowest score.
  Result<ClipScoreRow> ReverseAccess(int64_t rank_from_bottom) {
    ++metrics_->sorted_accesses;
    return table_->RowAt(table_->NumRows() - 1 - rank_from_bottom);
  }

  /// Random access by clip; missing clips are charged and reported as a
  /// score of 0 (no detection of the type on the clip).
  double RandomAccessOrZero(video::ClipIndex clip) {
    ++metrics_->random_accesses;
    return table_->ScoreOrZero(clip);
  }

  /// Sequential clip-record read (used by full traverses).
  double SequentialReadOrZero(video::ClipIndex clip) {
    ++metrics_->sequential_reads;
    return table_->ScoreOrZero(clip);
  }

  const ScoreTable* table() const { return table_; }

 private:
  const ScoreTable* table_;
  StorageMetrics* metrics_;
};

}  // namespace svq::storage

#endif  // SVQ_STORAGE_SCORE_TABLE_H_
