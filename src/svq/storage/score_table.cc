#include "svq/storage/score_table.h"

#include <algorithm>

#include "svq/io/bytes.h"

namespace svq::storage {

namespace {

/// One encoded row; the encoding is the in-memory layout of this struct.
struct EncodedRow {
  int64_t clip;
  double score;
};

static_assert(sizeof(EncodedRow) == 16, "row layout must be stable");

}  // namespace

Result<std::unique_ptr<ScoreTable>> ScoreTable::Create(
    std::vector<ClipScoreRow> rows, int64_t num_clips) {
  std::sort(rows.begin(), rows.end(),
            [](const ClipScoreRow& a, const ClipScoreRow& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.clip < b.clip;
            });
  return FromRankedRows(std::move(rows), num_clips,
                        StatusCode::kInvalidArgument, "score table");
}

Result<std::unique_ptr<ScoreTable>> ScoreTable::Parse(
    std::string_view bytes, int64_t num_clips, const std::string& source) {
  io::ByteReader in(bytes);
  uint64_t row_count = 0;
  // The row count is untrusted until proven consistent with the bytes that
  // actually exist — a corrupt 2^60 here must fail cleanly, not drive a
  // huge allocation (hostile-file hardening, docs/storage.md).
  if (!in.Read(&row_count) || in.remaining() % sizeof(EncodedRow) != 0 ||
      row_count != in.remaining() / sizeof(EncodedRow)) {
    return Status::Corruption("row count disagrees with section length in " +
                              source);
  }
  std::vector<ClipScoreRow> rows(static_cast<size_t>(row_count));
  for (ClipScoreRow& row : rows) {
    EncodedRow encoded{};
    in.Read(&encoded);
    row = {encoded.clip, encoded.score};
  }
  return FromRankedRows(std::move(rows), num_clips, StatusCode::kCorruption,
                        source);
}

Result<std::unique_ptr<ScoreTable>> ScoreTable::FromRankedRows(
    std::vector<ClipScoreRow> rows, int64_t num_clips, StatusCode error_code,
    const std::string& source) {
  if (num_clips < 0 || num_clips > kMaxClips) {
    return Status::InvalidArgument("num_clips out of range: " +
                                   std::to_string(num_clips));
  }
  auto table = std::unique_ptr<ScoreTable>(new ScoreTable());
  table->rank_of_clip_.assign(static_cast<size_t>(num_clips), -1);
  // Every clip is unique and below num_clips <= kMaxClips, so every rank
  // that reaches the index fits in int32.
  for (size_t rank = 0; rank < rows.size(); ++rank) {
    const ClipScoreRow& row = rows[rank];
    if (row.clip < 0 || row.clip >= num_clips) {
      return Status(error_code, "clip " + std::to_string(row.clip) +
                                    " outside [0, " +
                                    std::to_string(num_clips) + ") in " +
                                    source);
    }
    int32_t& slot = table->rank_of_clip_[static_cast<size_t>(row.clip)];
    if (slot >= 0) {
      return Status(error_code, "duplicate clip id " +
                                    std::to_string(row.clip) + " in " +
                                    source);
    }
    if (rank > 0 && row.score > rows[rank - 1].score) {
      return Status(error_code, "rows out of order in " + source);
    }
    slot = static_cast<int32_t>(rank);
  }
  table->rows_ = std::move(rows);
  return table;
}

void ScoreTable::AppendTo(std::string* out) const {
  io::AppendValue(out, static_cast<uint64_t>(rows_.size()));
  for (const ClipScoreRow& row : rows_) {
    io::AppendValue(out, EncodedRow{row.clip, row.score});
  }
}

Status ScoreTable::RankOutOfRange(int64_t rank) const {
  return Status::OutOfRange("rank " + std::to_string(rank) +
                            " outside table of " + std::to_string(NumRows()) +
                            " rows");
}

}  // namespace svq::storage
