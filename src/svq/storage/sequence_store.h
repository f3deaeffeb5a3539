#ifndef SVQ_STORAGE_SEQUENCE_STORE_H_
#define SVQ_STORAGE_SEQUENCE_STORE_H_

#include <string>
#include <string_view>
#include <utility>

#include "svq/common/result.h"
#include "svq/io/bytes.h"
#include "svq/video/interval_set.h"

namespace svq::storage {

/// Encoding of the per-type individual sequences of paper §4.2: for each
/// object type the positive-clip runs `P_{o_i}` and for each action type
/// `P_{a_j}`, materialized at ingestion time and loaded at query time.
/// One entry holds one label and its sequences in the clip domain as
/// half-open intervals; an entry opens each section of a video file
/// (docs/storage.md).
class SequenceStore {
 public:
  /// One label and its individual sequences.
  using Entry = std::pair<std::string, video::IntervalSet>;

  /// Longest label an entry may carry.
  static constexpr uint64_t kMaxLabelLength = 1u << 20;

  /// Appends one entry to `out`: the label (uint64 length + bytes), the
  /// interval count (uint64), then every interval as (int64 begin,
  /// int64 end).
  static void AppendEntry(std::string_view label,
                          const video::IntervalSet& sequences,
                          std::string* out);

  /// Reads one entry written by AppendEntry from `in`. Every count is
  /// bounded by the bytes that remain before anything is allocated.
  /// `source` names the bytes in error messages. Errors: Corruption
  /// (truncated, malformed, or hostile bytes).
  static Result<Entry> ParseEntry(io::ByteReader* in,
                                  const std::string& source);
};

}  // namespace svq::storage

#endif  // SVQ_STORAGE_SEQUENCE_STORE_H_
