#include "svq/storage/sequence_store.h"

#include <cstdint>
#include <vector>

namespace svq::storage {

void SequenceStore::AppendEntry(std::string_view label,
                                const video::IntervalSet& sequences,
                                std::string* out) {
  io::AppendLengthPrefixedString(out, label);
  io::AppendValue(out, static_cast<uint64_t>(sequences.size()));
  for (const video::Interval& interval : sequences.intervals()) {
    io::AppendValue(out, interval.begin);
    io::AppendValue(out, interval.end);
  }
}

Result<SequenceStore::Entry> SequenceStore::ParseEntry(
    io::ByteReader* in, const std::string& source) {
  Entry entry;
  if (!in->ReadLengthPrefixedString(&entry.first, kMaxLabelLength)) {
    return Status::Corruption("bad label in " + source);
  }
  uint64_t interval_count = 0;
  if (!in->Read(&interval_count)) {
    return Status::Corruption("truncated " + source);
  }
  // An interval is two int64s: bound the untrusted count against the
  // bytes that actually remain before reserving a single element — a
  // corrupt 2^60 must fail cleanly, not OOM (hostile-file hardening).
  if (interval_count > in->remaining() / (2 * sizeof(int64_t))) {
    return Status::Corruption("interval count exceeds section length in " +
                              source);
  }
  std::vector<video::Interval> intervals;
  intervals.reserve(static_cast<size_t>(interval_count));
  for (uint64_t i = 0; i < interval_count; ++i) {
    video::Interval interval;
    in->Read(&interval.begin);
    in->Read(&interval.end);
    if (interval.end < interval.begin) {
      return Status::Corruption("inverted interval in " + source);
    }
    intervals.push_back(interval);
  }
  entry.second = video::IntervalSet(std::move(intervals));
  return entry;
}

}  // namespace svq::storage
