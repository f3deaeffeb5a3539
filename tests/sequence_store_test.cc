// SequenceStore entries are the head of every section of a video file
// (docs/storage.md): one label and its individual sequences.

#include "svq/storage/sequence_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "svq/io/bytes.h"

namespace svq::storage {
namespace {

using SequenceMap = std::map<std::string, video::IntervalSet>;

/// Encodes every entry of `sequences` back to back.
std::string EncodeAll(const SequenceMap& sequences) {
  std::string bytes;
  for (const auto& [label, set] : sequences) {
    SequenceStore::AppendEntry(label, set, &bytes);
  }
  return bytes;
}

/// Parses entries until the bytes run out.
Result<SequenceMap> ParseAll(const std::string& bytes) {
  io::ByteReader in(bytes);
  SequenceMap sequences;
  while (in.remaining() > 0) {
    SVQ_ASSIGN_OR_RETURN(SequenceStore::Entry entry,
                         SequenceStore::ParseEntry(&in, "entries"));
    sequences.emplace(std::move(entry.first), std::move(entry.second));
  }
  return sequences;
}

TEST(SequenceStoreTest, RoundTrip) {
  SequenceMap sequences;
  sequences["car"] = video::IntervalSet({{0, 3}, {10, 14}});
  sequences["jumping"] = video::IntervalSet({{2, 5}});
  sequences["empty_label"] = video::IntervalSet();
  auto loaded = ParseAll(EncodeAll(sequences));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, sequences);
}

TEST(SequenceStoreTest, EmptyMap) {
  // An entry with no intervals is its label and a zero count.
  std::string bytes;
  SequenceStore::AppendEntry("cup", video::IntervalSet(), &bytes);
  EXPECT_EQ(bytes.size(), 8u + 3u + 8u);
  io::ByteReader in(bytes);
  auto entry = SequenceStore::ParseEntry(&in, "empty");
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(entry->first, "cup");
  EXPECT_TRUE(entry->second.empty());
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(SequenceStoreTest, Truncated) {
  SequenceMap sequences;
  sequences["car"] = video::IntervalSet({{0, 3}, {10, 14}});
  const std::string bytes = EncodeAll(sequences);
  for (size_t n = 0; n < bytes.size(); ++n) {
    io::ByteReader in(std::string_view(bytes).substr(0, n));
    auto entry = SequenceStore::ParseEntry(&in, "cut");
    ASSERT_FALSE(entry.ok()) << "length " << n;
    EXPECT_TRUE(entry.status().IsCorruption()) << entry.status();
  }
}

TEST(SequenceStoreTest, HostileIntervalCountIsCorruptionNotOOM) {
  // An entry claiming 2^60 intervals: ParseEntry must reject the count
  // against the bytes that actually remain, not reserve() for it.
  std::string bytes;
  io::AppendLengthPrefixedString(&bytes, "cup");
  io::AppendValue(&bytes, static_cast<uint64_t>(1) << 60);     // intervals
  io::AppendValue(&bytes, int64_t{0});
  io::AppendValue(&bytes, int64_t{1});
  io::ByteReader in(bytes);
  EXPECT_TRUE(SequenceStore::ParseEntry(&in, "hostile").status().IsCorruption());
}

TEST(SequenceStoreTest, HostileLabelLengthIsCorruptionNotOOM) {
  std::string bytes;
  io::AppendValue(&bytes, static_cast<uint64_t>(1) << 59);     // label length
  io::ByteReader in(bytes);
  EXPECT_TRUE(SequenceStore::ParseEntry(&in, "hostile").status().IsCorruption());
  // A label longer than the bound is refused even when its bytes exist.
  bytes.clear();
  io::AppendLengthPrefixedString(
      &bytes, std::string(SequenceStore::kMaxLabelLength + 1, 'x'));
  io::AppendValue(&bytes, uint64_t{0});
  io::ByteReader oversized(bytes);
  EXPECT_TRUE(
      SequenceStore::ParseEntry(&oversized, "oversized").status().IsCorruption());
}

TEST(SequenceStoreTest, UnicodeAndSpecialLabels) {
  // Labels are stored verbatim: no two labels can collide, whatever
  // characters they hold.
  SequenceMap sequences;
  sequences["robot dancing"] = video::IntervalSet({{1, 2}});
  sequences["robot_dancing"] = video::IntervalSet({{5, 6}});
  sequences["naïve_label"] = video::IntervalSet({{3, 4}});
  sequences["a/b"] = video::IntervalSet({{7, 9}});
  auto loaded = ParseAll(EncodeAll(sequences));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, sequences);
}

TEST(SequenceStoreTest, InvertedIntervalIsCorruption) {
  std::string bytes;
  io::AppendLengthPrefixedString(&bytes, "cup");
  io::AppendValue(&bytes, uint64_t{1});
  io::AppendValue(&bytes, int64_t{9});
  io::AppendValue(&bytes, int64_t{4});
  io::ByteReader in(bytes);
  EXPECT_TRUE(SequenceStore::ParseEntry(&in, "inverted").status().IsCorruption());
}

}  // namespace
}  // namespace svq::storage
