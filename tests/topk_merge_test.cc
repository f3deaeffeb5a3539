// The shared top-K merge (svq/core/topk_merge.h) was extracted from the
// repository fan-out so the cluster router's cross-shard gather and the
// in-process fan-out rank results identically. These tests pin that
// refactor: MergeRepositoryTopK must be bit-identical to a plain sort by
// (score descending, video name, clip begin), on ties, on NaN-free score
// ladders, and on k edge cases; and merging contiguous name ranges by
// (range, rank), as the router does, must give the same answer.

#include "svq/core/topk_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace svq::core {
namespace {

/// The repository's pre-extraction merge with its tie-break moved from
/// video id to video name: sort by lower bound descending, ties by video
/// name then clip begin, then clamp to k. The tests below assert
/// element-wise equality against it.
void LegacyRepositoryMerge(std::vector<RepositoryEntry>* sequences, int k) {
  std::sort(sequences->begin(), sequences->end(),
            [](const RepositoryEntry& a, const RepositoryEntry& b) {
              if (a.sequence.lower_bound != b.sequence.lower_bound) {
                return a.sequence.lower_bound > b.sequence.lower_bound;
              }
              if (a.video_name != b.video_name) {
                return a.video_name < b.video_name;
              }
              return a.sequence.clips.begin < b.sequence.clips.begin;
            });
  if (sequences->size() > static_cast<size_t>(k)) {
    sequences->resize(static_cast<size_t>(k));
  }
}

RepositoryEntry Entry(video::VideoId id, int64_t begin, double score) {
  RepositoryEntry entry;
  entry.video_id = id;
  entry.video_name = "video_" + std::to_string(id);
  entry.sequence.clips = {begin, begin + 4};
  entry.sequence.lower_bound = score;
  entry.sequence.upper_bound = score + 0.25;
  return entry;
}

void ExpectIdentical(const std::vector<RepositoryEntry>& got,
                     const std::vector<RepositoryEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].video_id, want[i].video_id) << i;
    EXPECT_EQ(got[i].video_name, want[i].video_name) << i;
    EXPECT_EQ(got[i].sequence.clips.begin, want[i].sequence.clips.begin)
        << i;
    EXPECT_EQ(got[i].sequence.clips.end, want[i].sequence.clips.end) << i;
    // Bit-identical, not approximately equal: the merge must not touch the
    // certified bounds.
    EXPECT_DOUBLE_EQ(got[i].sequence.lower_bound,
                     want[i].sequence.lower_bound)
        << i;
    EXPECT_DOUBLE_EQ(got[i].sequence.upper_bound,
                     want[i].sequence.upper_bound)
        << i;
  }
}

TEST(TopKMergeTest, MatchesLegacyMergeOnTies) {
  // Equal scores across videos and within one video: the tie ladder
  // (video name, then clip begin) must come out exactly as the reference.
  std::vector<RepositoryEntry> entries = {
      Entry(2, 100, 0.5), Entry(1, 300, 0.5), Entry(1, 100, 0.5),
      Entry(3, 0, 0.5),   Entry(2, 50, 0.5),  Entry(1, 200, 0.9),
  };
  std::vector<RepositoryEntry> legacy = entries;
  LegacyRepositoryMerge(&legacy, 4);
  MergeRepositoryTopK(&entries, 4);
  ExpectIdentical(entries, legacy);
  EXPECT_DOUBLE_EQ(entries[0].sequence.lower_bound, 0.9);
}

TEST(TopKMergeTest, MatchesLegacyMergeOnRandomInputs) {
  // A seeded sweep over sizes and k values, with deliberately few distinct
  // scores so ties are common.
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int> video(1, 5);
  std::uniform_int_distribution<int64_t> begin(0, 40);
  std::uniform_int_distribution<int> score(0, 3);
  for (int size = 0; size <= 48; size += 3) {
    for (int k : {1, 2, 7, 48, 100}) {
      std::vector<RepositoryEntry> entries;
      entries.reserve(static_cast<size_t>(size));
      for (int i = 0; i < size; ++i) {
        entries.push_back(Entry(static_cast<video::VideoId>(video(rng)),
                                begin(rng), score(rng) * 0.25));
      }
      std::vector<RepositoryEntry> legacy = entries;
      LegacyRepositoryMerge(&legacy, k);
      MergeRepositoryTopK(&entries, k);
      ExpectIdentical(entries, legacy);
    }
  }
}

TEST(TopKMergeTest, TiesFollowVideoNamesNotIds) {
  // Ids follow insertion order; names are what a contiguous shard split
  // follows. "video_14" sorts before "video_5" although its id is larger.
  std::vector<RepositoryEntry> entries = {Entry(5, 92, 0.0),
                                          Entry(14, 14, 0.0),
                                          Entry(5, 10, 0.0)};
  MergeRepositoryTopK(&entries, 2);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].video_name, "video_14");
  EXPECT_EQ(entries[1].video_name, "video_5");
  EXPECT_EQ(entries[1].sequence.clips.begin, 10);
}

TEST(TopKMergeTest, ContiguousNameRangesMergeLikeTheWhole) {
  // The router's gather: each shard owns a contiguous range of sorted
  // names, answers with its own MergeRepositoryTopK, and the router merges
  // the answers by (shard, per-shard rank). Ids are random, so they agree
  // with name order only by chance.
  std::mt19937_64 rng(20261019);
  std::uniform_int_distribution<int> video(0, 31);
  std::uniform_int_distribution<int64_t> begin(0, 120);
  std::uniform_int_distribution<int> score(0, 3);
  std::vector<video::VideoId> ids(32);
  std::vector<std::string> names;
  for (size_t v = 0; v < ids.size(); ++v) {
    ids[v] = static_cast<video::VideoId>(v);
    names.push_back("long_" + std::to_string(v));
  }
  std::sort(names.begin(), names.end());
  for (int trial = 0; trial < 40; ++trial) {
    std::shuffle(ids.begin(), ids.end(), rng);
    std::vector<RepositoryEntry> whole;
    for (int i = 0; i < 64; ++i) {
      const int v = video(rng);
      RepositoryEntry entry = Entry(ids[static_cast<size_t>(v)], begin(rng),
                                    score(rng) * 0.25);
      entry.video_name = "long_" + std::to_string(v);
      whole.push_back(entry);
    }
    for (int parts : {2, 3, 4}) {
      for (int k : {1, 5, 17, 100}) {
        struct Gathered {
          size_t part;
          size_t rank;
          RepositoryEntry entry;
        };
        std::vector<Gathered> gathered;
        for (int part = 0; part < parts; ++part) {
          const size_t first = names.size() * part / parts;
          const size_t last = names.size() * (part + 1) / parts;
          std::vector<RepositoryEntry> mine;
          for (const RepositoryEntry& entry : whole) {
            if (entry.video_name >= names[first] &&
                (last == names.size() || entry.video_name < names[last])) {
              mine.push_back(entry);
            }
          }
          MergeRepositoryTopK(&mine, k);
          for (size_t rank = 0; rank < mine.size(); ++rank) {
            gathered.push_back({static_cast<size_t>(part), rank, mine[rank]});
          }
        }
        SortedTopKMerge(
            &gathered, k,
            [](const Gathered& g) { return g.entry.sequence.lower_bound; },
            [](const Gathered& a, const Gathered& b) {
              if (a.part != b.part) return a.part < b.part;
              return a.rank < b.rank;
            });
        std::vector<RepositoryEntry> routed;
        for (const Gathered& g : gathered) routed.push_back(g.entry);
        std::vector<RepositoryEntry> single = whole;
        MergeRepositoryTopK(&single, k);
        ExpectIdentical(routed, single);
      }
    }
  }
}

TEST(TopKMergeTest, KLargerThanInputKeepsEverything) {
  std::vector<RepositoryEntry> entries = {Entry(1, 0, 0.1),
                                          Entry(2, 0, 0.7)};
  MergeRepositoryTopK(&entries, 10);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].video_id, 2);
  EXPECT_EQ(entries[1].video_id, 1);
}

TEST(TopKMergeTest, NegativeKIsUnbounded) {
  std::vector<RepositoryEntry> entries = {
      Entry(1, 0, 0.1), Entry(2, 0, 0.7), Entry(3, 0, 0.4)};
  SortedTopKMerge(
      &entries, -1,
      [](const RepositoryEntry& e) { return e.sequence.lower_bound; },
      [](const RepositoryEntry& a, const RepositoryEntry& b) {
        return a.video_id < b.video_id;
      });
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].video_id, 2);
  EXPECT_EQ(entries[2].video_id, 1);
}

TEST(TopKMergeTest, CallerTieBreakDecidesEqualScores) {
  // The router merges gathered shard results with a (shard, rank) tie
  // break; this pins that SortedTopKMerge actually honors the caller's
  // comparator instead of an internal default.
  struct Tagged {
    int shard;
    int rank;
    double score;
  };
  std::vector<Tagged> entries = {
      {1, 0, 0.5}, {0, 1, 0.5}, {0, 0, 0.5}, {1, 1, 0.8}};
  SortedTopKMerge(
      &entries, 3, [](const Tagged& e) { return e.score; },
      [](const Tagged& a, const Tagged& b) {
        if (a.shard != b.shard) return a.shard < b.shard;
        return a.rank < b.rank;
      });
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].shard, 1);
  EXPECT_EQ(entries[0].rank, 1);
  EXPECT_EQ(entries[1].shard, 0);
  EXPECT_EQ(entries[1].rank, 0);
  EXPECT_EQ(entries[2].shard, 0);
  EXPECT_EQ(entries[2].rank, 1);
}

}  // namespace
}  // namespace svq::core
