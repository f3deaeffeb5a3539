#include "svq/core/repository.h"

#include <chrono>
#include <cstddef>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "svq/common/rng.h"
#include "svq/core/baselines.h"
#include "svq/core/engine.h"
#include "svq/models/synthetic_models.h"

namespace svq::core {
namespace {

using video::SyntheticVideo;
using video::SyntheticVideoSpec;

std::shared_ptr<const SyntheticVideo> MakeVideo(const std::string& name,
                                                uint64_t seed) {
  SyntheticVideoSpec spec;
  spec.name = name;
  spec.num_frames = 40000;
  spec.seed = seed;
  spec.actions.push_back({"smoking", 350.0, 4500.0});
  video::SyntheticObjectSpec cup;
  cup.label = "cup";
  cup.correlate_with_action = "smoking";
  cup.correlation = 0.9;
  cup.coverage = 0.9;
  cup.mean_on_frames = 250.0;
  cup.mean_off_frames = 2600.0;
  spec.objects.push_back(cup);
  auto video = SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

Result<IngestedVideo> Ingest(
    const std::shared_ptr<const SyntheticVideo>& video, video::VideoId id) {
  models::ModelSet models =
      models::MakeModelSet(video, models::MaskRcnnI3dSuite(), {}, {});
  return IngestVideo(video, id, models.tracker.get(),
                     models.recognizer.get(), IngestOptions());
}

Query SmokingCup() {
  Query q;
  q.action = "smoking";
  q.objects = {"cup"};
  return q;
}

TEST(RepositoryTest, GlobalTopKMatchesPerVideoMerge) {
  auto ingested_a = Ingest(MakeVideo("movie_a", 5), 0);
  auto ingested_b = Ingest(MakeVideo("movie_b", 6), 1);
  ASSERT_TRUE(ingested_a.ok());
  ASSERT_TRUE(ingested_b.ok());

  AdditiveScoring scoring;
  const int k = 4;
  auto repo = RunRepositoryTopK({&*ingested_a, &*ingested_b}, SmokingCup(),
                                k, scoring, OfflineOptions());
  ASSERT_TRUE(repo.ok()) << repo.status();
  ASSERT_LE(repo->sequences.size(), static_cast<size_t>(k));

  // Oracle: exhaustive per-video scoring, merged.
  struct Oracle {
    std::string video;
    video::Interval clips;
    double score;
  };
  std::vector<Oracle> oracle;
  const storage::DiskCostModel cost;
  for (const auto* ingested : {&*ingested_a, &*ingested_b}) {
    auto all = RunPqTraverse(*ingested, SmokingCup(), 1000, scoring, cost);
    ASSERT_TRUE(all.ok());
    for (const auto& seq : all->sequences) {
      oracle.push_back({ingested->name, seq.clips, seq.upper_bound});
    }
  }
  std::sort(oracle.begin(), oracle.end(),
            [](const Oracle& a, const Oracle& b) { return a.score > b.score; });
  ASSERT_GE(oracle.size(), repo->sequences.size());
  for (size_t i = 0; i < repo->sequences.size(); ++i) {
    EXPECT_EQ(repo->sequences[i].video_name, oracle[i].video) << "rank " << i;
    EXPECT_EQ(repo->sequences[i].sequence.clips, oracle[i].clips)
        << "rank " << i;
    EXPECT_NEAR(repo->sequences[i].sequence.upper_bound, oracle[i].score,
                1e-6);
  }
}

TEST(RepositoryTest, ResultsAttributedToVideos) {
  auto ingested_a = Ingest(MakeVideo("movie_a", 5), 7);
  ASSERT_TRUE(ingested_a.ok());
  AdditiveScoring scoring;
  auto repo = RunRepositoryTopK({&*ingested_a}, SmokingCup(), 2, scoring,
                                OfflineOptions());
  ASSERT_TRUE(repo.ok());
  for (const RepositoryEntry& entry : repo->sequences) {
    EXPECT_EQ(entry.video_id, 7);
    EXPECT_EQ(entry.video_name, "movie_a");
  }
  EXPECT_GT(repo->stats.storage.sorted_accesses, 0);
}

TEST(RepositoryTest, ValidatesInputs) {
  AdditiveScoring scoring;
  EXPECT_FALSE(
      RunRepositoryTopK({nullptr}, SmokingCup(), 2, scoring, OfflineOptions())
          .ok());
  auto ingested = Ingest(MakeVideo("movie_a", 5), 0);
  ASSERT_TRUE(ingested.ok());
  EXPECT_FALSE(RunRepositoryTopK({&*ingested}, SmokingCup(), 0, scoring,
                                 OfflineOptions())
                   .ok());
}

TEST(RepositoryTest, EngineFacadeEndToEnd) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(MakeVideo("movie_a", 5)).ok());
  ASSERT_TRUE(engine.AddVideo(MakeVideo("movie_b", 6)).ok());
  // Nothing ingested yet.
  EXPECT_EQ(engine.ExecuteTopKAll(SmokingCup(), 3).status().code(),
            StatusCode::kFailedPrecondition);
  // Parallel ingestion of the whole repository.
  ASSERT_TRUE(engine.IngestAll(/*parallelism=*/2).ok());
  EXPECT_NE(engine.Ingested("movie_a"), nullptr);
  EXPECT_NE(engine.Ingested("movie_b"), nullptr);
  // Idempotent: nothing left to ingest.
  EXPECT_TRUE(engine.IngestAll().ok());
  auto repo = engine.ExecuteTopKAll(SmokingCup(), 3);
  ASSERT_TRUE(repo.ok()) << repo.status();
  EXPECT_LE(repo->sequences.size(), 3u);
  EXPECT_FALSE(repo->sequences.empty());
  // Scores come back ranked.
  for (size_t i = 1; i < repo->sequences.size(); ++i) {
    EXPECT_GE(repo->sequences[i - 1].sequence.lower_bound,
              repo->sequences[i].sequence.lower_bound - 1e-9);
  }
}

TEST(RepositoryTest, ParallelIngestionMatchesSerial) {
  // The models are deterministic per video, so concurrent ingestion must
  // produce byte-identical query results.
  VideoQueryEngine serial;
  ASSERT_TRUE(serial.AddVideo(MakeVideo("movie_a", 5)).ok());
  ASSERT_TRUE(serial.AddVideo(MakeVideo("movie_b", 6)).ok());
  ASSERT_TRUE(serial.Ingest("movie_a").ok());
  ASSERT_TRUE(serial.Ingest("movie_b").ok());

  VideoQueryEngine parallel;
  ASSERT_TRUE(parallel.AddVideo(MakeVideo("movie_a", 5)).ok());
  ASSERT_TRUE(parallel.AddVideo(MakeVideo("movie_b", 6)).ok());
  ASSERT_TRUE(parallel.IngestAll(/*parallelism=*/4).ok());

  auto from_serial = serial.ExecuteTopKAll(SmokingCup(), 5);
  auto from_parallel = parallel.ExecuteTopKAll(SmokingCup(), 5);
  ASSERT_TRUE(from_serial.ok());
  ASSERT_TRUE(from_parallel.ok());
  ASSERT_EQ(from_serial->sequences.size(), from_parallel->sequences.size());
  for (size_t i = 0; i < from_serial->sequences.size(); ++i) {
    EXPECT_EQ(from_serial->sequences[i].video_name,
              from_parallel->sequences[i].video_name);
    EXPECT_EQ(from_serial->sequences[i].sequence.clips,
              from_parallel->sequences[i].sequence.clips);
    EXPECT_DOUBLE_EQ(from_serial->sequences[i].sequence.upper_bound,
                     from_parallel->sequences[i].sequence.upper_bound);
  }
}

// --- Broadcasts through the snapshot label index (LabelIndex) ---

// Label pool of the random catalogs: "ball" is both an action and an object
// label, and the "ghost_" labels are carried by no video.
const char* const kActionPool[] = {"smoking", "jumping", "ball"};
const char* const kObjectPool[] = {"cup", "car", "ball"};

/// A video carrying a seeded random subset of the label pool.
std::shared_ptr<const SyntheticVideo> RandomVideo(const std::string& name,
                                                  Rng& rng) {
  SyntheticVideoSpec spec;
  spec.name = name;
  spec.num_frames = 8000;
  spec.seed = rng.NextUint64();
  for (const char* action : kActionPool) {
    if (rng.NextBernoulli(0.6)) spec.actions.push_back({action, 300.0, 1500.0});
  }
  for (const char* label : kObjectPool) {
    if (!rng.NextBernoulli(0.6)) continue;
    video::SyntheticObjectSpec object;
    object.label = label;
    object.mean_on_frames = 250.0;
    object.mean_off_frames = 2000.0;
    if (!spec.actions.empty()) {
      object.correlate_with_action = spec.actions.front().label;
      object.correlation = 0.8;
      object.coverage = 0.9;
    }
    spec.objects.push_back(object);
  }
  auto video = SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok()) << video.status();
  return *video;
}

/// A random conjunctive statement over the pool plus the ghost labels,
/// extra actions included.
Query RandomQuery(Rng& rng) {
  std::vector<std::string> actions(std::begin(kActionPool),
                                   std::end(kActionPool));
  actions.push_back("ghost_action");
  std::vector<std::string> objects(std::begin(kObjectPool),
                                   std::end(kObjectPool));
  objects.push_back("ghost_object");
  Query query;
  query.action = actions[rng.NextUint64(actions.size())];
  for (const std::string& action : actions) {
    if (action != query.action && rng.NextBernoulli(0.2)) {
      query.extra_actions.push_back(action);
    }
  }
  for (const std::string& object : objects) {
    if (rng.NextBernoulli(0.35)) query.objects.push_back(object);
  }
  return query;
}

/// Every ingested video of `snapshot`, in name order: the unfiltered
/// fan-out a broadcast must equal.
std::vector<const IngestedVideo*> AllIngested(const CatalogSnapshot& snapshot) {
  std::vector<const IngestedVideo*> all;
  for (const auto& [name, entry] : snapshot.videos) {
    if (entry.ingested != nullptr) all.push_back(entry.ingested.get());
  }
  return all;
}

/// Sequences and bounds bit for bit, storage and candidate counters
/// exactly.
void ExpectSameAnswer(const RepositoryResult& got,
                      const RepositoryResult& want, const std::string& what) {
  ASSERT_EQ(got.sequences.size(), want.sequences.size()) << what;
  for (size_t i = 0; i < got.sequences.size(); ++i) {
    const RepositoryEntry& lhs = got.sequences[i];
    const RepositoryEntry& rhs = want.sequences[i];
    EXPECT_EQ(lhs.video_id, rhs.video_id) << what << " rank " << i;
    EXPECT_EQ(lhs.video_name, rhs.video_name) << what << " rank " << i;
    EXPECT_EQ(lhs.sequence.clips, rhs.sequence.clips) << what << " rank " << i;
    EXPECT_EQ(lhs.sequence.lower_bound, rhs.sequence.lower_bound)
        << what << " rank " << i;
    EXPECT_EQ(lhs.sequence.upper_bound, rhs.sequence.upper_bound)
        << what << " rank " << i;
  }
  EXPECT_EQ(got.stats.storage.sorted_accesses,
            want.stats.storage.sorted_accesses) << what;
  EXPECT_EQ(got.stats.storage.random_accesses,
            want.stats.storage.random_accesses) << what;
  EXPECT_EQ(got.stats.storage.sequential_reads,
            want.stats.storage.sequential_reads) << what;
  EXPECT_EQ(got.stats.candidate_sequences, want.stats.candidate_sequences)
      << what;
  EXPECT_EQ(got.stats.candidate_clips, want.stats.candidate_clips) << what;
  EXPECT_EQ(got.stats.iterator_calls, want.stats.iterator_calls) << what;
}

std::string Describe(const Query& query, int k, int threads) {
  return query.ToString() + " k=" + std::to_string(k) +
         " threads=" + std::to_string(threads);
}

TEST(RepositoryTest, LabelIndexBroadcastMatchesFullFanOut) {
  Rng rng(2024);
  VideoQueryEngine engine;
  // v0..v5 are ingested, some one by one and the rest in one IngestAll;
  // v6 and v7 stay registered but not ingested.
  for (int i = 0; i < 8; ++i) {
    const std::string name = "v" + std::to_string(i);
    ASSERT_TRUE(engine.AddVideo(RandomVideo(name, rng)).ok());
    if (i < 5 && rng.NextBernoulli(0.5)) {
      ASSERT_TRUE(engine.Ingest(name).ok());
    }
    if (i == 5) {
      ASSERT_TRUE(engine.IngestAll(/*parallelism=*/2).ok());
    }
  }
  const SnapshotPtr pin = engine.Pin();
  const std::vector<const IngestedVideo*> all = AllIngested(*pin);
  ASSERT_EQ(all.size(), 6u);

  const AdditiveScoring scoring;
  int answered = 0;
  int narrowed = 0;
  int unmatched = 0;
  for (int n = 0; n < 16; ++n) {
    const Query query = RandomQuery(rng);
    const size_t matching = pin->label_index->Matching(query).size();
    if (matching == 0) ++unmatched;
    if (matching > 0 && matching < all.size()) ++narrowed;
    for (const int k : {1, 5, 50}) {
      for (const int threads : {1, 4}) {
        const std::string what = Describe(query, k, threads);
        OfflineOptions options;
        options.runtime.num_threads = threads;
        auto got = ExecuteTopKAllOn(pin, query, k, options);
        auto want = RunRepositoryTopK(all, query, k, scoring, options);
        ASSERT_TRUE(got.ok()) << what << ": " << got.status();
        ASSERT_TRUE(want.ok()) << what << ": " << want.status();
        ExpectSameAnswer(*got, *want, what);
        if (!got->sequences.empty()) ++answered;
      }
    }
  }
  // The seeded draw exercises every side of the filter.
  EXPECT_GT(answered, 0);
  EXPECT_GT(narrowed, 0);
  EXPECT_GT(unmatched, 0);
}

TEST(RepositoryTest, LabelIndexBroadcastKeepsTheFanOutStatuses) {
  Query ghost;
  ghost.action = "ghost_action";
  ghost.objects = {"ghost_a", "ghost_b"};

  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(MakeVideo("movie_a", 5)).ok());
  ASSERT_TRUE(engine.AddVideo(MakeVideo("movie_b", 6)).ok());
  // Nothing ingested yet.
  EXPECT_EQ(ExecuteTopKAllOn(engine.Pin(), SmokingCup(), 3).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ExecuteTopKAllOn(engine.Pin(), ghost, 3).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.Ingest("movie_a").ok());
  const SnapshotPtr pin = engine.Pin();

  // k < 1, whether or not a video carries the labels.
  EXPECT_EQ(ExecuteTopKAllOn(pin, SmokingCup(), 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExecuteTopKAllOn(pin, ghost, 0).status().code(),
            StatusCode::kInvalidArgument);
  // An empty action.
  Query no_action = SmokingCup();
  no_action.action.clear();
  EXPECT_EQ(ExecuteTopKAllOn(pin, no_action, 3).status().code(),
            StatusCode::kInvalidArgument);
  // Relationships and any-of groups stay unimplemented offline even when no
  // video carries their labels.
  Query related = ghost;
  related.relationships.push_back({RelOp::kLeftOf, "ghost_a", "ghost_b"});
  EXPECT_EQ(ExecuteTopKAllOn(pin, related, 3).status().code(),
            StatusCode::kUnimplemented);
  Query any_of = ghost;
  any_of.object_disjunctions = {{"ghost_c", "ghost_d"}};
  EXPECT_EQ(ExecuteTopKAllOn(pin, any_of, 3).status().code(),
            StatusCode::kUnimplemented);
  // Labels no video carries: OK and empty, without a storage access.
  auto none = ExecuteTopKAllOn(pin, ghost, 3);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->sequences.empty());
  EXPECT_EQ(none->stats.storage.sorted_accesses +
                none->stats.storage.random_accesses,
            0);
  // An expired deadline.
  const ExecutionContext expired = ExecutionContext::WithDeadline(
      ExecutionContext::Clock::now() - std::chrono::seconds(1));
  EXPECT_EQ(ExecuteTopKAllOn(pin, ghost, 3, OfflineOptions(), expired)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ExecuteTopKAllOn(pin, SmokingCup(), 3, OfflineOptions(), expired)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
}

/// Label -> names of the videos on its list, in list order.
using NameLists = std::map<std::string, std::vector<std::string>>;

NameLists Names(const LabelIndex::Lists& lists) {
  NameLists names;
  for (const auto& [label, videos] : lists) {
    for (const IngestedVideo* video : *videos) {
      names[label].push_back(video->name);
    }
  }
  return names;
}

/// The index a snapshot must carry, rebuilt from its entries: per label,
/// the ingested videos whose posting list for it is non-empty, in name
/// order.
std::pair<NameLists, NameLists> Rebuilt(const CatalogSnapshot& snapshot) {
  NameLists objects;
  NameLists actions;
  for (const auto& [name, entry] : snapshot.videos) {
    if (entry.ingested == nullptr) continue;
    for (const auto& [label, sequences] : entry.ingested->object_sequences) {
      if (!sequences.empty()) objects[label].push_back(name);
    }
    for (const auto& [label, sequences] : entry.ingested->action_sequences) {
      if (!sequences.empty()) actions[label].push_back(name);
    }
  }
  return {objects, actions};
}

/// Every list of `before` whose label `added` does not carry is shared
/// with `after`; the lists of the labels it carries are new.
void ExpectOnlyCarriedListsCopied(const LabelIndex& before,
                                  const LabelIndex& after,
                                  const IngestedVideo& added) {
  for (const auto& [label, list] : before.objects) {
    const video::IntervalSet* sequences = added.ObjectSequences(label);
    const bool carried = sequences != nullptr && !sequences->empty();
    EXPECT_EQ(after.objects.at(label) == list, !carried) << label;
  }
  for (const auto& [label, list] : before.actions) {
    const video::IntervalSet* sequences = added.ActionSequences(label);
    const bool carried = sequences != nullptr && !sequences->empty();
    EXPECT_EQ(after.actions.at(label) == list, !carried) << label;
  }
}

TEST(RepositoryTest, LabelIndexStaysEqualToARebuildThroughCatalogChurn) {
  enum Op { kAddVideo, kIngest, kIngestAll, kAddIngested, kSetSuite };
  Rng rng(91);
  VideoQueryEngine engine;
  std::vector<std::string> pending;
  std::map<int, int> ops_run;
  for (int step = 0; step < 24; ++step) {
    Op op = static_cast<Op>(rng.NextUint64(5));
    if ((op == kIngest || op == kIngestAll) && pending.empty()) op = kAddVideo;
    const SnapshotPtr before = engine.Pin();
    std::string added;  // the one video this step ingests, if any
    switch (op) {
      case kAddVideo: {
        const std::string name = "v" + std::to_string(step);
        ASSERT_TRUE(engine.AddVideo(RandomVideo(name, rng)).ok());
        pending.push_back(name);
        break;
      }
      case kIngest: {
        const size_t pick = rng.NextUint64(pending.size());
        added = pending[pick];
        pending.erase(pending.begin() + static_cast<ptrdiff_t>(pick));
        ASSERT_TRUE(engine.Ingest(added).ok());
        break;
      }
      case kIngestAll:
        ASSERT_TRUE(engine.IngestAll(/*parallelism=*/2).ok());
        pending.clear();
        break;
      case kAddIngested: {
        added = "opened_" + std::to_string(step);
        auto artifacts = Ingest(RandomVideo(added, rng), 1000 + step);
        ASSERT_TRUE(artifacts.ok()) << artifacts.status();
        ASSERT_TRUE(engine
                        .AddIngested(std::make_shared<const IngestedVideo>(
                            std::move(artifacts).value()))
                        .ok());
        break;
      }
      case kSetSuite: {
        models::ModelSuite suite = engine.suite();
        suite.seed = rng.NextUint64();
        engine.set_suite(suite);
        break;
      }
    }
    ++ops_run[op];
    const SnapshotPtr after = engine.Pin();
    const std::string what = "step " + std::to_string(step) + " op " +
                             std::to_string(static_cast<int>(op));
    const auto [objects, actions] = Rebuilt(*after);
    EXPECT_EQ(Names(after->label_index->objects), objects) << what;
    EXPECT_EQ(Names(after->label_index->actions), actions) << what;
    EXPECT_EQ(after->label_index->ingested,
              static_cast<int64_t>(AllIngested(*after).size()))
        << what;
    if (op == kAddVideo || op == kSetSuite) {
      EXPECT_EQ(after->label_index, before->label_index) << what;
    }
    if (!added.empty()) {
      ExpectOnlyCarriedListsCopied(*before->label_index, *after->label_index,
                                   *after->Find(added)->ingested);
    }
  }
  // The seeded mix ran every kind of publish.
  EXPECT_EQ(ops_run.size(), 5u);
}

}  // namespace
}  // namespace svq::core
