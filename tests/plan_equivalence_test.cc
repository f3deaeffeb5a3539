// Plan-equivalence property tests: the planner may reorder the candidate
// sweep and swap algorithms, but the query answer must match the serial
// canonical-order oracle — sweep permutations must produce bit-identical
// candidate sets, and every algorithm choice must rank the same clip
// sequences, with and without the cache, and while ingestion publishes
// new snapshots concurrently (run under -L tsan).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "svq/core/engine.h"
#include "svq/core/rvaq.h"
#include "svq/query/executor.h"

namespace svq::core {
namespace {

std::shared_ptr<const video::SyntheticVideo> DemoVideo(
    const std::string& name = "demo", uint64_t seed = 99) {
  video::SyntheticVideoSpec spec;
  spec.name = name;
  spec.num_frames = 30000;
  spec.seed = seed;
  spec.actions.push_back({"jumping", 350.0, 4200.0});
  for (const char* label : {"car", "human"}) {
    video::SyntheticObjectSpec obj;
    obj.label = label;
    obj.correlate_with_action = "jumping";
    obj.correlation = 0.85;
    obj.coverage = 0.9;
    obj.mean_on_frames = 250.0;
    obj.mean_off_frames = 2200.0;
    spec.objects.push_back(obj);
  }
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

Query JumpingCarHuman() {
  Query q;
  q.action = "jumping";
  q.objects = {"car", "human"};
  return q;
}

constexpr const char* kStatement =
    "SELECT MERGE(clipID), RANK(act, obj) "
    "FROM (PROCESS demo PRODUCE clipID, obj USING ObjectTracker, "
    "act USING ActionRecognizer) "
    "WHERE act='jumping' AND obj.include('car', 'human') "
    "ORDER BY RANK(act, obj) LIMIT 4";

/// Clip intervals of the ranked answer, for exact comparison across runs.
/// Score bounds are deliberately excluded: each algorithm certifies its own
/// bounds and accumulates rank sums in a different order, so the doubles can
/// differ in the last ulp even though the ranked sequences are identical
/// (engine_test's cross-algorithm test compares clips only for the same
/// reason).
std::vector<std::pair<int64_t, int64_t>> Flatten(const TopKResult& result) {
  std::vector<std::pair<int64_t, int64_t>> flat;
  for (const RankedSequence& sequence : result.sequences) {
    flat.emplace_back(sequence.clips.begin, sequence.clips.end);
  }
  return flat;
}

TEST(PlanEquivalenceTest, EverySweepPermutationYieldsTheSameCandidates) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo()).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());
  const std::shared_ptr<const IngestedVideo> ingested = engine.Ingested("demo");
  ASSERT_NE(ingested, nullptr);
  const Query query = JumpingCarHuman();

  auto oracle = CandidateSequences(*ingested, query);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_FALSE(oracle->empty());

  std::vector<SweepStep> steps = {{"jumping", /*is_action=*/true},
                                  {"car", /*is_action=*/false},
                                  {"human", /*is_action=*/false}};
  std::sort(steps.begin(), steps.end(),
            [](const SweepStep& a, const SweepStep& b) {
              return a.label < b.label;
            });
  int permutations = 0;
  do {
    auto ordered = CandidateSequencesOrdered(*ingested, query, steps);
    ASSERT_TRUE(ordered.ok()) << ordered.status();
    EXPECT_EQ(*ordered, *oracle);
    ++permutations;
  } while (std::next_permutation(
      steps.begin(), steps.end(),
      [](const SweepStep& a, const SweepStep& b) { return a.label < b.label; }));
  EXPECT_EQ(permutations, 6);
}

TEST(PlanEquivalenceTest, MalformedSweepOrdersAreRejected) {
  VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(DemoVideo()).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());
  const std::shared_ptr<const IngestedVideo> ingested = engine.Ingested("demo");
  ASSERT_NE(ingested, nullptr);
  const Query query = JumpingCarHuman();

  // Missing a predicate.
  EXPECT_TRUE(CandidateSequencesOrdered(*ingested, query,
                                        {{"jumping", true}, {"car", false}})
                  .status()
                  .IsInvalidArgument());
  // A predicate not in the query.
  EXPECT_TRUE(CandidateSequencesOrdered(
                  *ingested, query,
                  {{"jumping", true}, {"car", false}, {"dog", false}})
                  .status()
                  .IsInvalidArgument());
  // Duplicated predicate.
  EXPECT_TRUE(CandidateSequencesOrdered(
                  *ingested, query,
                  {{"car", false}, {"car", false}, {"jumping", true}})
                  .status()
                  .IsInvalidArgument());
  // Wrong posting-list family for the label.
  EXPECT_TRUE(CandidateSequencesOrdered(
                  *ingested, query,
                  {{"jumping", false}, {"car", false}, {"human", false}})
                  .status()
                  .IsInvalidArgument());
}

TEST(PlanEquivalenceTest, EveryAlgorithmChoiceMatchesTheOracle) {
  // Cache-enabled engine: each choice runs twice, cold then warm, and both
  // runs must match the uncached serial oracle exactly.
  VideoQueryEngine engine(models::ModelSuite(), OnlineConfig(),
                          IngestOptions(), svq::cache::CacheOptions::Enabled());
  ASSERT_TRUE(engine.AddVideo(DemoVideo()).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());

  query::StatementOptions oracle_options;
  oracle_options.algorithm = plan::AlgorithmChoice::kPqTraverse;
  oracle_options.offline.cache.use_result_cache = false;
  oracle_options.offline.cache.use_plan_cache = false;
  auto oracle =
      query::ExecuteStatement(&engine, kStatement, {}, oracle_options);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_TRUE(oracle->topk.has_value());
  const auto expected = Flatten(*oracle->topk);
  ASSERT_FALSE(expected.empty());

  const plan::AlgorithmChoice choices[] = {
      plan::AlgorithmChoice::kAuto, plan::AlgorithmChoice::kRvaq,
      plan::AlgorithmChoice::kRvaqNoSkip, plan::AlgorithmChoice::kFagin,
      plan::AlgorithmChoice::kPqTraverse};
  for (const plan::AlgorithmChoice choice : choices) {
    for (int run = 0; run < 2; ++run) {
      query::StatementOptions options;
      options.algorithm = choice;
      auto result = query::ExecuteStatement(&engine, kStatement, {}, options);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_TRUE(result->topk.has_value());
      EXPECT_EQ(Flatten(*result->topk), expected)
          << "choice=" << static_cast<int>(choice) << " run=" << run;
    }
  }
}

TEST(PlanEquivalenceTest, ResultsStableUnderConcurrentIngestChurn) {
  // Readers execute the statement with rotating algorithm choices while a
  // writer ingests new videos (each Publish swaps the snapshot and its
  // cache). Every result must equal the oracle: plans are snapshot-pinned,
  // so churn may only change *where* a plan comes from, never its answer.
  VideoQueryEngine engine(models::ModelSuite(), OnlineConfig(),
                          IngestOptions(), svq::cache::CacheOptions::Enabled());
  ASSERT_TRUE(engine.AddVideo(DemoVideo()).ok());
  ASSERT_TRUE(engine.Ingest("demo").ok());

  query::StatementOptions oracle_options;
  oracle_options.algorithm = plan::AlgorithmChoice::kPqTraverse;
  oracle_options.offline.cache.use_result_cache = false;
  oracle_options.offline.cache.use_plan_cache = false;
  auto oracle =
      query::ExecuteStatement(&engine, kStatement, {}, oracle_options);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  const auto expected = Flatten(*oracle->topk);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back([&, reader]() {
      const plan::AlgorithmChoice choices[] = {
          plan::AlgorithmChoice::kAuto, plan::AlgorithmChoice::kRvaq,
          plan::AlgorithmChoice::kFagin, plan::AlgorithmChoice::kPqTraverse};
      int iteration = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        query::StatementOptions options;
        options.algorithm = choices[(reader + iteration) % 4];
        auto result =
            query::ExecuteStatement(&engine, kStatement, {}, options);
        if (!result.ok() || !result->topk.has_value() ||
            Flatten(*result->topk) != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        ++iteration;
      }
    });
  }
  // Writer: register + ingest fresh videos, publishing new snapshots (and
  // fresh caches) under the readers' feet.
  for (int churn = 0; churn < 4; ++churn) {
    const std::string name = "churn_" + std::to_string(churn);
    ASSERT_TRUE(engine.AddVideo(DemoVideo(name, 1000 + churn)).ok());
    ASSERT_TRUE(engine.Ingest(name).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace svq::core
