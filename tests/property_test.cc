// Cross-module property tests (TEST_P sweeps): invariants the paper's
// formalism promises, checked over randomized inputs.

#include <cmath>

#include <gtest/gtest.h>

#include "svq/common/rng.h"
#include "svq/core/online_engine.h"
#include "svq/core/scoring.h"
#include "svq/eval/workloads.h"
#include "svq/models/synthetic_models.h"
#include "svq/stats/kernel_estimator.h"
#include "svq/video/interval_set.h"
#include "svq/video/video_stream.h"

namespace svq {
namespace {

// ---------------------------------------------------------------------------
// Interval coarsen/refine laws.

class CoarsenRefineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoarsenRefineTest, LawsHold) {
  Rng rng(GetParam());
  video::IntervalSet set;
  for (int i = 0; i < 6; ++i) {
    const int64_t begin = static_cast<int64_t>(rng.NextUint64(500));
    set.Add({begin, begin + 1 + static_cast<int64_t>(rng.NextUint64(40))});
  }
  const int64_t unit = 1 + static_cast<int64_t>(rng.NextUint64(15));
  const video::IntervalSet any = set.CoarsenAny(unit);
  const video::IntervalSet all = set.CoarsenAll(unit);

  // Fully-covered units are a subset of touched units.
  EXPECT_EQ(video::IntervalSet::Intersect(all, any), all);
  // Refining the touched units covers the original set.
  EXPECT_EQ(any.Refine(unit).OverlapLength(set), set.TotalLength());
  // Refining the fully-covered units stays inside the original set.
  const video::IntervalSet refined_all = all.Refine(unit);
  EXPECT_EQ(refined_all.OverlapLength(set), refined_all.TotalLength());
  // Unit 1 is the identity for both projections.
  EXPECT_EQ(set.CoarsenAny(1), set);
  EXPECT_EQ(set.CoarsenAll(1), set);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, CoarsenRefineTest,
                         ::testing::Range<uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// Scoring-function contract (paper §4.1).

class ScoringContractTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
 protected:
  const core::SequenceScoring& scoring(int which) const {
    if (which == 0) return additive_;
    return max_;
  }
  core::AdditiveScoring additive_;
  core::MaxScoring max_;
};

TEST_P(ScoringContractTest, MonotoneDecomposableDominant) {
  const auto [which, seed] = GetParam();
  const core::SequenceScoring& s = scoring(which);
  Rng rng(seed);
  std::vector<double> clips;
  for (int i = 0; i < 12; ++i) clips.push_back(rng.NextDouble(0.0, 10.0));

  // Replicate(x, 0) is the aggregate identity.
  EXPECT_DOUBLE_EQ(s.Replicate(3.7, 0), s.AggregateIdentity());
  // f decomposes over disjoint splits via the aggregation operator (Eq. 11).
  for (size_t split = 0; split <= clips.size(); ++split) {
    std::vector<double> left(clips.begin(), clips.begin() + split);
    std::vector<double> right(clips.begin() + split, clips.end());
    EXPECT_NEAR(s.SequenceScore(clips),
                s.Aggregate(s.SequenceScore(left), s.SequenceScore(right)),
                1e-9);
  }
  // Sub-sequence dominance: dropping clips never raises the score.
  std::vector<double> sub(clips.begin(), clips.begin() + clips.size() / 2);
  EXPECT_GE(s.SequenceScore(clips) + 1e-12, s.SequenceScore(sub));
  // Monotonicity of f in each clip score.
  std::vector<double> bumped = clips;
  bumped[3] += 1.0;
  EXPECT_GE(s.SequenceScore(bumped) + 1e-12, s.SequenceScore(clips));
  // Monotonicity of g in each argument.
  EXPECT_GE(s.ClipScore({2.0, 3.0}, 0.9) + 1e-12,
            s.ClipScore({2.0, 2.5}, 0.9));
  EXPECT_GE(s.ClipScore({2.0, 3.0}, 0.9) + 1e-12,
            s.ClipScore({2.0, 3.0}, 0.8));
  // Replicate agrees with folding.
  for (int n = 1; n <= 5; ++n) {
    EXPECT_NEAR(s.Replicate(2.5, n),
                s.SequenceScore(std::vector<double>(n, 2.5)), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothScorings, ScoringContractTest,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values<uint64_t>(1, 2, 3)));

// ---------------------------------------------------------------------------
// Kernel estimator unbiasedness across bandwidths and rates.

class EstimatorSweepTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EstimatorSweepTest, TracksConstantRate) {
  const auto [bandwidth, p] = GetParam();
  Rng rng(0xE57 + static_cast<uint64_t>(bandwidth) +
          static_cast<uint64_t>(p * 1e6));
  double sum = 0.0;
  const int replicas = 24;
  for (int r = 0; r < replicas; ++r) {
    auto est = *stats::KernelRateEstimator::Create({bandwidth, 0.5, 0});
    for (int t = 0; t < 6000; ++t) est.Step(rng.NextBernoulli(p));
    sum += est.rate();
  }
  const double stderr_bound =
      4.0 * std::sqrt(p / (2.0 * bandwidth) / replicas) + 0.004;
  EXPECT_NEAR(sum / replicas, p, stderr_bound)
      << "bandwidth=" << bandwidth << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    BandwidthRateGrid, EstimatorSweepTest,
    ::testing::Combine(::testing::Values(64.0, 256.0, 1024.0),
                       ::testing::Values(0.005, 0.05, 0.25)));

// ---------------------------------------------------------------------------
// Online engine: determinism and structural invariants across layouts.

struct EngineCase {
  int frames_per_shot;
  int shots_per_clip;
  uint64_t seed;
};

class EngineInvariantTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineInvariantTest, DeterministicAndWellFormed) {
  const EngineCase param = GetParam();
  video::SyntheticVideoSpec spec;
  spec.name = "prop";
  spec.num_frames = 30000;
  spec.seed = param.seed;
  spec.layout.frames_per_shot = param.frames_per_shot;
  spec.layout.shots_per_clip = param.shots_per_clip;
  spec.actions.push_back({"jumping", 400.0, 4500.0});
  video::SyntheticObjectSpec car;
  car.label = "car";
  car.correlate_with_action = "jumping";
  car.correlation = 0.9;
  car.coverage = 0.9;
  car.mean_on_frames = 250.0;
  car.mean_off_frames = 2400.0;
  spec.objects.push_back(car);
  auto video = video::SyntheticVideo::Generate(spec);
  ASSERT_TRUE(video.ok());

  core::Query query;
  query.action = "jumping";
  query.objects = {"car"};

  video::IntervalSet first;
  for (int run = 0; run < 2; ++run) {
    models::ModelSet models = models::MakeModelSet(
        *video, models::MaskRcnnI3dSuite(), {"car"}, {"jumping"});
    auto engine = core::OnlineEngine::Create(
        core::OnlineEngine::Mode::kSvaqd, query, core::OnlineConfig(),
        (*video)->layout(), models.detector.get(), models.recognizer.get());
    ASSERT_TRUE(engine.ok());
    video::SyntheticVideoStream stream(*video, 0);
    auto result = (*engine)->Run(stream);
    ASSERT_TRUE(result.ok());
    if (run == 0) {
      first = result->sequences;
    } else {
      EXPECT_EQ(result->sequences, first);
    }
    // Structural invariants: sequences within the clip range, disjoint and
    // normalized (IntervalSet guarantees disjointness; check the range).
    const int64_t num_clips = (*video)->NumClips();
    for (const video::Interval& seq : result->sequences.intervals()) {
      EXPECT_GE(seq.begin, 0);
      EXPECT_LE(seq.end, num_clips);
      EXPECT_LT(seq.begin, seq.end);
    }
    // Bookkeeping adds up.
    EXPECT_EQ(result->stats.clips_processed, num_clips);
    EXPECT_LE(result->stats.clips_positive, num_clips);
    EXPECT_LE(result->stats.clips_short_circuited,
              result->stats.clips_processed);
    EXPECT_GE(result->stats.model_ms, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LayoutSeedGrid, EngineInvariantTest,
    ::testing::Values(EngineCase{10, 5, 1}, EngineCase{16, 5, 2},
                      EngineCase{16, 8, 3}, EngineCase{24, 4, 4},
                      EngineCase{12, 10, 5}, EngineCase{16, 5, 6}));

// ---------------------------------------------------------------------------
// Workload determinism: the full Table 1 generator is a pure function of
// (seed, scale).

TEST(WorkloadDeterminismTest, SameSeedSameGroundTruth) {
  auto a = eval::YouTubeWorkload(1207, 0.02);
  auto b = eval::YouTubeWorkload(1207, 0.02);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    ASSERT_EQ((*a)[i].videos.size(), (*b)[i].videos.size());
    for (size_t v = 0; v < (*a)[i].videos.size(); ++v) {
      const auto& gt_a = (*a)[i].videos[v]->ground_truth();
      const auto& gt_b = (*b)[i].videos[v]->ground_truth();
      EXPECT_EQ(gt_a.ActionPresence((*a)[i].query.action),
                gt_b.ActionPresence((*b)[i].query.action));
      EXPECT_EQ(gt_a.instances().size(), gt_b.instances().size());
    }
  }
}

}  // namespace
}  // namespace svq
