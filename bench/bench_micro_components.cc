// Micro benchmarks of the core components: scan-statistic tails, critical
// values, the kernel estimator, interval algebra, and score-table access
// paths. These quantify the per-clip algorithm overhead that the paper's
// §5.2 reports as <2% of query latency.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "svq/common/rng.h"
#include "svq/core/clip_indicator.h"
#include "svq/core/critical_values.h"
#include "svq/models/synthetic_models.h"
#include "svq/stats/kernel_estimator.h"
#include "svq/stats/scan_statistics.h"
#include "svq/storage/score_table.h"
#include "svq/video/interval_set.h"
#include "svq/video/video_stream.h"

namespace {

void BM_ScanTailProbability(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  const int k = window / 4 + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        svq::stats::ScanTailProbability(k, {1e-3, window, 200.0}));
  }
}
BENCHMARK(BM_ScanTailProbability)->Arg(25)->Arg(80)->Arg(250);

void BM_CriticalValue(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        svq::stats::CriticalValue({1e-3, window, 200.0}, 0.05));
  }
}
BENCHMARK(BM_CriticalValue)->Arg(25)->Arg(80)->Arg(250);

void BM_CriticalValueTableGet(benchmark::State& state) {
  const svq::core::CriticalValueTable& table =
      svq::core::CriticalValueTable::For(80, 200.0, 0.05);
  svq::Rng rng(1);
  benchmark::DoNotOptimize(table.Get(2e-3));  // fills the levels read below
  for (auto _ : state) {
    // Rates wander a little, as SVAQD's estimates do.
    const double p = 1e-3 * (1.0 + 0.1 * rng.NextDouble());
    benchmark::DoNotOptimize(table.Get(p));
  }
}
BENCHMARK(BM_CriticalValueTableGet);

// The first Get on a fresh table fills level 1: one breakpoint bisection.
void BM_CriticalValueTableFirstFill(benchmark::State& state) {
  const double p = 1e-9 * static_cast<double>(state.range(0));
  for (auto _ : state) {
    svq::core::CriticalValueTable table(80, 200.0, 0.05);
    benchmark::DoNotOptimize(table.Get(p));
  }
}
BENCHMARK(BM_CriticalValueTableFirstFill)->Arg(1);

void BM_KernelEstimatorStep(benchmark::State& state) {
  auto est = *svq::stats::KernelRateEstimator::Create({4096.0, 1e-4, 0});
  svq::Rng rng(2);
  for (auto _ : state) {
    est.Step(rng.NextBernoulli(0.01));
    benchmark::DoNotOptimize(est.rate());
  }
}
BENCHMARK(BM_KernelEstimatorStep);

void BM_IntervalIntersect(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  svq::video::IntervalSet a, b;
  for (int i = 0; i < n; ++i) {
    a.Add({i * 10, i * 10 + 6});
    b.Add({i * 10 + 3, i * 10 + 9});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(svq::video::IntervalSet::Intersect(a, b));
  }
}
BENCHMARK(BM_IntervalIntersect)->Arg(100)->Arg(10000);

void BM_EvaluateClip(benchmark::State& state) {
  svq::video::SyntheticVideoSpec spec;
  spec.name = "micro";
  spec.num_frames = 80000;
  spec.seed = 5;
  spec.actions.push_back({"jumping", 400.0, 4500.0});
  svq::video::SyntheticObjectSpec car;
  car.label = "car";
  car.correlate_with_action = "jumping";
  car.correlation = 0.9;
  car.coverage = 0.9;
  car.mean_on_frames = 250.0;
  car.mean_off_frames = 2400.0;
  spec.objects.push_back(car);
  auto video = *svq::video::SyntheticVideo::Generate(spec);
  svq::core::Query query;
  query.action = "jumping";
  query.objects = {"car"};
  auto models = svq::models::MakeModelSet(
      video, svq::models::MaskRcnnI3dSuite(), {"car"}, {"jumping"});
  const svq::core::OnlineConfig config;
  svq::video::SyntheticVideoStream stream(video, 0);
  std::vector<svq::video::ClipRef> clips;
  while (auto clip = stream.NextClip()) clips.push_back(*clip);
  svq::core::FrameTable frames(models.detector.get(), config.object_threshold);
  svq::core::ShotTable shots(models.recognizer.get());
  const svq::core::ClipPredicates predicates =
      svq::core::PrepareClipPredicates(query, &frames, &shots);
  svq::core::ClipEvaluation eval;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svq::core::EvaluateClip(
        clips[i++ % clips.size()], predicates, config, {2}, {2}, &frames,
        &shots, {}, &eval));
  }
}
BENCHMARK(BM_EvaluateClip);

constexpr int64_t kTableClips = 50000;

/// A table of one row per clip, encoded and parsed again: the table a
/// catalog reopen serves.
std::unique_ptr<svq::storage::ScoreTable> ReopenedTable() {
  std::vector<svq::storage::ClipScoreRow> rows;
  svq::Rng rng(9);
  for (int64_t i = 0; i < kTableClips; ++i) {
    rows.push_back({i, rng.NextDouble()});
  }
  auto built = *svq::storage::ScoreTable::Create(std::move(rows), kTableClips);
  std::string bytes;
  built->AppendTo(&bytes);
  return *svq::storage::ScoreTable::Parse(bytes, kTableClips, "bench table");
}

void BM_TableRandomAccess(benchmark::State& state) {
  const auto table = ReopenedTable();
  svq::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->ScoreOf(
        static_cast<int64_t>(rng.NextUint64(kTableClips))));
  }
}
BENCHMARK(BM_TableRandomAccess);

void BM_TableSortedAccess(benchmark::State& state) {
  const auto table = ReopenedTable();
  int64_t rank = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->RowAt(rank));
    if (++rank == table->NumRows()) rank = 0;
  }
}
BENCHMARK(BM_TableSortedAccess);

}  // namespace

BENCHMARK_MAIN();
