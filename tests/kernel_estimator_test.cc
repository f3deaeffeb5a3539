#include "svq/stats/kernel_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "svq/common/rng.h"

namespace svq::stats {
namespace {

KernelRateEstimator Make(double bandwidth, double initial_p,
                         int64_t warmup = 0) {
  KernelRateEstimator::Options options;
  options.bandwidth = bandwidth;
  options.initial_p = initial_p;
  options.warmup_ous = warmup;
  auto result = KernelRateEstimator::Create(options);
  EXPECT_TRUE(result.ok());
  return *std::move(result);
}

TEST(KernelEstimatorTest, ValidatesOptions) {
  KernelRateEstimator::Options bad;
  bad.bandwidth = 0.0;
  EXPECT_FALSE(KernelRateEstimator::Create(bad).ok());
  bad.bandwidth = 10.0;
  bad.initial_p = 1.5;
  EXPECT_FALSE(KernelRateEstimator::Create(bad).ok());
  bad.initial_p = 0.1;
  bad.warmup_ous = -1;
  EXPECT_FALSE(KernelRateEstimator::Create(bad).ok());
}

TEST(KernelEstimatorTest, ReportsInitialBeforeData) {
  auto est = Make(100.0, 0.0123);
  EXPECT_DOUBLE_EQ(est.rate(), 0.0123);
}

TEST(KernelEstimatorTest, UnbiasedOnConstantStream) {
  // E[rate] = p for an i.i.d. Bernoulli(p) stream (the paper's
  // unbiasedness claim for Eq. 6 with constant background probability).
  const double p = 0.07;
  Rng rng(31337);
  double sum = 0.0;
  const int replicas = 40;
  for (int r = 0; r < replicas; ++r) {
    auto est = Make(200.0, 0.5);
    for (int t = 0; t < 4000; ++t) est.Step(rng.NextBernoulli(p));
    sum += est.rate();
  }
  EXPECT_NEAR(sum / replicas, p, 0.01);
}

TEST(KernelEstimatorTest, AllEventsConvergesToOne) {
  auto est = Make(64.0, 0.0);
  for (int t = 0; t < 2000; ++t) est.Step(true);
  EXPECT_NEAR(est.rate(), 1.0, 1e-6);
}

TEST(KernelEstimatorTest, NoEventsConvergesToZero) {
  auto est = Make(64.0, 0.9);
  for (int t = 0; t < 2000; ++t) est.Step(false);
  EXPECT_NEAR(est.rate(), 0.0, 1e-6);
}

TEST(KernelEstimatorTest, AdaptsToLevelShift) {
  // Concept drift: the rate jumps from 0.01 to 0.2; the estimate follows
  // within a few bandwidths.
  Rng rng(99);
  auto est = Make(256.0, 0.01);
  for (int t = 0; t < 5000; ++t) est.Step(rng.NextBernoulli(0.01));
  EXPECT_NEAR(est.rate(), 0.01, 0.01);
  for (int t = 0; t < 5000; ++t) est.Step(rng.NextBernoulli(0.2));
  EXPECT_NEAR(est.rate(), 0.2, 0.05);
}

TEST(KernelEstimatorTest, ForgetsInitialValue) {
  // SVAQD's key property (paper Fig. 2): two estimators with wildly
  // different priors agree after seeing the same data.
  Rng rng(17);
  auto low = Make(128.0, 1e-6);
  auto high = Make(128.0, 0.5);
  for (int t = 0; t < 3000; ++t) {
    const bool event = rng.NextBernoulli(0.05);
    low.Step(event);
    high.Step(event);
  }
  EXPECT_NEAR(low.rate(), high.rate(), 1e-9);
}

TEST(KernelEstimatorTest, WarmupBlendsPrior) {
  auto est = Make(1000.0, 0.5, /*warmup=*/1000);
  // A short all-zero prefix: with warmup, the estimate stays near the
  // prior early on instead of collapsing to zero.
  for (int t = 0; t < 10; ++t) est.Step(false);
  EXPECT_GT(est.rate(), 0.45);
}

TEST(KernelEstimatorTest, AdvanceEqualsStepsWithoutEvents) {
  auto a = Make(50.0, 0.1);
  auto b = Make(50.0, 0.1);
  a.Step(true);
  b.Step(true);
  for (int i = 0; i < 25; ++i) a.Step(false);
  b.Advance(25);
  EXPECT_NEAR(a.rate(), b.rate(), 1e-12);
  EXPECT_EQ(a.total_ous(), b.total_ous());
}

/// The recurrence as it stood before the one-unit decay was computed once
/// per estimator: std::exp on every Advance, including every Step.
struct PerStepReference {
  KernelRateEstimator::Options options;
  double kernel_sum = 0.0;
  int64_t t = 0;

  void Advance(int64_t delta_ous) {
    if (delta_ous <= 0) return;
    kernel_sum *= std::exp(-static_cast<double>(delta_ous) /
                           options.bandwidth);
    if (kernel_sum < std::numeric_limits<double>::min()) kernel_sum = 0.0;
    t += delta_ous;
  }
  void Step(bool event) {
    Advance(1);
    if (event) kernel_sum += 1.0;
  }
  double rate() const {
    if (t == 0) return options.initial_p;
    const double u = options.bandwidth;
    const double decay_step = -std::expm1(-1.0 / u);
    const double truncated = -std::expm1(-static_cast<double>(t) / u);
    double estimate = kernel_sum * decay_step / truncated;
    if (options.warmup_ous > 0 && t < options.warmup_ous) {
      const double w = static_cast<double>(t) /
                       static_cast<double>(options.warmup_ous);
      estimate = w * estimate + (1.0 - w) * options.initial_p;
    }
    return std::clamp(estimate, 0.0, 1.0);
  }
};

TEST(KernelEstimatorTest, HoistedDecayMatchesPerStepRecurrenceExactly) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    PerStepReference reference;
    reference.options.bandwidth = rng.NextDouble(1.0, 2000.0);
    reference.options.initial_p = rng.NextDouble();
    reference.options.warmup_ous =
        static_cast<int64_t>(rng.NextUint64(600));
    auto est = Make(reference.options.bandwidth, reference.options.initial_p,
                    reference.options.warmup_ous);
    const double p = rng.NextDouble(0.0, 0.3);
    for (int op = 0; op < 4000; ++op) {
      // Mostly unit steps, as the engines drive it; now and then a gap of
      // several units (or none) through Advance.
      if (rng.NextUint64(16) == 0) {
        const int64_t gap = static_cast<int64_t>(rng.NextUint64(5)) == 0
                                ? 0
                                : static_cast<int64_t>(rng.NextUint64(300));
        est.Advance(gap);
        reference.Advance(gap);
      } else {
        const bool event = rng.NextBernoulli(p);
        est.Step(event);
        reference.Step(event);
      }
      ASSERT_EQ(est.rate(), reference.rate())
          << "seed " << seed << " op " << op;
    }
    EXPECT_EQ(est.total_ous(), reference.t) << seed;
  }
}

TEST(KernelEstimatorTest, CountsEventsAndUnits) {
  auto est = Make(10.0, 0.1);
  est.Step(true);
  est.Step(false);
  est.Step(true);
  EXPECT_EQ(est.total_ous(), 3);
  EXPECT_EQ(est.total_events(), 2);
}

TEST(KernelEstimatorTest, RateStaysInUnitInterval) {
  auto est = Make(4.0, 0.5);
  for (int t = 0; t < 100; ++t) {
    est.Step(true);
    EXPECT_GE(est.rate(), 0.0);
    EXPECT_LE(est.rate(), 1.0);
  }
}

TEST(KernelEstimatorTest, LongGapDecaysToZeroAndStaysFinite) {
  // A gap many orders of magnitude beyond the bandwidth underflows the raw
  // kernel sum to exact zero. That is the correct limit of Eq. 6 (all past
  // kernel mass has decayed away): the estimate must be exactly 0, finite,
  // and free of denormal residue.
  auto est = Make(64.0, 0.25);
  for (int t = 0; t < 500; ++t) est.Step(true);
  EXPECT_NEAR(est.rate(), 1.0, 1e-3);
  est.Advance(int64_t{1} << 40);  // ~1.7e10 bandwidths of silence
  EXPECT_TRUE(std::isfinite(est.rate()));
  EXPECT_DOUBLE_EQ(est.rate(), 0.0);
}

TEST(KernelEstimatorTest, RecoversUnbiasedAfterLongGap) {
  // Regression for the ISSUE-flagged edge case: after a gap >> bandwidth
  // the estimator must remain unbiased on fresh data — the truncated mass
  // in rate() saturates at 1, so the post-gap estimate matches a fresh
  // estimator fed the same stream to within the washed-out edge term.
  const double p = 0.07;
  Rng rng(4242);
  double gap_sum = 0.0;
  double fresh_sum = 0.0;
  const int replicas = 40;
  for (int r = 0; r < replicas; ++r) {
    auto gap = Make(200.0, 0.5);
    auto fresh = Make(200.0, 0.5);
    for (int t = 0; t < 2000; ++t) gap.Step(rng.NextBernoulli(0.9));
    gap.Advance(int64_t{1} << 40);
    for (int t = 0; t < 4000; ++t) {
      const bool event = rng.NextBernoulli(p);
      gap.Step(event);
      fresh.Step(event);
    }
    gap_sum += gap.rate();
    fresh_sum += fresh.rate();
  }
  EXPECT_NEAR(gap_sum / replicas, p, 0.01);
  EXPECT_NEAR(gap_sum / replicas, fresh_sum / replicas, 1e-3);
}

TEST(KernelEstimatorTest, TotalOusSaturatesInsteadOfOverflowing) {
  auto est = Make(8.0, 0.1);
  est.Step(true);
  est.Advance(std::numeric_limits<int64_t>::max() - 10);
  est.Advance(std::numeric_limits<int64_t>::max());  // would overflow t_
  EXPECT_EQ(est.total_ous(), std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(std::isfinite(est.rate()));
  EXPECT_GE(est.rate(), 0.0);
  EXPECT_LE(est.rate(), 1.0);
  // Still usable after saturation: new events move the estimate.
  for (int t = 0; t < 500; ++t) est.Step(true);
  EXPECT_NEAR(est.rate(), 1.0, 1e-3);
}

}  // namespace
}  // namespace svq::stats
