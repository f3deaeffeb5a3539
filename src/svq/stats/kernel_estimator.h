#ifndef SVQ_STATS_KERNEL_ESTIMATOR_H_
#define SVQ_STATS_KERNEL_ESTIMATOR_H_

#include <cstdint>

#include "svq/common/result.h"

namespace svq::stats {

/// Online background-probability estimator of paper §3.3 (SVAQD).
///
/// The estimator smooths the stream of per-occurrence-unit events (positive
/// model predictions) with a one-sided exponential kernel of bandwidth `u`
/// and applies Diggle edge correction so that the estimate is unbiased when
/// the true background probability is constant (paper Eq. 6).
///
/// The recurrence is O(1) per occurrence unit:
///  - time advancing by `dt` OUs decays the estimate by
///    `exp(-dt/u) * (1 - exp(-t/u)) / (1 - exp(-(t+dt)/u))`
///    (pure exponential decay once the edge correction has washed out);
///  - an event observed at the current OU adds
///    `(1 - exp(-1/u)) / (1 - exp(-t/u))`, the edge-corrected kernel mass of
///    a lag-zero event.
///
/// Note on normalization: the paper's Eq. 6 carries a stray `1/u` factor in
/// the event term that would make the estimator biased by `1/u` for a
/// constant-rate stream, contradicting the paper's own unbiasedness claim.
/// We normalize the exponential kernel as a probability density over lags
/// (mass `1`), which makes `E[rate()] = p` exactly for i.i.d. Bernoulli(p)
/// input; the unit test `KernelEstimatorTest.UnbiasedOnConstantStream`
/// verifies this.
class KernelRateEstimator {
 public:
  struct Options {
    /// Kernel bandwidth `u` in occurrence units. Larger values smooth more
    /// aggressively (slower to adapt, lower variance).
    double bandwidth = 256.0;
    /// Estimate reported before any occurrence unit has been consumed, and
    /// blended into the early estimate while the edge correction is
    /// dominated by a handful of observations.
    double initial_p = 1e-4;
    /// Number of occurrence units over which the estimate is linearly
    /// blended from `initial_p` toward the data-driven estimate; 0 disables
    /// blending (pure Eq. 6 behaviour from the first OU).
    int64_t warmup_ous = 0;
  };

  /// Validates options (bandwidth > 0, initial_p in [0, 1], warmup >= 0).
  static Result<KernelRateEstimator> Create(const Options& options);

  /// Consumes one occurrence unit carrying `event` (the per-OU prediction
  /// indicator). Equivalent to Advance(1) followed by Observe() if `event`.
  void Step(bool event);

  /// Advances time by `delta_ous` occurrence units with no event.
  void Advance(int64_t delta_ous);

  /// Records an event at the current occurrence unit.
  void Observe();

  /// Current estimate of the background probability `p(t)`, clamped to
  /// [0, 1].
  double rate() const;

  int64_t total_ous() const { return t_; }
  int64_t total_events() const { return events_; }
  const Options& options() const { return options_; }

 private:
  explicit KernelRateEstimator(const Options& options);

  Options options_;
  /// exp(-1/u), the decay of one occurrence unit, and 1 - exp(-1/u), the
  /// normalized mass of a lag-zero event: computed once, since Step and
  /// rate() run once per unit and once per clip.
  double unit_decay_;
  double event_mass_;
  /// Un-edge-corrected decayed kernel sum; `rate()` applies the correction.
  double kernel_sum_ = 0.0;
  int64_t t_ = 0;
  int64_t events_ = 0;
};

}  // namespace svq::stats

#endif  // SVQ_STATS_KERNEL_ESTIMATOR_H_
