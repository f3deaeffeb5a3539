#include "svq/stats/kernel_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace svq::stats {

Result<KernelRateEstimator> KernelRateEstimator::Create(
    const Options& options) {
  if (!(options.bandwidth > 0.0)) {
    return Status::InvalidArgument("kernel bandwidth must be > 0, got " +
                                   std::to_string(options.bandwidth));
  }
  if (options.initial_p < 0.0 || options.initial_p > 1.0) {
    return Status::InvalidArgument("initial_p must be in [0, 1]");
  }
  if (options.warmup_ous < 0) {
    return Status::InvalidArgument("warmup_ous must be >= 0");
  }
  return KernelRateEstimator(options);
}

KernelRateEstimator::KernelRateEstimator(const Options& options)
    : options_(options),
      unit_decay_(std::exp(-1.0 / options.bandwidth)),
      event_mass_(-std::expm1(-1.0 / options.bandwidth)) {}

void KernelRateEstimator::Step(bool event) {
  Advance(1);
  if (event) Observe();
}

void KernelRateEstimator::Advance(int64_t delta_ous) {
  if (delta_ous <= 0) return;
  // Decays the raw kernel sum; the edge correction is applied in rate() so
  // the recurrence stays a single multiply. After a gap many bandwidths
  // long the sum underflows toward 0 — that is the mathematically correct
  // limit (every past event's kernel mass has decayed away, and rate()
  // recovers unbiased from the next event) — but flush subnormals to an
  // exact 0.0 so pathological gaps cannot leave the hot loop multiplying
  // denormals, which is an order of magnitude slower on most cores.
  kernel_sum_ *= delta_ous == 1 ? unit_decay_
                               : std::exp(-static_cast<double>(delta_ous) /
                                          options_.bandwidth);
  if (kernel_sum_ < std::numeric_limits<double>::min()) kernel_sum_ = 0.0;
  // Saturate instead of overflowing: signed overflow is UB, and a stream
  // past 2^63 OUs has long since converged (the truncated mass in rate()
  // is exactly 1.0 from ~40 bandwidths onward).
  if (t_ > std::numeric_limits<int64_t>::max() - delta_ous) {
    t_ = std::numeric_limits<int64_t>::max();
  } else {
    t_ += delta_ous;
  }
}

void KernelRateEstimator::Observe() {
  // A lag-zero event contributes exp(0) = 1 to the raw kernel sum.
  kernel_sum_ += 1.0;
  ++events_;
}

double KernelRateEstimator::rate() const {
  if (t_ == 0) return options_.initial_p;
  // Edge correction (paper Eq. 6): divide by the truncated kernel mass
  // accumulated over the t observed occurrence units, normalized so that a
  // constant Bernoulli(p) stream yields an unbiased estimate of p.
  const double truncated =
      -std::expm1(-static_cast<double>(t_) / options_.bandwidth);
  double estimate = kernel_sum_ * event_mass_ / truncated;
  if (options_.warmup_ous > 0 && t_ < options_.warmup_ous) {
    const double w = static_cast<double>(t_) /
                     static_cast<double>(options_.warmup_ous);
    estimate = w * estimate + (1.0 - w) * options_.initial_p;
  }
  return std::clamp(estimate, 0.0, 1.0);
}

}  // namespace svq::stats
