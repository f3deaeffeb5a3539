#ifndef SVQ_CORE_CRITICAL_VALUES_H_
#define SVQ_CORE_CRITICAL_VALUES_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace svq::core {

/// Floor of every critical value the engines use: a single positive
/// prediction is never significant evidence on its own. When the estimated
/// background probability dips toward zero (no events observed recently),
/// the raw critical value collapses to 1 and every stray model false
/// positive would certify its clip. Windows shorter than this floor are
/// floored at the window instead.
inline constexpr int kMinCriticalValue = 2;

/// Exclusion quota for the null-rate estimate: a clip whose event count
/// reaches it looks like signal and must not contaminate the background
/// estimate (UpdatePolicy::kNegativeUnits). Capped at half the clip so that
/// a saturated critical value (k = window + 1, nothing ever "positive")
/// cannot deadlock the estimator into learning the signal rate forever;
/// floored at 2 so that a minimal quota (k = 1, e.g. from a near-zero
/// initial probability) cannot starve the estimator by excluding every clip
/// containing any event.
inline int NullExclusionQuota(int kcrit, int64_t units_in_clip) {
  const int half = static_cast<int>((units_in_clip + 1) / 2);
  return std::max(2, std::min(kcrit, std::max(2, half)));
}

/// Exact i.i.d. critical values for one scan-statistic parameter tuple
/// (window, L, alpha). SVAQD (paper Alg. 3, Eq. 5–6) recomputes k_crit
/// whenever the kernel estimate of p moves. k_crit(p) is a nondecreasing
/// step function of p with at most `window` steps. So the table inverts it
/// once: level k keeps the running maximum B_k of the breakpoints b_1..b_k,
/// where b_k is the smallest double p with
/// `stats::ScanTailProbability(k, {p, window, L}) > alpha`. Then
/// `CriticalValue(p)` is the first level whose B_k exceeds p. The running
/// maximum makes this exact whether or not the tail is monotone in k.
///
/// Level k is filled (by bisection over the ordered bit patterns of
/// doubles, at most 64 tail evaluations) the first time some p reaches it.
/// Get() on filled levels is a binary search over at most `window` doubles:
/// no allocation and no lock. A mutex serializes only extension, and each
/// level publishes with a release store that readers acquire. The answer
/// never depends on which p arrived first.
class CriticalValueTable {
 public:
  /// The process-wide table for this tuple, created on first use and never
  /// freed. Keys come from engine configuration and video layouts, never
  /// from statements, so configuration bounds how many tables exist.
  static const CriticalValueTable& For(int window, double num_windows,
                                       double alpha);

  /// A private table; production code shares tables through For().
  CriticalValueTable(int window, double num_windows, double alpha);

  CriticalValueTable(const CriticalValueTable&) = delete;
  CriticalValueTable& operator=(const CriticalValueTable&) = delete;

  /// `stats::CriticalValue({p, window, L}, alpha)` floored at
  /// min(kMinCriticalValue, window). Where that call fails (p outside
  /// [0, 1], or parameters it rejects) this returns window + 1, the most
  /// conservative quota; so does a NaN p, as the call itself does.
  int Get(double p) const;

 private:
  /// Fills levels until one exceeds p or all `window` exist; returns the
  /// number of levels at or below p.
  int Extend(double p) const;
  /// Raw b_k: smallest double p in (0, 1] whose tail at k exceeds alpha.
  double Breakpoint(int k) const;
  int Floor(int k) const {
    return std::max(k, std::min(kMinCriticalValue, window_));
  }

  const int window_;
  const double num_windows_;
  const double alpha_;
  /// Whether stats::CriticalValue accepts (window, L, alpha) at all.
  const bool valid_;
  /// B_1..B_window; entries below `filled_` are immutable once published.
  const std::unique_ptr<double[]> levels_;
  mutable std::atomic<int> filled_{0};
  /// Serializes extension; readers never take it.
  mutable std::mutex extend_mu_;
};

/// Critical values for Markov-dependent Bernoulli trials (paper footnote 7)
/// via the exact FMCE embedding: positively dependent (bursty) false
/// positives concentrate events, so the same stationary rate demands a
/// larger quota than the i.i.d. analysis yields. Exact computation is
/// exponential in the window, so this memo requires `window <= 20` — in
/// practice the action window (shots per clip) which is where bursty noise
/// bites. Each miss runs the exact embedding, so (p, p11) is quantized on
/// a coarse log grid and the memo is private to one engine.
class MarkovCriticalValueMemo {
 public:
  MarkovCriticalValueMemo(int window, double num_windows, double alpha)
      : window_(window), num_windows_(num_windows), alpha_(alpha) {}

  /// Floored `k_crit` for stationary rate `p` and persistence
  /// `p11 = P(event | previous event)`. Falls back to the i.i.d. chain when
  /// `p11 <= p` (no positive dependence).
  int Get(double p, double p11);

 private:
  static int64_t Quantize(double p);

  int window_;
  double num_windows_;
  double alpha_;
  std::unordered_map<int64_t, int> memo_;
};

}  // namespace svq::core

#endif  // SVQ_CORE_CRITICAL_VALUES_H_
