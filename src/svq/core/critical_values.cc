#include "svq/core/critical_values.h"

#include <bit>
#include <cmath>
#include <map>
#include <tuple>

#include "svq/stats/scan_statistics.h"

namespace svq::core {

const CriticalValueTable& CriticalValueTable::For(int window,
                                                  double num_windows,
                                                  double alpha) {
  // Keyed by the doubles' bit patterns so that every distinct tuple,
  // NaN included, has its own table.
  using Key = std::tuple<int, uint64_t, uint64_t>;
  struct Registry {
    std::mutex mu;
    std::map<Key, std::unique_ptr<CriticalValueTable>> tables;
  };
  // Never destroyed: engines on other threads may still read their table
  // while static destructors run at exit.
  static Registry* const registry = new Registry();
  const Key key{window, std::bit_cast<uint64_t>(num_windows),
                std::bit_cast<uint64_t>(alpha)};
  std::lock_guard<std::mutex> lock(registry->mu);
  std::unique_ptr<CriticalValueTable>& table = registry->tables[key];
  if (table == nullptr) {
    table = std::make_unique<CriticalValueTable>(window, num_windows, alpha);
  }
  return *table;
}

CriticalValueTable::CriticalValueTable(int window, double num_windows,
                                       double alpha)
    : window_(window),
      num_windows_(num_windows),
      alpha_(alpha),
      valid_(stats::CriticalValue({0.0, window, num_windows}, alpha).ok()),
      levels_(new double[static_cast<size_t>(valid_ ? window : 0)]) {}

int CriticalValueTable::Get(double p) const {
  // CriticalValue rejects p outside [0, 1] and answers window + 1 for NaN.
  if (!valid_ || !(p >= 0.0 && p <= 1.0)) return window_ + 1;
  const int filled = filled_.load(std::memory_order_acquire);
  const double* levels = levels_.get();
  int below =
      static_cast<int>(std::upper_bound(levels, levels + filled, p) - levels);
  if (below == filled && filled < window_) below = Extend(p);
  return Floor(below + 1);
}

int CriticalValueTable::Extend(double p) const {
  std::lock_guard<std::mutex> lock(extend_mu_);
  int filled = filled_.load(std::memory_order_relaxed);
  double* levels = levels_.get();
  while (filled < window_ && (filled == 0 || levels[filled - 1] <= p)) {
    const double b = Breakpoint(filled + 1);
    levels[filled] = filled == 0 ? b : std::max(levels[filled - 1], b);
    filled_.store(++filled, std::memory_order_release);
  }
  return static_cast<int>(std::upper_bound(levels, levels + filled, p) -
                          levels);
}

double CriticalValueTable::Breakpoint(int k) const {
  // For 1 <= k <= window the tail is 0 <= alpha at p = 0 and 1 > alpha at
  // p = 1, and non-negative doubles order like their bit patterns, so
  // bisecting the patterns converges on adjacent doubles lo < hi with
  // tail(lo) <= alpha < tail(hi) in at most 62 steps.
  uint64_t lo = std::bit_cast<uint64_t>(0.0);
  uint64_t hi = std::bit_cast<uint64_t>(1.0);
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    const double p = std::bit_cast<double>(mid);
    if (stats::ScanTailProbability(k, {p, window_, num_windows_}) > alpha_) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return std::bit_cast<double>(hi);
}

int MarkovCriticalValueMemo::Get(double p, double p11) {
  p = std::clamp(p, 0.0, 1.0);
  p11 = std::clamp(p11, 0.0, 1.0);
  if (p11 < p) p11 = p;
  const int64_t key = (Quantize(p) << 20) ^ Quantize(p11);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  stats::MarkovChainParams chain;
  chain.p11 = p11;
  chain.p01 = p >= 1.0 ? 1.0
                       : std::clamp(p * (1.0 - p11) / (1.0 - p), 0.0, 1.0);
  chain.start_p = p;
  const int64_t n = static_cast<int64_t>(num_windows_ * window_);
  auto result = stats::MarkovCriticalValue(window_, n, chain, alpha_);
  const int k = std::max(result.ok() ? *result : window_ + 1,
                         std::min(kMinCriticalValue, window_));
  memo_.emplace(key, k);
  return k;
}

int64_t MarkovCriticalValueMemo::Quantize(double p) {
  if (p <= 1e-12) return -1;
  return static_cast<int64_t>(std::llround(std::log(p) * 50.0)) & 0xFFFFF;
}

}  // namespace svq::core
