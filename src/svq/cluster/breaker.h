#ifndef SVQ_CLUSTER_BREAKER_H_
#define SVQ_CLUSTER_BREAKER_H_

#include <chrono>
#include <mutex>

namespace svq::cluster {

/// Per-backend circuit breaker (the classic three-state machine):
///
///   kClosed    — requests flow; `failure_threshold` *consecutive*
///                transport failures trip the breaker open.
///   kOpen      — requests are refused locally (Unavailable) without
///                touching the backend; after `cooldown` the next
///                AllowRequest admits exactly one probe (-> kHalfOpen).
///   kHalfOpen  — one probe is in flight; everyone else is refused.
///                Probe success closes the breaker, probe failure re-opens
///                it for another cooldown.
///
/// Thread safe: the router's loop and its health checker share one
/// breaker per backend. Callers pass their own `now` so tests can drive time.
class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    /// Consecutive failures that trip kClosed -> kOpen.
    int failure_threshold = 3;
    /// How long kOpen refuses before admitting a probe.
    std::chrono::milliseconds cooldown{1000};
  };

  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() : options_{3, std::chrono::milliseconds(1000)} {}
  explicit CircuitBreaker(Options options) : options_(options) {}

  /// Whether the caller may issue a request now. In kOpen past the
  /// cooldown this transitions to kHalfOpen and admits the caller as the
  /// probe (`*probe` says so when given); the caller MUST then report the
  /// outcome via RecordSuccess / RecordFailure / RecordAbandoned or the
  /// breaker stays half-open forever.
  bool AllowRequest(Clock::time_point now = Clock::now(),
                    bool* probe = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (probe != nullptr) *probe = false;
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen:
        if (now >= open_until_) {
          state_ = State::kHalfOpen;
          if (probe != nullptr) *probe = true;
          return true;
        }
        return false;
      case State::kHalfOpen:
        return false;  // probe already outstanding
    }
    return false;
  }

  void RecordSuccess() {
    std::lock_guard<std::mutex> lock(mu_);
    consecutive_failures_ = 0;
    state_ = State::kClosed;
  }

  void RecordFailure(Clock::time_point now = Clock::now()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kHalfOpen) {
      // Failed probe: straight back to open for another cooldown.
      state_ = State::kOpen;
      open_until_ = now + options_.cooldown;
      return;
    }
    ++consecutive_failures_;
    if (state_ == State::kClosed &&
        consecutive_failures_ >= options_.failure_threshold) {
      state_ = State::kOpen;
      open_until_ = now + options_.cooldown;
    }
  }

  /// The caller gave up on the probe without an outcome (its client left,
  /// or a hedge won): the breaker returns to kOpen, due for a new probe at
  /// once. Only the probe's caller reports this — a request admitted while
  /// the breaker was closed says nothing about a later probe. Outside
  /// kHalfOpen this changes nothing.
  void RecordAbandoned(Clock::time_point now = Clock::now()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != State::kHalfOpen) return;
    state_ = State::kOpen;
    open_until_ = now;
  }

  State state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

 private:
  const Options options_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  Clock::time_point open_until_{};
};

}  // namespace svq::cluster

#endif  // SVQ_CLUSTER_BREAKER_H_
