#ifndef SVQ_OBSERVABILITY_METRICS_H_
#define SVQ_OBSERVABILITY_METRICS_H_

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace svq::observability {

/// Fixed power-of-two bucket layout shared by every histogram: bucket i
/// counts observations in [2^i, 2^(i+1)) microseconds, bucket 0 also
/// absorbs everything below 1 µs, and the last bucket absorbs everything
/// larger (~67 s and up). The STATS wire verb carries every bucket, so a
/// histogram keeps its percentiles across the wire and through
/// MetricsSnapshot::Merge.
inline constexpr int kHistogramBuckets = 27;

/// Monotonically increasing metric. Increment/Add are single relaxed
/// atomic adds — safe and cheap from any thread, never a lock. Values are
/// doubles (the Prometheus data model): integer counters stay exact up to
/// 2^53 events.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(static_cast<double>(n), std::memory_order_relaxed);
  }
  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  const std::string name_;
  const std::string help_;
  std::atomic<double> value_{0.0};
};

/// Instantaneous value that may go up or down (queue depths, open
/// connections). Same relaxed-atomic discipline as Counter.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  const std::string name_;
  const std::string help_;
  std::atomic<double> value_{0.0};
};

/// Point-in-time value of one histogram (see kHistogramBuckets for the
/// bucket layout). Individual buckets are exact; count/sum may trail by
/// in-flight increments — consistent enough for monitoring.
struct HistogramSnapshot {
  std::string name;
  std::string help;
  int64_t count = 0;
  /// Sum of the recorded (finite, positive) values in microseconds.
  double sum_micros = 0.0;
  std::array<int64_t, kHistogramBuckets> buckets{};

  /// Inclusive upper bound of bucket `i` in microseconds.
  static double BucketUpperMicros(int i);
  /// Approximate percentile (0 <= p <= 1) from the bucket upper bounds;
  /// 0 when empty.
  double PercentileMicros(double p) const;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Thread-safe power-of-two histogram of microsecond durations. Record()
/// is two relaxed atomic adds plus one floating add, so hot response paths
/// never serialize on a stats lock.
class Histogram {
 public:
  /// Records one observation. Inputs are clamped explicitly rather than
  /// fed to log2 raw: NaN and negative durations (clock adjustments,
  /// subtraction-order bugs upstream) land in bucket 0 and contribute
  /// nothing to the sum; +infinity lands in the overflow bucket. Casting
  /// log2(+inf) to int would be undefined behaviour — this is the one
  /// place that guard lives.
  void Record(double micros) {
    int bucket = 0;
    if (micros >= 1.0) {  // false for NaN and negatives
      bucket = std::isinf(micros)
                   ? kHistogramBuckets - 1
                   : std::min(kHistogramBuckets - 1,
                              static_cast<int>(std::log2(micros)));
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    if (std::isfinite(micros) && micros > 0.0) {
      sum_micros_.fetch_add(micros, std::memory_order_relaxed);
    }
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snapshot;
    snapshot.name = name_;
    snapshot.help = help_;
    snapshot.count = count_.load(std::memory_order_relaxed);
    snapshot.sum_micros = sum_micros_.load(std::memory_order_relaxed);
    for (int i = 0; i < kHistogramBuckets; ++i) {
      snapshot.buckets[static_cast<size_t>(i)] =
          buckets_[i].load(std::memory_order_relaxed);
    }
    return snapshot;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  const std::string name_;
  const std::string help_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_micros_{0.0};
  std::atomic<int64_t> buckets_[kHistogramBuckets] = {};
};

/// Point-in-time view of a whole registry, ordered by metric name (the
/// registry stores metrics sorted, so dumps and golden tests are
/// deterministic).
struct MetricsSnapshot {
  struct Value {
    std::string name;
    std::string help;
    double value = 0.0;

    friend bool operator==(const Value&, const Value&) = default;
  };

  std::vector<Value> counters;
  std::vector<Value> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Adds `other` into this snapshot by name, which is how a cluster's
  /// snapshots combine: counters and gauges add their values; histograms
  /// add count, sum and every bucket, so percentiles survive the merge. A
  /// name this snapshot lacks is inserted in name order. Keeps each
  /// section sorted by name, as MetricsRegistry::Snapshot produces it.
  void Merge(const MetricsSnapshot& other);

  /// The counter or gauge called `name`; nullopt when there is none.
  std::optional<double> ValueOf(std::string_view name) const;
  /// The histogram called `name`; nullptr when there is none.
  const HistogramSnapshot* FindHistogram(std::string_view name) const;

  /// The snapshot as Prometheus text exposition format (# HELP / # TYPE
  /// comments, histogram _bucket/_sum/_count series with cumulative `le`
  /// labels).
  void DumpPrometheus(std::ostream& out) const;

  /// Flat (name, value) view: every counter and gauge verbatim, plus
  /// `<name>_count` / `<name>_sum_micros` per histogram.
  std::vector<std::pair<std::string, double>> Flatten() const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Process-wide (or per-server) metric directory: named counters, gauges,
/// and histograms, each registered once and recorded through stable
/// pointers with relaxed atomics. Registration takes a mutex; recording
/// never does — the lock-cheap split that keeps the hot serving path free
/// of stats contention. See docs/observability.md.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name; the same name always returns the same
  /// instance, so independent components can share a metric. Names are
  /// sanitized to the Prometheus charset ([a-zA-Z0-9_:], non-leading
  /// digits); `help` is kept from the first registration. Returned
  /// pointers are stable for the registry's lifetime.
  Counter* counter(std::string_view name, std::string_view help = "");
  Gauge* gauge(std::string_view name, std::string_view help = "");
  Histogram* histogram(std::string_view name, std::string_view help = "");

  /// Consistent-enough point-in-time copy (each metric is read atomically;
  /// the set is read under the registration mutex).
  MetricsSnapshot Snapshot() const;

  /// Convenience: Snapshot().DumpPrometheus(out).
  void DumpPrometheus(std::ostream& out) const;

 private:
  static std::string Sanitize(std::string_view name);

  mutable std::mutex mu_;  // guards the maps, never the metric values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace svq::observability

#endif  // SVQ_OBSERVABILITY_METRICS_H_
