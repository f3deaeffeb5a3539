#include "svq/observability/metrics.h"

#include <algorithm>
#include <cstdio>

namespace svq::observability {

namespace {

/// Formats a metric value the way Prometheus text exposition expects:
/// integral values without a fraction, everything else with enough digits
/// to round-trip a double.
std::string FormatValue(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 9.007199254740992e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void DumpHelpAndType(std::ostream& out, const std::string& name,
                     const std::string& help, const char* type) {
  if (!help.empty()) out << "# HELP " << name << " " << help << "\n";
  out << "# TYPE " << name << " " << type << "\n";
}

/// The first entry of a name-sorted section not ordered before `name`.
template <typename Entries>
auto LowerBound(Entries& entries, std::string_view name) {
  return std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const auto& entry, std::string_view key) { return entry.name < key; });
}

/// The entry of a name-sorted section called `name`, or nullptr.
template <typename Entry>
const Entry* FindByName(const std::vector<Entry>& entries,
                        std::string_view name) {
  const auto it = LowerBound(entries, name);
  return it != entries.end() && it->name == name ? &*it : nullptr;
}

/// Adds `from`'s entries into the name-sorted section `into` with `add`,
/// inserting the names `into` lacks where they sort.
template <typename Entry, typename Add>
void MergeSection(std::vector<Entry>* into, const std::vector<Entry>& from,
                  Add add) {
  for (const Entry& entry : from) {
    const auto it = LowerBound(*into, entry.name);
    if (it != into->end() && it->name == entry.name) {
      add(&*it, entry);
    } else {
      into->insert(it, entry);
    }
  }
}

/// Histogram counts come from untrusted peers too: a sum past the int64
/// range saturates instead of overflowing.
void AddCount(int64_t* into, int64_t value) {
  if (__builtin_add_overflow(*into, value, into)) {
    *into = value > 0 ? INT64_MAX : INT64_MIN;
  }
}

}  // namespace

double HistogramSnapshot::BucketUpperMicros(int i) {
  return std::ldexp(1.0, i + 1);
}

double HistogramSnapshot::PercentileMicros(double p) const {
  if (count <= 0) return 0.0;
  const double target = p * static_cast<double>(count);
  int64_t seen = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[static_cast<size_t>(i)];
    if (static_cast<double>(seen) >= target) return BucketUpperMicros(i);
  }
  return BucketUpperMicros(kHistogramBuckets - 1);
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  const auto add_value = [](Value* into, const Value& from) {
    into->value += from.value;
  };
  MergeSection(&counters, other.counters, add_value);
  MergeSection(&gauges, other.gauges, add_value);
  MergeSection(&histograms, other.histograms,
               [](HistogramSnapshot* into, const HistogramSnapshot& from) {
                 AddCount(&into->count, from.count);
                 into->sum_micros += from.sum_micros;
                 for (size_t i = 0; i < into->buckets.size(); ++i) {
                   AddCount(&into->buckets[i], from.buckets[i]);
                 }
               });
}

std::optional<double> MetricsSnapshot::ValueOf(std::string_view name) const {
  for (const std::vector<Value>* section : {&counters, &gauges}) {
    if (const Value* value = FindByName(*section, name)) return value->value;
  }
  return std::nullopt;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  return FindByName(histograms, name);
}

void MetricsSnapshot::DumpPrometheus(std::ostream& out) const {
  for (const Value& counter : counters) {
    DumpHelpAndType(out, counter.name, counter.help, "counter");
    out << counter.name << " " << FormatValue(counter.value) << "\n";
  }
  for (const Value& gauge : gauges) {
    DumpHelpAndType(out, gauge.name, gauge.help, "gauge");
    out << gauge.name << " " << FormatValue(gauge.value) << "\n";
  }
  for (const HistogramSnapshot& histogram : histograms) {
    DumpHelpAndType(out, histogram.name, histogram.help, "histogram");
    int64_t cumulative = 0;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      cumulative += histogram.buckets[static_cast<size_t>(i)];
      out << histogram.name << "_bucket{le=\""
          << FormatValue(HistogramSnapshot::BucketUpperMicros(i)) << "\"} "
          << cumulative << "\n";
    }
    out << histogram.name << "_bucket{le=\"+Inf\"} " << histogram.count
        << "\n";
    out << histogram.name << "_sum " << FormatValue(histogram.sum_micros)
        << "\n";
    out << histogram.name << "_count " << histogram.count << "\n";
  }
}

std::vector<std::pair<std::string, double>> MetricsSnapshot::Flatten() const {
  std::vector<std::pair<std::string, double>> flat;
  flat.reserve(counters.size() + gauges.size() + 2 * histograms.size());
  for (const Value& counter : counters) {
    flat.emplace_back(counter.name, counter.value);
  }
  for (const Value& gauge : gauges) {
    flat.emplace_back(gauge.name, gauge.value);
  }
  for (const HistogramSnapshot& histogram : histograms) {
    flat.emplace_back(histogram.name + "_count",
                      static_cast<double>(histogram.count));
    flat.emplace_back(histogram.name + "_sum_micros", histogram.sum_micros);
  }
  return flat;
}

std::string MetricsRegistry::Sanitize(std::string_view name) {
  std::string sanitized(name.empty() ? std::string_view("_") : name);
  for (char& c : sanitized) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (sanitized[0] >= '0' && sanitized[0] <= '9') {
    sanitized.insert(sanitized.begin(), '_');
  }
  return sanitized;
}

Counter* MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  std::string key = Sanitize(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    auto metric = std::unique_ptr<Counter>(
        new Counter(key, std::string(help)));
    it = counters_.emplace(std::move(key), std::move(metric)).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  std::string key = Sanitize(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    auto metric = std::unique_ptr<Gauge>(new Gauge(key, std::string(help)));
    it = gauges_.emplace(std::move(key), std::move(metric)).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help) {
  std::string key = Sanitize(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    auto metric = std::unique_ptr<Histogram>(
        new Histogram(key, std::string(help)));
    it = histograms_.emplace(std::move(key), std::move(metric)).first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->help_, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->help_, gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back(histogram->Snapshot());
  }
  return snapshot;
}

void MetricsRegistry::DumpPrometheus(std::ostream& out) const {
  Snapshot().DumpPrometheus(out);
}

}  // namespace svq::observability
