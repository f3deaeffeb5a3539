#include "svq/observability/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "svq/observability/trace.h"

namespace svq::observability {
namespace {

TEST(MetricsRegistryTest, CountersAccumulateAndDedupe) {
  MetricsRegistry registry;
  Counter* a = registry.counter("svqd_queries_ok_total", "ok queries");
  Counter* again = registry.counter("svqd_queries_ok_total");
  EXPECT_EQ(a, again);  // find-or-create: one instance per name
  a->Increment();
  again->Increment(4);
  a->Add(0.5);
  EXPECT_DOUBLE_EQ(a->value(), 5.5);
}

TEST(MetricsRegistryTest, GaugesSetAndAdd) {
  MetricsRegistry registry;
  Gauge* gauge = registry.gauge("svqd_queue_depth");
  gauge->Set(7.0);
  gauge->Add(-2.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 5.0);
}

TEST(MetricsRegistryTest, SanitizesNamesToPrometheusCharset) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("svq.queries-ok total");
  EXPECT_EQ(counter->name(), "svq_queries_ok_total");
  // The sanitized and the literal spelling are the same metric.
  EXPECT_EQ(counter, registry.counter("svq_queries_ok_total"));
  EXPECT_EQ(registry.counter("9lives")->name(), "_9lives");
  EXPECT_EQ(registry.counter("")->name(), "_");
}

TEST(HistogramTest, BucketsPowersOfTwo) {
  MetricsRegistry registry;
  Histogram* histogram = registry.histogram("latency_micros");
  histogram->Record(0.5);     // bucket 0 (sub-microsecond)
  histogram->Record(3.0);     // bucket 1: [2, 4)
  histogram->Record(1000.0);  // bucket 9: [512, 1024)
  histogram->Record(1e12);    // clamped into the overflow bucket
  const HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.count, 4);
  EXPECT_EQ(snapshot.buckets[0], 1);
  EXPECT_EQ(snapshot.buckets[1], 1);
  EXPECT_EQ(snapshot.buckets[9], 1);
  EXPECT_EQ(snapshot.buckets[kHistogramBuckets - 1], 1);
  EXPECT_DOUBLE_EQ(snapshot.sum_micros, 0.5 + 3.0 + 1000.0 + 1e12);
  EXPECT_LE(snapshot.PercentileMicros(0.5), 4.0);
  EXPECT_GT(snapshot.PercentileMicros(0.99), 1e6);
  EXPECT_EQ(HistogramSnapshot().PercentileMicros(0.5), 0.0);
}

TEST(HistogramTest, ClampsNonFiniteAndNegativeInputs) {
  // The ISSUE-flagged bug: feeding log2 a NaN/negative/infinite duration
  // (clock adjustments, subtraction-order bugs upstream) must not be UB —
  // garbage lands in bucket 0, +inf in the overflow bucket, and neither
  // corrupts the sum.
  MetricsRegistry registry;
  Histogram* histogram = registry.histogram("latency_micros");
  histogram->Record(std::numeric_limits<double>::quiet_NaN());
  histogram->Record(-5.0);
  histogram->Record(-std::numeric_limits<double>::infinity());
  histogram->Record(std::numeric_limits<double>::infinity());
  histogram->Record(0.0);
  const HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.count, 5);
  EXPECT_EQ(snapshot.buckets[0], 4);  // NaN, both negatives, zero
  EXPECT_EQ(snapshot.buckets[kHistogramBuckets - 1], 1);  // +inf
  EXPECT_DOUBLE_EQ(snapshot.sum_micros, 0.0);  // none contribute
  EXPECT_TRUE(std::isfinite(snapshot.PercentileMicros(0.99)));
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("zeta_total")->Increment(2);
  registry.counter("alpha_total")->Increment(1);
  registry.gauge("mid_gauge")->Set(3.0);
  registry.histogram("lat_micros")->Record(100.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha_total");
  EXPECT_EQ(snapshot.counters[1].name, "zeta_total");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1);
}

TEST(MetricsRegistryTest, FlattenExposesHistogramCountAndSum) {
  MetricsRegistry registry;
  registry.counter("c_total")->Increment(3);
  registry.gauge("g")->Set(1.5);
  registry.histogram("h_micros")->Record(10.0);
  registry.histogram("h_micros")->Record(20.0);
  const auto flat = registry.Snapshot().Flatten();
  ASSERT_EQ(flat.size(), 4u);  // counter + gauge + hist count + hist sum
  EXPECT_EQ(flat[0].first, "c_total");
  EXPECT_DOUBLE_EQ(flat[0].second, 3.0);
  EXPECT_EQ(flat[1].first, "g");
  EXPECT_EQ(flat[2].first, "h_micros_count");
  EXPECT_DOUBLE_EQ(flat[2].second, 2.0);
  EXPECT_EQ(flat[3].first, "h_micros_sum_micros");
  EXPECT_DOUBLE_EQ(flat[3].second, 30.0);
}

TEST(MetricsSnapshotTest, MergeAddsByNameAndBucketWise) {
  MetricsRegistry shard0;
  MetricsRegistry shard1;
  shard0.counter("b_total")->Increment(2);
  shard1.counter("b_total")->Increment(3);
  shard1.counter("a_total")->Increment(1);
  shard0.gauge("open")->Set(1.0);
  shard1.gauge("open")->Set(4.0);
  shard0.histogram("lat_micros")->Record(3.0);  // bucket 1
  for (int i = 0; i < 99; ++i) {
    shard1.histogram("lat_micros")->Record(1000.0);  // bucket 9
  }
  shard1.histogram("z_micros")->Record(5.0);

  MetricsSnapshot merged;
  merged.Merge(shard0.Snapshot());
  EXPECT_EQ(merged, shard0.Snapshot());
  merged.Merge(shard1.Snapshot());
  // Names only shard 1 has are inserted in name order.
  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters[0].name, "a_total");
  EXPECT_EQ(merged.counters[1].name, "b_total");
  EXPECT_EQ(merged.ValueOf("a_total"), 1.0);
  EXPECT_EQ(merged.ValueOf("b_total"), 5.0);
  EXPECT_EQ(merged.ValueOf("open"), 5.0);
  EXPECT_EQ(merged.ValueOf("lat_micros"), std::nullopt);
  ASSERT_EQ(merged.histograms.size(), 2u);
  EXPECT_EQ(merged.histograms[1].name, "z_micros");
  EXPECT_EQ(merged.FindHistogram("missing_micros"), nullptr);

  const HistogramSnapshot* latency = merged.FindHistogram("lat_micros");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 100);
  EXPECT_DOUBLE_EQ(latency->sum_micros, 3.0 + 99 * 1000.0);
  EXPECT_EQ(latency->buckets[1], 1);
  EXPECT_EQ(latency->buckets[9], 99);
  // Percentiles read the merged buckets: neither shard alone has these.
  EXPECT_EQ(latency->PercentileMicros(0.01), 4.0);
  EXPECT_EQ(latency->PercentileMicros(0.5), 1024.0);
}

TEST(MetricsSnapshotTest, MergeSaturatesHistogramCounts) {
  // Snapshots arrive from peers too, so a sum past the int64 range must
  // saturate rather than overflow.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  HistogramSnapshot histogram;
  histogram.name = "h_micros";
  histogram.count = kMax - 1;
  histogram.buckets[0] = kMax;
  histogram.buckets[1] = kMin;
  MetricsSnapshot merged;
  merged.histograms = {histogram};
  MetricsSnapshot other;
  other.histograms = {histogram};
  merged.Merge(other);
  EXPECT_EQ(merged.histograms[0].count, kMax);
  EXPECT_EQ(merged.histograms[0].buckets[0], kMax);
  EXPECT_EQ(merged.histograms[0].buckets[1], kMin);
}

TEST(MetricsRegistryTest, PrometheusDumpGolden) {
  // Full-format golden: # HELP/# TYPE comments, cumulative le buckets,
  // +Inf bucket, _sum/_count series. Deterministic because the registry
  // stores metrics sorted by name.
  MetricsRegistry registry;
  registry.counter("svqd_queries_ok_total", "Queries OK")->Increment(42);
  registry.gauge("svqd_in_flight", "Executing now")->Set(3.0);
  Histogram* histogram =
      registry.histogram("svqd_query_latency_micros", "Query latency");
  histogram->Record(3.0);     // bucket 1 -> le="4"
  histogram->Record(1000.0);  // bucket 9 -> le="1024"

  std::ostringstream out;
  registry.DumpPrometheus(out);
  const std::string text = out.str();

  const std::string expected_prefix =
      "# HELP svqd_queries_ok_total Queries OK\n"
      "# TYPE svqd_queries_ok_total counter\n"
      "svqd_queries_ok_total 42\n"
      "# HELP svqd_in_flight Executing now\n"
      "# TYPE svqd_in_flight gauge\n"
      "svqd_in_flight 3\n"
      "# HELP svqd_query_latency_micros Query latency\n"
      "# TYPE svqd_query_latency_micros histogram\n"
      "svqd_query_latency_micros_bucket{le=\"2\"} 0\n"
      "svqd_query_latency_micros_bucket{le=\"4\"} 1\n";
  ASSERT_EQ(text.substr(0, expected_prefix.size()), expected_prefix);
  // Cumulative counts: every bucket from le="1024" on reports 2.
  EXPECT_NE(text.find("svqd_query_latency_micros_bucket{le=\"1024\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("svqd_query_latency_micros_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("svqd_query_latency_micros_sum 1003\n"),
            std::string::npos);
  EXPECT_NE(text.find("svqd_query_latency_micros_count 2\n"),
            std::string::npos);
  // Parseability smoke: every non-comment line is "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << line;
  }
}

TEST(MetricsRegistryTest, ConcurrentRecordAndSnapshot) {
  // Hammer one registry from recorder threads while a reader snapshots and
  // dumps continuously; run under the tsan ctest label to prove the
  // relaxed-atomic recording discipline is race-free.
  MetricsRegistry registry;
  Counter* counter = registry.counter("events_total");
  Gauge* gauge = registry.gauge("level");
  Histogram* histogram = registry.histogram("lat_micros");
  constexpr int kThreads = 4;
  constexpr int kIterations = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      std::ostringstream sink;
      snapshot.DumpPrometheus(sink);
      // Registration may race recording too: a new metric mid-flight.
      registry.counter("reader_probe_total")->Increment();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t]() {
      for (int i = 0; i < kIterations; ++i) {
        counter->Increment();
        gauge->Set(static_cast<double>(t));
        histogram->Record(static_cast<double>(i % 4096));
        registry.counter("writer_" + std::to_string(t) + "_total")
            ->Increment();
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.counters[0].value, kThreads * kIterations);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, kThreads * kIterations);
}

TEST(QueryTraceTest, NestsSpansParentChild) {
  QueryTrace trace;
  {
    TraceSpan parse(&trace, "parse");
  }
  {
    TraceSpan execute(&trace, "execute");
    { TraceSpan rvaq(&trace, "rvaq"); }
  }
  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "parse");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "execute");
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_EQ(spans[2].name, "rvaq");
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[2].depth, 1);
  for (const auto& span : spans) EXPECT_GE(span.duration_ns, 0);
  // The child is contained in the parent.
  EXPECT_GE(spans[2].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[2].start_ns + spans[2].duration_ns,
            spans[1].start_ns + spans[1].duration_ns);
  EXPECT_EQ(trace.CountOf("execute"), 1);
  EXPECT_GE(trace.TotalMs("execute"), trace.TotalMs("rvaq"));
}

TEST(QueryTraceTest, AggregateSpansFoldObservations) {
  QueryTrace trace;
  TraceSpan execute(&trace, "execute");
  for (int i = 0; i < 100; ++i) {
    trace.RecordAggregate("tbclip.next", 1000);  // 1 us each
  }
  EXPECT_EQ(trace.CountOf("tbclip.next"), 100);
  EXPECT_NEAR(trace.TotalMs("tbclip.next"), 0.1, 1e-9);
  // 100 observations folded into ONE span, nested under "execute".
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[1].parent, 0);
}

TEST(QueryTraceTest, NullTraceHelpersAreNoOps) {
  // Instrumented code threads a possibly-null trace unconditionally.
  TraceSpan span(nullptr, "parse");
  AggregateTimer timer(nullptr, "tbclip.next");
  SUCCEED();
}

TEST(QueryTraceTest, EndClosesAbandonedChildren) {
  QueryTrace trace;
  const int outer = trace.Begin("outer");
  trace.Begin("inner");  // never explicitly ended
  trace.End(outer);
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_GE(trace.spans()[0].duration_ns, 0);
  EXPECT_GE(trace.spans()[1].duration_ns, 0);  // closed with its parent
}

TEST(QueryTraceTest, FormatRendersIndentedTree) {
  QueryTrace trace;
  {
    TraceSpan execute(&trace, "execute");
    trace.RecordAggregate("tbclip.next", 2000000, 3);
  }
  const std::string text = trace.Format();
  EXPECT_NE(text.find("execute"), std::string::npos);
  EXPECT_NE(text.find("  tbclip.next"), std::string::npos);
  EXPECT_NE(text.find("(x3)"), std::string::npos);
}

}  // namespace
}  // namespace svq::observability
