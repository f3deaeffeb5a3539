// The svq end-to-end benchmark. One invocation runs one workload:
//
//   e2ebench --workload hot-zipf --seed 7 --seconds 36 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays a fixed
// sample of the workload with spans and prints the per-layer metrics. The
// last stdout line is the JSON result. e2ebench/README.md has the details.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "lib/phases.h"
#include "lib/stack.h"
#include "lib/traced.h"
#include "lib/util.h"
#include "lib/workload.h"

namespace e2ebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 36.0;
  bool trace = false;
  std::string out_dir = ".bench_build/e2ebench-out";
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\nworkloads:\n",
               problem.c_str());
  for (const WorkloadInfo& info : Workloads()) {
    std::fprintf(stderr, "  %-12s %s\n", info.name, info.why);
  }
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) Usage("--seconds must be > 0");
  return args;
}

/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetups = 3;
/// The three phases run in this many interleaved rounds, so that a burst
/// of outside load lands in a few rounds of every phase rather than in
/// one phase whole. Rates and percentiles are medians over rounds.
constexpr int kRounds = 8;
/// Shares of --seconds given to the serve, churn and feed phases.
constexpr double kServeShare = 0.5;
constexpr double kChurnShare = 0.25;
constexpr double kFeedShare = 0.25;

struct Rounds {
  ServeResult serve;
  ChurnResult churn;
  FeedResult feeds;
  std::vector<double> qps, topk_p50, broadcast_p50, ingest_rate, clip_rate,
      feed_p50;
  /// Only rounds with the 1000 samples a p99 needs contribute.
  std::vector<double> topk_p99, broadcast_p99, feed_p99;
};

void AddIfPresent(std::optional<double> value, std::vector<double>* out) {
  if (value.has_value()) out->push_back(*value);
}

void AddRound(const ServeResult& serve, const ChurnResult& churn,
              const FeedResult& feeds, Rounds* r) {
  r->qps.push_back(static_cast<double>(serve.topk.ok() + serve.broadcast.ok()) /
                   serve.wall_s);
  r->topk_p50.push_back(Percentile(serve.topk.latencies_ms, 0.5).value_or(0));
  r->broadcast_p50.push_back(
      Percentile(serve.broadcast.latencies_ms, 0.5).value_or(0));
  if (churn.ingest_s > 0) {
    r->ingest_rate.push_back(static_cast<double>(churn.frames) /
                             churn.ingest_s);
  }
  r->clip_rate.push_back(static_cast<double>(feeds.clips) / feeds.wall_s);
  r->feed_p50.push_back(Percentile(feeds.feeds.latencies_ms, 0.5).value_or(0));
  AddIfPresent(Percentile(serve.topk.latencies_ms, 0.99), &r->topk_p99);
  AddIfPresent(Percentile(serve.broadcast.latencies_ms, 0.99),
               &r->broadcast_p99);
  AddIfPresent(Percentile(feeds.feeds.latencies_ms, 0.99), &r->feed_p99);
  r->serve.topk.Merge(serve.topk);
  r->serve.broadcast.Merge(serve.broadcast);
  r->churn.readers.Merge(churn.readers);
  r->churn.ingests.Merge(churn.ingests);
  r->churn.frames += churn.frames;
  r->churn.bytes_written += churn.bytes_written;
  r->feeds.feeds.Merge(feeds.feeds);
  r->feeds.subscriptions.Merge(feeds.subscriptions);
  r->feeds.control.Merge(feeds.control);
  r->feeds.clips += feeds.clips;
  r->feeds.dropped_events += feeds.dropped_events;
}

/// A p99: the median of the per-round p99s, so that one disturbed round
/// cannot set it. Without a round of 1000 samples it falls back to the p99
/// of all rounds pooled, and is omitted (with a note) when even that has
/// fewer than ten samples beyond it.
void AddP99(const std::string& name, const std::vector<double>& per_round,
            const OpStats& pooled, std::vector<Metric>* metrics) {
  std::optional<double> value;
  std::string how;
  if (!per_round.empty()) {
    value = Median(per_round);
    how = "median of " + std::to_string(per_round.size()) + " rounds' p99";
  } else {
    value = Percentile(pooled.latencies_ms, 0.99);
    how = "all rounds pooled";
  }
  if (!value.has_value()) {
    std::printf("  %-26s not reported: %zu samples, a p99 needs 1000\n",
                name.c_str(), pooled.latencies_ms.size());
    return;
  }
  metrics->push_back({name, *value, "ms"});
  std::printf("  %-26s %12.4f ms           (%s; n=%zu)\n", name.c_str(),
              *value, how.c_str(), pooled.latencies_ms.size());
}

int RunUntraced(const Args& args, const WorkloadInfo& info) {
  const std::string run_root =
      args.out_dir + "/run-" + std::to_string(::getpid());
  std::vector<double> setup_s;
  Workload workload;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (stack != nullptr) {
      stack.reset();
      std::filesystem::remove_all(run_root);
    }
    const Clock::time_point start = Clock::now();
    workload = BuildWorkload(info, args.seed);
    stack = SetUp(workload, run_root);
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  std::printf("e2ebench %s seed=%llu catalog_digest=%016llx\n", info.name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(workload.CatalogDigest()));
  const Expected expected = CheckOracle(workload, *stack);
  std::printf("  oracle: %zu ranked, %zu churn, %zu feed statements match\n",
              workload.space.size(), workload.churn_space.size(),
              workload.feed_plans.size() * 4);

  Rounds r;
  size_t next_video = 0;
  const double slice = args.seconds / kRounds;
  const CpuTimes cpu_before = ReadCpuTimes();
  for (int round = 0; round < kRounds; ++round) {
    const ServeResult serve = RunServe(workload, *stack, expected,
                                       {slice * kServeShare, 0, round});
    const ChurnResult churn = RunChurn(workload, *stack, expected,
                                       {slice * kChurnShare, 0, round},
                                       &next_video);
    const FeedResult feeds = RunFeeds(workload, *stack, expected,
                                      {slice * kFeedShare, 0, round});
    AddRound(serve, churn, feeds, &r);
  }
  const double steal = StealFraction(cpu_before, ReadCpuTimes());
  stack.reset();
  std::filesystem::remove_all(run_root);

  OpStats all;
  for (const OpStats* s : {&r.serve.topk, &r.serve.broadcast,
                           &r.churn.readers, &r.churn.ingests, &r.feeds.feeds,
                           &r.feeds.subscriptions, &r.feeds.control}) {
    all.Merge(*s);
  }
  const int64_t failed = all.bad() + r.feeds.dropped_events;
  const bool correct = all.wrong == 0;

  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
    metrics.push_back({name, value, unit});
    std::printf("  %-26s %12.4f %-12s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
  };
  // Median-of-rounds figures print every round's value beside the median.
  auto add_rounds = [&](const std::string& name,
                        const std::vector<double>& values,
                        const std::string& unit, const std::string& count) {
    std::string note = "(median of rounds";
    for (const double v : values) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.4g", v);
      note += buf;
    }
    add(name, Median(values), unit,
        note + "; n=" + count + ")");
  };
  add("setup_s", Median(setup_s), "s",
      "(median of " + std::to_string(kSetups) + " set-ups)");
  add("peak_rss_mb", PeakRssMb(), "MB", "");
  add_rounds("query_qps", r.qps, "statements/s",
             std::to_string(r.serve.topk.ok() + r.serve.broadcast.ok()));
  add_rounds("topk_p50_ms", r.topk_p50, "ms",
             std::to_string(r.serve.topk.latencies_ms.size()));
  AddP99("topk_p99_ms", r.topk_p99, r.serve.topk, &metrics);
  add_rounds("broadcast_p50_ms", r.broadcast_p50, "ms",
             std::to_string(r.serve.broadcast.latencies_ms.size()));
  AddP99("broadcast_p99_ms", r.broadcast_p99, r.serve.broadcast, &metrics);
  add_rounds("ingest_frames_per_s", r.ingest_rate, "frames/s",
             std::to_string(r.churn.ingests.ok()) + " videos");
  add("artifact_bytes_per_frame",
      r.churn.frames > 0 ? static_cast<double>(r.churn.bytes_written) /
                               static_cast<double>(r.churn.frames)
                         : 0.0,
      "B/frame", "(" + std::to_string(r.churn.frames) + " frames)");
  add_rounds("stream_clips_per_s", r.clip_rate, "clips/s",
             std::to_string(r.feeds.clips) + " clips");
  add_rounds("feed_p50_ms", r.feed_p50, "ms",
             std::to_string(r.feeds.feeds.latencies_ms.size()));
  AddP99("feed_p99_ms", r.feed_p99, r.feeds.feeds, &metrics);
  std::printf("  %-26s %12.6f fraction     (failed=%lld of attempted=%lld; "
              "refused=%lld timed_out=%lld wrong=%lld dropped_events=%lld)\n",
              "failed_frac",
              static_cast<double>(failed) / static_cast<double>(all.attempted),
              static_cast<long long>(failed),
              static_cast<long long>(all.attempted),
              static_cast<long long>(all.refused),
              static_cast<long long>(all.timed_out),
              static_cast<long long>(all.wrong),
              static_cast<long long>(r.feeds.dropped_events));
  std::printf("  churn readers: p50 %.4f ms over %zu reads\n",
              Percentile(r.churn.readers.latencies_ms, 0.5).value_or(0.0),
              r.churn.readers.latencies_ms.size());
  std::printf("  host CPU steal while measuring: %.1f%% of CPU time\n",
              100.0 * steal);
  std::printf("%s\n",
              ResultLine(correct, all.attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  const Args args = ParseArgs(argc, argv);
  const WorkloadInfo& info = *FindWorkload(args.workload);
  std::filesystem::create_directories(args.out_dir);
  if (args.trace) {
    return RunTraced(info, args.seed, args.out_dir);
  }
  return RunUntraced(args, info);
}
