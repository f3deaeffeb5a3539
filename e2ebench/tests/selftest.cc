// The benchmark's own tests: seeded generation, accounting rules and the
// load generator's client cap. Run with `python3 e2ebench/run.py
// --selftest` (or the e2ebench_selftest binary directly); exit code 0
// means every check passed.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "lib/stack.h"
#include "lib/util.h"
#include "lib/workload.h"
#include "svq/core/engine.h"
#include "svq/server/server.h"

namespace e2ebench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::fprintf(stderr, "  FAILED %s:%d: %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
    }                                                                  \
  } while (0)

void SameSeedSameInputs() {
  for (const WorkloadInfo& info : Workloads()) {
    const Workload a = BuildWorkload(info, 42);
    const Workload b = BuildWorkload(info, 42);
    const Workload c = BuildWorkload(info, 43);
    EXPECT(a.CatalogDigest() == b.CatalogDigest());
    EXPECT(OpSequenceDigest(a, 500) == OpSequenceDigest(b, 500));
    EXPECT(a.CatalogDigest() != c.CatalogDigest());
    EXPECT(OpSequenceDigest(a, 500) != OpSequenceDigest(c, 500));
    EXPECT(a.per_video_count > 0 && a.broadcast_count() > 0);
    EXPECT(a.feed_plans.size() == a.feed_videos.size());
    for (const FeedPlan& plan : a.feed_plans) {
      EXPECT(plan.statements.size() == 4);
    }
  }
}

void PercentileNeedsTenBeyond() {
  std::vector<double> samples;
  for (int i = 0; i < 999; ++i) samples.push_back(i);
  EXPECT(!Percentile(samples, 0.99).has_value());
  samples.push_back(999);
  EXPECT(Percentile(samples, 0.99).has_value());
  EXPECT(*Percentile(samples, 0.99) == 989.0);
  EXPECT(*Percentile(samples, 0.50) == 499.0);
  EXPECT(!Percentile(std::vector<double>(19, 1.0), 0.5).has_value());
  EXPECT(Percentile(std::vector<double>(20, 1.0), 0.5).has_value());
  EXPECT(!Percentile({}, 0.5).has_value());
}

void FailuresMissLatencies() {
  EXPECT(Classify(svq::Status::OK()) == Outcome::kOk);
  EXPECT(Classify(svq::Status(svq::StatusCode::kResourceExhausted, "full")) ==
         Outcome::kRefused);
  EXPECT(Classify(svq::Status::DeadlineExceeded("late")) ==
         Outcome::kTimedOut);
  EXPECT(Classify(svq::Status::Internal("boom")) == Outcome::kFailed);

  OpStats stats;
  stats.Record(Outcome::kOk, 1.0);
  stats.Record(Outcome::kRefused, 50.0);
  stats.Record(Outcome::kTimedOut, 60.0);
  stats.Record(Outcome::kWrong, 2.0);
  stats.Record(Outcome::kFailed, 3.0);
  EXPECT(stats.attempted == 5);
  EXPECT(stats.bad() == 4);
  EXPECT(stats.ok() == 1);
  EXPECT(stats.latencies_ms.size() == 1);
  EXPECT(stats.latencies_ms[0] == 1.0);
  OpStats merged;
  merged.Merge(stats);
  merged.Merge(stats);
  EXPECT(merged.attempted == 10 && merged.refused == 2 &&
         merged.timed_out == 2 && merged.latencies_ms.size() == 2);
}

void AnswersCompareExactlyUpToBoundNoise() {
  const Answer want = {{1, 5, 0.5, 0.75}, {9, 12, 0.25, 0.5}};
  Answer got = want;
  EXPECT(SameAnswer(got, want));
  got[0].lower_bound += 1e-10;
  EXPECT(SameAnswer(got, want));
  got[0].lower_bound += 1e-6;
  EXPECT(!SameAnswer(got, want));
  got = want;
  got[1].end = 13;
  EXPECT(!SameAnswer(got, want));
  got = want;
  got.pop_back();
  EXPECT(!SameAnswer(got, want));
}

void LoadGeneratorStaysWithinNproc() {
  EXPECT(ClampClients(1000) == MaxClients());
  EXPECT(ClampClients(0) == 1);

  svq::core::VideoQueryEngine engine;
  svq::server::Server server(&engine, svq::server::ServerOptions{});
  if (!server.Start().ok()) {
    ++failures;
    std::fprintf(stderr, "  FAILED: cannot start svqd\n");
    return;
  }
  BenchClient::ResetPeak();
  const int started = RunWorkers(4 * MaxClients() + 3, [&](int) {
    BenchClient client;
    EXPECT(client.Connect(server.port()).ok());
    auto stats = client.wire().GetStats();
    EXPECT(stats.ok());
  });
  EXPECT(started == MaxClients());
  EXPECT(WorkerPeak() <= MaxClients());
  EXPECT(BenchClient::peak() <= MaxClients());
  EXPECT(BenchClient::open_now() == 0);
  server.Shutdown();
}

void SelfTimeSubtractsChildren() {
  SpanLog log;
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  const int root = log.Add("outer", 1, -1, at(0), at(100));
  log.Add("inner", 1, root, at(100), at(130));
  log.Add("inner", 1, root, at(130), at(150));
  const auto self = log.MeanSelfMicros();
  EXPECT(self.at("outer") > 49.9 && self.at("outer") < 50.1);
  EXPECT(self.at("inner") > 24.9 && self.at("inner") < 25.1);
  SpanLog merged;
  merged.Add("first", 2, -1, at(0), at(1));
  merged.Absorb(log);
  EXPECT(merged.spans().size() == 4);
  EXPECT(merged.spans()[2].parent == 1);
}

}  // namespace
}  // namespace e2ebench

int main() {
  using namespace e2ebench;
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"SameSeedSameInputs", SameSeedSameInputs},
      {"PercentileNeedsTenBeyond", PercentileNeedsTenBeyond},
      {"FailuresMissLatencies", FailuresMissLatencies},
      {"AnswersCompareExactlyUpToBoundNoise",
       AnswersCompareExactlyUpToBoundNoise},
      {"LoadGeneratorStaysWithinNproc", LoadGeneratorStaysWithinNproc},
      {"SelfTimeSubtractsChildren", SelfTimeSubtractsChildren},
  };
  for (const auto& [name, test] : tests) {
    const int before = failures;
    test();
    std::printf("[%s] %s\n", failures == before ? "  OK  " : "FAILED", name);
  }
  std::printf("%s\n", failures == 0 ? "all tests passed" : "TESTS FAILED");
  return failures == 0 ? 0 : 1;
}
