// Integration tests for the cluster layer (docs/cluster.md): an svq_router
// in front of per-shard svqd backends must be indistinguishable from a
// single svqd over the full catalog — broadcast `PROCESS *` answers are
// compared sequence-by-sequence against the single-node oracle at 1, 2 and
// 4 shards — and must degrade explicitly, not silently: a killed backend
// surfaces as a partial-result Unavailable status, deadlines shrink per
// hop and expire as kDeadlineExceeded, circuit breakers open after
// consecutive failures and recover through the health prober, and slow
// shards trigger hedging. The router's transport is held to the same
// bounds as svqd's: a connection cap, an admission bound, one error reply
// then EOF for a malformed frame, flat memory across connection churn, a
// prompt Shutdown, and backend work cancelled when its client disconnects.
// A shard that never replies holds requests no longer than their budget
// and delays no request for another shard, and a STATS that admission
// turns away repeats the last aggregate rather than zeroed counters.
//
// Runs under `ctest -L tsan` (with -DSVQ_SANITIZE=thread): the router's
// IO thread and health checker share breakers, connection pools and the
// metrics registry.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "svq/cluster/breaker.h"
#include "svq/cluster/router.h"
#include "svq/cluster/shard_map.h"
#include "svq/core/engine.h"
#include "svq/io/env.h"
#include "svq/query/executor.h"
#include "svq/server/client.h"
#include "svq/server/server.h"
#include "svq/video/synthetic_video.h"

namespace svq::cluster {
namespace {

using Clock = std::chrono::steady_clock;

std::string RankedStatement(const std::string& video, int k) {
  return "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS " + video +
         " PRODUCE clipID, obj USING ObjectDetector, act USING "
         "ActionRecognizer) WHERE act='smoking' AND obj.include('cup') "
         "ORDER BY RANK(act, obj) LIMIT " +
         std::to_string(k);
}

std::shared_ptr<const video::SyntheticVideo> ClusterVideo(int index) {
  video::SyntheticVideoSpec spec;
  spec.name = "serving_" + std::to_string(index);
  spec.num_frames = 12000;
  spec.seed = 9300 + static_cast<uint64_t>(index);
  spec.actions.push_back({"smoking", 350.0, 4500.0});
  video::SyntheticObjectSpec cup;
  cup.label = "cup";
  cup.correlate_with_action = "smoking";
  cup.correlation = 0.9;
  cup.coverage = 0.9;
  cup.mean_on_frames = 250.0;
  cup.mean_off_frames = 2600.0;
  spec.objects.push_back(cup);
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

/// Fast-failure router options for tests; individual tests override knobs.
RouterOptions TestOptions() {
  RouterOptions options;
  options.max_retries = 1;
  options.retry_backoff = std::chrono::milliseconds(5);
  options.retry_backoff_max = std::chrono::milliseconds(20);
  options.connect_timeout = std::chrono::milliseconds(1000);
  options.health_interval = std::chrono::milliseconds(0);  // deterministic
  options.breaker.failure_threshold = 100;  // tests opt in explicitly
  return options;
}

double RegistryValue(const Router& router, const std::string& name) {
  return router.registry().Snapshot().ValueOf(name).value_or(0.0);
}

/// Polls `done` for up to 5 s.
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// A blocking loopback socket connected to `port` whose receives give up
/// after `recv_timeout` (so a peer that never closes fails the test instead
/// of hanging it).
int RawConnect(uint16_t port, std::chrono::milliseconds recv_timeout =
                                  std::chrono::milliseconds(5000)) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(recv_timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((recv_timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until EOF; `*eof` is false when the receive timed out or failed
/// first.
std::string ReadUntilEof(int fd, bool* eof) {
  std::string received;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      received.append(buffer, static_cast<size_t>(n));
      continue;
    }
    *eof = n == 0;
    return received;
  }
}

/// Reads one response frame of `type` from `fd` into `*response`; false
/// when the receive timed out, the peer closed, or the frame is not one.
template <typename Response>
bool ReadResponse(int fd, server::MessageType type,
                  Status (*decode)(server::WireCursor*, Response*),
                  Response* response) {
  server::FrameAssembler assembler;
  for (;;) {
    std::string payload;
    bool has_frame = false;
    if (!assembler.Next(&payload, &has_frame).ok()) return false;
    if (has_frame) {
      server::WireCursor cursor(payload);
      server::MessageType got = server::MessageType::kQueryRequest;
      return server::DecodePayloadHeader(&cursor, &got).ok() &&
             got == type && decode(&cursor, response).ok();
    }
    char buffer[4096];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return false;
    assembler.Feed(buffer, static_cast<size_t>(n));
  }
}

/// The process's virtual size in kB (VmSize in /proc/self/status).
int64_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return -1;
}

/// A listener that accepts nothing: connects succeed (the SYN queue
/// absorbs them) but no byte ever comes back — a backend that hangs.
struct SilentListener {
  SilentListener() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(fd, 16), 0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len),
              0);
    port = ntohs(bound.sin_port);
  }
  ~SilentListener() { ::close(fd); }
  SilentListener(const SilentListener&) = delete;
  SilentListener& operator=(const SilentListener&) = delete;

  /// A one-shard map whose only backend is this listener.
  ShardMap Map() const {
    ShardMap map;
    map.version = 1;
    map.shards.push_back({"127.0.0.1", port});
    map.assignments["serving_0"] = 0;
    return map;
  }

  int fd = -1;
  uint16_t port = 0;
};

/// A router over two shards: shard 0 a live svqd holding serving_0, shard
/// 1 a SilentListener that owns serving_1 and never answers.
struct HalfSilentCluster {
  explicit HalfSilentCluster(const RouterOptions& options) {
    EXPECT_TRUE(engine.AddVideo(ClusterVideo(0)).ok());
    EXPECT_TRUE(engine.IngestAll().ok());
    backend = std::make_unique<server::Server>(&engine, server::ServerOptions{});
    EXPECT_TRUE(backend->Start().ok());
    ShardMap map;
    map.version = 1;
    map.shards.push_back({"127.0.0.1", backend->port()});
    map.shards.push_back({"127.0.0.1", silent.port});
    map.assignments["serving_0"] = 0;
    map.assignments["serving_1"] = 1;
    router = std::make_unique<Router>(std::move(map), options);
    EXPECT_TRUE(router->Start().ok());
  }
  ~HalfSilentCluster() {
    router->Shutdown();
    backend->Shutdown();
  }

  core::VideoQueryEngine engine;
  SilentListener silent;
  std::unique_ptr<server::Server> backend;
  std::unique_ptr<Router> router;
};

/// A 2-shard cluster over four videos plus a single-node oracle engine
/// holding the full catalog: the contract under test is that clients
/// cannot tell the two apart (until a shard dies).
class ClusterTest : public ::testing::Test {
 protected:
  static constexpr int kVideos = 4;

  void StartCluster(RouterOptions options = TestOptions(),
                    size_t num_shards = 2,
                    server::ServerOptions backend = server::ServerOptions{}) {
    std::vector<std::string> names;
    for (int i = 0; i < kVideos; ++i) {
      auto video = ClusterVideo(i);
      names.push_back(video->name());
      if (!oracle_ready_) {
        ASSERT_TRUE(oracle_.AddVideo(video).ok());
      }
    }
    if (!oracle_ready_) {
      ASSERT_TRUE(oracle_.IngestAll().ok());
      oracle_ready_ = true;
    }

    for (size_t s = 0; s < num_shards; ++s) {
      engines_.push_back(std::make_unique<core::VideoQueryEngine>());
    }
    std::vector<ShardEndpoint> endpoints(num_shards);  // ports patched below
    for (auto& endpoint : endpoints) endpoint = {"127.0.0.1", 1};
    auto map = AssignContiguous(names, endpoints, /*version=*/7);
    ASSERT_TRUE(map.ok()) << map.status();
    // Each shard engine ingests its partition in sorted-name order, the
    // same insertion order the oracle used — this is what aligns the
    // cross-shard (shard, rank) tie order with the oracle's video ids.
    for (const std::string& name : names) {
      const int shard = map->ShardOf(name);
      ASSERT_GE(shard, 0) << name;
      ASSERT_TRUE(
          engines_[static_cast<size_t>(shard)]
              ->AddVideo(ClusterVideo(std::stoi(name.substr(8))))
              .ok());
    }
    for (auto& engine : engines_) {
      ASSERT_TRUE(engine->IngestAll().ok());
      servers_.push_back(std::make_unique<server::Server>(engine.get(), backend));
      ASSERT_TRUE(servers_.back()->Start().ok());
    }
    for (size_t s = 0; s < num_shards; ++s) {
      map->shards[s].port = servers_[s]->port();
    }
    router_ = std::make_unique<Router>(std::move(map).value(), options);
    ASSERT_TRUE(router_->Start().ok());
  }

  /// Stops the router, then every backend; the oracle stays.
  void StopCluster() {
    if (router_) router_->Shutdown();
    for (auto& server : servers_) server->Shutdown();
    router_.reset();
    servers_.clear();
    engines_.clear();
  }

  void TearDown() override { StopCluster(); }

  server::Client RouterClient() {
    server::Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", router_->port()).ok());
    return client;
  }

  core::VideoQueryEngine oracle_;
  bool oracle_ready_ = false;
  std::vector<std::unique_ptr<core::VideoQueryEngine>> engines_;
  std::vector<std::unique_ptr<server::Server>> servers_;
  std::unique_ptr<Router> router_;
};

void ExpectMatchesRepository(
    const server::QueryResponse& response,
    const std::vector<core::RepositoryEntry>& expected) {
  ASSERT_EQ(response.sequences.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(response.sequences[i].begin, expected[i].sequence.clips.begin)
        << i;
    EXPECT_EQ(response.sequences[i].end, expected[i].sequence.clips.end)
        << i;
    EXPECT_DOUBLE_EQ(response.sequences[i].lower_bound,
                     expected[i].sequence.lower_bound)
        << i;
    EXPECT_DOUBLE_EQ(response.sequences[i].upper_bound,
                     expected[i].sequence.upper_bound)
        << i;
  }
}

TEST_F(ClusterTest, BroadcastMatchesSingleNodeOracle) {
  // One shard (a router over a single svqd), two, and four (one video per
  // shard): every partition answers exactly like the single node.
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(shards) + " shard(s)");
    StartCluster(TestOptions(), shards);
    const std::string statement = RankedStatement("*", 6);
    auto reference = query::ExecuteStatementOn(oracle_.Pin(), statement);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_TRUE(reference->repo.has_value());
    ASSERT_FALSE(reference->repo->sequences.empty());

    server::Client client = RouterClient();
    auto response = client.Execute(statement);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->status.ok()) << response->status;
    EXPECT_TRUE(response->ranked);
    ExpectMatchesRepository(*response, reference->repo->sequences);
    EXPECT_DOUBLE_EQ(RegistryValue(*router_, "svq_router_queries_total"),
                     1.0);
    EXPECT_DOUBLE_EQ(
        RegistryValue(*router_, "svq_router_queries_partial_total"), 0.0);
    StopCluster();
  }
}

TEST_F(ClusterTest, SingleVideoStatementRoutesToOwningShard) {
  StartCluster();
  // serving_3 lives on shard 1; through the router the answer must equal
  // the single-node in-process execution.
  const std::string statement = RankedStatement("serving_3", 3);
  auto reference = query::ExecuteStatementOn(oracle_.Pin(), statement);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->topk.has_value());

  server::Client client = RouterClient();
  auto response = client.Execute(statement);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  const auto& expected = reference->topk->sequences;
  ASSERT_EQ(response->sequences.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(response->sequences[i].begin, expected[i].clips.begin) << i;
    EXPECT_EQ(response->sequences[i].end, expected[i].clips.end) << i;
    EXPECT_DOUBLE_EQ(response->sequences[i].lower_bound,
                     expected[i].lower_bound)
        << i;
  }
  // Only the owning shard saw the query.
  EXPECT_EQ(servers_[1]->Metrics().ValueOf("svqd_queries_accepted_total"),
            1.0);
  EXPECT_EQ(servers_[0]->Metrics().ValueOf("svqd_queries_accepted_total"),
            0.0);
}

TEST_F(ClusterTest, UnknownVideoGetsTheBackendsDiagnostic) {
  StartCluster();
  server::Client client = RouterClient();
  auto response = client.Execute(RankedStatement("no_such_video", 3));
  ASSERT_TRUE(response.ok()) << response.status();
  // Forwarded to a healthy shard whose NotFound matches a single svqd's.
  EXPECT_TRUE(response->status.IsNotFound()) << response->status;
  // Unparseable statements come back with the backend's parser diagnostic,
  // and the connection survives.
  auto garbage = client.Execute("SELECT FROM WHERE nonsense((");
  ASSERT_TRUE(garbage.ok()) << garbage.status();
  EXPECT_TRUE(garbage->status.IsInvalidArgument()) << garbage->status;
}

TEST_F(ClusterTest, ExplainRoutesAndBroadcastExplainIsUnimplemented) {
  StartCluster();
  const std::string statement = RankedStatement("serving_0", 3);
  server::Client client = RouterClient();
  auto through_router = client.Explain(statement);
  ASSERT_TRUE(through_router.ok()) << through_router.status();
  ASSERT_TRUE(through_router->status.ok()) << through_router->status;

  server::Client direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", servers_[0]->port()).ok());
  auto from_backend = direct.Explain(statement);
  ASSERT_TRUE(from_backend.ok()) << from_backend.status();
  EXPECT_EQ(through_router->text, from_backend->text);

  auto broadcast = client.Explain(RankedStatement("*", 3));
  ASSERT_TRUE(broadcast.ok()) << broadcast.status();
  EXPECT_TRUE(broadcast->status.IsUnimplemented()) << broadcast->status;
}

TEST_F(ClusterTest, StreamingVerbsAreUnimplemented) {
  StartCluster();
  server::Client client = RouterClient();
  auto subscribed = client.Subscribe(
      "serving_0",
      "SELECT MERGE(clipID) FROM (PROCESS serving_0 PRODUCE clipID, obj "
      "USING ObjectDetector, act USING ActionRecognizer) WHERE "
      "act='smoking' AND obj.include('cup')");
  ASSERT_TRUE(subscribed.ok()) << subscribed.status();
  EXPECT_TRUE(subscribed->status.IsUnimplemented()) << subscribed->status;
  // The connection survives and still serves queries.
  auto response = client.Execute(RankedStatement("serving_0", 3));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
}

TEST_F(ClusterTest, StatsAggregateBackendsAndRouterRegistry) {
  StartCluster();
  server::Client client = RouterClient();
  auto response = client.Execute(RankedStatement("*", 6));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;

  auto stats = client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  // The broadcast hit both backends; the aggregate sums their counters.
  EXPECT_EQ(stats->ValueOf("svqd_queries_accepted_total"), 2.0);
  EXPECT_EQ(stats->ValueOf("svqd_queries_ok_total"), 2.0);
  const observability::HistogramSnapshot* latency =
      stats->FindHistogram("svqd_query_latency_micros");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 2);
  // The router's own metrics ride along.
  EXPECT_EQ(stats->ValueOf("svq_router_queries_total"), 1.0);
  EXPECT_EQ(stats->ValueOf("svq_router_backends_total"), 2.0);
  EXPECT_EQ(stats->ValueOf("svq_router_backend_failures_total"), 0.0);
}

TEST_F(ClusterTest, StatsMergeEveryHistogramBucketWise) {
  StartCluster();
  server::Client client = RouterClient();
  // serving_0 and serving_1 live on shard 0, serving_3 on shard 1; the
  // broadcast runs on both.
  for (const char* video : {"serving_0", "serving_3", "serving_1", "*"}) {
    auto response = client.Execute(RankedStatement(video, 3));
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->status.ok()) << response->status;
  }
  auto stats = client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status();

  // Every svqd histogram is the two backends' sum, bucket for bucket —
  // except the STATS verb's own latency, which each backend records after
  // answering.
  const observability::MetricsSnapshot shard0 = servers_[0]->Metrics();
  const observability::MetricsSnapshot shard1 = servers_[1]->Metrics();
  size_t merged_backend_histograms = 0;
  for (const observability::HistogramSnapshot& first : shard0.histograms) {
    if (first.name == "svqd_stats_latency_micros") continue;
    SCOPED_TRACE(first.name);
    const observability::HistogramSnapshot* second =
        shard1.FindHistogram(first.name);
    const observability::HistogramSnapshot* merged =
        stats->FindHistogram(first.name);
    ASSERT_NE(second, nullptr);
    ASSERT_NE(merged, nullptr);
    // Each shard ran statements, so both sides carry buckets.
    EXPECT_GT(first.count, 0);
    EXPECT_GT(second->count, 0);
    EXPECT_EQ(merged->count, first.count + second->count);
    EXPECT_DOUBLE_EQ(merged->sum_micros,
                     first.sum_micros + second->sum_micros);
    for (size_t i = 0; i < first.buckets.size(); ++i) {
      EXPECT_EQ(merged->buckets[i], first.buckets[i] + second->buckets[i])
          << "bucket " << i;
    }
    ++merged_backend_histograms;
  }
  // svqd_query_latency_micros and the four phase histograms.
  EXPECT_EQ(merged_backend_histograms, 5u);

  // The router's own histograms arrive as its registry holds them.
  const observability::MetricsSnapshot router = router_->registry().Snapshot();
  ASSERT_EQ(router.histograms.size(), 2u);
  for (observability::HistogramSnapshot expected : router.histograms) {
    SCOPED_TRACE(expected.name);
    const observability::HistogramSnapshot* merged =
        stats->FindHistogram(expected.name);
    ASSERT_NE(merged, nullptr);
    expected.help.clear();  // help strings are not sent
    EXPECT_EQ(*merged, expected);
  }
  EXPECT_EQ(stats->FindHistogram("svq_router_fanout_micros")->count, 1);
  EXPECT_EQ(stats->histograms.size(),
            shard0.histograms.size() + router.histograms.size());
}

TEST_F(ClusterTest, BroadcastLegsReachTheMergedExecuteHistogram) {
  // Each backend runs its broadcast leg under its own span; every leg still
  // counts as execution, so N broadcasts over two shards add 2N.
  StartCluster();
  server::Client client = RouterClient();
  const auto execute_count = [&]() -> int64_t {
    auto stats = client.GetStats();
    if (!stats.ok()) {
      ADD_FAILURE() << stats.status();
      return -1;
    }
    const observability::HistogramSnapshot* execute =
        stats->FindHistogram("svqd_phase_execute_micros");
    if (execute == nullptr) {
      ADD_FAILURE() << "svqd_phase_execute_micros missing";
      return -1;
    }
    return execute->count;
  };
  const int64_t before = execute_count();
  constexpr int kBroadcasts = 3;
  for (int i = 0; i < kBroadcasts; ++i) {
    auto response = client.Execute(RankedStatement("*", 6));
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->status.ok()) << response->status;
  }
  EXPECT_EQ(execute_count(), before + 2 * kBroadcasts);
}

TEST_F(ClusterTest, KilledBackendDegradesToExplicitPartialResults) {
  StartCluster();
  const std::string statement = RankedStatement("*", 6);
  // Kill shard 1 mid-flight (between queries): the router must answer from
  // shard 0 and say so — an Unavailable status naming the damage, with the
  // surviving shard's sequences attached, never a silent subset.
  servers_[1]->Shutdown();
  auto reference =
      query::ExecuteStatementOn(engines_[0]->Pin(), statement);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->repo.has_value());
  ASSERT_FALSE(reference->repo->sequences.empty());

  server::Client client = RouterClient();
  auto response = client.Execute(statement);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.IsUnavailable()) << response->status;
  EXPECT_NE(response->status.message().find("partial results (1/2 shards)"),
            std::string::npos)
      << response->status;
  ExpectMatchesRepository(*response, reference->repo->sequences);
  EXPECT_DOUBLE_EQ(
      RegistryValue(*router_, "svq_router_queries_partial_total"), 1.0);
  EXPECT_GE(RegistryValue(*router_, "svq_router_backend_failures_total"),
            1.0);

  // With every shard down the answer is still explicit, now with nothing
  // attached.
  servers_[0]->Shutdown();
  auto dark = client.Execute(statement);
  ASSERT_TRUE(dark.ok()) << dark.status();
  EXPECT_TRUE(dark->status.IsUnavailable()) << dark->status;
  EXPECT_NE(dark->status.message().find("all shards unavailable"),
            std::string::npos)
      << dark->status;
  EXPECT_TRUE(dark->sequences.empty());
}

TEST_F(ClusterTest, DeadlineBudgetShrinksPerHopAndExpiresCleanly) {
  // Retry backoff larger than the client budget: the first attempt against
  // the killed shard fails, the backoff sleeps past the deadline, and the
  // second attempt must be answered by the router itself with
  // kDeadlineExceeded — not forwarded with a stale budget.
  RouterOptions options = TestOptions();
  options.max_retries = 2;
  options.retry_backoff = std::chrono::milliseconds(80);
  options.retry_backoff_max = std::chrono::milliseconds(80);
  StartCluster(options);
  servers_[0]->Shutdown();

  server::Client client = RouterClient();
  auto response =
      client.Execute(RankedStatement("serving_0", 3), /*timeout_ms=*/40);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.IsDeadlineExceeded()) << response->status;
  EXPECT_DOUBLE_EQ(
      RegistryValue(*router_, "svq_router_deadline_exceeded_total"), 1.0);
}

TEST_F(ClusterTest, BreakerOpensAfterConsecutiveFailuresThenRecovers) {
  RouterOptions options = TestOptions();
  options.max_retries = 0;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown = std::chrono::milliseconds(50);
  options.health_interval = std::chrono::milliseconds(25);
  StartCluster(options);
  const uint16_t port = servers_[0]->port();
  servers_[0]->Shutdown();
  ASSERT_EQ(router_->BreakerState(0), CircuitBreaker::State::kClosed);

  // Two failed queries = two consecutive transport failures: the breaker
  // trips (the health prober can only add failures here, never successes).
  server::Client client = RouterClient();
  for (int i = 0; i < 2; ++i) {
    auto response = client.Execute(RankedStatement("serving_0", 3));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->status.IsUnavailable()) << response->status;
  }
  const auto tripped = Clock::now() + std::chrono::seconds(5);
  while (router_->BreakerState(0) == CircuitBreaker::State::kClosed &&
         Clock::now() < tripped) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_NE(router_->BreakerState(0), CircuitBreaker::State::kClosed);

  // Resurrect the backend on the same port: the health prober's half-open
  // probe must close the breaker without any client traffic.
  server::ServerOptions revive;
  revive.port = port;
  auto reborn =
      std::make_unique<server::Server>(engines_[0].get(), revive);
  ASSERT_TRUE(reborn->Start().ok());
  servers_.push_back(std::move(reborn));
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (router_->BreakerState(0) != CircuitBreaker::State::kClosed &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(router_->BreakerState(0), CircuitBreaker::State::kClosed);

  // And traffic flows again.
  auto response = client.Execute(RankedStatement("serving_0", 3));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
}

TEST_F(ClusterTest, MalformedFrameClosesConnectionCleanly) {
  StartCluster();
  // The same contract as svqd: a frame with a bogus wire version gets one
  // error reply, then EOF — the peer speaks another protocol.
  const int fd = RawConnect(router_->port());
  const unsigned char bad[] = {2, 0, 0, 0, /*version=*/9, /*type=*/1};
  ASSERT_EQ(::send(fd, bad, sizeof(bad), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(bad)));
  bool eof = false;
  const std::string received = ReadUntilEof(fd, &eof);
  ::close(fd);
  EXPECT_TRUE(eof) << "the router kept the connection open";
  server::FrameAssembler assembler;
  assembler.Feed(received.data(), received.size());
  std::string payload;
  bool has_frame = false;
  ASSERT_TRUE(assembler.Next(&payload, &has_frame).ok());
  ASSERT_TRUE(has_frame) << "no error reply before EOF";
  server::WireCursor cursor(payload);
  server::MessageType type = server::MessageType::kQueryRequest;
  ASSERT_TRUE(server::DecodePayloadHeader(&cursor, &type).ok());
  ASSERT_EQ(type, server::MessageType::kQueryResponse);
  server::QueryResponse reply;
  ASSERT_TRUE(server::DecodeQueryResponse(&cursor, &reply).ok());
  EXPECT_TRUE(reply.status.IsUnimplemented()) << reply.status;
  EXPECT_EQ(assembler.buffered_bytes(), 0u) << "more than one reply";

  // And the router still serves well-formed clients.
  server::Client client = RouterClient();
  auto response = client.Execute(RankedStatement("serving_0", 3));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
}

TEST_F(ClusterTest, ConnectQueryCloseCyclesKeepMemoryFlat) {
  StartCluster();
  const std::string statement = RankedStatement("serving_3", 3);
  const auto cycle = [&]() {
    server::Client client = RouterClient();
    auto response = client.Execute(statement);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->status.ok()) << response->status;
  };
  // Warm up: pooled backend connections, allocator state.
  for (int i = 0; i < 20; ++i) cycle();
  const int64_t before = VmSizeKb();
  ASSERT_GT(before, 0);
  // A router that kept anything per connection it ever served (a thread,
  // its stack) would grow by that much per cycle.
  for (int i = 0; i < 200; ++i) cycle();
  const int64_t growth_kb = VmSizeKb() - before;
  EXPECT_LT(growth_kb, 64 * 1024) << "VmSize grew by " << growth_kb << " kB";
}

TEST_F(ClusterTest, ConnectionsBeyondTheRouterCapAreClosed) {
  StartCluster();
  constexpr int kCap = 64;  // the router's connection cap, svqd's default
  std::vector<int> held;
  for (int i = 0; i < kCap; ++i) held.push_back(RawConnect(router_->port()));
  ASSERT_TRUE(WaitFor([&]() {
    return RegistryValue(*router_, "svq_router_connections_open") == kCap;
  }));

  // The kernel completes the handshake, but the router closes the socket
  // unserved.
  server::Client over;
  ASSERT_TRUE(over.Connect("127.0.0.1", router_->port(),
                           std::chrono::milliseconds(5000))
                  .ok());
  auto refused = over.Execute(RankedStatement("serving_0", 3));
  EXPECT_FALSE(refused.ok()) << "served past the connection cap";
  EXPECT_DOUBLE_EQ(RegistryValue(*router_, "svq_router_connections_open"),
                   kCap);

  // A freed slot admits the next connection.
  ::close(held.back());
  held.pop_back();
  ASSERT_TRUE(WaitFor([&]() {
    return RegistryValue(*router_, "svq_router_connections_open") == kCap - 1;
  }));
  server::Client next = RouterClient();
  auto response = next.Execute(RankedStatement("serving_0", 3));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
  for (const int fd : held) ::close(fd);
}

TEST_F(ClusterTest, PipelinedRequestsPastTheAdmissionBoundAreRejected) {
  // Backends roomy enough to take everything the router admits, so every
  // kResourceExhausted below is the router's own.
  server::ServerOptions backend;
  backend.max_queue = 128;
  StartCluster(TestOptions(), 2, backend);
  const std::string statement = RankedStatement("serving_3", 3);
  auto reference = query::ExecuteStatementOn(oracle_.Pin(), statement);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->topk.has_value());
  const auto& expected = reference->topk->sequences;

  // Far more requests on one connection than the router holds admitted at
  // once (the connection cap, 64), sent in one burst.
  constexpr uint64_t kRequests = 300;
  std::string burst;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    burst += server::EncodeQueryRequest({id, statement, 0});
  }
  const int fd = RawConnect(router_->port(), std::chrono::seconds(30));
  ASSERT_TRUE(SendAll(fd, burst));

  std::map<uint64_t, server::QueryResponse> responses;
  server::FrameAssembler assembler;
  while (responses.size() < kRequests) {
    std::string payload;
    bool has_frame = false;
    ASSERT_TRUE(assembler.Next(&payload, &has_frame).ok());
    if (!has_frame) {
      char buffer[65536];
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      ASSERT_GT(n, 0) << "after " << responses.size() << " responses";
      assembler.Feed(buffer, static_cast<size_t>(n));
      continue;
    }
    server::WireCursor cursor(payload);
    server::MessageType type = server::MessageType::kQueryRequest;
    ASSERT_TRUE(server::DecodePayloadHeader(&cursor, &type).ok());
    server::QueryResponse response;
    ASSERT_TRUE(server::DecodeQueryResponse(&cursor, &response).ok());
    ASSERT_TRUE(responses.emplace(response.request_id, response).second)
        << "request " << response.request_id << " answered twice";
  }
  ::close(fd);

  int ok = 0;
  int rejected = 0;
  for (const auto& [id, response] : responses) {
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, kRequests);
    if (response.status.IsResourceExhausted()) {
      ++rejected;
      continue;
    }
    ASSERT_TRUE(response.status.ok()) << id << ": " << response.status;
    ++ok;
    ASSERT_EQ(response.sequences.size(), expected.size()) << id;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.sequences[i].begin, expected[i].clips.begin) << id;
      EXPECT_EQ(response.sequences[i].end, expected[i].clips.end) << id;
      EXPECT_DOUBLE_EQ(response.sequences[i].lower_bound,
                       expected[i].lower_bound)
          << id;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_DOUBLE_EQ(RegistryValue(*router_, "svq_router_rejected_total"),
                   rejected);
}

TEST_F(ClusterTest, ShutdownReturnsPromptlyUnderConnectionChurn) {
  StartCluster();
  std::atomic<bool> stop{false};
  std::thread churn([&]() {
    const uint16_t port = router_->port();
    while (!stop.load()) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto begin = Clock::now();
  router_->Shutdown();
  const auto elapsed = Clock::now() - begin;
  stop.store(true);
  churn.join();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(CircuitBreakerTest, ThresholdCooldownAndHalfOpenProbe) {
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.cooldown = std::chrono::milliseconds(100);
  CircuitBreaker breaker(options);
  using State = CircuitBreaker::State;
  const auto t0 = CircuitBreaker::Clock::time_point{} +
                  std::chrono::seconds(1000);

  // Two failures stay closed; a success resets the consecutive count.
  breaker.RecordFailure(t0);
  breaker.RecordFailure(t0);
  EXPECT_EQ(breaker.state(), State::kClosed);
  breaker.RecordSuccess();
  breaker.RecordFailure(t0);
  breaker.RecordFailure(t0);
  EXPECT_EQ(breaker.state(), State::kClosed);
  // The third consecutive failure trips it.
  breaker.RecordFailure(t0);
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(t0 + std::chrono::milliseconds(99)));
  // Past the cooldown exactly one probe is admitted, and told so.
  const auto probe_time = t0 + std::chrono::milliseconds(100);
  bool probe = false;
  EXPECT_TRUE(breaker.AllowRequest(probe_time, &probe));
  EXPECT_TRUE(probe);
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest(probe_time, &probe));
  EXPECT_FALSE(probe);
  // A failed probe re-opens for another full cooldown.
  breaker.RecordFailure(probe_time);
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_FALSE(
      breaker.AllowRequest(probe_time + std::chrono::milliseconds(99)));
  EXPECT_TRUE(
      breaker.AllowRequest(probe_time + std::chrono::milliseconds(100)));
  // A successful probe closes it; requests it admits then are no probes.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(probe_time, &probe));
  EXPECT_FALSE(probe);
  // An abandoned probe (its client left) must not strand the breaker
  // half-open: it reopens, due for a new probe at once.
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(probe_time);
  const auto second_probe = probe_time + std::chrono::milliseconds(100);
  EXPECT_TRUE(breaker.AllowRequest(second_probe));
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  breaker.RecordAbandoned(second_probe);
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_TRUE(breaker.AllowRequest(second_probe));
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  // Abandoning outside a probe changes nothing.
  breaker.RecordSuccess();
  breaker.RecordAbandoned(second_probe);
  EXPECT_EQ(breaker.state(), State::kClosed);
}

TEST(RouterHedgingTest, SlowShardTriggersAHedgeRequest) {
  // The only backend accepts nothing, so the primary request stalls past
  // hedge_after and the router must issue a hedge.
  SilentListener backend;
  RouterOptions options = TestOptions();
  options.max_retries = 0;
  options.hedge_after = std::chrono::milliseconds(20);
  options.recv_timeout = std::chrono::milliseconds(150);
  Router router(backend.Map(), options);
  ASSERT_TRUE(router.Start().ok());

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()).ok());
  auto response = client.Execute(RankedStatement("serving_0", 3));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.IsUnavailable()) << response->status;
  EXPECT_GE(RegistryValue(router, "svq_router_hedges_total"), 1.0);
  router.Shutdown();
}

TEST(RouterCancelTest, ClientDisconnectCancelsBackendWork) {
  // The only backend accepts nothing and recv_timeout is long, so without
  // cancellation the routed request would hold its admission slot and its
  // backend connection for 30 s after the client left.
  SilentListener backend;
  RouterOptions options = TestOptions();
  options.max_retries = 0;
  options.recv_timeout = std::chrono::seconds(30);
  Router router(backend.Map(), options);
  ASSERT_TRUE(router.Start().ok());

  const int client = RawConnect(router.port());
  ASSERT_TRUE(SendAll(client, server::EncodeQueryRequest(
                                  {1, RankedStatement("serving_0", 3), 0})));
  // Wait until the router has dialed the backend, then leave mid-request.
  pollfd dialed{backend.fd, POLLIN, 0};
  ASSERT_EQ(::poll(&dialed, 1, 5000), 1);
  const int accepted = ::accept(backend.fd, nullptr, nullptr);
  ASSERT_GE(accepted, 0);
  timeval tv{5, 0};
  ::setsockopt(accepted, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::close(client);

  // The router abandons the backend request: it closes its side of the
  // backend connection (after the request bytes) well within the 5 s
  // receive timeout.
  const auto left = Clock::now();
  bool eof = false;
  ReadUntilEof(accepted, &eof);
  ::close(accepted);
  EXPECT_TRUE(eof) << "the backend connection outlived its client";
  EXPECT_LT(Clock::now() - left, std::chrono::seconds(2));
  // The request's slot is free again, so drain has nothing to wait for.
  EXPECT_TRUE(WaitFor(
      [&]() { return RegistryValue(router, "svq_router_in_flight") == 0.0; }));
  const auto shutdown = Clock::now();
  router.Shutdown();
  EXPECT_LT(Clock::now() - shutdown, std::chrono::seconds(1));
}

TEST(RouterDeadlineTest, HungShardFreesRequestsAtTheirDeadline) {
  // A backend that accepts connections but never replies. Requests for it
  // carry a budget far below recv_timeout: each must be answered with
  // kDeadlineExceeded when its budget runs out, and while they wait, a
  // request for the healthy shard must not queue behind them.
  RouterOptions options = TestOptions();
  options.max_retries = 0;
  options.recv_timeout = std::chrono::seconds(30);
  HalfSilentCluster cluster(options);
  constexpr uint32_t kTimeoutMs = 500;
  constexpr int kHung = 8;
  const auto sent = Clock::now();
  std::vector<int> hung;
  for (int i = 0; i < kHung; ++i) {
    hung.push_back(RawConnect(cluster.router->port()));
    ASSERT_TRUE(SendAll(
        hung.back(),
        server::EncodeQueryRequest({static_cast<uint64_t>(i + 1),
                                    RankedStatement("serving_1", 3),
                                    kTimeoutMs})));
  }
  ASSERT_TRUE(WaitFor([&]() {
    return RegistryValue(*cluster.router, "svq_router_in_flight") == kHung;
  }));

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", cluster.router->port()).ok());
  const auto healthy_begin = Clock::now();
  auto healthy = client.Execute(RankedStatement("serving_0", 3));
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_TRUE(healthy->status.ok()) << healthy->status;
  EXPECT_LT(Clock::now() - healthy_begin,
            std::chrono::milliseconds(kTimeoutMs))
      << "the healthy shard's request waited behind the hung ones";

  for (const int fd : hung) {
    server::QueryResponse response;
    ASSERT_TRUE(ReadResponse(fd, server::MessageType::kQueryResponse,
                             server::DecodeQueryResponse, &response));
    EXPECT_TRUE(response.status.IsDeadlineExceeded()) << response.status;
    ::close(fd);
  }
  EXPECT_LT(Clock::now() - sent, std::chrono::milliseconds(kTimeoutMs + 1500))
      << "hung requests were held past their budget";
  EXPECT_DOUBLE_EQ(
      RegistryValue(*cluster.router, "svq_router_deadline_exceeded_total"),
      kHung);
}

TEST(RouterStatsTest, StatsPastTheAdmissionBoundRepeatTheLastAggregate) {
  // STATS carries no status, so a STATS that admission turns away cannot
  // say so. It must not answer with backend counters reset to zero either:
  // a scraper would read them as going backwards.
  RouterOptions options = TestOptions();
  options.max_retries = 0;
  options.recv_timeout = std::chrono::milliseconds(1000);
  HalfSilentCluster cluster(options);
  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", cluster.router->port()).ok());
  auto served = client.Execute(RankedStatement("serving_0", 3));
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_TRUE(served->status.ok()) << served->status;
  // The silent shard times out; the live one's counters come back.
  auto before = client.GetStats();
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->ValueOf("svqd_queries_ok_total"), 1.0);

  // Fill every admission slot with requests the silent shard holds for
  // recv_timeout (or connect_timeout, past its listen backlog).
  constexpr uint64_t kCap = 64;
  std::string flood;
  for (uint64_t id = 1; id <= kCap; ++id) {
    flood += server::EncodeQueryRequest(
        {id, RankedStatement("serving_1", 3), 0});
  }
  const int flooder = RawConnect(cluster.router->port());
  ASSERT_TRUE(SendAll(flooder, flood));
  ASSERT_TRUE(WaitFor([&]() {
    return RegistryValue(*cluster.router, "svq_router_in_flight") == kCap;
  }));

  auto after = client.GetStats();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_DOUBLE_EQ(RegistryValue(*cluster.router, "svq_router_rejected_total"),
                   1.0)
      << "the STATS was admitted after all";
  EXPECT_EQ(after->ValueOf("svqd_queries_ok_total"),
            before->ValueOf("svqd_queries_ok_total"));
  EXPECT_EQ(after->ValueOf("svqd_queries_accepted_total"),
            before->ValueOf("svqd_queries_accepted_total"));
  EXPECT_EQ(*after, *before);
  ::close(flooder);  // cancels the flood
}

TEST(ShardMapTest, AssignContiguousSaveLoadRoundTrip) {
  auto map = AssignContiguous(
      {"video_c", "video_a", "video_e", "video_b", "video_d"},
      {{"10.0.0.1", 7001}, {"10.0.0.2", 7002}}, /*version=*/42);
  ASSERT_TRUE(map.ok()) << map.status();
  // Contiguous in sorted-name order, remainder on the leading shard.
  EXPECT_EQ(map->ShardOf("video_a"), 0);
  EXPECT_EQ(map->ShardOf("video_b"), 0);
  EXPECT_EQ(map->ShardOf("video_c"), 0);
  EXPECT_EQ(map->ShardOf("video_d"), 1);
  EXPECT_EQ(map->ShardOf("video_e"), 1);
  EXPECT_LT(map->ShardOf("unassigned"), 0);

  const std::string path =
      ::testing::TempDir() + "/cluster_test_shard_map.bin";
  ASSERT_TRUE(SaveShardMap(io::Env::Default(), path, *map).ok());
  auto loaded = LoadShardMap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, *map);
  EXPECT_EQ(loaded->version, 42u);
  ::unlink(path.c_str());
}

TEST(ShardMapTest, RejectsCorruptionAndStructuralErrors) {
  auto map = AssignContiguous({"a", "b"}, {{"127.0.0.1", 7001}});
  ASSERT_TRUE(map.ok()) << map.status();
  const std::string path =
      ::testing::TempDir() + "/cluster_test_shard_map_corrupt.bin";
  ASSERT_TRUE(SaveShardMap(io::Env::Default(), path, *map).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Every single-byte flip must be caught (checksum or parse), and every
  // truncation must fail cleanly — a torn map must never half-load.
  for (size_t at : {size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << flipped;
    EXPECT_FALSE(LoadShardMap(path).ok()) << "flip at " << at;
  }
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() - 1}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, cut);
    EXPECT_FALSE(LoadShardMap(path).ok()) << "cut at " << cut;
  }
  ::unlink(path.c_str());

  // Structural validation: no shards, out-of-range assignment.
  ShardMap empty;
  EXPECT_TRUE(empty.Validate().IsInvalidArgument());
  ShardMap out_of_range;
  out_of_range.shards.push_back({"127.0.0.1", 7001});
  out_of_range.assignments["v"] = 5;
  EXPECT_TRUE(out_of_range.Validate().IsInvalidArgument());
  EXPECT_FALSE(AssignContiguous({"a"}, {}).ok());
}

TEST(ClientConnectTimeoutTest, RefusedConnectFailsFastWithTimeoutSet) {
  // Grab a port that nothing listens on by binding and closing it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&bound), &len),
            0);
  const uint16_t dead_port = ntohs(bound.sin_port);
  ::close(probe);

  server::Client client;
  const auto t0 = Clock::now();
  const Status status =
      client.Connect("127.0.0.1", dead_port, std::chrono::milliseconds(1000),
                     /*connect_timeout=*/std::chrono::milliseconds(500));
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(client.connected());
  // Refusal is immediate — the timeout is an upper bound, not a sleep.
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));
}

TEST(ClientConnectTimeoutTest, NonBlockingConnectServesQueriesNormally) {
  core::VideoQueryEngine engine;
  ASSERT_TRUE(engine.AddVideo(ClusterVideo(0)).ok());
  ASSERT_TRUE(engine.IngestAll().ok());
  server::Server server(&engine, {});
  ASSERT_TRUE(server.Start().ok());

  // The non-blocking connect path must leave the socket in the same state
  // as the default blocking path: blocking IO, working round trips.
  server::Client client;
  ASSERT_TRUE(client
                  .Connect("127.0.0.1", server.port(),
                           std::chrono::milliseconds(120000),
                           std::chrono::milliseconds(1000))
                  .ok());
  auto response = client.Execute(RankedStatement("serving_0", 3));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
  server.Shutdown();
}

TEST(ClientConnectTimeoutTest, BackloggedListenerTimesOutWithinBudget) {
  // listen(fd, 0) plus unaccepted saturator connections makes the kernel
  // drop further SYNs, so a fresh connect hangs in SYN_SENT — exactly the
  // black-holed-backend case the connect timeout exists for.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 0), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len), 0);
  std::vector<int> saturators;
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    ::connect(fd, reinterpret_cast<sockaddr*>(&bound), sizeof(bound));
    saturators.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server::Client client;
  const auto t0 = Clock::now();
  const Status status = client.Connect(
      "127.0.0.1", ntohs(bound.sin_port), std::chrono::milliseconds(1000),
      /*connect_timeout=*/std::chrono::milliseconds(100));
  const auto elapsed = Clock::now() - t0;
  for (int fd : saturators) ::close(fd);
  ::close(listener);
  if (status.ok()) {
    GTEST_SKIP() << "kernel admitted the connection past the backlog";
  }
  EXPECT_FALSE(client.connected());
  // Must give up near the 100 ms budget, far before a blocking connect
  // would (SYN retransmits run for minutes).
  EXPECT_GE(elapsed, std::chrono::milliseconds(50));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

}  // namespace
}  // namespace svq::cluster
