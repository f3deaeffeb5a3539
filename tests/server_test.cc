// Integration tests for the svqd serving layer: wire answers must match the
// in-process engine on the same snapshot, overload must produce clean
// kResourceExhausted rejections, client timeouts must surface as
// kDeadlineExceeded, and drain must flush responses before the server exits.
//
// Runs under `ctest -L tsan` (with -DSVQ_SANITIZE=thread) to prove the
// locking discipline between the event loops, the threads that send on
// connections they do not own, and the stats bridge is race-free.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svq/common/rng.h"
#include "svq/core/engine.h"
#include "svq/query/executor.h"
#include "svq/query/explain.h"
#include "svq/server/client.h"
#include "svq/server/server.h"
#include "svq/video/synthetic_video.h"

namespace svq::server {
namespace {

constexpr const char* kRankedStatement =
    "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS serving_0 PRODUCE "
    "clipID, obj USING ObjectDetector, act USING ActionRecognizer) "
    "WHERE act='smoking' AND obj.include('cup') "
    "ORDER BY RANK(act, obj) LIMIT 3";

constexpr const char* kBroadcastStatement =
    "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS * PRODUCE "
    "clipID, obj USING ObjectDetector, act USING ActionRecognizer) "
    "WHERE act='smoking' AND obj.include('cup') "
    "ORDER BY RANK(act, obj) LIMIT 3";

constexpr const char* kStreamingStatement =
    "SELECT MERGE(clipID) FROM (PROCESS serving_0 PRODUCE clipID, obj USING "
    "ObjectDetector, act USING ActionRecognizer) "
    "WHERE act='smoking' AND obj.include('cup')";

std::shared_ptr<const video::SyntheticVideo> ServingVideo(
    int index, int64_t num_frames = 36000) {
  video::SyntheticVideoSpec spec;
  spec.name = "serving_" + std::to_string(index);
  spec.num_frames = num_frames;
  spec.seed = 9100 + static_cast<uint64_t>(index);
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

/// Polls `done` until it holds or `budget` runs out; returns its last value.
template <typename Predicate>
bool WaitFor(Predicate done,
             std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Empty when `got` is `want`: the same clips, bounds within 1e-9.
std::string Mismatch(const QueryResponse& got,
                     const query::StatementResult& want) {
  std::vector<WireSequence> expected;
  if (want.topk.has_value()) {
    for (const core::RankedSequence& s : want.topk->sequences) {
      expected.push_back(
          {s.clips.begin, s.clips.end, s.lower_bound, s.upper_bound});
    }
  } else if (want.repo.has_value()) {
    for (const core::RepositoryEntry& e : want.repo->sequences) {
      expected.push_back({e.sequence.clips.begin, e.sequence.clips.end,
                          e.sequence.lower_bound, e.sequence.upper_bound});
    }
  } else {
    return "the oracle is not ranked";
  }
  if (!got.status.ok()) return "status " + got.status.ToString();
  if (!got.ranked) return "unranked response";
  if (got.sequences.size() != expected.size()) {
    return std::to_string(got.sequences.size()) + " sequences, want " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const WireSequence& a = got.sequences[i];
    const WireSequence& b = expected[i];
    if (a.begin != b.begin || a.end != b.end ||
        std::fabs(a.lower_bound - b.lower_bound) > 1e-9 ||
        std::fabs(a.upper_bound - b.upper_bound) > 1e-9) {
      return "sequence " + std::to_string(i) + " differs";
    }
  }
  return "";
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(const ServerOptions& options = {}) {
    ASSERT_TRUE(engine_.AddVideo(ServingVideo(0)).ok());
    ASSERT_TRUE(engine_.IngestAll().ok());
    server_ = std::make_unique<Server>(&engine_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
  }

  Client Connected() {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  core::VideoQueryEngine engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, RankedQueryMatchesInProcessExecution) {
  StartServer();
  // The reference answer, computed in-process on a pinned snapshot — the
  // same entry point the server itself uses.
  auto reference = query::ExecuteStatementOn(engine_.Pin(), kRankedStatement);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->topk.has_value());

  Client client = Connected();
  auto response = client.Execute(kRankedStatement);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  EXPECT_TRUE(response->ranked);

  const auto& expected = reference->topk->sequences;
  ASSERT_EQ(response->sequences.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(response->sequences[i].begin, expected[i].clips.begin) << i;
    EXPECT_EQ(response->sequences[i].end, expected[i].clips.end) << i;
    EXPECT_DOUBLE_EQ(response->sequences[i].lower_bound,
                     expected[i].lower_bound)
        << i;
    EXPECT_DOUBLE_EQ(response->sequences[i].upper_bound,
                     expected[i].upper_bound)
        << i;
  }
  EXPECT_GE(response->metrics.server_exec_ms, 0.0);
}

TEST_F(ServerTest, ExplainVerbRoundTripsThePlan) {
  StartServer();
  Client client = Connected();
  auto response = client.Explain(kRankedStatement);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  // The rendered plan carries the chosen algorithm and the per-operator
  // estimates over the wire, and it is identical to the in-process
  // rendering against the same catalog state.
  EXPECT_NE(response->text.find("Plan: algorithm="), std::string::npos);
  EXPECT_NE(response->text.find("cost-based auto selection"),
            std::string::npos);
  EXPECT_NE(response->text.find("est rows="), std::string::npos);
  EXPECT_NE(response->text.find("sweep (most selective first):"),
            std::string::npos);
  auto reference = query::ExplainStatementOn(engine_.Pin(), kRankedStatement);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(response->text, *reference);
}

TEST_F(ServerTest, ExplainAnalyzeExecutesAndRendersActuals) {
  StartServer();
  Client client = Connected();
  auto response = client.Explain(kRankedStatement, /*analyze=*/true);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  EXPECT_NE(response->text.find("[ANALYZE]"), std::string::npos);
  EXPECT_NE(response->text.find("actual rows="), std::string::npos);
  EXPECT_NE(response->text.find("candidates: actual "), std::string::npos);
}

TEST_F(ServerTest, ExplainParseErrorsTravelAsExplainStatus) {
  StartServer();
  Client client = Connected();
  auto response = client.Explain("EXPLAIN garbage");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->status.ok());
  // The connection survives the failed EXPLAIN.
  auto again = client.Explain(kRankedStatement);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->status.ok());
}

TEST_F(ServerTest, StreamingQueryMatchesInProcessExecution) {
  StartServer();
  auto reference =
      query::ExecuteStatementOn(engine_.Pin(), kStreamingStatement);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->online.has_value());

  Client client = Connected();
  auto response = client.Execute(kStreamingStatement);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  EXPECT_FALSE(response->ranked);

  const auto intervals = reference->online->sequences.intervals();
  ASSERT_EQ(response->sequences.size(), intervals.size());
  for (size_t i = 0; i < intervals.size(); ++i) {
    EXPECT_EQ(response->sequences[i].begin, intervals[i].begin) << i;
    EXPECT_EQ(response->sequences[i].end, intervals[i].end) << i;
  }
}

TEST_F(ServerTest, ConcurrentClientsAllGetTheReferenceAnswer) {
  ServerOptions options;
  options.max_in_flight = 2;
  StartServer(options);
  auto reference = query::ExecuteStatementOn(engine_.Pin(), kRankedStatement);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const auto& expected = reference->topk->sequences;

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> matches{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&]() {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      auto response = client.Execute(kRankedStatement);
      if (!response.ok() || !response->status.ok()) return;
      if (response->sequences.size() != expected.size()) return;
      for (size_t j = 0; j < expected.size(); ++j) {
        if (response->sequences[j].begin != expected[j].clips.begin) return;
        if (response->sequences[j].end != expected[j].clips.end) return;
      }
      matches.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(matches.load(), kClients);
}

TEST_F(ServerTest, OverloadBurstGetsCleanRejections) {
  ServerOptions options;
  options.max_in_flight = 1;
  options.max_queue = 1;
  StartServer(options);

  // Eight simultaneous requests against capacity 1 executing + 1 queued:
  // at least one must be turned away at admission, every request must get
  // a well-formed response, and nothing may fail for any other reason. The
  // streaming statement pays per-clip model work (milliseconds), so the
  // burst reliably outlasts the executing slot; a ranked statement over
  // in-memory tables can finish before the next connection lands.
  constexpr int kClients = 8;
  std::atomic<int> ok{0}, rejected{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&]() {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        other.fetch_add(1);
        return;
      }
      auto response = client.Execute(kStreamingStatement);
      if (!response.ok()) {
        other.fetch_add(1);
      } else if (response->status.ok()) {
        ok.fetch_add(1);
      } else if (response->status.IsResourceExhausted()) {
        rejected.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load() + rejected.load(), kClients);
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(rejected.load(), 1);
  EXPECT_EQ(other.load(), 0);

  const observability::MetricsSnapshot stats = server_->Metrics();
  EXPECT_EQ(stats.ValueOf("svqd_queries_rejected_total"), rejected.load());
  EXPECT_EQ(stats.ValueOf("svqd_queries_ok_total"), ok.load());
}

TEST_F(ServerTest, ClientTimeoutSurfacesAsDeadlineExceeded) {
  ServerOptions options;
  options.max_in_flight = 1;
  // The streaming path pays real per-clip work — milliseconds of wall time
  // over this 4500-clip video, where the fixture's 450-clip one can finish
  // within a millisecond — and the engine polls the ExecutionContext at
  // the top of every clip, so a 1 ms budget expires mid-query and the
  // server cancels it rather than running to completion. (The ranked path
  // resolves in microseconds here, too fast to time out.)
  ASSERT_TRUE(engine_.AddVideo(ServingVideo(1, /*num_frames=*/360000)).ok());
  StartServer(options);
  const std::string statement =
      "SELECT MERGE(clipID) FROM (PROCESS serving_1 PRODUCE clipID, obj "
      "USING ObjectDetector, act USING ActionRecognizer) "
      "WHERE act='smoking' AND obj.include('cup')";
  Client client = Connected();
  auto response = client.Execute(statement, /*timeout_ms=*/1);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.IsDeadlineExceeded()) << response->status;
  const observability::MetricsSnapshot stats = server_->Metrics();
  EXPECT_EQ(stats.ValueOf("svqd_queries_deadline_exceeded_total"), 1.0);
  EXPECT_EQ(stats.ValueOf("svqd_queries_ok_total"), 0.0);
}

TEST_F(ServerTest, StatsVerbReportsCounters) {
  StartServer();
  Client client = Connected();
  auto response = client.Execute(kRankedStatement);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok());

  auto stats = client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->ValueOf("svqd_queries_accepted_total"), 1.0);
  EXPECT_EQ(stats->ValueOf("svqd_queries_ok_total"), 1.0);
  EXPECT_EQ(stats->ValueOf("svqd_queries_rejected_total"), 0.0);
  EXPECT_EQ(stats->ValueOf("svqd_stats_requests_total"), 1.0);
  EXPECT_EQ(stats->ValueOf("svqd_connections_open"), 1.0);
  const observability::HistogramSnapshot* latency =
      stats->FindHistogram("svqd_query_latency_micros");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1);
  EXPECT_GT(latency->PercentileMicros(0.5), 0.0);
}

TEST_F(ServerTest, StatsVerbRoundTripsRegistryCounters) {
  StartServer();
  Client client = Connected();
  auto response = client.Execute(kRankedStatement);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok());

  auto stats = client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_FALSE(stats->counters.empty());

  const auto histogram = [&](const std::string& name) {
    const observability::HistogramSnapshot* found = stats->FindHistogram(name);
    if (found == nullptr) ADD_FAILURE() << "histogram missing: " << name;
    return found != nullptr ? *found : observability::HistogramSnapshot();
  };
  EXPECT_EQ(histogram("svqd_query_latency_micros").count, 1);
  EXPECT_GT(histogram("svqd_query_latency_micros").sum_micros, 0.0);
  // The ranked query executed, so the per-phase trace spans fed the phase
  // histograms and the engine aggregates saw storage traffic. Which access
  // class depends on the planner's algorithm choice (RVAQ drives sorted
  // cursors, Pq-Traverse reads sequentially), so assert on the sum.
  EXPECT_EQ(histogram("svqd_phase_parse_micros").count, 1);
  EXPECT_EQ(histogram("svqd_phase_execute_micros").count, 1);
  const auto value = [&](const std::string& name) {
    const std::optional<double> found = stats->ValueOf(name);
    if (!found) ADD_FAILURE() << "registry entry missing: " << name;
    return found.value_or(-1.0);
  };
  EXPECT_GT(value("svq_storage_sorted_accesses_total") +
                value("svq_storage_random_accesses_total") +
                value("svq_storage_sequential_reads_total"),
            0.0);

  // The wire carried the server's in-process registry entry for entry and
  // bucket for bucket, help strings aside. Nothing has run since, except
  // that the STATS verb recorded its own latency after encoding.
  const observability::MetricsSnapshot in_process = server_->Metrics();
  const auto expect_values =
      [](const std::vector<observability::MetricsSnapshot::Value>& wire,
         const std::vector<observability::MetricsSnapshot::Value>& local) {
        ASSERT_EQ(wire.size(), local.size());
        for (size_t i = 0; i < local.size(); ++i) {
          EXPECT_EQ(wire[i].name, local[i].name);
          EXPECT_EQ(wire[i].value, local[i].value) << local[i].name;
          EXPECT_TRUE(wire[i].help.empty()) << local[i].name;
        }
      };
  expect_values(stats->counters, in_process.counters);
  expect_values(stats->gauges, in_process.gauges);
  ASSERT_EQ(stats->histograms.size(), in_process.histograms.size());
  for (size_t i = 0; i < in_process.histograms.size(); ++i) {
    observability::HistogramSnapshot wire = stats->histograms[i];
    const observability::HistogramSnapshot& local = in_process.histograms[i];
    ASSERT_EQ(wire.name, local.name);
    EXPECT_TRUE(wire.help.empty()) << local.name;
    if (local.name == "svqd_stats_latency_micros") {
      EXPECT_EQ(wire.count + 1, local.count);
      continue;
    }
    wire.help = local.help;
    EXPECT_EQ(wire, local) << local.name;
  }
}

TEST_F(ServerTest, BroadcastFeedsTheExecutePhaseHistogram) {
  // A `PROCESS *` statement executes under its own span and plans nothing:
  // it counts once as execution and leaves the plan histogram alone.
  StartServer();
  const auto count = [&](const std::string& name) {
    const observability::MetricsSnapshot stats = server_->Metrics();
    const observability::HistogramSnapshot* found = stats.FindHistogram(name);
    if (found == nullptr) ADD_FAILURE() << "histogram missing: " << name;
    return found != nullptr ? found->count : int64_t{-1};
  };
  const int64_t execute_before = count("svqd_phase_execute_micros");
  const int64_t plan_before = count("svqd_phase_plan_micros");
  Client client = Connected();
  auto response = client.Execute(kBroadcastStatement);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  EXPECT_EQ(count("svqd_phase_execute_micros"), execute_before + 1);
  EXPECT_EQ(count("svqd_phase_plan_micros"), plan_before);
}

TEST_F(ServerTest, BadStatementReturnsErrorNotDisconnect) {
  StartServer();
  Client client = Connected();
  auto response = client.Execute("SELECT FROM WHERE nonsense((");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->status.ok());
  // The connection survives a statement-level error.
  auto retry = client.Execute(kRankedStatement);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_TRUE(retry->status.ok()) << retry->status;
}

TEST_F(ServerTest, MalformedFrameClosesConnectionCleanly) {
  StartServer();
  // Speak raw TCP: a frame with a bogus wire version must not crash the
  // server; it answers with one error response and closes the connection.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A server that kept the connection open fails the test, not hangs it.
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const unsigned char bad[] = {2, 0, 0, 0, /*version=*/9, /*type=*/1};
  ASSERT_EQ(::send(fd, bad, sizeof(bad), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(bad)));
  // Read until EOF; the server flushes its error response first.
  std::string received;
  char buffer[256];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    received.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(n, 0) << "the server kept the connection open";
  EXPECT_GT(received.size(), kFrameHeaderBytes);
  // Exactly one reply: a QUERY response carrying the version mismatch.
  FrameAssembler assembler;
  assembler.Feed(received.data(), received.size());
  std::string payload;
  bool has_frame = false;
  ASSERT_TRUE(assembler.Next(&payload, &has_frame).ok());
  ASSERT_TRUE(has_frame);
  WireCursor cursor(payload);
  MessageType type = MessageType::kQueryRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  ASSERT_EQ(type, MessageType::kQueryResponse);
  QueryResponse reply;
  ASSERT_TRUE(DecodeQueryResponse(&cursor, &reply).ok());
  EXPECT_TRUE(reply.status.IsUnimplemented()) << reply.status;
  EXPECT_EQ(assembler.buffered_bytes(), 0u) << "more than one reply";

  // And the server is still healthy for well-formed clients.
  Client client = Connected();
  auto response = client.Execute(kStreamingStatement);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
}

TEST_F(ServerTest, ShutdownDrainsInFlightQueries) {
  StartServer();
  std::atomic<bool> got_ok{false};
  std::thread inflight([&]() {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto response = client.Execute(kRankedStatement);
    if (response.ok() && response->status.ok()) got_ok.store(true);
  });
  // Only start draining once the query is admitted, so this exercises the
  // drain path rather than the draining-rejects-new-work path.
  while (server_->Metrics().ValueOf("svqd_queries_accepted_total") == 0.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->Shutdown();
  inflight.join();
  EXPECT_TRUE(got_ok.load());

  // After drain, new connections are refused or dropped without an answer.
  Client late;
  if (late.Connect("127.0.0.1", server_->port()).ok()) {
    auto response = late.Execute(kStreamingStatement);
    EXPECT_FALSE(response.ok() && response->status.ok());
  }
}

TEST_F(ServerTest, DrainingServerRejectsQueuedBacklog) {
  ServerOptions options;
  options.max_in_flight = 1;
  options.max_queue = 8;
  StartServer(options);

  std::atomic<int> ok{0}, cancelled{0};
  std::thread slow([&]() {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto response = client.Execute(kRankedStatement);
    if (response.ok() && response->status.ok()) ok.fetch_add(1);
  });
  while (true) {
    const observability::MetricsSnapshot stats = server_->Metrics();
    if (stats.ValueOf("svqd_in_flight") > 0.0 ||
        stats.ValueOf("svqd_queries_ok_total") > 0.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Queue one more behind the in-flight query, then shut down: the backlog
  // entry must receive an explicit Cancelled response, not silence.
  std::thread queued([&]() {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto response = client.Execute(kRankedStatement);
    if (response.ok() && response->status.IsCancelled()) cancelled.fetch_add(1);
    if (response.ok() && response->status.ok()) ok.fetch_add(1);
  });
  while (server_->Metrics().ValueOf("svqd_queue_depth") == 0.0 &&
         server_->Metrics().ValueOf("svqd_queries_accepted_total") < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->Shutdown(std::chrono::milliseconds(0));
  slow.join();
  queued.join();
  // The queued query either got cancelled by the zero-budget drain or (if
  // the worker was quick enough to pick it up) completed; both are clean.
  EXPECT_EQ(ok.load() + cancelled.load(), 2);
}

TEST_F(ServerTest, SubscribeFeedEventRoundTripMatchesOracle) {
  StartServer();
  // The serial reference: the same statement through the batch QUERY path.
  auto reference =
      query::ExecuteStatementOn(engine_.Pin(), kStreamingStatement);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const auto oracle = reference->online->sequences.intervals();
  ASSERT_FALSE(oracle.empty());

  Client client = Connected();
  auto subscribed = client.Subscribe(/*feed=*/"", kStreamingStatement);
  ASSERT_TRUE(subscribed.ok()) << subscribed.status();
  ASSERT_TRUE(subscribed->status.ok()) << subscribed->status;
  EXPECT_GT(subscribed->subscription_id, 0u);
  // An empty feed name resolves to the statement's FROM video.
  EXPECT_EQ(subscribed->feed, "serving_0");

  // Drive the feed to exhaustion; pushed EVENT frames interleave with the
  // FEED responses and land in the client's stash.
  int64_t total_dispatched = 0;
  bool closed = false;
  while (!closed) {
    auto fed = client.FeedClips(subscribed->feed, 64);
    ASSERT_TRUE(fed.ok()) << fed.status();
    ASSERT_TRUE(fed->status.ok()) << fed->status;
    total_dispatched += fed->clips_dispatched;
    closed = fed->feed_closed;
  }
  EXPECT_EQ(total_dispatched, ServingVideo(0)->NumClips());

  // Unsubscribe flushes every remaining event ahead of its ack, so the
  // stash now holds the subscription's complete story.
  auto unsubscribed = client.Unsubscribe(subscribed->subscription_id);
  ASSERT_TRUE(unsubscribed.ok()) << unsubscribed.status();
  ASSERT_TRUE(unsubscribed->status.ok()) << unsubscribed->status;

  std::vector<EventFrame> events;
  while (client.stashed_events() > 0) {
    auto event = client.NextEvent();
    ASSERT_TRUE(event.ok()) << event.status();
    EXPECT_EQ(event->subscription_id, subscribed->subscription_id);
    events.push_back(*event);
  }
  ASSERT_EQ(events.size(), oracle.size() + 1);
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(events[i].kind, 1) << i;
    EXPECT_EQ(events[i].begin, oracle[i].begin) << i;
    EXPECT_EQ(events[i].end, oracle[i].end) << i;
  }
  EXPECT_EQ(events.back().kind, 3);  // end of stream

  // The streaming counters crossed the metrics bridge.
  const auto registry = server_->Metrics().Flatten();
  const auto find = [&](const std::string& name) -> double {
    for (const auto& [key, value] : registry) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "registry entry missing: " << name;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(find("svq_stream_subscriptions_total"), 1.0);
  EXPECT_DOUBLE_EQ(find("svq_stream_subscriptions_active"), 0.0);
  EXPECT_DOUBLE_EQ(find("svq_stream_clips_dispatched_total"),
                   static_cast<double>(total_dispatched));
  EXPECT_GT(find("svq_stream_events_pushed_total"),
            static_cast<double>(oracle.size()) - 0.5);
  EXPECT_GT(find("svq_stream_model_units_run_total"), 0.0);
  EXPECT_DOUBLE_EQ(find("svqd_subscribe_requests_total"), 1.0);
  EXPECT_DOUBLE_EQ(find("svqd_unsubscribe_requests_total"), 1.0);
}

TEST_F(ServerTest, SubscribeRejectsBadRequestsButKeepsConnection) {
  StartServer();
  Client client = Connected();
  // Ranked statements belong on the QUERY verb.
  auto ranked = client.Subscribe("", kRankedStatement);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  EXPECT_TRUE(ranked->status.IsInvalidArgument()) << ranked->status;
  // Mode bytes beyond SVAQD are refused.
  auto bad_mode = client.Subscribe("", kStreamingStatement, /*mode=*/7);
  ASSERT_TRUE(bad_mode.ok()) << bad_mode.status();
  EXPECT_TRUE(bad_mode->status.IsInvalidArgument()) << bad_mode->status;
  // Feeding an unknown feed and unsubscribing an unknown id are clean
  // NotFounds, and the connection survives all of it.
  auto fed = client.FeedClips("no_such_feed", 1);
  ASSERT_TRUE(fed.ok()) << fed.status();
  EXPECT_TRUE(fed->status.IsNotFound()) << fed->status;
  auto unsub = client.Unsubscribe(424242);
  ASSERT_TRUE(unsub.ok()) << unsub.status();
  EXPECT_TRUE(unsub->status.IsNotFound()) << unsub->status;
  auto response = client.Execute(kStreamingStatement);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
}

TEST_F(ServerTest, UnsubscribeIsScopedToTheOwningConnection) {
  StartServer();
  Client owner = Connected();
  auto subscribed = owner.Subscribe("", kStreamingStatement);
  ASSERT_TRUE(subscribed.ok()) << subscribed.status();
  ASSERT_TRUE(subscribed->status.ok()) << subscribed->status;

  // Another connection cannot tear down (or even probe) the subscription.
  Client intruder = Connected();
  auto stolen = intruder.Unsubscribe(subscribed->subscription_id);
  ASSERT_TRUE(stolen.ok()) << stolen.status();
  EXPECT_TRUE(stolen->status.IsNotFound()) << stolen->status;

  auto mine = owner.Unsubscribe(subscribed->subscription_id);
  ASSERT_TRUE(mine.ok()) << mine.status();
  EXPECT_TRUE(mine->status.ok()) << mine->status;
}

TEST_F(ServerTest, DisconnectCancelsStandingSubscriptions) {
  StartServer();
  {
    Client client = Connected();
    auto subscribed = client.Subscribe("", kStreamingStatement);
    ASSERT_TRUE(subscribed.ok()) << subscribed.status();
    ASSERT_TRUE(subscribed->status.ok()) << subscribed->status;
    const auto registry = server_->Metrics().Flatten();
    for (const auto& [key, value] : registry) {
      if (key == "svq_stream_subscriptions_active") {
        EXPECT_DOUBLE_EQ(value, 1.0);
      }
    }
  }  // client destructor closes the socket
  // The IO thread reaps the connection and cancels its subscriptions; the
  // active gauge must return to zero.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  double active = 1.0;
  while (std::chrono::steady_clock::now() < deadline) {
    active = -1.0;
    for (const auto& [key, value] : server_->Metrics().Flatten()) {
      if (key == "svq_stream_subscriptions_active") active = value;
    }
    if (active == 0.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_DOUBLE_EQ(active, 0.0);
}

TEST_F(ServerTest, StartRejectsOutOfRangeBounds) {
  const auto start = [&](const ServerOptions& options) {
    Server server(&engine_, options);
    return server.Start();
  };
  ServerOptions options;
  options.max_in_flight = 0;
  EXPECT_TRUE(start(options).IsInvalidArgument());
  options.max_in_flight = -1;
  EXPECT_TRUE(start(options).IsInvalidArgument());

  options = ServerOptions();
  options.max_queue = -1;
  EXPECT_TRUE(start(options).IsInvalidArgument());

  options = ServerOptions();
  options.max_connections = 0;
  EXPECT_TRUE(start(options).IsInvalidArgument());
  options.max_connections = -1;
  EXPECT_TRUE(start(options).IsInvalidArgument());

  // A loop that could never own a connection.
  options = ServerOptions();
  options.max_in_flight = 3;
  options.max_connections = 2;
  EXPECT_TRUE(start(options).IsInvalidArgument());

  // The edges themselves are valid.
  options.max_in_flight = 2;
  options.max_queue = 0;
  EXPECT_TRUE(start(options).ok());
}

TEST_F(ServerTest, LongJobOnOneConnectionDoesNotHoldBackAnother) {
  ServerOptions options;
  options.max_in_flight = 2;
  StartServer(options);
  // Forty times the fixture's video: A's streaming statement runs about 30
  // times as long as B's whole batch. It is added after StartServer, so it
  // is not ingested; a streaming statement needs no ingest.
  ASSERT_TRUE(engine_.AddVideo(ServingVideo(1, /*num_frames=*/1440000)).ok());
  auto reference = query::ExecuteStatementOn(engine_.Pin(), kRankedStatement);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // A is placed on loop 0 and B on loop 1, both before A's job starts.
  Client a = Connected();
  Client b = Connected();
  ASSERT_TRUE(WaitFor([&]() {
    return server_->Metrics().ValueOf("svqd_connections_open") == 2.0;
  }));
  std::atomic<bool> a_answered{false};
  Status a_status;
  std::thread long_job([&]() {
    auto response = a.Execute(
        "SELECT MERGE(clipID) FROM (PROCESS serving_1 PRODUCE clipID, obj "
        "USING ObjectDetector, act USING ActionRecognizer) "
        "WHERE act='smoking' AND obj.include('cup')");
    a_status = response.ok() ? response->status : response.status();
    a_answered.store(true);
  });
  ASSERT_TRUE(WaitFor([&]() {
    return server_->Metrics().ValueOf("svqd_in_flight") == 1.0 ||
           a_answered.load();
  }));
  ASSERT_FALSE(a_answered.load()) << "A finished before B could start";

  for (int i = 0; i < 20; ++i) {
    auto response = b.Execute(kRankedStatement);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(Mismatch(*response, *reference), "") << i;
  }
  EXPECT_FALSE(a_answered.load())
      << "B's answers waited behind A's job on another connection";
  long_job.join();
  EXPECT_TRUE(a_status.ok()) << a_status;
}

/// A video with two object labels, for statements over one or two objects.
std::shared_ptr<const video::SyntheticVideo> MixedVideo(int index) {
  video::SyntheticVideoSpec spec;
  spec.name = "mixed_" + std::to_string(index);
  spec.num_frames = 36000;
  spec.seed = 9300 + static_cast<uint64_t>(index);
  spec.actions.push_back({"smoking", 350.0, 4500.0});
  for (const auto& [label, correlation] :
       {std::pair{"cup", 0.9}, std::pair{"phone", 0.6}}) {
    video::SyntheticObjectSpec object;
    object.label = label;
    object.correlate_with_action = "smoking";
    object.correlation = correlation;
    object.coverage = 0.9;
    object.mean_on_frames = 250.0;
    object.mean_off_frames = 2600.0;
    spec.objects.push_back(object);
  }
  auto video = video::SyntheticVideo::Generate(spec);
  EXPECT_TRUE(video.ok());
  return *video;
}

std::string MixedStatement(const std::string& target,
                           const std::string& objects, int k) {
  return "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS " + target +
         " PRODUCE clipID, obj USING ObjectDetector, act USING "
         "ActionRecognizer) WHERE act='smoking' AND obj.include(" + objects +
         ") ORDER BY RANK(act, obj) LIMIT " + std::to_string(k);
}

/// Seeded ranked statements over the mixed catalog: per-video top-K and
/// `PROCESS *` broadcasts, K in {1, 3, 5, 10}, over one or two objects.
std::vector<std::string> MixedSequence(uint64_t seed, int count) {
  static const char* const kObjects[] = {"'cup'", "'phone'", "'cup', 'phone'"};
  static const int kK[] = {1, 3, 5, 10};
  Rng rng(seed);
  std::vector<std::string> statements;
  for (int i = 0; i < count; ++i) {
    const std::string target =
        rng.NextUint64(4) == 0
            ? "*"
            : "mixed_" + std::to_string(rng.NextUint64(3));
    statements.push_back(MixedStatement(target, kObjects[rng.NextUint64(3)],
                                        kK[rng.NextUint64(4)]));
  }
  return statements;
}

TEST_F(ServerTest, MixedConcurrentStatementsMatchTheSerialOracle) {
  core::VideoQueryEngine engine(models::ModelSuite(), core::OnlineConfig(),
                                core::IngestOptions(),
                                cache::CacheOptions::Enabled());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine.AddVideo(MixedVideo(i)).ok());
  ASSERT_TRUE(engine.IngestAll().ok());

  // The oracle: each statement run serially on this thread against the
  // snapshot every request below pins, with every cache tier off.
  const core::SnapshotPtr snapshot = engine.Pin();
  query::StatementOptions uncached;
  uncached.offline.runtime.num_threads = 1;
  uncached.offline.cache.use_candidate_cache = false;
  uncached.offline.cache.use_result_cache = false;
  uncached.offline.cache.use_plan_cache = false;
  constexpr int kRankedClients = 4;
  constexpr int kStatementsPerClient = 40;
  std::vector<std::vector<std::string>> sequences;
  std::map<std::string, query::StatementResult> oracle;
  for (int c = 0; c < kRankedClients; ++c) {
    sequences.push_back(MixedSequence(100 + c, kStatementsPerClient));
    for (const std::string& statement : sequences.back()) {
      if (oracle.count(statement) > 0) continue;
      auto result =
          query::ExecuteStatementOn(snapshot, statement, {}, uncached);
      ASSERT_TRUE(result.ok()) << result.status() << ": " << statement;
      oracle.emplace(statement, std::move(*result));
    }
  }
  const std::string standing[] = {
      "SELECT MERGE(clipID) FROM (PROCESS mixed_0 PRODUCE clipID, obj USING "
      "ObjectDetector, act USING ActionRecognizer) "
      "WHERE act='smoking' AND obj.include('cup')",
      "SELECT MERGE(clipID) FROM (PROCESS mixed_0 PRODUCE clipID, obj USING "
      "ObjectDetector, act USING ActionRecognizer) "
      "WHERE act='smoking' AND obj.include('cup', 'phone')"};
  std::vector<std::vector<video::Interval>> standing_oracle;
  for (const std::string& statement : standing) {
    auto result = query::ExecuteStatementOn(snapshot, statement, {}, uncached);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->online.has_value());
    standing_oracle.push_back(result->online->sequences.intervals());
  }

  for (const int loops : {1, 2}) {
    SCOPED_TRACE("loops=" + std::to_string(loops));
    ServerOptions options;
    options.max_in_flight = loops;
    Server server(&engine, options);
    ASSERT_TRUE(server.Start().ok());
    const auto connect = [&](Client* client) {
      return client->Connect("127.0.0.1", server.port());
    };

    // The subscriber connects first and the feeder second, so at 2 loops
    // they sit on different loops and every EVENT frame crosses loops.
    Client subscriber;
    ASSERT_TRUE(connect(&subscriber).ok());
    std::vector<uint64_t> subscription_ids;
    for (const std::string& statement : standing) {
      auto subscribed = subscriber.Subscribe("mixed_feed", statement);
      ASSERT_TRUE(subscribed.ok()) << subscribed.status();
      ASSERT_TRUE(subscribed->status.ok()) << subscribed->status;
      subscription_ids.push_back(subscribed->subscription_id);
    }
    Client feeder;
    ASSERT_TRUE(connect(&feeder).ok());

    std::vector<std::thread> threads;
    std::vector<std::string> failures(kRankedClients + 2);
    for (int c = 0; c < kRankedClients; ++c) {
      threads.emplace_back([&, c]() {
        Client client;
        if (Status status = connect(&client); !status.ok()) {
          failures[c] = status.ToString();
          return;
        }
        for (const std::string& statement : sequences[c]) {
          auto response = client.Execute(statement);
          const std::string mismatch =
              response.ok() ? Mismatch(*response, oracle.at(statement))
                            : response.status().ToString();
          if (!mismatch.empty()) {
            failures[c] = mismatch + ": " + statement;
            return;
          }
        }
      });
    }
    threads.emplace_back([&]() {
      for (bool closed = false; !closed;) {
        auto fed = feeder.FeedClips("mixed_feed", 16);
        if (!fed.ok() || !fed->status.ok()) {
          failures[kRankedClients] =
              fed.ok() ? fed->status.ToString() : fed.status().ToString();
          return;
        }
        closed = fed->feed_closed;
      }
    });
    std::map<uint64_t, std::vector<EventFrame>> events;
    threads.emplace_back([&]() {
      size_t ended = 0;
      while (ended < subscription_ids.size()) {
        auto event = subscriber.NextEvent();
        if (!event.ok()) {
          failures[kRankedClients + 1] = event.status().ToString();
          return;
        }
        if (event->kind == 3) ++ended;
        events[event->subscription_id].push_back(*event);
      }
    });
    for (std::thread& thread : threads) thread.join();
    for (const std::string& failure : failures) EXPECT_EQ(failure, "");

    for (size_t i = 0; i < subscription_ids.size(); ++i) {
      const std::vector<EventFrame>& got = events[subscription_ids[i]];
      const std::vector<video::Interval>& want = standing_oracle[i];
      ASSERT_EQ(got.size(), want.size() + 1) << "subscription " << i;
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j].kind, 1) << i << "/" << j;
        EXPECT_EQ(got[j].begin, want[j].begin) << i << "/" << j;
        EXPECT_EQ(got[j].end, want[j].end) << i << "/" << j;
      }
      EXPECT_EQ(got.back().kind, 3) << i;  // end of stream
    }
    server.Shutdown();
  }
}

}  // namespace
}  // namespace svq::server
