// svq_client — wire-level CLI for svqd: runs one statement (or the STATS
// verb) against a running daemon and prints the outcome.
//
//   ./build/svq_client --port 7331 "SELECT ..."          run a statement
//   ./build/svq_client --port 7331 --timeout-ms 50 "..."  with a deadline
//   ./build/svq_client --port 7331 --repeat 5 "..."       re-run, per-run
//                                                         latency (warms the
//                                                         server query cache)
//   ./build/svq_client --port 7331 --stats                server metrics
//   ./build/svq_client --port 7331 --explain "..."         plan only
//   ./build/svq_client --port 7331 --explain-analyze "..."  plan + actuals
//   ./build/svq_client --port 7331 --subscribe "..."        standing query:
//                                      subscribe, feed the video through the
//                                      server, print pushed events
//
// Subscribe knobs: --feed NAME (default: the statement's video), --mode
// svaq|svaqd, --queue N (event queue capacity), --batch N (clips per FEED
// round trip), --min-events N (exit 2 unless at least N events arrived —
// for smoke tests).
//
// Exit codes: 0 = query OK; 2 = the server answered with a non-OK query
// status (printed; an Unavailable status with sequences attached is a
// cluster router's partial result — the surviving shards' sequences are
// printed before exiting); 3 = wire version mismatch (the peer speaks a different
// protocol revision — both versions are printed); 1 = usage or transport
// error.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "svq/server/client.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host A] [--port N] [--timeout-ms N] "
               "[--repeat N] [--explain | --explain-analyze] "
               "[--subscribe [--feed NAME] [--mode svaq|svaqd] [--queue N] "
               "[--batch N] [--min-events N]] "
               "(--stats | \"<statement>\")\n",
               argv0);
  return 1;
}

/// Prints a transport failure and picks the exit code: an Unimplemented
/// status is the wire's version-mismatch signal (either side refuses the
/// other's frames), reported with both versions and exit code 3 so scripts
/// can tell "upgrade one of the peers" from ordinary transport errors.
int TransportExit(const svq::Status& status) {
  std::fprintf(stderr, "svq_client: %s\n", status.ToString().c_str());
  if (status.code() != svq::StatusCode::kUnimplemented) return 1;
  // The refusing side names the version it saw: "unsupported wire
  // version <peer> ..." — parse it so both revisions appear even when the
  // refusal came from the legacy peer's terser message.
  int peer_version = -1;
  const std::string& message = status.message();
  const std::string needle = "wire version ";
  if (const size_t at = message.find(needle); at != std::string::npos) {
    peer_version = std::atoi(message.c_str() + at + needle.size());
  }
  if (peer_version > 0 &&
      peer_version != static_cast<int>(svq::server::kWireVersion)) {
    std::fprintf(stderr,
                 "svq_client: wire version mismatch: this client speaks "
                 "v%d, the server speaks v%d — upgrade the older peer\n",
                 static_cast<int>(svq::server::kWireVersion), peer_version);
  } else {
    std::fprintf(stderr,
                 "svq_client: wire version mismatch: this client speaks "
                 "v%d, the server refused it with: %s\n",
                 static_cast<int>(svq::server::kWireVersion),
                 message.c_str());
  }
  return 3;
}

int RunStats(svq::server::Client& client) {
  auto stats = client.GetStats();
  if (!stats.ok()) return TransportExit(stats.status());
  // The summary reads svqd's registry names, which svq_router sums over
  // its backends; a name the peer does not report reads 0.
  auto metric = [&](const std::string& name) {
    return stats->ValueOf(name).value_or(0.0);
  };
  std::printf("server stats:\n");
  std::printf("  accepted=%.0f rejected=%.0f ok=%.0f failed=%.0f "
              "cancelled=%.0f deadline_exceeded=%.0f\n",
              metric("svqd_queries_accepted_total"),
              metric("svqd_queries_rejected_total"),
              metric("svqd_queries_ok_total"),
              metric("svqd_queries_failed_total"),
              metric("svqd_queries_cancelled_total"),
              metric("svqd_queries_deadline_exceeded_total"));
  std::printf("  connections: open=%.0f opened=%.0f   queue_depth=%.0f "
              "in_flight=%.0f   stats_requests=%.0f\n",
              metric("svqd_connections_open"),
              metric("svqd_connections_opened_total"),
              metric("svqd_queue_depth"), metric("svqd_in_flight"),
              metric("svqd_stats_requests_total"));
  for (const auto& histogram : stats->histograms) {
    std::printf("  %-44s count=%lld p50=%.0fus p99=%.0fus\n",
                histogram.name.c_str(),
                static_cast<long long>(histogram.count),
                histogram.PercentileMicros(0.50),
                histogram.PercentileMicros(0.99));
  }
  // Query-cache summary up front; the raw per-tier counters follow in the
  // registry dump.
  const double cache_hits = metric("svq_cache_hits_total");
  const double cache_misses = metric("svq_cache_misses_total");
  if (cache_hits + cache_misses > 0) {
    std::printf("  cache: hits=%.0f misses=%.0f (%.1f%% hit rate) "
                "evictions=%.0f bytes=%.0f\n",
                cache_hits, cache_misses,
                100.0 * cache_hits / (cache_hits + cache_misses),
                metric("svq_cache_evictions_total"),
                metric("svq_cache_bytes"));
  }
  const auto registry = stats->Flatten();
  if (!registry.empty()) {
    std::printf("registry (%zu metrics):\n", registry.size());
    for (const auto& [name, value] : registry) {
      std::printf("  %-44s %.6g\n", name.c_str(), value);
    }
  }
  return 0;
}

int RunExplain(svq::server::Client& client, const std::string& statement,
               bool analyze, uint32_t timeout_ms) {
  auto response = client.Explain(statement, analyze, timeout_ms);
  if (!response.ok()) return TransportExit(response.status());
  if (!response->status.ok()) {
    std::printf("explain failed: %s\n", response->status.ToString().c_str());
    return 2;
  }
  std::printf("%s", response->text.c_str());
  return 0;
}

int RunQuery(svq::server::Client& client, const std::string& statement,
             uint32_t timeout_ms, int repeat) {
  // With --repeat N the statement is re-sent N times on the same
  // connection, printing one latency line per run: against a cache-enabled
  // server the first run is cold and the rest expose the warm path.
  for (int iteration = 1; iteration < repeat; ++iteration) {
    const auto t0 = std::chrono::steady_clock::now();
    auto response = client.Execute(statement, timeout_ms);
    const double total_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (!response.ok()) return TransportExit(response.status());
    if (!response->status.ok()) {
      std::printf("query failed: %s\n", response->status.ToString().c_str());
      return 2;
    }
    std::printf("run %d/%d: %.2f ms total (%.2f ms queued + %.2f ms "
                "executing), %zu sequence(s)\n",
                iteration, repeat, total_ms,
                response->metrics.server_queue_ms,
                response->metrics.server_exec_ms,
                response->sequences.size());
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto response = client.Execute(statement, timeout_ms);
  const double total_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  if (!response.ok()) return TransportExit(response.status());
  // A cluster router degrades to Unavailable when a shard is down but the
  // rest answered: the response still carries the surviving shards'
  // sequences. Print them (marked partial) so operators see what survived,
  // but keep the non-OK exit code — a partial answer is not a full one.
  const bool partial = response->status.IsUnavailable() &&
                       !response->sequences.empty();
  if (!response->status.ok() && !partial) {
    std::printf("query failed: %s\n", response->status.ToString().c_str());
    return 2;
  }
  if (partial) {
    std::printf("partial: %s\n", response->status.ToString().c_str());
  }
  if (repeat > 1) {
    std::printf("run %d/%d: %.2f ms total\n", repeat, repeat, total_ms);
  }
  std::printf("%s result: %zu sequence(s)\n",
              response->ranked ? "ranked" : "streaming",
              response->sequences.size());
  for (const auto& sequence : response->sequences) {
    if (response->ranked) {
      std::printf("  clips [%lld, %lld]  score=[%.2f, %.2f]\n",
                  static_cast<long long>(sequence.begin),
                  static_cast<long long>(sequence.end - 1),
                  sequence.lower_bound, sequence.upper_bound);
    } else {
      std::printf("  clips [%lld, %lld]\n",
                  static_cast<long long>(sequence.begin),
                  static_cast<long long>(sequence.end - 1));
    }
  }
  const auto& m = response->metrics;
  std::printf("  server: %.2f ms queued + %.2f ms executing\n",
              m.server_queue_ms, m.server_exec_ms);
  if (response->ranked) {
    std::printf("  engine: %lld random + %lld sorted accesses, "
                "%.0f ms virtual disk, %d thread(s)\n",
                static_cast<long long>(m.random_accesses),
                static_cast<long long>(m.sorted_accesses), m.virtual_ms,
                static_cast<int>(m.threads_used));
  } else {
    std::printf("  engine: %lld clips, %.0f ms simulated inference\n",
                static_cast<long long>(m.clips_processed), m.model_ms);
  }
  return partial ? 2 : 0;
}

int RunSubscribe(svq::server::Client& client, const std::string& statement,
                 const std::string& feed, uint8_t mode,
                 uint32_t queue_capacity, uint32_t timeout_ms, int64_t batch,
                 long min_events) {
  auto subscribed = client.Subscribe(feed, statement, mode, queue_capacity,
                                     timeout_ms);
  if (!subscribed.ok()) return TransportExit(subscribed.status());
  if (!subscribed->status.ok()) {
    std::printf("subscribe failed: %s\n",
                subscribed->status.ToString().c_str());
    return 2;
  }
  std::printf("subscription #%llu on feed '%s' (wire v%d)\n",
              static_cast<unsigned long long>(subscribed->subscription_id),
              subscribed->feed.c_str(),
              static_cast<int>(svq::server::kWireVersion));

  // Drive the feed through the server until its source video is exhausted;
  // events the server pushes between FEED round trips land in the client's
  // stash.
  bool closed = false;
  while (!closed) {
    auto fed = client.FeedClips(subscribed->feed, batch);
    if (!fed.ok()) return TransportExit(fed.status());
    if (!fed->status.ok()) {
      std::printf("feed failed: %s\n", fed->status.ToString().c_str());
      return 2;
    }
    closed = fed->feed_closed;
  }
  // Unsubscribe flushes every remaining event ahead of its acknowledgement,
  // so after this round trip the stash holds the subscription's full story.
  auto unsubscribed = client.Unsubscribe(subscribed->subscription_id);
  if (!unsubscribed.ok()) return TransportExit(unsubscribed.status());
  if (!unsubscribed->status.ok()) {
    std::printf("unsubscribe failed: %s\n",
                unsubscribed->status.ToString().c_str());
    return 2;
  }

  long events = 0, sequences = 0, gaps = 0;
  bool end_of_stream = false;
  while (client.stashed_events() > 0) {
    auto event = client.NextEvent();
    if (!event.ok()) return TransportExit(event.status());
    ++events;
    switch (event->kind) {
      case 1:
        ++sequences;
        std::printf("  sequence: clips [%lld, %lld]\n",
                    static_cast<long long>(event->begin),
                    static_cast<long long>(event->end - 1));
        break;
      case 2:
        ++gaps;
        std::printf("  gap: %lld event(s) dropped (%s)\n",
                    static_cast<long long>(event->dropped),
                    event->status.ToString().c_str());
        break;
      case 3:
        end_of_stream = true;
        std::printf("  end of stream\n");
        break;
      default:
        std::printf("  error: %s\n", event->status.ToString().c_str());
        break;
    }
  }
  std::printf("%ld event(s): %ld sequence(s), %ld gap(s), "
              "end-of-stream=%s\n",
              events, sequences, gaps, end_of_stream ? "yes" : "no");
  if (events < min_events) {
    std::fprintf(stderr,
                 "svq_client: expected at least %ld event(s), got %ld\n",
                 min_events, events);
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint32_t timeout_ms = 0;
  int repeat = 1;
  bool stats = false;
  bool explain = false;
  bool analyze = false;
  bool subscribe = false;
  std::string feed;
  uint8_t mode = 1;  // SVAQD
  uint32_t queue_capacity = 0;
  int64_t batch = 4;
  long min_events = 0;
  std::string statement;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--host" && (value = next())) {
      host = value;
    } else if (arg == "--port" && (value = next())) {
      port = static_cast<uint16_t>(std::atoi(value));
    } else if (arg == "--timeout-ms" && (value = next())) {
      timeout_ms = static_cast<uint32_t>(std::atol(value));
    } else if (arg == "--repeat" && (value = next())) {
      repeat = std::atoi(value);
      if (repeat < 1) return Usage(argv[0]);
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--explain-analyze") {
      explain = true;
      analyze = true;
    } else if (arg == "--subscribe") {
      subscribe = true;
    } else if (arg == "--feed" && (value = next())) {
      feed = value;
    } else if (arg == "--mode" && (value = next())) {
      const std::string name = value;
      if (name == "svaq") {
        mode = 0;
      } else if (name == "svaqd") {
        mode = 1;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--queue" && (value = next())) {
      queue_capacity = static_cast<uint32_t>(std::atol(value));
    } else if (arg == "--batch" && (value = next())) {
      batch = std::atol(value);
      if (batch < 1) return Usage(argv[0]);
    } else if (arg == "--min-events" && (value = next())) {
      min_events = std::atol(value);
    } else if (!arg.empty() && arg[0] != '-' && statement.empty()) {
      statement = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (port == 0 || (statement.empty() && !stats)) return Usage(argv[0]);

  svq::server::Client client;
  if (auto status = client.Connect(host, port); !status.ok()) {
    std::fprintf(stderr, "svq_client: %s\n", status.ToString().c_str());
    return 1;
  }
  if (stats) return RunStats(client);
  if (explain) return RunExplain(client, statement, analyze, timeout_ms);
  if (subscribe) {
    return RunSubscribe(client, statement, feed, mode, queue_capacity,
                        timeout_ms, batch, min_events);
  }
  return RunQuery(client, statement, timeout_ms, repeat);
}
