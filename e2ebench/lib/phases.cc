#include "lib/phases.h"

#include <algorithm>
#include <latch>
#include <map>

namespace e2ebench {
namespace {

/// Generous per-request budget: a request slower than this counts as
/// timed out.
constexpr uint32_t kRequestTimeoutMs = 10000;

struct Window {
  Clock::time_point start;
  Clock::time_point end;
};

double WallSeconds(const std::vector<Window>& windows) {
  Clock::time_point first = windows.front().start;
  Clock::time_point last = windows.front().end;
  for (const Window& w : windows) {
    first = std::min(first, w.start);
    last = std::max(last, w.end);
  }
  return std::chrono::duration<double>(last - first).count();
}

bool Done(const PhaseLimits& limits, Clock::time_point deadline, int64_t ops) {
  return Clock::now() >= deadline ||
         (limits.max_ops > 0 && ops >= limits.max_ops);
}

/// Client `c`'s operation stream in this round.
uint64_t StreamId(const PhaseLimits& limits, int c) {
  return static_cast<uint64_t>(limits.round) * 16 + static_cast<uint64_t>(c);
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// One ranked request: sends, times, classifies against the expected
/// answer. Reconnects after a transport failure.
Outcome Ask(BenchClient* client, uint16_t port, const std::string& statement,
            const Answer& want, double* ms) {
  const Clock::time_point start = Clock::now();
  auto response = client->wire().Execute(statement, kRequestTimeoutMs);
  *ms = MsSince(start);
  if (!response.ok()) {
    client->wire().Close();
    (void)client->Connect(port);
    return Outcome::kFailed;
  }
  const Outcome outcome = Classify(response->status);
  if (outcome != Outcome::kOk) return outcome;
  return SameAnswer(response->sequences, want) ? Outcome::kOk
                                                : Outcome::kWrong;
}

}  // namespace

ServeResult RunServe(const Workload& workload, const Stack& stack,
                     const Expected& expected, PhaseLimits limits,
                     std::vector<SpanLog>* spans) {
  const int clients = ClampClients(kServeClients);
  if (spans != nullptr) spans->resize(static_cast<size_t>(clients));
  std::vector<OpStats> topk(static_cast<size_t>(clients));
  std::vector<OpStats> broadcast(static_cast<size_t>(clients));
  std::vector<Window> windows(static_cast<size_t>(clients));
  std::latch ready(clients);
  RunWorkers(clients, [&](int c) {
    BenchClient client;
    CheckOk(client.Connect(stack.front_port), "serve connect");
    OpStream ops(workload, StreamId(limits, c));
    ready.arrive_and_wait();
    Window& window = windows[static_cast<size_t>(c)];
    window.start = Clock::now();
    const Clock::time_point deadline = window.start + Seconds(limits.seconds);
    for (int64_t n = 0; !Done(limits, deadline, n); ++n) {
      const size_t i = ops.Next();
      double ms = 0.0;
      const Clock::time_point sent = Clock::now();
      const Outcome outcome =
          Ask(&client, stack.front_port, workload.space[i].statement,
              expected.serve[i], &ms);
      if (spans != nullptr) {
        (*spans)[static_cast<size_t>(c)].Add(
            "client.rtt", (static_cast<uint64_t>(c) << 32) | uint64_t(n), -1,
            sent, Clock::now());
      }
      (workload.space[i].broadcast() ? broadcast : topk)[static_cast<size_t>(c)]
          .Record(outcome, ms);
    }
    window.end = Clock::now();
  });
  ServeResult result;
  for (int c = 0; c < clients; ++c) {
    result.topk.Merge(topk[static_cast<size_t>(c)]);
    result.broadcast.Merge(broadcast[static_cast<size_t>(c)]);
  }
  result.wall_s = WallSeconds(windows);
  return result;
}

ChurnResult RunChurn(const Workload& workload, const Stack& stack,
                     const Expected& expected, PhaseLimits limits,
                     size_t* next_video) {
  // Worker 0 writes; the rest read. One thread each, within nproc.
  const int workers = ClampClients(1 + kChurnReaders);
  std::vector<OpStats> readers(static_cast<size_t>(workers));
  ChurnResult result;
  const CountingEnv::Counts before = stack.churn_env->Read();
  std::latch ready(workers);
  const uint16_t port = stack.churn_server->port();
  RunWorkers(workers, [&](int w) {
    if (w == 0) {
      ready.arrive_and_wait();
      const Clock::time_point start = Clock::now();
      const Clock::time_point deadline = start + Seconds(limits.seconds);
      for (int64_t n = 0; *next_video < workload.churn_pool.size() &&
                          !Done(limits, deadline, n);
           ++n) {
        const VideoPtr& video = workload.churn_pool[(*next_video)++];
        const Clock::time_point begin = Clock::now();
        svq::Status status =
            stack.churn_engine->AddVideo(video).status();
        if (status.ok()) status = stack.churn_engine->Ingest(video->name());
        result.ingests.Record(status.ok() ? Outcome::kOk : Outcome::kFailed,
                              MsSince(begin));
        if (status.ok()) result.frames += video->num_frames();
        result.ingest_s =
            std::chrono::duration<double>(Clock::now() - start).count();
      }
      return;
    }
    BenchClient client;
    CheckOk(client.Connect(port), "churn reader connect");
    ChurnStream ops(workload, StreamId(limits, w));
    ready.arrive_and_wait();
    const Clock::time_point deadline = Clock::now() + Seconds(limits.seconds);
    for (int64_t n = 0; !Done(limits, deadline, n); ++n) {
      const size_t i = ops.Next();
      double ms = 0.0;
      const Outcome outcome = Ask(&client, port,
                                  workload.churn_space[i].statement,
                                  expected.churn[i], &ms);
      readers[static_cast<size_t>(w)].Record(outcome, ms);
    }
  });
  for (const OpStats& r : readers) result.readers.Merge(r);
  result.bytes_written =
      stack.churn_env->Read().bytes_written - before.bytes_written;
  return result;
}

namespace {

/// Runs one feed to the end of its stream on `client`. A transport failure
/// resets the connection and abandons the feed.
void RunFeedPlan(BenchClient* client, uint16_t port,
                    const std::string& feed, const FeedPlan& plan,
                    const std::vector<Answer>& expected, FeedResult* out) {
  auto& wire = client->wire();
  std::vector<uint64_t> ids;
  for (const std::string& statement : plan.statements) {
    const Clock::time_point start = Clock::now();
    auto subscribed = wire.Subscribe(feed, statement, /*mode=*/1);
    const double ms = MsSince(start);
    if (!subscribed.ok()) {
      out->control.Record(Outcome::kFailed, ms);
      wire.Close();
      (void)client->Connect(port);
      return;
    }
    out->control.Record(Classify(subscribed->status), ms);
    ids.push_back(subscribed->status.ok() ? subscribed->subscription_id : 0);
  }
  bool closed = false;
  while (!closed) {
    const Clock::time_point start = Clock::now();
    auto fed = wire.FeedClips(feed, kFeedBatchClips);
    const double ms = MsSince(start);
    if (!fed.ok()) {
      out->feeds.Record(Outcome::kFailed, ms);
      wire.Close();
      (void)client->Connect(port);
      return;
    }
    const Outcome outcome = Classify(fed->status);
    out->feeds.Record(outcome, ms);
    if (outcome != Outcome::kOk) break;
    out->clips += fed->clips_dispatched;
    closed = fed->feed_closed;
  }
  for (const uint64_t id : ids) {
    if (id == 0) continue;
    const Clock::time_point start = Clock::now();
    auto unsubscribed = wire.Unsubscribe(id);
    const double ms = MsSince(start);
    out->control.Record(unsubscribed.ok() ? Classify(unsubscribed->status)
                                          : Outcome::kFailed,
                        ms);
  }
  // Every event of the feed is stashed now; check each subscription's
  // completed sequences and terminal marker against the oracle.
  std::map<uint64_t, Answer> got;
  std::map<uint64_t, bool> ended;
  while (wire.stashed_events() > 0) {
    auto event = wire.NextEvent();
    if (!event.ok()) break;
    switch (event->kind) {
      case 1:
        got[event->subscription_id].push_back(
            {event->begin, event->end, 0.0, 0.0});
        break;
      case 2:
        out->dropped_events += event->dropped;
        break;
      case 3:
        ended[event->subscription_id] = true;
        break;
      default:
        break;
    }
  }
  for (size_t j = 0; j < ids.size(); ++j) {
    const bool match = ids[j] != 0 && closed && ended[ids[j]] &&
                       SameAnswer(got[ids[j]], expected[j]);
    out->subscriptions.Record(match ? Outcome::kOk : Outcome::kWrong, 0.0);
  }
}

}  // namespace

FeedResult RunFeeds(const Workload& workload, const Stack& stack,
                    const Expected& expected, PhaseLimits limits) {
  const int feeds = ClampClients(kFeeds);
  std::vector<FeedResult> parts(static_cast<size_t>(feeds));
  std::vector<Window> windows(static_cast<size_t>(feeds));
  const uint16_t port = stack.feed_server->port();
  const size_t plans = workload.feed_plans.size();
  std::latch ready(feeds);
  RunWorkers(feeds, [&](int c) {
    BenchClient client;
    CheckOk(client.Connect(port), "feed connect");
    ready.arrive_and_wait();
    Window& window = windows[static_cast<size_t>(c)];
    window.start = Clock::now();
    const Clock::time_point deadline = window.start + Seconds(limits.seconds);
    FeedResult& part = parts[static_cast<size_t>(c)];
    // A feed in progress at the deadline runs to the end of its stream, so
    // every feed's events can be checked whole.
    Rng pick(DeriveSeed(workload.seed, 400 + StreamId(limits, c)));
    for (int64_t n = 0; !Done(limits, deadline, n); ++n) {
      const size_t s = pick.Below(plans);
      RunFeedPlan(&client, port,
                     "feed" + std::to_string(StreamId(limits, c)) + "_" +
                         std::to_string(n),
                     workload.feed_plans[s], expected.feeds[s], &part);
    }
    window.end = Clock::now();
  });
  FeedResult result;
  for (const FeedResult& part : parts) {
    result.feeds.Merge(part.feeds);
    result.subscriptions.Merge(part.subscriptions);
    result.control.Merge(part.control);
    result.clips += part.clips;
    result.dropped_events += part.dropped_events;
  }
  result.wall_s = WallSeconds(windows);
  return result;
}

}  // namespace e2ebench
