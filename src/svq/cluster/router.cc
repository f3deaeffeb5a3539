#include "svq/cluster/router.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <numeric>
#include <sstream>
#include <utility>

#include "svq/core/topk_merge.h"
#include "svq/query/binder.h"
#include "svq/query/parser.h"
#include "svq/server/client.h"

namespace svq::cluster {

namespace {

using server::Dispatch;
using server::MessageType;
using server::QueryResponse;
using server::WireCursor;

/// Client connections served at once: svqd's default cap.
constexpr int kMaxConnections = 64;
/// Requests admitted and unfinished at once: the connection cap, so a
/// client that keeps one request per connection is never turned away while
/// it stays under the cap. A routed request holds no thread while it waits
/// on its backends — the transport's one loop drives every one — so this
/// bound, not a thread count, is what limits requests in flight.
constexpr int kMaxAdmitted = kMaxConnections;
/// How long Shutdown lets admitted requests finish before cancelling them.
constexpr std::chrono::milliseconds kDrainBudget{5000};
/// How often the health checker's probe, which runs on its own thread,
/// looks at its cancellation while it waits.
constexpr std::chrono::milliseconds kPollInterval{10};

double ElapsedMicros(Router::Clock::time_point begin,
                     Router::Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

/// Strips one leading keyword (case-insensitive, whole word) — the
/// router's local equivalent of the EXPLAIN/ANALYZE prefix handling in
/// svq/query/explain.cc, needed only to find the statement's FROM video.
std::string_view StripLeadingKeyword(std::string_view statement,
                                     std::string_view keyword) {
  size_t i = 0;
  while (i < statement.size() &&
         std::isspace(static_cast<unsigned char>(statement[i]))) {
    ++i;
  }
  if (statement.size() - i < keyword.size()) return statement;
  for (size_t j = 0; j < keyword.size(); ++j) {
    if (std::toupper(static_cast<unsigned char>(statement[i + j])) !=
        keyword[j]) {
      return statement;
    }
  }
  const size_t rest = i + keyword.size();
  if (rest < statement.size() &&
      !std::isspace(static_cast<unsigned char>(statement[rest]))) {
    return statement;
  }
  return statement.substr(rest);
}

/// The statement parsed once, past a leading EXPLAIN [ANALYZE]: routing
/// reads its PROCESS target ("*" for a broadcast) and a broadcast binds
/// it. A statement that does not parse is forwarded verbatim, so the
/// backend produces the same diagnostic a single svqd would.
Result<query::SelectStatement> RouteTargetOf(std::string_view statement) {
  statement = StripLeadingKeyword(statement, "EXPLAIN");
  statement = StripLeadingKeyword(statement, "ANALYZE");
  return query::Parse(statement);
}

/// One shard's reply as a `Response`. The outcomes the router produces
/// itself — the budget ran out, or the client left — become the response's
/// status, as a backend would report them; a transport failure stays an
/// error.
template <typename Response>
Result<Response> DecodeReply(const Result<std::string>& reply,
                             Status (*decode)(WireCursor*, Response*)) {
  Response response;
  if (!reply.ok()) {
    if (!reply.status().IsDeadlineExceeded() &&
        !reply.status().IsCancelled()) {
      return reply.status();
    }
    response.status = reply.status();
    return response;
  }
  WireCursor cursor(*reply);
  MessageType type = MessageType::kQueryResponse;
  SVQ_RETURN_NOT_OK(server::DecodePayloadHeader(&cursor, &type));
  SVQ_RETURN_NOT_OK(decode(&cursor, &response));
  return response;
}

/// A gathered sequence tagged with its origin for the cross-shard merge:
/// shard index then per-shard rank reproduce the single-node oracle's
/// (video name, clip begin) tie order when the shard map assigns videos
/// contiguously in sorted-name order (see AssignContiguous).
struct GatherEntry {
  size_t shard = 0;
  size_t rank = 0;
  server::WireSequence sequence;
};

void MergeQueryMetrics(const server::WireQueryMetrics& in,
                       server::WireQueryMetrics* out) {
  out->sorted_accesses += in.sorted_accesses;
  out->random_accesses += in.random_accesses;
  out->sequential_reads += in.sequential_reads;
  out->virtual_ms += in.virtual_ms;
  out->algorithm_ms += in.algorithm_ms;
  out->model_ms += in.model_ms;
  out->clips_processed += in.clips_processed;
  out->threads_used = std::max(out->threads_used, in.threads_used);
  out->tasks_executed += in.tasks_executed;
  out->fanout_ms = std::max(out->fanout_ms, in.fanout_ms);
  out->server_queue_ms = std::max(out->server_queue_ms, in.server_queue_ms);
  out->server_exec_ms = std::max(out->server_exec_ms, in.server_exec_ms);
}

}  // namespace

// ---------------------------------------------------------------------------
// The backend call.

/// The router's one backend call, for QUERY, EXPLAIN, STATS and the health
/// probe: per shard a primary leg and, once the shard is hedge_after late,
/// a hedge leg. Each leg runs the retry loop on its own pooled connection.
/// A routed request's gather is a transport task, driven by the loop
/// beside every other request; the health checker drives its probe itself
/// with Run.
class Router::Gather : public server::Task {
 public:
  Gather(Router* router, std::vector<size_t> shards, BackendRequest request,
         Respond respond = nullptr)
      : router_(*router),
        request_(std::move(request)),
        respond_(std::move(respond)),
        deadline_(request_.timeout_ms > 0
                      ? request_.received +
                            std::chrono::milliseconds(request_.timeout_ms)
                      : Clock::time_point::max()),
        results_(shards.size(), Status::Unavailable("no reply")),
        undecided_(shards.size()) {
    shards_.reserve(shards.size());  // shards never move once started
    for (size_t slot = 0; slot < shards.size(); ++slot) {
      Shard& shard = shards_.emplace_back();
      shard.slot = slot;
      shard.index = shards[slot];
      shard.legs.reserve(2);  // nor do legs
    }
  }

  /// Drives the call on this thread until every shard is decided.
  std::vector<Result<std::string>> Run();

  bool Prepare(Clock::time_point now, std::vector<pollfd>* fds,
               Clock::time_point* wake) override;
  bool Advance(Clock::time_point now, const pollfd* fds) override;
  std::string Finish() override { return respond_(std::move(results_)); }

 private:
  struct Leg {
    explicit Leg(size_t max_frame_bytes) : in(max_frame_bytes) {}

    enum class Phase { kWaiting, kConnecting, kSending, kReceiving, kDone };
    Phase phase = Phase::kWaiting;
    /// Attempts started so far.
    int attempts = 0;
    /// The current attempt is the breaker's half-open probe.
    bool probe = false;
    int fd = -1;
    /// The attempt's request frame and how much of it is sent.
    std::string out;
    size_t sent = 0;
    server::FrameAssembler in;
    /// kWaiting: when the next attempt starts; otherwise the IO deadline.
    Clock::time_point due{};
  };
  struct Shard {
    size_t slot = 0;
    size_t index = 0;
    std::vector<Leg> legs;
    Clock::time_point hedge_at = Clock::time_point::max();
    bool decided = false;
  };

  Backend& BackendOf(const Shard& shard) {
    return *router_.backends_[shard.index];
  }
  std::string Describe(const Shard& shard) {
    const ShardEndpoint& endpoint = BackendOf(shard).pool.endpoint();
    return "shard " + std::to_string(shard.index) + " (" + endpoint.host +
           ":" + std::to_string(endpoint.port) + ")";
  }
  static bool Outstanding(const Leg& leg) {
    return leg.phase != Leg::Phase::kWaiting &&
           leg.phase != Leg::Phase::kDone;
  }

  /// Starts every shard's primary leg (first Prepare).
  void Start(Clock::time_point now);
  /// Fires cancellation, the client's deadline, hedges and leg timers.
  void FireTimers(Clock::time_point now);
  void AddLeg(Shard& shard, Clock::time_point now);
  void StartAttempt(Shard& shard, Leg& leg, Clock::time_point now);
  /// A transport failure of the leg's attempt: breaker + backoff + retry.
  void FailAttempt(Shard& shard, Leg& leg, const Status& why,
                   Clock::time_point now);
  /// The leg gave up with `why`; the shard fails once every leg has.
  void FinishLeg(Shard& shard, Leg& leg, Status why);
  /// The client's budget ran out before the shard replied: the query's
  /// outcome, reported exactly as a backend would.
  void Expire(Shard& shard);
  void Decide(Shard& shard, Result<std::string> result);
  /// IO progress on the leg's socket.
  void Progress(Shard& shard, Leg& leg, Clock::time_point now);
  void SendSome(Shard& shard, Leg& leg, Clock::time_point now);
  void ReceiveSome(Shard& shard, Leg& leg, Clock::time_point now);

  Router& router_;
  const BackendRequest request_;
  const Respond respond_;
  /// When the client's budget runs out (max when it has none).
  const Clock::time_point deadline_;
  std::vector<Shard> shards_;
  std::vector<Result<std::string>> results_;
  size_t undecided_ = 0;
  bool started_ = false;
  Clock::time_point started_at_{};
  /// The legs behind the sockets the last Prepare appended, in order.
  std::vector<std::pair<Shard*, Leg*>> polled_;
};

std::vector<Result<std::string>> Router::Gather::Run() {
  std::vector<pollfd> fds;
  for (;;) {
    const Clock::time_point now = Clock::now();
    // Nothing wakes this thread when `request_.cancel` fires: look again
    // every interval.
    Clock::time_point wake = now + kPollInterval;
    fds.clear();
    if (Prepare(now, &fds, &wake)) break;
    const auto timeout =
        std::chrono::ceil<std::chrono::milliseconds>(wake - now).count();
    if (::poll(fds.data(), fds.size(),
               static_cast<int>(std::max<int64_t>(0, timeout))) > 0 &&
        Advance(Clock::now(), fds.data())) {
      break;
    }
  }
  return std::move(results_);
}

bool Router::Gather::Prepare(Clock::time_point now, std::vector<pollfd>* fds,
                             Clock::time_point* wake) {
  polled_.clear();
  if (!started_) Start(now);
  FireTimers(now);
  if (undecided_ == 0) return true;
  *wake = std::min(*wake, deadline_);
  for (Shard& shard : shards_) {
    if (shard.decided) continue;
    *wake = std::min(*wake, shard.hedge_at);
    for (Leg& leg : shard.legs) {
      if (leg.phase == Leg::Phase::kDone) continue;
      *wake = std::min(*wake, leg.due);
      if (Outstanding(leg)) {
        const short events =
            leg.phase == Leg::Phase::kReceiving ? POLLIN : POLLOUT;
        fds->push_back({leg.fd, events, 0});
        polled_.emplace_back(&shard, &leg);
      }
    }
  }
  return false;
}

bool Router::Gather::Advance(Clock::time_point now, const pollfd* fds) {
  for (size_t i = 0; i < polled_.size(); ++i) {
    auto [shard, leg] = polled_[i];
    if (fds[i].revents != 0 && !shard->decided && Outstanding(*leg)) {
      Progress(*shard, *leg, now);
    }
  }
  polled_.clear();
  return undecided_ == 0;
}

void Router::Gather::Start(Clock::time_point now) {
  started_ = true;
  started_at_ = now;
  for (Shard& shard : shards_) {
    if (request_.hedge && router_.options_.hedge_after.count() > 0) {
      shard.hedge_at = now + router_.options_.hedge_after;
    }
    AddLeg(shard, now);
  }
}

void Router::Gather::FireTimers(Clock::time_point now) {
  const bool cancelled = request_.cancel.cancelled();
  for (Shard& shard : shards_) {
    if (shard.decided) continue;
    if (cancelled) {
      Decide(shard, Status::Cancelled("request cancelled before " +
                                      Describe(shard) + " replied"));
      continue;
    }
    if (now >= deadline_) {
      // Shards still working when the budget ran out are not waited for:
      // the answer is due now, and their replies would come too late.
      Expire(shard);
      continue;
    }
    if (now >= shard.hedge_at) {
      shard.hedge_at = Clock::time_point::max();
      router_.hedges_->Increment();
      AddLeg(shard, now);
    }
    for (Leg& leg : shard.legs) {
      if (shard.decided) break;
      if (leg.phase == Leg::Phase::kDone || now < leg.due) continue;
      if (leg.phase == Leg::Phase::kWaiting) {
        StartAttempt(shard, leg, now);
      } else {
        FailAttempt(shard, leg,
                    Status::IOError(leg.phase == Leg::Phase::kConnecting
                                        ? "connect timed out"
                                        : "receive timed out waiting for "
                                          "the server"),
                    now);
      }
    }
  }
}

void Router::Gather::AddLeg(Shard& shard, Clock::time_point now) {
  shard.legs.emplace_back(router_.options_.max_frame_bytes);
  StartAttempt(shard, shard.legs.back(), now);
}

void Router::Gather::StartAttempt(Shard& shard, Leg& leg,
                                  Clock::time_point now) {
  Backend& backend = BackendOf(shard);
  uint32_t remaining = 0;
  if (!RemainingBudget(request_.received, request_.timeout_ms, now,
                       &remaining)) {
    Expire(shard);
    return;
  }
  if (!backend.breaker.AllowRequest(now, &leg.probe)) {
    FinishLeg(shard, leg,
              Status::Unavailable(Describe(shard) + ": circuit breaker open"));
    return;
  }
  if (leg.attempts > 0) router_.retries_->Increment();
  ++leg.attempts;
  leg.out = request_.encode(remaining);
  leg.sent = 0;
  leg.fd = backend.pool.Acquire();
  bool connected = true;
  if (leg.fd < 0) {
    const ShardEndpoint& endpoint = backend.pool.endpoint();
    const Status dialed =
        server::Dial(endpoint.host, endpoint.port, &leg.fd, &connected);
    if (!dialed.ok()) {
      FailAttempt(shard, leg, dialed, now);
      return;
    }
  }
  if (!connected) {
    leg.phase = Leg::Phase::kConnecting;
    leg.due = now + router_.options_.connect_timeout;
    return;
  }
  leg.phase = Leg::Phase::kSending;
  leg.due = now + router_.options_.recv_timeout;
  SendSome(shard, leg, now);
}

void Router::Gather::FailAttempt(Shard& shard, Leg& leg, const Status& why,
                                 Clock::time_point now) {
  // Never reuse the connection, feed the breaker, back off (capped
  // exponential) before the next idempotent retry.
  if (leg.fd >= 0) ::close(leg.fd);
  leg.fd = -1;
  leg.in = server::FrameAssembler(router_.options_.max_frame_bytes);
  BackendOf(shard).breaker.RecordFailure(now);
  router_.backend_failures_->Increment();
  if (leg.attempts > request_.max_retries) {
    FinishLeg(shard, leg,
              Status::Unavailable(Describe(shard) + ": " + why.ToString()));
    return;
  }
  auto backoff = router_.options_.retry_backoff;
  for (int i = 1;
       i < leg.attempts && backoff < router_.options_.retry_backoff_max; ++i) {
    backoff *= 2;
  }
  leg.phase = Leg::Phase::kWaiting;
  leg.due = now + std::min(backoff, router_.options_.retry_backoff_max);
}

void Router::Gather::FinishLeg(Shard& shard, Leg& leg, Status why) {
  leg.phase = Leg::Phase::kDone;
  for (const Leg& other : shard.legs) {
    if (other.phase != Leg::Phase::kDone) return;  // the other may still win
  }
  Decide(shard, std::move(why));
}

void Router::Gather::Expire(Shard& shard) {
  router_.queries_deadline_->Increment();
  Decide(shard, Status::DeadlineExceeded("query budget exhausted before shard " +
                                         std::to_string(shard.index) +
                                         " responded"));
}

void Router::Gather::Decide(Shard& shard, Result<std::string> result) {
  shard.decided = true;
  results_[shard.slot] = std::move(result);
  // Abandon whatever is still outstanding: its reply is no longer wanted,
  // and a connection with a request in flight cannot be pooled. A probe
  // abandoned that way leaves the breaker due for another.
  for (Leg& leg : shard.legs) {
    if (Outstanding(leg) && leg.probe) BackendOf(shard).breaker.RecordAbandoned();
    if (leg.fd >= 0) ::close(leg.fd);
    leg.fd = -1;
    leg.phase = Leg::Phase::kDone;
  }
  if (--undecided_ == 0 && request_.latency != nullptr) {
    request_.latency->Record(ElapsedMicros(started_at_, Clock::now()));
  }
}

void Router::Gather::Progress(Shard& shard, Leg& leg, Clock::time_point now) {
  if (leg.phase == Leg::Phase::kConnecting) {
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(leg.fd, SOL_SOCKET, SO_ERROR, &error, &len) < 0) {
      error = errno;
    }
    if (error != 0) {
      FailAttempt(shard, leg,
                  Status::IOError(std::string("connect: ") +
                                  std::strerror(error)),
                  now);
      return;
    }
    leg.phase = Leg::Phase::kSending;
    leg.due = now + router_.options_.recv_timeout;
  }
  if (leg.phase == Leg::Phase::kSending) {
    SendSome(shard, leg, now);
  } else {
    ReceiveSome(shard, leg, now);
  }
}

void Router::Gather::SendSome(Shard& shard, Leg& leg, Clock::time_point now) {
  while (leg.sent < leg.out.size()) {
    const ssize_t n = ::send(leg.fd, leg.out.data() + leg.sent,
                             leg.out.size() - leg.sent, MSG_NOSIGNAL);
    if (n > 0) {
      leg.sent += static_cast<size_t>(n);
      leg.due = now + router_.options_.recv_timeout;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    FailAttempt(shard, leg,
                Status::IOError(std::string("send: ") + std::strerror(errno)),
                now);
    return;
  }
  leg.phase = Leg::Phase::kReceiving;
}

void Router::Gather::ReceiveSome(Shard& shard, Leg& leg,
                                 Clock::time_point now) {
  bool closed = false;
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(leg.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      leg.in.Feed(buffer, static_cast<size_t>(n));
      leg.due = now + router_.options_.recv_timeout;
      if (n < static_cast<ssize_t>(sizeof(buffer))) break;  // drained
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0) {
      FailAttempt(shard, leg,
                  Status::IOError(std::string("recv: ") + std::strerror(errno)),
                  now);
      return;
    }
    closed = true;
    break;
  }
  std::string payload;
  bool has_frame = false;
  Status status = leg.in.Next(&payload, &has_frame);
  if (status.ok() && !has_frame) {
    if (!closed) return;  // wait for the rest of the frame
    status = Status::IOError("server closed the connection");
  }
  if (status.ok()) {
    WireCursor cursor(payload);
    MessageType type = request_.reply_type;
    status = server::DecodePayloadHeader(&cursor, &type);
    if (status.ok() && type != request_.reply_type) {
      status = Status::Corruption(
          "expected frame type " +
          std::to_string(static_cast<int>(request_.reply_type)) + ", got " +
          std::to_string(static_cast<int>(type)));
    }
  }
  if (!status.ok()) {
    FailAttempt(shard, leg, status, now);
    return;
  }
  Backend& backend = BackendOf(shard);
  backend.breaker.RecordSuccess();
  // A clean round trip leaves nothing buffered; only then is the
  // connection's stream state known, so only then is it pooled.
  if (!closed && leg.in.buffered_bytes() == 0) {
    backend.pool.Release(leg.fd);
  } else {
    ::close(leg.fd);
  }
  leg.fd = -1;
  leg.phase = Leg::Phase::kDone;
  Decide(shard, std::move(payload));
}

// ---------------------------------------------------------------------------
// Router.

Router::Router(ShardMap map, RouterOptions options)
    : map_(std::move(map)), options_(std::move(options)) {
  queries_total_ = registry_.counter("svq_router_queries_total",
                                     "QUERY frames routed");
  queries_partial_ = registry_.counter(
      "svq_router_queries_partial_total",
      "Scatter-gather queries answered from surviving shards only");
  queries_deadline_ = registry_.counter(
      "svq_router_deadline_exceeded_total",
      "Queries whose budget expired inside the router");
  backend_failures_ = registry_.counter(
      "svq_router_backend_failures_total",
      "Transport-level backend request failures (per attempt)");
  retries_ = registry_.counter("svq_router_retries_total",
                               "Backend attempts beyond the first");
  hedges_ = registry_.counter("svq_router_hedges_total",
                              "Hedge requests issued to slow shards");
  stats_requests_ = registry_.counter("svq_router_stats_requests_total",
                                      "STATS frames aggregated");
  explain_requests_ = registry_.counter("svq_router_explain_requests_total",
                                        "EXPLAIN frames routed");
  connections_opened_ = registry_.counter(
      "svq_router_connections_opened_total", "Client connections accepted");
  rejected_ = registry_.counter(
      "svq_router_rejected_total",
      "Requests turned away (admission bound reached or draining)");
  backends_total_ =
      registry_.gauge("svq_router_backends_total", "Configured backends");
  backends_available_ = registry_.gauge(
      "svq_router_backends_available",
      "Backends whose circuit breaker is not open");
  connections_open_ = registry_.gauge("svq_router_connections_open",
                                      "Client connections currently open");
  in_flight_ = registry_.gauge(
      "svq_router_in_flight", "Requests admitted and not yet answered");
  query_latency_ = registry_.histogram(
      "svq_router_query_latency_micros",
      "QUERY latency through the router (receipt to response encode)");
  fanout_latency_ = registry_.histogram(
      "svq_router_fanout_micros",
      "Scatter-gather fan-out latency (scatter start to last gather)");

  server::TransportOptions transport;
  transport.bind_address = options_.bind_address;
  transport.port = options_.port;
  transport.max_connections = kMaxConnections;
  transport.loops = 1;  // every routed request is a task this loop drives
  transport.max_admitted = kMaxAdmitted;
  transport.max_frame_bytes = options_.max_frame_bytes;
  server::TransportMetrics metrics;
  metrics.connections_opened = connections_opened_;
  metrics.connections_open = connections_open_;
  metrics.in_flight = in_flight_;
  metrics.rejected = rejected_;
  server::Handler* handler = this;
  transport_ = std::make_unique<server::Transport>(std::move(transport),
                                                   metrics, handler);
}

Router::~Router() { Shutdown(); }

void Router::DumpPrometheus(std::ostream& out) const {
  registry_.DumpPrometheus(out);
}

CircuitBreaker::State Router::BreakerState(size_t shard) const {
  return backends_.at(shard)->breaker.state();
}

Status Router::Start() {
  SVQ_RETURN_NOT_OK(map_.Validate());
  if (options_.connect_timeout.count() <= 0) {
    return Status::InvalidArgument(
        "router connect_timeout must be positive");
  }
  if (running_.load()) {
    return Status::FailedPrecondition("router already started");
  }
  backends_.clear();
  for (const ShardEndpoint& endpoint : map_.shards) {
    backends_.push_back(std::make_unique<Backend>(endpoint, options_.breaker));
  }
  backends_total_->Set(static_cast<double>(backends_.size()));
  backends_available_->Set(static_cast<double>(backends_.size()));
  SVQ_RETURN_NOT_OK(transport_->Start());
  running_.store(true);
  if (options_.health_interval.count() > 0) {
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
  return Status::OK();
}

void Router::Shutdown() {
  transport_->Shutdown(kDrainBudget);
  {
    // Under health_mu_, so the health loop cannot miss the wakeup between
    // reading running_ and waiting.
    std::lock_guard<std::mutex> lock(health_mu_);
    if (!running_.exchange(false)) return;
  }
  health_cancel_.Cancel();
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
  for (const std::unique_ptr<Backend>& backend : backends_) {
    backend->pool.Clear();
  }
}

bool Router::RemainingBudget(Clock::time_point received, uint32_t timeout_ms,
                             Clock::time_point now, uint32_t* remaining) {
  if (timeout_ms == 0) {
    *remaining = 0;  // unlimited propagates as unlimited
    return true;
  }
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - received)
          .count();
  if (elapsed >= static_cast<int64_t>(timeout_ms)) return false;
  *remaining = std::max<uint32_t>(
      1, timeout_ms - static_cast<uint32_t>(elapsed));
  return true;
}

int Router::ShardFor(const Result<query::SelectStatement>& parsed) const {
  // A video the map does not know (or a statement that does not parse)
  // goes to the first shard whose breaker admits requests; its NotFound or
  // parser diagnostic matches a single svqd's.
  if (parsed.ok()) {
    const int owner = map_.ShardOf(parsed->process.video);
    if (owner >= 0) return owner;
  }
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i]->breaker.state() != CircuitBreaker::State::kOpen) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Router::BackendRequest Router::RequestFor(Clock::time_point received,
                                          uint32_t timeout_ms) const {
  BackendRequest request;
  request.received = received;
  request.timeout_ms = timeout_ms;
  request.max_retries = options_.max_retries;
  return request;
}

std::vector<size_t> Router::AllShards() const {
  std::vector<size_t> shards(backends_.size());
  std::iota(shards.begin(), shards.end(), size_t{0});
  return shards;
}

Dispatch Router::Call(std::vector<size_t> shards, BackendRequest request,
                      Respond respond, Reject reject) {
  server::Job job;
  job.reject = std::move(reject);
  job.start = [this, shards = std::move(shards), request = std::move(request),
               respond = std::move(respond)](
                  const CancellationToken& cancel) mutable
      -> std::unique_ptr<server::Task> {
    request.cancel = cancel;
    return std::make_unique<Gather>(this, std::move(shards),
                                    std::move(request), std::move(respond));
  };
  return Dispatch::Admit(std::move(job));
}

// ---------------------------------------------------------------------------
// Routing (the transport's loop).

Dispatch Router::Decode(const server::Frame& frame) {
  switch (frame.type) {
    case MessageType::kQueryRequest: {
      server::QueryRequest request;
      const Status decoded = server::DecodeQueryRequest(frame.body, &request);
      if (!decoded.ok()) {
        return Dispatch::Reply(server::EncodeFailure(
            server::EncodeQueryResponse, request.request_id, decoded));
      }
      return RouteQuery(std::move(request), frame.received);
    }
    case MessageType::kExplainRequest: {
      server::ExplainRequest request;
      const Status decoded =
          server::DecodeExplainRequest(frame.body, &request);
      if (!decoded.ok()) {
        return Dispatch::Reply(server::EncodeFailure(
            server::EncodeExplainResponse, request.request_id, decoded));
      }
      return RouteExplain(std::move(request), frame.received);
    }
    case MessageType::kStatsRequest:
      return RouteStats();
    case MessageType::kSubscribeRequest: {
      server::SubscribeRequest request;
      (void)server::DecodeSubscribeRequest(frame.body, &request);
      return Dispatch::Reply(server::EncodeFailure(
          server::EncodeSubscribeResponse, request.request_id,
          Status::Unimplemented("svq_router does not route streaming verbs; "
                                "subscribe to a backend directly")));
    }
    case MessageType::kFeedRequest: {
      server::FeedRequest request;
      (void)server::DecodeFeedRequest(frame.body, &request);
      return Dispatch::Reply(server::EncodeFailure(
          server::EncodeFeedResponse, request.request_id,
          Status::Unimplemented("svq_router does not route streaming verbs; "
                                "feed a backend directly")));
    }
    default: {
      server::UnsubscribeRequest request;
      (void)server::DecodeUnsubscribeRequest(frame.body, &request);
      return Dispatch::Reply(server::EncodeFailure(
          server::EncodeUnsubscribeResponse, request.request_id,
          Status::Unimplemented("svq_router does not route streaming verbs")));
    }
  }
}

Dispatch Router::RouteQuery(server::QueryRequest request,
                            Clock::time_point received) {
  // Every answer but an admission rejection is counted and timed here.
  const auto answer = [this, received, id = request.request_id](
                          QueryResponse response) {
    queries_total_->Increment();
    response.request_id = id;
    query_latency_->Record(ElapsedMicros(received, Clock::now()));
    return server::EncodeQueryResponse(response);
  };
  const auto fail = [answer](Status status) {
    QueryResponse response;
    response.status = std::move(status);
    return answer(std::move(response));
  };
  Reject reject = [id = request.request_id](const Status& status) {
    return server::EncodeFailure(server::EncodeQueryResponse, id, status);
  };
  const Result<query::SelectStatement> parsed =
      RouteTargetOf(request.statement);
  BackendRequest call = RequestFor(received, request.timeout_ms);
  call.encode = [forwarded = std::move(request)](uint32_t budget_ms) mutable {
    forwarded.timeout_ms = budget_ms;
    return server::EncodeQueryRequest(forwarded);
  };
  call.reply_type = MessageType::kQueryResponse;
  call.hedge = true;

  if (!parsed.ok() || parsed->process.video != "*") {
    // Single-video (or unparseable) statement: forward to one shard.
    const int shard = ShardFor(parsed);
    if (shard < 0) {
      return Dispatch::Reply(
          fail(Status::Unavailable("no shard available for this statement")));
    }
    return Call(
        {static_cast<size_t>(shard)}, std::move(call),
        [answer, fail](std::vector<Result<std::string>> replies) {
          Result<QueryResponse> routed =
              DecodeReply(replies[0], server::DecodeQueryResponse);
          return routed.ok() ? answer(std::move(routed).value())
                             : fail(routed.status());
        },
        std::move(reject));
  }

  // Broadcast: bind the parsed statement for K, scatter to every shard,
  // gather with the shared score-ordered merge.
  const Result<query::BoundQuery> bound = query::Bind(*parsed);
  if (!bound.ok()) {
    // The statement parses but does not bind; answer with the binder's
    // diagnostic like a single svqd would.
    return Dispatch::Reply(fail(bound.status()));
  }
  call.latency = fanout_latency_;
  return Call(
      AllShards(), std::move(call),
      [this, answer, k = static_cast<int>(bound->k)](
          std::vector<Result<std::string>> replies) {
        return answer(MergeShards(replies, k));
      },
      std::move(reject));
}

QueryResponse Router::MergeShards(
    const std::vector<Result<std::string>>& replies, int k) {
  QueryResponse response;
  std::vector<GatherEntry> entries;
  std::vector<std::string> failed;
  for (size_t shard = 0; shard < replies.size(); ++shard) {
    Result<QueryResponse> result =
        DecodeReply(replies[shard], server::DecodeQueryResponse);
    if (!result.ok()) {
      failed.push_back(result.status().message());
      continue;
    }
    if (!result->status.ok()) {
      // A backend answered but the query itself failed there (deadline,
      // bad statement against its catalog, ...). That outcome is the
      // query's, not the transport's: surface the first one verbatim.
      response.status = result->status;
      response.sequences.clear();
      return response;
    }
    for (size_t rank = 0; rank < result->sequences.size(); ++rank) {
      entries.push_back({shard, rank, result->sequences[rank]});
    }
    MergeQueryMetrics(result->metrics, &response.metrics);
  }

  core::SortedTopKMerge(
      &entries, k,
      [](const GatherEntry& e) { return e.sequence.lower_bound; },
      [](const GatherEntry& a, const GatherEntry& b) {
        if (a.shard != b.shard) return a.shard < b.shard;
        return a.rank < b.rank;
      });
  response.ranked = true;
  response.sequences.reserve(entries.size());
  for (const GatherEntry& entry : entries) {
    response.sequences.push_back(entry.sequence);
  }

  if (!failed.empty()) {
    std::ostringstream message;
    if (failed.size() == replies.size()) {
      message << "all shards unavailable: ";
    } else {
      queries_partial_->Increment();
      message << "partial results (" << replies.size() - failed.size()
              << "/" << replies.size() << " shards): ";
    }
    for (size_t i = 0; i < failed.size(); ++i) {
      if (i > 0) message << "; ";
      message << failed[i];
    }
    response.status = Status::Unavailable(message.str());
  }
  return response;
}

Dispatch Router::RouteExplain(server::ExplainRequest request,
                              Clock::time_point received) {
  const auto answer = [this, id = request.request_id](
                          server::ExplainResponse response) {
    explain_requests_->Increment();
    response.request_id = id;
    return server::EncodeExplainResponse(response);
  };
  const auto fail = [answer](Status status) {
    server::ExplainResponse response;
    response.status = std::move(status);
    return answer(std::move(response));
  };
  const Result<query::SelectStatement> parsed =
      RouteTargetOf(request.statement);
  if (parsed.ok() && parsed->process.video == "*") {
    // Matches single-node behavior: EXPLAIN over PROCESS * is
    // Unimplemented there too (the planner is per-video).
    return Dispatch::Reply(fail(Status::Unimplemented(
        "EXPLAIN over PROCESS * is not supported; explain a single video")));
  }
  const int shard = ShardFor(parsed);
  if (shard < 0) {
    return Dispatch::Reply(
        fail(Status::Unavailable("no shard available for this statement")));
  }
  Reject reject = [id = request.request_id](const Status& status) {
    return server::EncodeFailure(server::EncodeExplainResponse, id, status);
  };
  BackendRequest call = RequestFor(received, request.timeout_ms);
  call.encode = [forwarded = std::move(request)](uint32_t budget_ms) mutable {
    forwarded.timeout_ms = budget_ms;
    return server::EncodeExplainRequest(forwarded);
  };
  call.reply_type = MessageType::kExplainResponse;
  return Call(
      {static_cast<size_t>(shard)}, std::move(call),
      [answer, fail](std::vector<Result<std::string>> replies) {
        Result<server::ExplainResponse> routed =
            DecodeReply(replies[0], server::DecodeExplainResponse);
        return routed.ok() ? answer(std::move(routed).value())
                           : fail(routed.status());
      },
      std::move(reject));
}

Dispatch Router::RouteStats() {
  BackendRequest call = RequestFor(Clock::now(), 0);
  call.encode = [](uint32_t) { return server::EncodeStatsRequest(); };
  call.reply_type = MessageType::kStatsResponse;
  return Call(
      AllShards(), std::move(call),
      [this](std::vector<Result<std::string>> replies) {
        stats_requests_->Increment();
        last_stats_ = StatsResponse(replies);
        return last_stats_;
      },
      // STATS has no status to carry a rejection. A router too busy to ask
      // its backends repeats the last aggregate it built, so no counter a
      // scraper reads goes backwards.
      [this](const Status&) {
        return last_stats_.empty() ? StatsResponse({}) : last_stats_;
      });
}

std::string Router::StatsResponse(
    const std::vector<Result<std::string>>& replies) {
  observability::MetricsSnapshot aggregate;
  size_t available = 0;
  for (const Result<std::string>& reply : replies) {
    if (!reply.ok()) continue;
    observability::MetricsSnapshot backend;
    WireCursor cursor(*reply);
    MessageType type = MessageType::kStatsResponse;
    if (!server::DecodePayloadHeader(&cursor, &type).ok() ||
        !server::DecodeStatsResponse(&cursor, &backend).ok()) {
      continue;
    }
    ++available;
    aggregate.Merge(backend);
  }
  if (!replies.empty()) {
    backends_available_->Set(static_cast<double>(available));
  }
  // The router's own metrics ride along under their svq_router_* names —
  // one STATS round trip observes the whole cluster.
  aggregate.Merge(registry_.Snapshot());
  return server::EncodeStatsResponse(aggregate);
}

void Router::HealthLoop() {
  // No budget: a probe is bounded by connect_timeout and recv_timeout.
  BackendRequest probe = RequestFor(Clock::now(), 0);
  probe.encode = [](uint32_t) { return server::EncodeStatsRequest(); };
  probe.reply_type = MessageType::kStatsResponse;
  probe.max_retries = 0;
  probe.cancel = health_cancel_.token();
  while (running_.load()) {
    {
      std::unique_lock<std::mutex> lock(health_mu_);
      health_cv_.wait_for(lock, options_.health_interval,
                          [this] { return !running_.load(); });
    }
    if (!running_.load()) return;
    size_t available = 0;
    for (size_t shard = 0; shard < backends_.size(); ++shard) {
      if (backends_[shard]->breaker.state() ==
          CircuitBreaker::State::kClosed) {
        ++available;
        continue;
      }
      // Open (or half-open) breaker: probe with STATS through the one call
      // path, which the breaker admits only as its half-open probe. A
      // healthy answer closes the breaker without waiting for client
      // traffic.
      if (Gather(this, {shard}, probe).Run()[0].ok()) ++available;
    }
    backends_available_->Set(static_cast<double>(available));
  }
}

}  // namespace svq::cluster
