#ifndef SVQ_CLUSTER_ROUTER_H_
#define SVQ_CLUSTER_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "svq/cluster/breaker.h"
#include "svq/cluster/client_pool.h"
#include "svq/cluster/shard_map.h"
#include "svq/common/execution_context.h"
#include "svq/common/result.h"
#include "svq/observability/metrics.h"
#include "svq/query/ast.h"
#include "svq/server/transport.h"
#include "svq/server/wire.h"

namespace svq::cluster {

/// Router tuning knobs. The defaults favor fast failure detection in
/// tests; production deployments raise the timeouts (docs/cluster.md).
struct RouterOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral (read the bound port back via port()).
  uint16_t port = 0;

  /// Extra attempts after the first for idempotent verbs
  /// (QUERY / EXPLAIN / STATS) that failed at the transport layer.
  int max_retries = 2;
  /// First retry delay; doubles per retry, capped at `retry_backoff_max`.
  std::chrono::milliseconds retry_backoff{10};
  std::chrono::milliseconds retry_backoff_max{200};

  /// Hedging for QUERYs: when > 0, a shard that has not answered within
  /// this budget gets a duplicate request on another connection; the first
  /// reply wins, and a copy that fails leaves the other running. 0
  /// disables hedging.
  std::chrono::milliseconds hedge_after{0};

  /// Circuit breaker per backend (svq/cluster/breaker.h).
  CircuitBreaker::Options breaker;

  /// Dial budget for every backend connection (a non-blocking connect);
  /// must be > 0 so a black-holed backend cannot hold a request.
  std::chrono::milliseconds connect_timeout{1000};
  /// How long a backend request may go without progress (no byte sent or
  /// received) before it fails; must comfortably exceed the largest query
  /// timeout the deployment issues.
  std::chrono::milliseconds recv_timeout{120000};

  /// Period of the background health checker, which probes open-breaker
  /// backends with STATS so recovery is noticed without client traffic.
  /// 0 disables the checker.
  std::chrono::milliseconds health_interval{500};

  size_t max_frame_bytes = server::kDefaultMaxFrameBytes;
};

/// The scatter-gather routing layer (docs/cluster.md): speaks the svqd
/// wire protocol on both sides. Downstream it is indistinguishable from a
/// single svqd to existing clients; upstream it manages one svqd backend
/// per shard of the catalog, as described by a versioned ShardMap.
///
/// Routing semantics:
///  - QUERY over `PROCESS <video>` forwards to the shard owning the video
///    (unassigned videos go to the first healthy shard, which answers
///    NotFound exactly as a single svqd would).
///  - QUERY over `PROCESS *` scatters to every shard — each backend runs
///    its partition's repository top-K — and gathers with the same
///    score-ordered merge as the repository fan-out
///    (svq/core/topk_merge.h), ties broken by (shard, per-shard rank).
///  - Deadlines propagate by decrementing the remaining budget per hop:
///    every forwarded timeout is the client's budget minus time already
///    spent since the router received the frame (queueing, earlier
///    attempts, backoff).
///  - Transport failures retry with capped exponential backoff (the verbs
///    the router forwards are idempotent), feed the backend's circuit
///    breaker, and — for scatter-gather — degrade to partial results: the
///    response carries the surviving shards' sequences with query status
///    kUnavailable naming the shards that failed, never a silent subset.
///  - STATS merges every backend's metrics-registry snapshot with the
///    router's own svq_router_* metrics (MetricsSnapshot::Merge):
///    same-name counters and gauges add, histograms add count, sum and
///    every bucket, so each histogram's percentiles cover the cluster.
///  - Streaming verbs (SUBSCRIBE / FEED / UNSUBSCRIBE) answer
///    Unimplemented: standing queries pin per-feed state that a
///    stateless router does not replicate.
///
/// Threading: the router is a handler set on server::Transport, and a
/// routed request holds no thread while it waits on its backends. The
/// transport's one event loop decodes each frame, sends each shard's
/// request on a pooled connection and polls those connections beside the
/// client sockets, so one poll loop drives every routed request; at most
/// 64 are admitted at once, the connection cap (constants in router.cc).
/// The only other thread is the health checker. No thread is started per
/// connection, per shard or per hedge. A client that disconnects cancels
/// its request's backend calls.
class Router : private server::Handler {
 public:
  using Clock = std::chrono::steady_clock;

  Router(ShardMap map, RouterOptions options);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds, listens, and starts the transport and health threads.
  /// Errors: InvalidArgument (bad map/options), IOError.
  Status Start();

  /// Drains (stops accepting, lets admitted requests finish within a fixed
  /// budget, cancels the rest), then stops every thread. Idempotent.
  void Shutdown();

  /// The bound port (valid after Start).
  uint16_t port() const { return transport_->port(); }

  const ShardMap& shard_map() const { return map_; }

  /// Router-side metrics (svq_router_*). Exposed for benches and tests;
  /// every STATS response merges a snapshot of them into the backends'.
  const observability::MetricsRegistry& registry() const {
    return registry_;
  }

  /// Prometheus text dump of the router registry.
  void DumpPrometheus(std::ostream& out) const;

  /// Breaker state of one backend (tests).
  CircuitBreaker::State BreakerState(size_t shard) const;

 private:
  struct Backend {
    Backend(ShardEndpoint endpoint, CircuitBreaker::Options breaker)
        : pool(std::move(endpoint)), breaker(breaker) {}

    ClientPool pool;
    CircuitBreaker breaker;
  };

  /// One request as a Gather sends it to each shard.
  struct BackendRequest {
    /// Encodes one attempt's request frame; `budget_ms` is the client's
    /// remaining budget (0 = unlimited).
    std::function<std::string(uint32_t budget_ms)> encode;
    server::MessageType reply_type = server::MessageType::kQueryResponse;
    /// The client's budget: `timeout_ms` (0 = unlimited) from `received`.
    /// Shards that have not replied when it runs out are decided as
    /// DeadlineExceeded at that moment.
    Clock::time_point received{};
    uint32_t timeout_ms = 0;
    int max_retries = 0;
    /// Duplicate a shard's request once it is options_.hedge_after late.
    bool hedge = false;
    /// Abandons every outstanding backend request when it fires.
    CancellationToken cancel;
    /// When set, records the call's duration (first send to last reply).
    observability::Histogram* latency = nullptr;
  };
  /// What a routed request makes of its shards' replies — each reply's
  /// payload (header included), or why there is none: Unavailable
  /// (transport or breaker), DeadlineExceeded (the budget ran out in the
  /// router) or Cancelled (the client left) — as its response frame.
  using Respond =
      std::function<std::string(std::vector<Result<std::string>> replies)>;
  /// The response to a request admission turns away.
  using Reject = std::function<std::string(const Status& status)>;
  /// The one backend call (router.cc), for QUERY, EXPLAIN, STATS and the
  /// health probe: per-shard legs on pooled non-blocking connections, with
  /// retries, breaker accounting and hedging.
  class Gather;

  // Handler: everything below runs on the transport's one loop.
  server::Dispatch Decode(const server::Frame& frame) override;
  server::Dispatch RouteQuery(server::QueryRequest request,
                              Clock::time_point received);
  server::Dispatch RouteExplain(server::ExplainRequest request,
                                Clock::time_point received);
  server::Dispatch RouteStats();
  /// Admits a Gather of `request` over `shards`, driven by the loop;
  /// `respond` turns the replies into the response.
  server::Dispatch Call(std::vector<size_t> shards, BackendRequest request,
                        Respond respond, Reject reject);
  /// The broadcast answer: the shards' sequences merged to the top `k`,
  /// or the explicit partial / failed status.
  server::QueryResponse MergeShards(
      const std::vector<Result<std::string>>& replies, int k);
  /// The STATS response over the backends' replies plus the router's own
  /// registry.
  std::string StatsResponse(const std::vector<Result<std::string>>& replies);

  void HealthLoop();

  /// Remaining per-hop budget: client budget minus elapsed. Returns false
  /// when the budget is exhausted (0 client budget = unlimited, always
  /// true with *remaining = 0).
  static bool RemainingBudget(Clock::time_point received,
                              uint32_t timeout_ms, Clock::time_point now,
                              uint32_t* remaining);

  /// The shard a single-video statement goes to: the video's owner, else
  /// the first shard whose breaker admits requests; -1 when none does.
  int ShardFor(const Result<query::SelectStatement>& parsed) const;

  /// The request template every routed verb starts from.
  BackendRequest RequestFor(Clock::time_point received,
                            uint32_t timeout_ms) const;
  std::vector<size_t> AllShards() const;

  const ShardMap map_;
  const RouterOptions options_;

  std::vector<std::unique_ptr<Backend>> backends_;

  observability::MetricsRegistry registry_;
  observability::Counter* queries_total_ = nullptr;
  observability::Counter* queries_partial_ = nullptr;
  observability::Counter* queries_deadline_ = nullptr;
  observability::Counter* backend_failures_ = nullptr;
  observability::Counter* retries_ = nullptr;
  observability::Counter* hedges_ = nullptr;
  observability::Counter* stats_requests_ = nullptr;
  observability::Counter* explain_requests_ = nullptr;
  observability::Counter* connections_opened_ = nullptr;
  observability::Counter* rejected_ = nullptr;
  observability::Gauge* backends_total_ = nullptr;
  observability::Gauge* backends_available_ = nullptr;
  observability::Gauge* connections_open_ = nullptr;
  observability::Gauge* in_flight_ = nullptr;
  observability::Histogram* query_latency_ = nullptr;
  observability::Histogram* fanout_latency_ = nullptr;

  std::unique_ptr<server::Transport> transport_;
  /// The last STATS response built from the backends' replies: the answer
  /// to a STATS that admission turns away (the loop only).
  std::string last_stats_;

  std::atomic<bool> running_{false};
  std::thread health_thread_;
  std::mutex health_mu_;
  std::condition_variable health_cv_;
  /// Fired by Shutdown so a probe in progress does not hold it up.
  CancellationSource health_cancel_;
};

}  // namespace svq::cluster

#endif  // SVQ_CLUSTER_ROUTER_H_
