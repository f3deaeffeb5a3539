#ifndef SVQ_SERVER_SERVER_H_
#define SVQ_SERVER_SERVER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "svq/common/execution_context.h"
#include "svq/common/status.h"
#include "svq/core/engine.h"
#include "svq/observability/metrics.h"
#include "svq/observability/trace.h"
#include "svq/plan/planner.h"
#include "svq/server/transport.h"
#include "svq/server/wire.h"
#include "svq/stream/dispatcher.h"

namespace svq::server {

/// Tunables of one svqd instance.
struct ServerOptions {
  /// Address to bind; loopback by default (svqd is not an internet-facing
  /// daemon — put a real proxy in front of it).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Accepted connections beyond this are closed immediately.
  int max_connections = 64;
  /// Admission control: the transport's event loops, one thread each, so
  /// also the jobs running at once ...
  int max_in_flight = 4;
  /// ... plus at most this many jobs read but not yet run; anything beyond
  /// is rejected with kResourceExhausted instead of queueing unboundedly.
  int max_queue = 16;
  /// Per-query engine fan-out (OfflineOptions::runtime.num_threads). The
  /// default keeps each query sequential and lets concurrency come from
  /// many requests; raise it on big machines serving few fat queries.
  int threads_per_query = 1;
  /// Frames above this are a protocol error and drop the connection.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Standing-query (v4 SUBSCRIBE) event queue capacity per subscription —
  /// the lag/drop bound: a subscriber this far behind starts receiving gap
  /// markers instead of stalling the feed (docs/streaming.md).
  size_t stream_event_queue_capacity = 256;
  /// Standing queries per feed beyond this are rejected with
  /// kResourceExhausted.
  int max_subscriptions_per_feed = 64;
  /// EVENT frames already encoded on a connection's outbox beyond this
  /// pause event forwarding for that connection until the socket drains
  /// (the subscription queue keeps absorbing, eventually dropping — slow
  /// consumers degrade themselves, never the server).
  size_t max_outbox_frames = 256;
};

/// svqd: a VideoQueryEngine served over the svqd wire protocol
/// (docs/server.md), as one handler set on the shared server::Transport.
///
/// Threading model: `max_in_flight` transport event loops each own the
/// connections they are given (loop 0 also accepts). A loop reads and
/// decodes its connections' requests; STATS is answered right there, every
/// other verb is admitted against one bound over all loops and run inline
/// by the same loop, which writes the response itself — no request crosses
/// a thread. A request is pinned to a catalog snapshot at entry — when its
/// loop decodes it, before it waits behind other jobs — so the results a
/// client sees correspond to the catalog as of request arrival, exactly
/// like an in-process ExecuteTopKOn caller. The client's timeout_ms
/// becomes the query's ExecutionContext deadline, so an expired request
/// unwinds server-side (cooperatively, within one clip / iterator step)
/// instead of holding its loop. A client that disconnects has its requests
/// not yet run dropped when its loop next polls; one already running
/// finishes, and its response is dropped.
///
/// Shutdown(drain) implements graceful drain: stop accepting connections,
/// reject new queries with kResourceExhausted, let in-flight queries finish
/// within the drain budget, cancel whatever remains, flush responses, then
/// exit. The svqd binary wires SIGINT/SIGTERM to exactly this.
class Server : private Handler {
 public:
  /// `engine` is borrowed and must outlive the server.
  Server(core::VideoQueryEngine* engine, ServerOptions options);
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the transport's loops. Errors:
  /// InvalidArgument (max_in_flight < 1, max_queue < 0, max_connections <
  /// 1, or more loops than max_connections; checked before any thread
  /// starts), IOError (socket/bind failures), FailedPrecondition (already
  /// started).
  Status Start();

  /// The bound port (valid after Start; resolves port 0 requests).
  uint16_t port() const { return transport_->port(); }

  /// Graceful drain, then stop. Safe to call more than once.
  void Shutdown(std::chrono::milliseconds drain_timeout =
                    std::chrono::milliseconds(5000));

  /// Point-in-time snapshot of the server's metrics registry, which is
  /// what the STATS verb returns: admission / outcome counters, connection
  /// and queue gauges, per-verb latency and per-phase
  /// (parse/bind/plan/execute) histograms, plus the engine-side aggregates
  /// (storage accesses, inference time) accumulated from every finished
  /// query.
  observability::MetricsSnapshot Metrics() const;

  /// Writes Metrics() in Prometheus text exposition format.
  void DumpPrometheus(std::ostream& out) const;

 private:
  using Clock = ExecutionContext::Clock;

  // Handler: every call comes from the loop that owns the connection.
  Dispatch Decode(const Frame& frame) override;
  /// Cancellation-on-disconnect for standing queries.
  void OnClose(ConnectionId connection) override;
  /// Resumes event forwarding that the outbox cap paused.
  void OnDrained(ConnectionId connection) override;

  /// Execution of the admitted verbs on the connection's loop; each
  /// returns the encoded response frame. Statements run on the snapshot pinned at arrival,
  /// with `timeout_ms` counted from `received`.
  std::string RunQuery(const QueryRequest& request,
                       const core::SnapshotPtr& snapshot,
                       Clock::time_point received,
                       const CancellationToken& cancel);
  std::string RunExplain(const ExplainRequest& request,
                         const core::SnapshotPtr& snapshot,
                         Clock::time_point received,
                         const CancellationToken& cancel);
  std::string RunSubscribe(ConnectionId connection,
                           const SubscribeRequest& request,
                           const CancellationToken& cancel);
  std::string RunFeed(const FeedRequest& request);
  std::string RunUnsubscribe(ConnectionId connection,
                             const UnsubscribeRequest& request);
  /// Folds a finished request's outcome into the outcome counters.
  void CountOutcome(const Status& outcome);

  /// Dispatcher event callback: forwards a subscription's queued events to
  /// its connection as EVENT frames. Invoked with no dispatcher/feed locks
  /// held, from whichever thread dispatched the clip.
  void OnStreamEvent(uint64_t subscription_id);
  /// Drains a subscription's queue to its connection as EVENT frames (mu_
  /// held by caller). Skips while the connection's backlog is past
  /// max_outbox_frames — OnDrained re-drains once the socket catches up,
  /// and the bounded queue ages out the backlog meanwhile.
  void DrainSubscriptionLocked(ConnectionId connection,
                               uint64_t subscription_id);

  core::VideoQueryEngine* const engine_;
  const ServerOptions options_;

  /// Guards the bridge baselines below and the subscription maps.
  mutable std::mutex mu_;

  /// Folds the engine, planner and dispatcher counters into the registry
  /// (mu_ held by caller).
  void BridgeCountersLocked() const;

  /// Folds one finished query's engine-side accounting and trace into the
  /// registry (lock-free: counters and histograms are relaxed atomics).
  void RecordQueryMetrics(const WireQueryMetrics& metrics,
                          const observability::QueryTrace& trace);

  /// All server metrics live here; recording is relaxed-atomic, so the
  /// loops' hot path never serializes on a stats lock. The named pointers
  /// below are registered once in the constructor and stable for the
  /// server's lifetime.
  observability::MetricsRegistry registry_;
  observability::Counter* queries_accepted_;
  observability::Counter* queries_rejected_;
  observability::Counter* queries_ok_;
  observability::Counter* queries_failed_;
  observability::Counter* queries_cancelled_;
  observability::Counter* queries_deadline_exceeded_;
  observability::Counter* stats_requests_;
  observability::Counter* explain_requests_;
  observability::Counter* connections_opened_;
  observability::Gauge* connections_open_gauge_;
  observability::Gauge* queue_depth_gauge_;
  observability::Gauge* in_flight_gauge_;
  observability::Histogram* query_latency_;
  observability::Histogram* stats_latency_;
  observability::Histogram* phase_parse_;
  observability::Histogram* phase_bind_;
  observability::Histogram* phase_plan_;
  observability::Histogram* phase_execute_;
  observability::Counter* storage_sorted_accesses_;
  observability::Counter* storage_random_accesses_;
  observability::Counter* storage_sequential_reads_;
  observability::Counter* storage_virtual_disk_ms_;
  observability::Counter* inference_model_ms_;
  observability::Counter* online_clips_processed_;
  observability::Counter* runtime_tasks_executed_;
  observability::Counter* runtime_fanout_ms_;
  observability::Counter* engine_algorithm_ms_;

  /// Folds the engine's cumulative cache counters into the registry as
  /// deltas since the previous bridge (mu_ held by caller — it guards
  /// last_cache_). Registry counters only go up, so the bridge tracks the
  /// last folded snapshot instead of Set()ing absolutes.
  void BridgeCacheLocked() const;
  mutable svq::cache::CacheStats::Snapshot last_cache_;
  observability::Counter* cache_hits_;
  observability::Counter* cache_misses_;
  observability::Counter* cache_evictions_;
  observability::Counter* cache_result_hits_;
  observability::Counter* cache_result_misses_;
  observability::Counter* cache_single_flight_waits_;
  observability::Gauge* cache_bytes_gauge_;

  /// Folds the process-wide planner counters into the registry as deltas
  /// since the previous bridge, same discipline as the cache bridge above
  /// (mu_ held by caller — it guards last_plan_).
  void BridgePlannerLocked() const;
  mutable plan::PlannerCounters::Snapshot last_plan_;
  observability::Counter* plan_plans_;
  observability::Counter* plan_cache_hits_;
  observability::Counter* plan_auto_rvaq_;
  observability::Counter* plan_auto_fagin_;
  observability::Counter* plan_auto_pq_traverse_;
  observability::Counter* plan_overrides_;
  observability::Counter* plan_estimate_samples_;
  observability::Counter* plan_estimate_error_pct_sum_;

  /// Folds the stream dispatcher's cumulative counters into the registry
  /// as deltas since the previous bridge, same discipline as the cache
  /// bridge (mu_ held by caller — it guards last_stream_).
  void BridgeStreamLocked() const;
  mutable stream::DispatcherStats last_stream_;
  observability::Counter* subscribe_requests_;
  observability::Counter* feed_requests_;
  observability::Counter* unsubscribe_requests_;
  observability::Counter* stream_feeds_;
  observability::Gauge* stream_feeds_open_gauge_;
  observability::Counter* stream_subscriptions_;
  observability::Gauge* stream_subscriptions_active_gauge_;
  observability::Counter* stream_clips_dispatched_;
  observability::Counter* stream_events_pushed_;
  observability::Counter* stream_events_dropped_;
  observability::Counter* stream_model_units_run_;
  observability::Counter* stream_model_units_charged_;
  observability::Counter* stream_model_ms_run_;
  observability::Counter* stream_model_ms_charged_;

  /// Subscription id -> owning connection, and each connection's
  /// subscriptions (guarded by mu_); the event callback routes through the
  /// first, and disconnect tears down every entry of the second.
  std::map<uint64_t, ConnectionId> sub_conn_;
  std::map<ConnectionId, std::set<uint64_t>> conn_subs_;

  /// The socket layer; declared before the dispatcher so it outlives the
  /// dispatcher's thread, which may still call OnStreamEvent.
  std::unique_ptr<Transport> transport_;

  /// The standing-query multiplexer (docs/streaming.md). Declared last so
  /// it is destroyed first: its worker thread may still invoke
  /// OnStreamEvent, which must find the rest of the server alive.
  std::unique_ptr<stream::StreamDispatcher> dispatcher_;
};

}  // namespace svq::server

#endif  // SVQ_SERVER_SERVER_H_
