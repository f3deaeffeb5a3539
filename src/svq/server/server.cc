#include "svq/server/server.h"

#include <string>
#include <utility>

#include "svq/query/executor.h"
#include "svq/query/explain.h"

namespace svq::server {

namespace {

using Clock = ExecutionContext::Clock;

double ElapsedMs(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// Converts one engine result into the wire representation. Streaming
/// statements carry plain intervals; ranked statements carry certified
/// score bounds and the storage/runtime accounting.
void FillResponse(const query::StatementResult& statement,
                  QueryResponse* response) {
  if (statement.topk.has_value()) {
    response->ranked = true;
    for (const core::RankedSequence& sequence : statement.topk->sequences) {
      response->sequences.push_back({sequence.clips.begin,
                                     sequence.clips.end,
                                     sequence.lower_bound,
                                     sequence.upper_bound});
    }
    const core::OfflineRunStats& stats = statement.topk->stats;
    response->metrics.sorted_accesses = stats.storage.sorted_accesses;
    response->metrics.random_accesses = stats.storage.random_accesses;
    response->metrics.sequential_reads = stats.storage.sequential_reads;
    response->metrics.virtual_ms = stats.virtual_ms;
    response->metrics.algorithm_ms = stats.algorithm_ms;
    response->metrics.threads_used = stats.runtime.threads_used;
    response->metrics.tasks_executed = stats.runtime.tasks_executed;
    response->metrics.fanout_ms = stats.runtime.fanout_ms;
    return;
  }
  if (statement.repo.has_value()) {
    // Whole-repository broadcast (PROCESS *): per-video entries, already
    // globally merged by score. The wire sequence carries the certified
    // bounds; video attribution stays server-side (the cluster layer
    // re-merges by score + stable position, not by video id).
    response->ranked = true;
    for (const core::RepositoryEntry& entry : statement.repo->sequences) {
      response->sequences.push_back({entry.sequence.clips.begin,
                                     entry.sequence.clips.end,
                                     entry.sequence.lower_bound,
                                     entry.sequence.upper_bound});
    }
    const core::OfflineRunStats& stats = statement.repo->stats;
    response->metrics.sorted_accesses = stats.storage.sorted_accesses;
    response->metrics.random_accesses = stats.storage.random_accesses;
    response->metrics.sequential_reads = stats.storage.sequential_reads;
    response->metrics.virtual_ms = stats.virtual_ms;
    response->metrics.algorithm_ms = stats.algorithm_ms;
    response->metrics.threads_used = stats.runtime.threads_used;
    response->metrics.tasks_executed = stats.runtime.tasks_executed;
    response->metrics.fanout_ms = stats.runtime.fanout_ms;
    return;
  }
  if (statement.online.has_value()) {
    for (const video::Interval& interval :
         statement.online->sequences.intervals()) {
      response->sequences.push_back({interval.begin, interval.end, 0.0, 0.0});
    }
    const core::OnlineStats& stats = statement.online->stats;
    response->metrics.model_ms = stats.model_ms;
    response->metrics.algorithm_ms = stats.algorithm_ms;
    response->metrics.clips_processed = stats.clips_processed;
  }
}

}  // namespace

Server::Server(core::VideoQueryEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  queries_accepted_ = registry_.counter(
      "svqd_queries_accepted_total", "Queries admitted past admission control");
  queries_rejected_ = registry_.counter(
      "svqd_queries_rejected_total", "Queries turned away (queue full or draining)");
  queries_ok_ = registry_.counter("svqd_queries_ok_total",
                                  "Queries that completed successfully");
  queries_failed_ = registry_.counter(
      "svqd_queries_failed_total", "Queries that failed (excluding cancel/deadline)");
  queries_cancelled_ = registry_.counter("svqd_queries_cancelled_total",
                                         "Queries cancelled by client or drain");
  queries_deadline_exceeded_ = registry_.counter(
      "svqd_queries_deadline_exceeded_total", "Queries past their deadline");
  stats_requests_ = registry_.counter("svqd_stats_requests_total",
                                      "STATS verb requests served");
  explain_requests_ = registry_.counter("svqd_explain_requests_total",
                                        "EXPLAIN verb requests admitted");
  connections_opened_ = registry_.counter("svqd_connections_opened_total",
                                          "Connections accepted since start");
  connections_open_gauge_ =
      registry_.gauge("svqd_connections_open", "Connections currently open");
  queue_depth_gauge_ =
      registry_.gauge("svqd_queue_depth", "Queries queued behind admission");
  in_flight_gauge_ =
      registry_.gauge("svqd_in_flight", "Queries currently executing");
  query_latency_ = registry_.histogram(
      "svqd_query_latency_micros", "QUERY latency, admission to response encode");
  stats_latency_ = registry_.histogram(
      "svqd_stats_latency_micros", "STATS latency, receipt to response encode");
  phase_parse_ =
      registry_.histogram("svqd_phase_parse_micros", "Statement parse time");
  phase_bind_ =
      registry_.histogram("svqd_phase_bind_micros", "Statement bind time");
  phase_plan_ = registry_.histogram("svqd_phase_plan_micros",
                                    "Suite resolution / planning time");
  phase_execute_ = registry_.histogram("svqd_phase_execute_micros",
                                       "Engine execution time");
  storage_sorted_accesses_ = registry_.counter(
      "svq_storage_sorted_accesses_total", "Sorted table accesses across queries");
  storage_random_accesses_ = registry_.counter(
      "svq_storage_random_accesses_total", "Random table accesses across queries");
  storage_sequential_reads_ = registry_.counter(
      "svq_storage_sequential_reads_total", "Sequential reads across queries");
  storage_virtual_disk_ms_ = registry_.counter(
      "svq_storage_virtual_disk_ms_total", "Modeled disk time across queries (ms)");
  inference_model_ms_ = registry_.counter(
      "svq_inference_model_ms_total", "Model inference time across queries (ms)");
  online_clips_processed_ = registry_.counter(
      "svq_online_clips_processed_total", "Clips processed by streaming queries");
  runtime_tasks_executed_ = registry_.counter(
      "svq_runtime_tasks_executed_total", "Runtime fan-out tasks across queries");
  runtime_fanout_ms_ = registry_.counter(
      "svq_runtime_fanout_ms_total", "Runtime fan-out wall time across queries (ms)");
  engine_algorithm_ms_ = registry_.counter(
      "svq_engine_algorithm_ms_total", "Engine algorithm time across queries (ms)");
  cache_hits_ = registry_.counter("svq_cache_hits_total",
                                  "Query cache hits, all tiers");
  cache_misses_ = registry_.counter("svq_cache_misses_total",
                                    "Query cache misses, all tiers");
  cache_evictions_ = registry_.counter("svq_cache_evictions_total",
                                       "Query cache LRU evictions");
  cache_result_hits_ = registry_.counter("svq_cache_result_hits_total",
                                         "Top-K result cache hits");
  cache_result_misses_ = registry_.counter("svq_cache_result_misses_total",
                                           "Top-K result cache misses");
  cache_single_flight_waits_ = registry_.counter(
      "svq_cache_single_flight_waits_total",
      "Duplicate in-flight statements deduplicated by single-flight");
  cache_bytes_gauge_ = registry_.gauge("svq_cache_bytes",
                                       "Live query-cache bytes, all tiers");
  plan_plans_ = registry_.counter("svq_plan_plans_total",
                                  "Physical plans produced (cache hits included)");
  plan_cache_hits_ = registry_.counter("svq_plan_cache_hits_total",
                                       "Plans served from the snapshot plan tier");
  plan_auto_rvaq_ = registry_.counter("svq_plan_auto_rvaq_total",
                                      "Cost-based selections of RVAQ");
  plan_auto_fagin_ = registry_.counter("svq_plan_auto_fagin_total",
                                       "Cost-based selections of Fagin");
  plan_auto_pq_traverse_ = registry_.counter(
      "svq_plan_auto_pq_traverse_total", "Cost-based selections of Pq-Traverse");
  plan_overrides_ = registry_.counter(
      "svq_plan_overrides_total", "Ranked statements with an explicit algorithm");
  plan_estimate_samples_ = registry_.counter(
      "svq_plan_estimate_samples_total",
      "Executed plans with estimate-vs-actual candidate comparisons");
  plan_estimate_error_pct_sum_ = registry_.counter(
      "svq_plan_estimate_error_pct_sum",
      "Accumulated absolute candidate-clip estimate error (percent of actual)");
  // The planner counters are process-global; baseline them here so this
  // server only reports planning activity from its own lifetime.
  last_plan_ = plan::GlobalPlannerCounters().Read();

  subscribe_requests_ = registry_.counter("svqd_subscribe_requests_total",
                                          "SUBSCRIBE verb requests admitted");
  feed_requests_ = registry_.counter("svqd_feed_requests_total",
                                     "FEED verb requests admitted");
  unsubscribe_requests_ = registry_.counter(
      "svqd_unsubscribe_requests_total", "UNSUBSCRIBE verb requests admitted");
  stream_feeds_ = registry_.counter("svq_stream_feeds_total",
                                    "Live feeds created since start");
  stream_feeds_open_gauge_ =
      registry_.gauge("svq_stream_feeds_open", "Live feeds currently open");
  stream_subscriptions_ = registry_.counter(
      "svq_stream_subscriptions_total", "Standing queries registered");
  stream_subscriptions_active_gauge_ = registry_.gauge(
      "svq_stream_subscriptions_active", "Standing queries currently active");
  stream_clips_dispatched_ = registry_.counter(
      "svq_stream_clips_dispatched_total", "Clips dispatched into feeds");
  stream_events_pushed_ = registry_.counter(
      "svq_stream_events_pushed_total", "Events queued to subscribers");
  stream_events_dropped_ = registry_.counter(
      "svq_stream_events_dropped_total",
      "Events discarded by the lag/drop policy");
  stream_model_units_run_ = registry_.counter(
      "svq_stream_model_units_run_total",
      "Inference units the shared models actually executed");
  stream_model_units_charged_ = registry_.counter(
      "svq_stream_model_units_charged_total",
      "Inference units dedicated per-query models would have executed");
  stream_model_ms_run_ = registry_.counter(
      "svq_stream_model_ms_run_total",
      "Model time actually executed by shared inference (ms)");
  stream_model_ms_charged_ = registry_.counter(
      "svq_stream_model_ms_charged_total",
      "Model time dedicated per-query models would have spent (ms)");

  stream::StreamOptions stream_options;
  stream_options.event_queue_capacity = options_.stream_event_queue_capacity;
  stream_options.max_subscriptions_per_feed =
      options_.max_subscriptions_per_feed;
  dispatcher_ =
      std::make_unique<stream::StreamDispatcher>(engine_, stream_options);
  dispatcher_->set_event_callback(
      [this](uint64_t subscription_id) { OnStreamEvent(subscription_id); });

  TransportOptions transport;
  transport.bind_address = options_.bind_address;
  transport.port = options_.port;
  transport.max_connections = options_.max_connections;
  transport.loops = options_.max_in_flight;
  transport.max_admitted = options_.max_in_flight + options_.max_queue;
  transport.max_frame_bytes = options_.max_frame_bytes;
  TransportMetrics metrics;
  metrics.connections_opened = connections_opened_;
  metrics.connections_open = connections_open_gauge_;
  metrics.queue_depth = queue_depth_gauge_;
  metrics.in_flight = in_flight_gauge_;
  metrics.admitted = queries_accepted_;
  metrics.rejected = queries_rejected_;
  metrics.cancelled = queries_cancelled_;
  Handler* handler = this;
  transport_ =
      std::make_unique<Transport>(std::move(transport), metrics, handler);
}

Server::~Server() { Shutdown(std::chrono::milliseconds(0)); }

Status Server::Start() {
  if (engine_ == nullptr) return Status::InvalidArgument("engine must be set");
  if (options_.max_in_flight < 1) {
    return Status::InvalidArgument("max_in_flight must be at least 1, got " +
                                   std::to_string(options_.max_in_flight));
  }
  if (options_.max_queue < 0) {
    return Status::InvalidArgument("max_queue must not be negative, got " +
                                   std::to_string(options_.max_queue));
  }
  if (options_.max_connections < 1) {
    return Status::InvalidArgument(
        "max_connections must be at least 1, got " +
        std::to_string(options_.max_connections));
  }
  if (options_.max_in_flight > options_.max_connections) {
    return Status::InvalidArgument(
        "max_in_flight (" + std::to_string(options_.max_in_flight) +
        " loops) exceeds max_connections (" +
        std::to_string(options_.max_connections) +
        "): a loop could never own a connection");
  }
  return transport_->Start();
}

void Server::Shutdown(std::chrono::milliseconds drain_timeout) {
  transport_->Shutdown(drain_timeout);
}

// ---------------------------------------------------------------------------
// Decoding (on the connection's loop).

Dispatch Server::Decode(const Frame& frame) {
  const Clock::time_point received = frame.received;
  switch (frame.type) {
    case MessageType::kStatsRequest: {
      stats_requests_->Increment();
      Dispatch dispatch = Dispatch::Reply(EncodeStatsResponse(Metrics()));
      stats_latency_->Record(ElapsedMs(received, Clock::now()) * 1000.0);
      return dispatch;
    }
    case MessageType::kQueryRequest:
      // Pin the catalog at request entry: everything this query observes —
      // binding, USING resolution, execution — is the catalog as of this
      // moment, no matter how long it waits behind other jobs or what
      // writers do meanwhile. (Streaming verbs don't pin here: a feed pins its own
      // snapshot at creation and keeps it for the feed's whole life.)
      return AdmitRequest(
          frame, DecodeQueryRequest, EncodeQueryResponse,
          [this, snapshot = engine_->Pin(), received](
              const QueryRequest& request, const CancellationToken& cancel) {
            return RunQuery(request, snapshot, received, cancel);
          });
    case MessageType::kExplainRequest:
      // EXPLAIN passes the same admission bound as QUERY: under ANALYZE the
      // statement genuinely executes, so it must compete for the loops like
      // any query instead of bypassing admission control.
      return AdmitRequest(
          frame, DecodeExplainRequest, EncodeExplainResponse,
          [this, snapshot = engine_->Pin(), received](
              const ExplainRequest& request, const CancellationToken& cancel) {
            return RunExplain(request, snapshot, received, cancel);
          },
          explain_requests_);
    case MessageType::kSubscribeRequest:
      return AdmitRequest(
          frame, DecodeSubscribeRequest, EncodeSubscribeResponse,
          [this, connection = frame.connection](
              const SubscribeRequest& request,
              const CancellationToken& cancel) {
            return RunSubscribe(connection, request, cancel);
          },
          subscribe_requests_);
    case MessageType::kFeedRequest:
      return AdmitRequest(
          frame, DecodeFeedRequest, EncodeFeedResponse,
          [this](const FeedRequest& request, const CancellationToken&) {
            return RunFeed(request);
          },
          feed_requests_);
    default:  // kUnsubscribeRequest, the last request verb
      return AdmitRequest(
          frame, DecodeUnsubscribeRequest, EncodeUnsubscribeResponse,
          [this, connection = frame.connection](
              const UnsubscribeRequest& request, const CancellationToken&) {
            return RunUnsubscribe(connection, request);
          },
          unsubscribe_requests_);
  }
}

// ---------------------------------------------------------------------------
// Execution (on the connection's loop).

namespace {

/// The context a statement runs under: the client's budget counted from
/// frame receipt, so time behind other jobs spends it, plus the transport's
/// cancellation and the per-query trace.
ExecutionContext StatementContext(uint32_t timeout_ms,
                                  ExecutionContext::Clock::time_point received,
                                  const CancellationToken& cancel,
                                  observability::QueryTrace* trace) {
  ExecutionContext context;
  if (timeout_ms > 0) {
    context.set_deadline(received + std::chrono::milliseconds(timeout_ms));
  }
  context.set_cancellation(cancel);
  context.set_trace(trace);
  return context;
}

}  // namespace

std::string Server::RunQuery(const QueryRequest& request,
                             const core::SnapshotPtr& snapshot,
                             Clock::time_point received,
                             const CancellationToken& cancel) {
  const Clock::time_point exec_begin = Clock::now();
  const double queue_ms = ElapsedMs(received, exec_begin);
  // Per-query trace: recorded only from this thread (the engine detaches it
  // before any parallel fan-out), folded into the phase histograms below.
  observability::QueryTrace trace;
  const ExecutionContext context =
      StatementContext(request.timeout_ms, received, cancel, &trace);
  query::StatementOptions statement_options;
  statement_options.offline.runtime.num_threads = options_.threads_per_query;
  const Result<query::StatementResult> result = query::ExecuteStatementOn(
      snapshot, request.statement, context, statement_options);

  QueryResponse response;
  response.request_id = request.request_id;
  response.status = result.status();
  if (result.ok()) FillResponse(*result, &response);
  const double exec_ms = ElapsedMs(exec_begin, Clock::now());
  response.metrics.server_queue_ms = queue_ms;
  response.metrics.server_exec_ms = exec_ms;
  query_latency_->Record((queue_ms + exec_ms) * 1000.0);
  RecordQueryMetrics(response.metrics, trace);
  CountOutcome(response.status);
  return EncodeQueryResponse(response);
}

std::string Server::RunExplain(const ExplainRequest& request,
                               const core::SnapshotPtr& snapshot,
                               Clock::time_point received,
                               const CancellationToken& cancel) {
  observability::QueryTrace trace;
  const ExecutionContext context =
      StatementContext(request.timeout_ms, received, cancel, &trace);
  query::ExplainOptions explain_options;
  explain_options.analyze = request.analyze;
  explain_options.statement.offline.runtime.num_threads =
      options_.threads_per_query;
  const Result<std::string> rendered = query::ExplainStatementOn(
      snapshot, request.statement, explain_options, context);
  ExplainResponse response;
  response.request_id = request.request_id;
  response.status = rendered.status();
  if (rendered.ok()) response.text = *rendered;
  query_latency_->Record(ElapsedMs(received, Clock::now()) * 1000.0);
  CountOutcome(response.status);
  return EncodeExplainResponse(response);
}

void Server::CountOutcome(const Status& outcome) {
  switch (outcome.code()) {
    case StatusCode::kOk:
      queries_ok_->Increment();
      break;
    case StatusCode::kCancelled:
      queries_cancelled_->Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      queries_deadline_exceeded_->Increment();
      break;
    default:
      queries_failed_->Increment();
      break;
  }
}

// ---------------------------------------------------------------------------
// Streaming verbs (docs/streaming.md).

namespace {

std::string EncodeStreamEvent(uint64_t subscription_id,
                              stream::StreamEvent event) {
  EventFrame frame;
  frame.subscription_id = subscription_id;
  frame.kind = static_cast<uint8_t>(event.kind);
  frame.begin = event.sequence.begin;
  frame.end = event.sequence.end;
  frame.dropped = event.dropped;
  frame.status = std::move(event.status);
  return EncodeEvent(frame);
}

}  // namespace

std::string Server::RunSubscribe(ConnectionId connection,
                                 const SubscribeRequest& request,
                                 const CancellationToken& cancel) {
  SubscribeResponse response;
  response.request_id = request.request_id;
  if (request.mode > 1) {
    response.status = Status::InvalidArgument(
        "unknown online mode " + std::to_string(request.mode) +
        " (0 = SVAQ, 1 = SVAQD)");
    CountOutcome(response.status);
    return EncodeSubscribeResponse(response);
  }
  stream::SubscribeOptions sub_options;
  sub_options.mode = request.mode == 0 ? core::OnlineEngine::Mode::kSvaq
                                       : core::OnlineEngine::Mode::kSvaqd;
  sub_options.queue_capacity = request.queue_capacity;
  sub_options.timeout_ms = request.timeout_ms;
  const Result<stream::SubscriptionPtr> sub =
      dispatcher_->Subscribe(request.feed, request.statement, sub_options);
  response.status = sub.status();
  if (sub.ok()) {
    response.subscription_id = (*sub)->id();
    response.feed = (*sub)->feed();
    std::lock_guard<std::mutex> lock(mu_);
    // The connection's loop runs this job and its OnClose, so a
    // disconnect before this point dropped the job; `cancel` here means
    // drain gave up on the request.
    if (cancel.cancelled()) {
      // Nobody will poll this subscription: tear it down right away.
      (void)dispatcher_->Unsubscribe((*sub)->id());
      response.status = Status::Cancelled("server shutting down");
    } else {
      conn_subs_[connection].insert((*sub)->id());
      sub_conn_[(*sub)->id()] = connection;
    }
  }
  CountOutcome(response.status);
  return EncodeSubscribeResponse(response);
}

std::string Server::RunFeed(const FeedRequest& request) {
  FeedResponse response;
  response.request_id = request.request_id;
  // Runs with no server lock held: the dispatcher's event callback fires
  // synchronously from inside FeedClips and takes mu_ to forward events.
  const Result<stream::FeedProgress> progress =
      dispatcher_->FeedClips(request.feed, request.clip_count);
  response.status = progress.status();
  if (progress.ok()) {
    response.clips_dispatched = progress->clips_dispatched;
    response.next_clip = progress->next_clip;
    response.feed_closed = progress->closed;
  }
  CountOutcome(response.status);
  return EncodeFeedResponse(response);
}

std::string Server::RunUnsubscribe(ConnectionId connection,
                                   const UnsubscribeRequest& request) {
  UnsubscribeResponse response;
  response.request_id = request.request_id;
  Status status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sub_conn_.find(request.subscription_id);
    if (it == sub_conn_.end() || it->second != connection) {
      // Covers both unknown ids and another connection's subscription — a
      // client can only tear down what it registered.
      status = Status::NotFound("no subscription " +
                                std::to_string(request.subscription_id) +
                                " on this connection");
    }
  }
  if (status.ok()) {
    // Hold the subscription before the dispatcher forgets it so the final
    // drain below can still reach its queue.
    const stream::SubscriptionPtr sub =
        dispatcher_->Find(request.subscription_id);
    status = dispatcher_->Unsubscribe(request.subscription_id);
    std::lock_guard<std::mutex> lock(mu_);
    if (sub != nullptr) {
      // Everything the subscription produced is delivered ahead of the
      // acknowledgement (no outbox cap: this flush is final and bounded by
      // the queue capacity).
      for (stream::StreamEvent& event : sub->Poll()) {
        transport_->Send(connection,
                         EncodeStreamEvent(request.subscription_id,
                                           std::move(event)));
      }
    }
    auto subs = conn_subs_.find(connection);
    if (subs != conn_subs_.end()) subs->second.erase(request.subscription_id);
    sub_conn_.erase(request.subscription_id);
  }
  response.status = status;
  CountOutcome(status);
  return EncodeUnsubscribeResponse(response);
}

void Server::OnClose(ConnectionId connection) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = conn_subs_.find(connection);
  if (it == conn_subs_.end()) return;
  // Unsubscribe is cheap (cancel + detach flag; the dispatch loop prunes
  // lazily), so it is safe from the connection's loop — this is
  // cancellation-on-disconnect for feeds.
  for (const uint64_t subscription_id : it->second) {
    (void)dispatcher_->Unsubscribe(subscription_id);
    sub_conn_.erase(subscription_id);
  }
  conn_subs_.erase(it);
}

void Server::OnDrained(ConnectionId connection) {
  // The socket caught up: resume event forwarding for any subscription the
  // backlog cap paused (the bounded queues buffered — or gap-marked —
  // meanwhile).
  std::lock_guard<std::mutex> lock(mu_);
  auto it = conn_subs_.find(connection);
  if (it == conn_subs_.end()) return;
  for (const uint64_t subscription_id : it->second) {
    DrainSubscriptionLocked(connection, subscription_id);
  }
}

void Server::OnStreamEvent(uint64_t subscription_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sub_conn_.find(subscription_id);
  if (it == sub_conn_.end()) return;
  DrainSubscriptionLocked(it->second, subscription_id);
}

void Server::DrainSubscriptionLocked(ConnectionId connection,
                                     uint64_t subscription_id) {
  if (transport_->Backlog(connection) >= options_.max_outbox_frames) return;
  const stream::SubscriptionPtr sub = dispatcher_->Find(subscription_id);
  if (sub == nullptr) return;
  for (stream::StreamEvent& event : sub->Poll()) {
    transport_->Send(connection,
                     EncodeStreamEvent(subscription_id, std::move(event)));
  }
}

void Server::BridgeStreamLocked() const {
  if (dispatcher_ == nullptr) return;
  const stream::DispatcherStats now = dispatcher_->Stats();
  const stream::DispatcherStats& last = last_stream_;
  stream_feeds_->Increment(now.feeds_created - last.feeds_created);
  stream_subscriptions_->Increment(now.subscriptions_opened -
                                   last.subscriptions_opened);
  stream_clips_dispatched_->Increment(now.clips_dispatched -
                                      last.clips_dispatched);
  stream_events_pushed_->Increment(now.events_pushed - last.events_pushed);
  stream_events_dropped_->Increment(now.events_dropped - last.events_dropped);
  stream_model_units_run_->Increment(now.model_units_run -
                                     last.model_units_run);
  stream_model_units_charged_->Increment(now.model_units_charged -
                                         last.model_units_charged);
  stream_model_ms_run_->Add(now.model_ms_run - last.model_ms_run);
  stream_model_ms_charged_->Add(now.model_ms_charged - last.model_ms_charged);
  stream_feeds_open_gauge_->Set(static_cast<double>(now.feeds_open));
  stream_subscriptions_active_gauge_->Set(
      static_cast<double>(now.subscriptions_active));
  last_stream_ = now;
}

// ---------------------------------------------------------------------------
// Stats.

void Server::BridgeCountersLocked() const {
  BridgeCacheLocked();
  BridgePlannerLocked();
  BridgeStreamLocked();
}

void Server::BridgeCacheLocked() const {
  if (engine_ == nullptr) return;
  const svq::cache::CacheStats::Snapshot now =
      engine_->cache_stats()->Read();
  const svq::cache::CacheStats::Snapshot& last = last_cache_;
  cache_hits_->Increment(now.hits() - last.hits());
  cache_misses_->Increment(now.misses() - last.misses());
  cache_evictions_->Increment(now.evictions() - last.evictions());
  cache_result_hits_->Increment(now.result_hits - last.result_hits);
  cache_result_misses_->Increment(now.result_misses - last.result_misses);
  cache_single_flight_waits_->Increment(now.single_flight_waits -
                                        last.single_flight_waits);
  cache_bytes_gauge_->Set(static_cast<double>(now.bytes));
  last_cache_ = now;
}

void Server::BridgePlannerLocked() const {
  const plan::PlannerCounters::Snapshot now =
      plan::GlobalPlannerCounters().Read();
  const plan::PlannerCounters::Snapshot& last = last_plan_;
  plan_plans_->Increment(now.plans_total - last.plans_total);
  plan_cache_hits_->Increment(now.cache_hits - last.cache_hits);
  plan_auto_rvaq_->Increment(now.auto_rvaq - last.auto_rvaq);
  plan_auto_fagin_->Increment(now.auto_fagin - last.auto_fagin);
  plan_auto_pq_traverse_->Increment(now.auto_pq_traverse -
                                    last.auto_pq_traverse);
  plan_overrides_->Increment(now.overrides - last.overrides);
  plan_estimate_samples_->Increment(now.estimate_samples -
                                    last.estimate_samples);
  plan_estimate_error_pct_sum_->Increment(now.estimate_error_pct_sum -
                                          last.estimate_error_pct_sum);
  last_plan_ = now;
}

void Server::RecordQueryMetrics(const WireQueryMetrics& metrics,
                                const observability::QueryTrace& trace) {
  storage_sorted_accesses_->Increment(metrics.sorted_accesses);
  storage_random_accesses_->Increment(metrics.random_accesses);
  storage_sequential_reads_->Increment(metrics.sequential_reads);
  storage_virtual_disk_ms_->Add(metrics.virtual_ms);
  inference_model_ms_->Add(metrics.model_ms);
  online_clips_processed_->Increment(metrics.clips_processed);
  runtime_tasks_executed_->Increment(metrics.tasks_executed);
  runtime_fanout_ms_->Add(metrics.fanout_ms);
  engine_algorithm_ms_->Add(metrics.algorithm_ms);
  // Phase spans -> per-phase latency histograms. A phase that never ran
  // (parse error aborts before bind) records nothing. A broadcast executes
  // under its own span, with no plan span, and counts as execution too.
  const struct {
    const char* span;
    observability::Histogram* histogram;
  } phases[] = {{"parse", phase_parse_},
                {"bind", phase_bind_},
                {"plan", phase_plan_},
                {"execute", phase_execute_},
                {"execute_repository", phase_execute_}};
  for (const auto& phase : phases) {
    if (trace.CountOf(phase.span) > 0) {
      phase.histogram->Record(trace.TotalMs(phase.span) * 1000.0);
    }
  }
}

observability::MetricsSnapshot Server::Metrics() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    BridgeCountersLocked();
  }
  return registry_.Snapshot();
}

void Server::DumpPrometheus(std::ostream& out) const {
  Metrics().DumpPrometheus(out);
}

}  // namespace svq::server
