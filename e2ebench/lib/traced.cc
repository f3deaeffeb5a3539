// The traced run. Each sampled operation runs as a chain of layer calls,
// made from this file through each module's public functions: client RTT
// -> router RTT -> direct shard RTT -> wire encode/decode -> parse -> bind
// -> plan -> execute -> score-table reads; FEED -> FeedClips; Ingest ->
// Env calls. The calls of one chain are replayed back to back, so a span's
// self time is its duration minus its direct children's durations.

#include "lib/traced.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>

#include "lib/phases.h"
#include "lib/stack.h"
#include "svq/observability/trace.h"
#include "svq/plan/planner.h"
#include "svq/query/binder.h"
#include "svq/query/parser.h"
#include "svq/server/wire.h"
#include "svq/stream/dispatcher.h"

namespace e2ebench {
namespace {

using svq::core::SnapshotPtr;

// Sample sizes: fixed, so two traced runs replay the same operations.
constexpr int64_t kLoadedOpsPerClient = 600;
constexpr int kChainPerVideo = 160;
constexpr int kChainBroadcast = 24;
constexpr int kRegretSample = 40;
constexpr int kRegretRepeats = 3;
constexpr int kStorageCallsPerOp = 64;
constexpr size_t kHotChurnVideos = 24;
constexpr size_t kColdChurnVideos = 4;

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Clock::duration Micros(double us) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(us));
}

/// Flattened registry of one svqd, by name.
std::map<std::string, double> Registry(const svq::server::Server& server) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : server.Metrics().Flatten()) {
    out[name] = value;
  }
  return out;
}

/// Sum over `servers` of one registry entry's change between two reads.
double Delta(const std::vector<std::map<std::string, double>>& before,
             const std::vector<std::map<std::string, double>>& after,
             const std::string& name) {
  double sum = 0.0;
  for (size_t i = 0; i < after.size(); ++i) {
    const auto a = after[i].find(name);
    const auto b = before[i].find(name);
    sum += (a == after[i].end() ? 0.0 : a->second) -
           (b == before[i].end() ? 0.0 : b->second);
  }
  return sum;
}

std::vector<std::map<std::string, double>> Registries(
    const std::vector<svq::server::Server*>& servers) {
  std::vector<std::map<std::string, double>> out;
  for (const auto* server : servers) out.push_back(Registry(*server));
  return out;
}

std::map<std::string, double> RouterRegistry(const svq::cluster::Router& r) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : r.registry().Snapshot().Flatten()) {
    out[name] = value;
  }
  return out;
}

svq::cache::CacheStats::Snapshot CacheSum(
    const std::vector<svq::core::VideoQueryEngine*>& engines) {
  svq::cache::CacheStats::Snapshot sum;
  for (const auto* engine : engines) {
    const auto s = engine->cache_stats()->Read();
    sum.candidate_hits += s.candidate_hits;
    sum.candidate_misses += s.candidate_misses;
    sum.result_hits += s.result_hits;
    sum.result_misses += s.result_misses;
    sum.single_flight_waits += s.single_flight_waits;
    sum.kcrit_hits += s.kcrit_hits;
    sum.kcrit_computes += s.kcrit_computes;
    sum.bytes += s.bytes;
    sum.candidate_evictions += s.candidate_evictions;
    sum.result_evictions += s.result_evictions;
    sum.plan_evictions += s.plan_evictions;
  }
  return sum;
}

/// A timed wire request; returns the response (fatal on transport error).
svq::server::QueryResponse Timed(BenchClient* client,
                                 const std::string& statement,
                                 Clock::time_point* start,
                                 Clock::time_point* end) {
  *start = Clock::now();
  auto response = client->wire().Execute(statement);
  *end = Clock::now();
  CheckOk(response.status(), "traced request transport");
  return std::move(response).value();
}

struct Metrics {
  std::vector<Metric> list;
  void Add(const std::string& name, double value, const std::string& unit) {
    list.push_back({name, value, unit});
  }
};

}  // namespace

int RunTraced(const WorkloadInfo& info, uint64_t seed,
              const std::string& out_dir) {
  const std::string run_root =
      out_dir + "/trace-" + std::to_string(::getpid());
  const Workload workload = BuildWorkload(info, seed);
  std::unique_ptr<Stack> stack = SetUp(workload, run_root);
  const Expected expected = CheckOracle(workload, *stack);
  const bool cold = workload.regime == Regime::kCold;
  SpanLog log;
  Metrics m;
  OpStats all;

  std::vector<svq::server::Server*> shard_servers;
  std::vector<svq::core::VideoQueryEngine*> shard_engines;
  for (const auto& s : stack->shard_servers) shard_servers.push_back(s.get());
  for (const auto& e : stack->shard_engines) shard_engines.push_back(e.get());

  // --- 1. Loaded replay of a fixed op count: untraced, then traced.
  // Layer counters are read across the untraced pass; the difference of
  // the two passes' medians is the tracing overhead.
  const auto reg_before = Registries(shard_servers);
  const auto cache_before = CacheSum(shard_engines);
  const auto plan_before = svq::plan::GlobalPlannerCounters().Read();
  std::map<std::string, double> router_before;
  if (cold) router_before = RouterRegistry(*stack->router);
  const ServeResult untraced =
      RunServe(workload, *stack, expected, {1e9, kLoadedOpsPerClient});
  const auto reg_after = Registries(shard_servers);
  const auto cache_after = CacheSum(shard_engines);
  const auto plan_after = svq::plan::GlobalPlannerCounters().Read();
  std::map<std::string, double> router_after;
  if (cold) router_after = RouterRegistry(*stack->router);
  std::vector<SpanLog> client_spans;
  const ServeResult traced = RunServe(workload, *stack, expected,
                                      {1e9, kLoadedOpsPerClient},
                                      &client_spans);
  for (const SpanLog& spans : client_spans) log.Absorb(spans);
  for (const ServeResult* r : {&untraced, &traced}) {
    all.Merge(r->topk);
    all.Merge(r->broadcast);
  }
  const double statements = static_cast<double>(untraced.topk.attempted +
                                                untraced.broadcast.attempted);

  // --- 2. Chain replay of a fixed sample.
  OpStream sample_stream(workload, 99);
  std::vector<size_t> per_video_ops;
  std::vector<size_t> broadcast_ops;
  while (per_video_ops.size() < kChainPerVideo ||
         broadcast_ops.size() < kChainBroadcast) {
    const size_t i = sample_stream.Next();
    auto& bucket = workload.space[i].broadcast() ? broadcast_ops
                                                 : per_video_ops;
    const size_t cap = workload.space[i].broadcast() ? kChainBroadcast
                                                     : kChainPerVideo;
    if (bucket.size() < cap) bucket.push_back(i);
  }
  BenchClient front;
  CheckOk(front.Connect(stack->front_port), "traced front connect");
  std::map<uint16_t, std::unique_ptr<BenchClient>> shard_clients;
  for (auto* server : shard_servers) {
    auto client = std::make_unique<BenchClient>();
    CheckOk(client->Connect(server->port()), "traced shard connect");
    shard_clients[server->port()] = std::move(client);
  }

  std::vector<double> overhead_us, hop_us, encode_us, decode_us, parse_us,
      bind_us, plan_us, topk_us, hit_us, broadcast_us, score_of_ns, row_at_ns;
  double tbclip_count = 0, tbclip_us = 0, cand_seqs = 0, cand_clips = 0;
  double tasks = 0, steals = 0, fanout_ms = 0;
  uint64_t rid = 1;
  Rng storage_rng(DeriveSeed(seed, 300));

  for (const size_t i : per_video_ops) {
    const RankedOp& op = workload.space[i];
    svq::core::VideoQueryEngine* engine = stack->EngineFor(op.video);
    const SnapshotPtr snapshot = engine->Pin();
    const int root = log.Begin("request", rid, -1);
    Clock::time_point a, b;
    // The request as served. Whether svqd answered it from the result tier
    // shows in its reply: such a reply carries no engine accounting.
    const svq::server::QueryResponse response =
        Timed(&front, op.statement, &a, &b);
    const Clock::time_point served_start = a;
    const double served_us = Us(a, b);
    const svq::server::WireQueryMetrics& wm = response.metrics;
    const bool served_hit = wm.sorted_accesses + wm.random_accesses +
                                    wm.sequential_reads ==
                                0 &&
                            wm.algorithm_ms == 0.0;
    all.Record(SameAnswer(response.sequences, expected.serve[i])
                   ? Outcome::kOk
                   : Outcome::kWrong,
               served_us / 1000.0);
    // The same statement again, now a result-tier hit everywhere: through
    // the front, and for the cold regime straight to its shard. Both do
    // the same work, so their difference is the router's own hop.
    (void)Timed(&front, op.statement, &a, &b);
    double svqd_hit_us = Us(a, b);
    double hop = 0.0;
    if (cold) {
      const double front_hit_us = svqd_hit_us;
      (void)Timed(shard_clients[stack->ServerFor(op.video)->port()].get(),
                  op.statement, &a, &b);
      svqd_hit_us = Us(a, b);
      hop = front_hit_us - svqd_hit_us;
      hop_us.push_back(hop);
    }
    // Chain: the served round trip; for the cold regime its svqd part is
    // that round trip less the router hop.
    int svqd_span = log.Add(cold ? "rtt.router" : "rtt.svqd", rid, root,
                            served_start, served_start + Micros(served_us));
    if (cold) {
      svqd_span =
          log.Add("rtt.svqd", rid, svqd_span, served_start,
                  served_start + Micros(std::max(0.0, served_us - hop)));
    }
    // Wire codec on this response.
    a = Clock::now();
    const std::string frame = svq::server::EncodeQueryResponse(response);
    b = Clock::now();
    log.Add("wire.encode", rid, svqd_span, a, b);
    encode_us.push_back(Us(a, b));
    a = Clock::now();
    {
      svq::server::WireCursor cursor(
          std::string_view(frame).substr(svq::server::kFrameHeaderBytes));
      svq::server::MessageType type;
      svq::server::QueryResponse decoded;
      CheckOk(svq::server::DecodePayloadHeader(&cursor, &type), "decode");
      CheckOk(svq::server::DecodeQueryResponse(&cursor, &decoded), "decode");
    }
    b = Clock::now();
    log.Add("wire.decode", rid, svqd_span, a, b);
    decode_us.push_back(Us(a, b));
    // Front end: parse, bind, plan (plan tier bypassed).
    a = Clock::now();
    auto parsed = ValueOrDie(svq::query::Parse(op.statement), "parse");
    b = Clock::now();
    log.Add("query.parse", rid, svqd_span, a, b);
    parse_us.push_back(Us(a, b));
    a = Clock::now();
    auto bound = ValueOrDie(svq::query::Bind(parsed), "bind");
    b = Clock::now();
    log.Add("query.bind", rid, svqd_span, a, b);
    bind_us.push_back(Us(a, b));
    svq::query::StatementOptions serving;
    svq::query::StatementOptions no_plan_tier = serving;
    no_plan_tier.offline.cache.use_plan_cache = false;
    a = Clock::now();
    auto plan = ValueOrDie(
        svq::plan::PlanQuery(snapshot, bound.query, bound.video, bound.ranked,
                             bound.k, svq::plan::AlgorithmChoice::kAuto,
                             no_plan_tier.offline),
        "plan");
    b = Clock::now();
    log.Add("plan.plan", rid, svqd_span, a, b);
    plan_us.push_back(Us(a, b));
    // Execute as svqd did: a result-tier hit, or the full cache-bypassed
    // execution.
    svq::core::OfflineOptions cached = serving.offline;
    cached.sweep_order = plan->SweepOrder();
    svq::core::OfflineOptions bypass = OracleOptions().offline;
    bypass.sweep_order = plan->SweepOrder();
    auto execute = [&](const svq::core::OfflineOptions& options,
                       svq::observability::QueryTrace* trace, double* us) {
      svq::ExecutionContext ctx;
      ctx.set_trace(trace);
      const Clock::time_point start = Clock::now();
      auto result = ValueOrDie(
          svq::core::ExecuteTopKOn(snapshot, bound.query, bound.video,
                                   static_cast<int>(bound.k), plan->algorithm,
                                   options, ctx),
          "execute");
      *us = Us(start, Clock::now());
      return result;
    };
    // The bypassed execution, traced: core.topk_us, TBClip, candidates.
    svq::observability::QueryTrace qt;
    double bypass_us = 0.0;
    a = Clock::now();
    const svq::core::TopKResult full = execute(bypass, &qt, &bypass_us);
    b = Clock::now();
    topk_us.push_back(bypass_us);
    tbclip_count += static_cast<double>(qt.CountOf("tbclip.next"));
    tbclip_us += qt.TotalMs("tbclip.next") * 1000.0;
    cand_seqs += static_cast<double>(full.stats.candidate_sequences);
    cand_clips += static_cast<double>(full.stats.candidate_clips);
    // A result-tier hit: the wire calls above inserted this statement.
    const auto hits_before = engine->cache_stats()->Read().result_hits;
    double cached_us = 0.0;
    const Clock::time_point ca = Clock::now();
    (void)execute(cached, nullptr, &cached_us);
    const Clock::time_point cb = Clock::now();
    if (engine->cache_stats()->Read().result_hits > hits_before) {
      hit_us.push_back(cached_us);
    }
    const int exec_span = served_hit
                              ? log.Add("core.execute", rid, svqd_span, ca, cb)
                              : log.Add("core.execute", rid, svqd_span, a, b);
    // Score-table reads: as many RowAt / ScoreOf calls as the served
    // execution made, over the statement's tables.
    const auto* ingested = snapshot->Find(op.video)->ingested.get();
    std::vector<const svq::storage::ScoreTable*> tables;
    for (const std::string& action : bound.query.AllActions()) {
      if (const auto* t = ingested->ActionTable(action)) tables.push_back(t);
    }
    for (const std::string& object : bound.query.AllObjectLabels()) {
      if (const auto* t = ingested->ObjectTable(object)) tables.push_back(t);
    }
    const uint64_t clips =
        static_cast<uint64_t>(std::max<int64_t>(1, ingested->num_clips));
    if (!tables.empty()) {
      const int64_t sorted = served_hit ? 0 : full.stats.storage.sorted_accesses;
      const int64_t random = served_hit ? 0 : full.stats.storage.random_accesses;
      if (sorted + random > 0) {
        a = Clock::now();
        for (int64_t n = 0; n < sorted; ++n) {
          const auto* t = tables[static_cast<size_t>(n) % tables.size()];
          (void)t->RowAt(n % std::max<int64_t>(1, t->NumRows()));
        }
        for (int64_t n = 0; n < random; ++n) {
          const auto* t = tables[static_cast<size_t>(n) % tables.size()];
          (void)t->ScoreOf(static_cast<int64_t>(storage_rng.Below(clips)));
        }
        b = Clock::now();
        log.Add("storage.reads", rid, exec_span, a, b);
      }
      // Per-call cost on this video's own tables.
      const auto* t = tables[0];
      const uint64_t rows =
          static_cast<uint64_t>(std::max<int64_t>(1, t->NumRows()));
      a = Clock::now();
      for (int n = 0; n < kStorageCallsPerOp; ++n) {
        (void)t->RowAt(static_cast<int64_t>(storage_rng.Below(rows)));
      }
      b = Clock::now();
      row_at_ns.push_back(Us(a, b) * 1000.0 / kStorageCallsPerOp);
      a = Clock::now();
      for (int n = 0; n < kStorageCallsPerOp; ++n) {
        (void)t->ScoreOf(static_cast<int64_t>(storage_rng.Below(clips)));
      }
      b = Clock::now();
      score_of_ns.push_back(Us(a, b) * 1000.0 / kStorageCallsPerOp);
    }
    // The whole statement in-process, as svqd runs it (a result-tier hit
    // now): the server's own overhead is the direct svqd round trip of the
    // same hit minus this.
    a = Clock::now();
    (void)svq::query::ExecuteStatementOn(snapshot, op.statement, {}, serving);
    b = Clock::now();
    overhead_us.push_back(svqd_hit_us - Us(a, b));
    log.End(root);
    ++rid;
  }

  const SnapshotPtr catalog = stack->CatalogSnapshot();
  for (const size_t i : broadcast_ops) {
    const RankedOp& op = workload.space[i];
    const int root = log.Begin("request", rid, -1);
    Clock::time_point a, b;
    const svq::server::QueryResponse response =
        Timed(&front, op.statement, &a, &b);
    const int front_span = log.Add("broadcast.rtt", rid, root, a, b);
    all.Record(SameAnswer(response.sequences, expected.serve[i])
                   ? Outcome::kOk
                   : Outcome::kWrong,
               Us(a, b) / 1000.0);
    if (cold) {
      // The shards answer in parallel behind the router, so the slowest
      // direct shard round trip is the broadcast span's child.
      Clock::time_point slow_a, slow_b;
      for (auto& [port, client] : shard_clients) {
        Clock::time_point sa, sb;
        (void)Timed(client.get(), op.statement, &sa, &sb);
        if (sb - sa > slow_b - slow_a) {
          slow_a = sa;
          slow_b = sb;
        }
      }
      log.Add("broadcast.shard_rtt", rid, front_span, slow_a, slow_b);
      hop_us.push_back(Us(a, b) - Us(slow_a, slow_b));
    }
    auto bound = ValueOrDie(svq::query::ParseAndBind(op.statement), "bind");
    svq::runtime::RuntimeStats runtime;
    svq::ExecutionContext ctx;
    ctx.set_runtime_sink(&runtime);
    a = Clock::now();
    (void)ValueOrDie(
        svq::core::ExecuteTopKAllOn(catalog, bound.query,
                                    static_cast<int>(bound.k),
                                    OracleOptions().offline, ctx),
        "broadcast execute");
    b = Clock::now();
    log.Add("core.broadcast", rid, root, a, b);
    broadcast_us.push_back(Us(a, b));
    tasks += static_cast<double>(runtime.tasks_executed);
    steals += static_cast<double>(runtime.steals);
    fanout_ms += runtime.fanout_ms;
    log.End(root);
    ++rid;
  }

  // --- 3. plan.regret_x: auto choice against the fastest forced
  // algorithm, serial and cache-bypassed on one pinned snapshot.
  double auto_total_us = 0.0;
  double best_total_us = 0.0;
  for (int n = 0; n < kRegretSample && n < static_cast<int>(per_video_ops.size());
       ++n) {
    const RankedOp& op = workload.space[per_video_ops[static_cast<size_t>(n)]];
    const SnapshotPtr snapshot = stack->EngineFor(op.video)->Pin();
    auto time_with = [&](svq::plan::AlgorithmChoice choice) {
      svq::query::StatementOptions options = OracleOptions();
      options.algorithm = choice;
      double best = 1e300;
      for (int r = 0; r < kRegretRepeats; ++r) {
        const Clock::time_point a = Clock::now();
        CheckOk(svq::query::ExecuteStatementOn(snapshot, op.statement, {},
                                               options)
                    .status(),
                "regret execute");
        best = std::min(best, Us(a, Clock::now()));
      }
      return best;
    };
    auto_total_us += time_with(svq::plan::AlgorithmChoice::kAuto);
    best_total_us += std::min({time_with(svq::plan::AlgorithmChoice::kRvaq),
                               time_with(svq::plan::AlgorithmChoice::kFagin),
                               time_with(svq::plan::AlgorithmChoice::kPqTraverse)});
  }

  // --- 4. Churn: a fixed number of ingests through the counting Env.
  const size_t churn_videos = cold ? kColdChurnVideos : kHotChurnVideos;
  const CountingEnv::Counts io_before = stack->churn_env->Read();
  double frames = 0, wall_ms = 0, inference_ms = 0, scoring_ms = 0,
         sequences_ms = 0, tables_ms = 0, simulated_ms = 0;
  std::vector<double> reopen_ms;
  for (size_t v = 0; v < churn_videos && v < workload.churn_pool.size(); ++v) {
    const VideoPtr& video = workload.churn_pool[v];
    const double env_before = stack->churn_env->Read().env_ms;
    const Clock::time_point a = Clock::now();
    svq::Status status = stack->churn_engine->AddVideo(video).status();
    if (status.ok()) status = stack->churn_engine->Ingest(video->name());
    const Clock::time_point b = Clock::now();
    all.Record(status.ok() ? Outcome::kOk : Outcome::kFailed, Us(a, b) / 1e3);
    CheckOk(status, "traced ingest");
    const int span = log.Add("ingest.video", rid, -1, a, b);
    const double env_ms = stack->churn_env->Read().env_ms - env_before;
    // Env time is spread over the ingest; its span is the aggregate.
    log.Add("io.env", rid, span, a, a + Micros(env_ms * 1000.0));
    ++rid;
    const auto ingested = stack->churn_engine->Ingested(video->name());
    const auto& st = ingested->ingest_stats;
    frames += static_cast<double>(video->num_frames());
    wall_ms += Us(a, b) / 1000.0;
    inference_ms += st.inference_ms;
    scoring_ms += st.scoring_ms;
    sequences_ms += st.sequences_ms;
    tables_ms += st.tables_ms;
    simulated_ms += ingested->ingest_inference.simulated_ms;
    if (!cold) {
      const Clock::time_point r = Clock::now();
      CheckOk(svq::core::OpenIngestedVideo(stack->churn_dir + "/" +
                                           video->name())
                  .status(),
              "reopen");
      reopen_ms.push_back(Us(r, Clock::now()) / 1000.0);
    }
  }
  const CountingEnv::Counts io_after = stack->churn_env->Read();
  const double mframes = frames / 1e6;
  const double videos = static_cast<double>(churn_videos);

  // --- 5. Feeds: one feed over the wire, then the same batches
  // in-process through StreamDispatcher::FeedClips.
  const FeedPlan& plan = workload.feed_plans[0];
  svq::core::VideoQueryEngine* feed_engine = stack->feed_engine.get();
  const auto feed_reg_before = Registry(*stack->feed_server);
  const auto kcrit_before = feed_engine->cache_stats()->Read();
  std::vector<int> feed_spans;
  std::vector<double> feed_rtt_us;
  {
    BenchClient client;
    CheckOk(client.Connect(stack->feed_server->port()), "traced feed connect");
    std::vector<uint64_t> ids;
    for (const std::string& statement : plan.statements) {
      auto sub = client.wire().Subscribe("traced", statement, 1);
      CheckOk(sub.status(), "subscribe");
      CheckOk(sub->status, "subscribe");
      ids.push_back(sub->subscription_id);
    }
    bool closed = false;
    while (!closed) {
      const Clock::time_point a = Clock::now();
      auto fed = client.wire().FeedClips("traced", kFeedBatchClips);
      const Clock::time_point b = Clock::now();
      CheckOk(fed.status(), "feed");
      all.Record(Classify(fed->status), Us(a, b) / 1000.0);
      CheckOk(fed->status, "feed");
      feed_spans.push_back(log.Add("rtt.feed", rid++, -1, a, b));
      feed_rtt_us.push_back(Us(a, b));
      closed = fed->feed_closed;
    }
    for (const uint64_t id : ids) {
      CheckOk(client.wire().Unsubscribe(id).status(), "unsubscribe");
    }
  }
  const auto feed_reg_after = Registry(*stack->feed_server);
  const auto kcrit_after = feed_engine->cache_stats()->Read();
  std::vector<double> dispatch_us;
  svq::stream::DispatcherStats local_stats;
  int64_t local_clips = 0;
  {
    svq::stream::StreamOptions options;
    options.event_queue_capacity = size_t{1} << 16;
    svq::stream::StreamDispatcher dispatcher(feed_engine, options);
    for (const std::string& statement : plan.statements) {
      CheckOk(dispatcher.Subscribe("local", statement).status(), "subscribe");
    }
    for (size_t n = 0;; ++n) {
      const Clock::time_point a = Clock::now();
      auto progress = dispatcher.FeedClips("local", kFeedBatchClips);
      const Clock::time_point b = Clock::now();
      CheckOk(progress.status(), "FeedClips");
      const int parent = n < feed_spans.size() ? feed_spans[n] : -1;
      log.Add("stream.feed_clips", parent >= 0 ? log.spans()[parent].request_id
                                               : rid,
              parent, a, b);
      dispatch_us.push_back(Us(a, b));
      local_clips += progress->clips_dispatched;
      if (progress->closed) break;
    }
    local_stats = dispatcher.Stats();
  }
  std::vector<double> online_clip_us;
  for (const std::string& statement : plan.statements) {
    auto bound = ValueOrDie(svq::query::ParseAndBind(statement), "bind");
    const Clock::time_point a = Clock::now();
    auto online = ValueOrDie(
        svq::core::ExecuteOnlineOn(feed_engine->Pin(), bound.query,
                                   bound.video),
        "ExecuteOnlineOn");
    online_clip_us.push_back(
        Ratio(Us(a, Clock::now()),
              static_cast<double>(online.stats.clips_processed)));
  }

  const double catalog_reopen_ms = stack->reopen_ms_per_video;
  stack.reset();
  std::filesystem::remove_all(run_root);
  const std::string span_path = out_dir + "/spans-" + workload.name +
                                "-seed" + std::to_string(seed) + ".jsonl";
  CheckOk(log.WriteJsonLines(span_path), "write spans");

  // --- Metrics.
  const auto cd = [&](int64_t after, int64_t before) {
    return static_cast<double>(after - before);
  };
  m.Add("server.overhead_us", Median(overhead_us), "us");
  m.Add("server.encode_us", Median(encode_us), "us");
  m.Add("server.decode_us", Median(decode_us), "us");
  m.Add("server.feed_overhead_us", Median(feed_rtt_us) - Median(dispatch_us),
        "us");
  m.Add("server.rejected",
        Delta(reg_before, reg_after, "svqd_queries_rejected_total"), "count");
  m.Add("query.parse_us", Median(parse_us), "us");
  m.Add("query.bind_us", Median(bind_us), "us");
  m.Add("plan.plan_us", Median(plan_us), "us");
  m.Add("plan.cache_hit_frac",
        Ratio(cd(plan_after.cache_hits, plan_before.cache_hits),
              cd(plan_after.plans_total, plan_before.plans_total)),
        "fraction");
  m.Add("plan.estimate_error_pct",
        Ratio(cd(plan_after.estimate_error_pct_sum,
                 plan_before.estimate_error_pct_sum),
              cd(plan_after.estimate_samples, plan_before.estimate_samples)),
        "%");
  m.Add("plan.auto_rvaq", cd(plan_after.auto_rvaq, plan_before.auto_rvaq),
        "count");
  m.Add("plan.auto_fagin", cd(plan_after.auto_fagin, plan_before.auto_fagin),
        "count");
  m.Add("plan.auto_pq_traverse",
        cd(plan_after.auto_pq_traverse, plan_before.auto_pq_traverse),
        "count");
  m.Add("plan.regret_x", Ratio(auto_total_us, best_total_us), "x");
  m.Add("cache.result_hit_frac",
        Ratio(cd(cache_after.result_hits, cache_before.result_hits),
              cd(cache_after.result_hits + cache_after.result_misses,
                 cache_before.result_hits + cache_before.result_misses)),
        "fraction");
  m.Add("cache.candidate_hit_frac",
        Ratio(cd(cache_after.candidate_hits, cache_before.candidate_hits),
              cd(cache_after.candidate_hits + cache_after.candidate_misses,
                 cache_before.candidate_hits + cache_before.candidate_misses)),
        "fraction");
  m.Add("cache.kcrit_hit_frac",
        Ratio(cd(kcrit_after.kcrit_hits, kcrit_before.kcrit_hits),
              cd(kcrit_after.kcrit_hits + kcrit_after.kcrit_computes,
                 kcrit_before.kcrit_hits + kcrit_before.kcrit_computes)),
        "fraction");
  m.Add("cache.evictions",
        cd(cache_after.evictions(), cache_before.evictions()),
        "count");
  m.Add("cache.bytes", static_cast<double>(cache_after.bytes), "B");
  m.Add("cache.single_flight_waits",
        cd(cache_after.single_flight_waits, cache_before.single_flight_waits),
        "count");
  m.Add("cache.hit_us", Median(hit_us), "us");
  const double per_video = static_cast<double>(per_video_ops.size());
  m.Add("core.topk_us", Median(topk_us), "us");
  m.Add("core.broadcast_us", Median(broadcast_us), "us");
  m.Add("core.tbclip_next_count", tbclip_count / per_video, "count");
  m.Add("core.tbclip_next_us", tbclip_us / per_video, "us");
  m.Add("core.candidate_sequences", cand_seqs / per_video, "count");
  m.Add("core.candidate_clips", cand_clips / per_video, "count");
  m.Add("core.online_clip_us", Mean(online_clip_us), "us");
  m.Add("storage.sorted_accesses",
        Ratio(Delta(reg_before, reg_after,
                    "svq_storage_sorted_accesses_total"),
              statements),
        "count");
  m.Add("storage.random_accesses",
        Ratio(Delta(reg_before, reg_after,
                    "svq_storage_random_accesses_total"),
              statements),
        "count");
  m.Add("storage.sequential_reads",
        Ratio(Delta(reg_before, reg_after,
                    "svq_storage_sequential_reads_total"),
              statements),
        "count");
  m.Add("storage.score_of_ns", Median(score_of_ns), "ns");
  m.Add("storage.row_at_ns", Median(row_at_ns), "ns");
  const double broadcasts = static_cast<double>(broadcast_ops.size());
  m.Add("runtime.tasks", tasks / broadcasts, "count");
  m.Add("runtime.steals", steals / broadcasts, "count");
  m.Add("runtime.fanout_ms", fanout_ms / broadcasts, "ms");
  auto router_delta = [&](const std::string& name) {
    if (!cold) return 0.0;
    return router_after[name] - router_before[name];
  };
  m.Add("cluster.hop_us", cold ? Median(hop_us) : 0.0, "us");
  m.Add("cluster.fanout_mean_us",
        Ratio(router_delta("svq_router_fanout_micros_sum_micros"),
              router_delta("svq_router_fanout_micros_count")),
        "us");
  m.Add("cluster.retries", router_delta("svq_router_retries_total"), "count");
  m.Add("cluster.backend_failures",
        router_delta("svq_router_backend_failures_total"), "count");
  m.Add("cluster.partial", router_delta("svq_router_queries_partial_total"),
        "count");
  m.Add("ingest.inference_ms", Ratio(inference_ms, mframes), "ms/Mframe");
  m.Add("ingest.scoring_ms", Ratio(scoring_ms, mframes), "ms/Mframe");
  m.Add("ingest.sequences_ms", Ratio(sequences_ms, mframes), "ms/Mframe");
  m.Add("ingest.tables_ms", Ratio(tables_ms, mframes), "ms/Mframe");
  m.Add("ingest.publish_ms",
        Ratio(wall_ms - inference_ms - scoring_ms - sequences_ms - tables_ms,
              mframes),
        "ms/Mframe");
  m.Add("io.files", cd(io_after.files, io_before.files) / videos,
        "files/video");
  m.Add("io.bytes_written",
        cd(io_after.bytes_written, io_before.bytes_written) / videos,
        "B/video");
  m.Add("io.syncs", cd(io_after.syncs, io_before.syncs) / videos,
        "syncs/video");
  m.Add("io.sync_ms", (io_after.sync_ms - io_before.sync_ms) / videos,
        "ms/video");
  m.Add("io.renames", cd(io_after.renames, io_before.renames) / videos,
        "renames/video");
  m.Add("io.reopen_ms", cold ? catalog_reopen_ms : Mean(reopen_ms),
        "ms/video");
  m.Add("stream.dispatch_us_per_clip",
        Ratio(std::accumulate(dispatch_us.begin(), dispatch_us.end(), 0.0),
              static_cast<double>(local_clips)),
        "us");
  m.Add("stream.model_units_run",
        static_cast<double>(local_stats.model_units_run), "count");
  m.Add("stream.model_units_charged",
        static_cast<double>(local_stats.model_units_charged), "count");
  auto feed_delta = [&](const std::string& name) {
    const auto a = feed_reg_after.find(name);
    const auto b = feed_reg_before.find(name);
    return (a == feed_reg_after.end() ? 0.0 : a->second) -
           (b == feed_reg_before.end() ? 0.0 : b->second);
  };
  m.Add("stream.events_pushed", feed_delta("svq_stream_events_pushed_total"),
        "count");
  m.Add("stream.events_dropped",
        feed_delta("svq_stream_events_dropped_total"), "count");
  m.Add("models.inference_ms_per_mframe", Ratio(simulated_ms, mframes),
        "ms/Mframe");

  // Tracing overhead and the self time of every layer in the chains.
  const double p50_untraced =
      Percentile(untraced.topk.latencies_ms, 0.5).value_or(0.0);
  const double p50_traced =
      Percentile(traced.topk.latencies_ms, 0.5).value_or(0.0);
  m.Add("trace.overhead_ms", p50_traced - p50_untraced, "ms");
  m.Add("trace.spans", static_cast<double>(log.spans().size()), "count");
  const std::map<std::string, double> self = log.MeanSelfMicros();
  for (const char* layer :
       {"rtt.router", "rtt.svqd", "wire.encode", "wire.decode",
        "query.parse", "query.bind", "plan.plan", "core.execute",
        "storage.reads", "broadcast.rtt", "broadcast.shard_rtt",
        "core.broadcast", "rtt.feed",
        "stream.feed_clips", "ingest.video", "io.env"}) {
    const auto it = self.find(layer);
    m.Add(std::string("self.") + layer + "_us",
          it == self.end() ? 0.0 : it->second, "us");
  }
  m.Add("failed_frac",
        Ratio(static_cast<double>(all.bad()),
              static_cast<double>(all.attempted)),
        "fraction");

  std::printf("e2ebench %s seed=%llu traced: %zu spans in %s\n", info.name,
              static_cast<unsigned long long>(seed), log.spans().size(),
              span_path.c_str());
  for (const Metric& metric : m.list) {
    std::printf("  %-32s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", ResultLine(all.wrong == 0, all.attempted, all.bad(),
                                 m.list)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace e2ebench
