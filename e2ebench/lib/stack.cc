#include "lib/stack.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>

#include "svq/cluster/shard_map.h"
#include "svq/core/ingest.h"

namespace e2ebench {
namespace {

using svq::cache::CacheOptions;
using svq::core::IngestOptions;
using svq::core::VideoQueryEngine;

constexpr int kWarmupClients = 4;

/// svqd's serving cache (its --cache-mb default).
CacheOptions ServingCache() { return CacheOptions::Enabled(64); }

/// The cold shards' stated cache budget: small enough that the uniform
/// statement space is more than ten times what it holds (the traced run
/// reports the resulting hit fractions).
CacheOptions ColdShardCache() {
  CacheOptions options;
  options.enabled = true;
  options.candidate_bytes = size_t{64} << 10;
  options.result_bytes = size_t{8} << 10;
  options.plan_bytes = size_t{16} << 10;
  return options;
}

std::unique_ptr<VideoQueryEngine> MakeEngine(IngestOptions ingest,
                                             CacheOptions cache) {
  return std::make_unique<VideoQueryEngine>(svq::models::ModelSuite(),
                                            svq::core::OnlineConfig(),
                                            std::move(ingest), cache);
}

/// An svqd with default options except its worker count. The two cold
/// shards share one machine, so each gets half of it.
std::unique_ptr<svq::server::Server> StartServer(VideoQueryEngine* engine,
                                                 int max_in_flight = 4) {
  svq::server::ServerOptions options;
  options.max_in_flight = max_in_flight;
  auto server = std::make_unique<svq::server::Server>(engine, options);
  CheckOk(server->Start(), "svqd start");
  return server;
}

IngestOptions DiskIngest(const std::string& dir, svq::io::Env* env) {
  IngestOptions options;
  options.backend = IngestOptions::TableBackend::kDisk;
  options.directory = dir;
  options.env = env;
  return options;
}

/// Asks every statement of `ops` over the wire from kWarmupClients
/// connections; `port_of(op)` picks the server. Transport or query errors
/// are fatal: set-up must leave a stack that answers everything.
std::vector<Answer> AskAll(const std::vector<RankedOp>& ops, size_t count,
                           const std::function<uint16_t(const RankedOp&)>&
                               port_of) {
  std::vector<Answer> answers(count);
  std::atomic<size_t> next{0};
  RunWorkers(kWarmupClients, [&](int) {
    std::map<uint16_t, std::unique_ptr<BenchClient>> clients;
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= count) break;
      const uint16_t port = port_of(ops[i]);
      auto& client = clients[port];
      if (client == nullptr) {
        client = std::make_unique<BenchClient>();
        CheckOk(client->Connect(port), "warm-up connect");
      }
      auto response = client->wire().Execute(ops[i].statement);
      CheckOk(response.status(), "warm-up transport");
      CheckOk(response->status, "warm-up query: " + ops[i].statement);
      answers[i] = std::move(response->sequences);
    }
  });
  return answers;
}

}  // namespace

Answer ToAnswer(const svq::query::StatementResult& result) {
  Answer answer;
  if (result.topk.has_value()) {
    for (const auto& s : result.topk->sequences) {
      answer.push_back({s.clips.begin, s.clips.end, s.lower_bound,
                        s.upper_bound});
    }
  } else if (result.repo.has_value()) {
    for (const auto& e : result.repo->sequences) {
      answer.push_back({e.sequence.clips.begin, e.sequence.clips.end,
                        e.sequence.lower_bound, e.sequence.upper_bound});
    }
  } else if (result.online.has_value()) {
    for (const auto& interval : result.online->sequences.intervals()) {
      answer.push_back({interval.begin, interval.end, 0.0, 0.0});
    }
  }
  return answer;
}

bool SameAnswer(const Answer& got, const Answer& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].begin != want[i].begin || got[i].end != want[i].end ||
        std::fabs(got[i].lower_bound - want[i].lower_bound) > 1e-9 ||
        std::fabs(got[i].upper_bound - want[i].upper_bound) > 1e-9) {
      return false;
    }
  }
  return true;
}

svq::query::StatementOptions OracleOptions() {
  svq::query::StatementOptions options;
  options.offline.runtime.num_threads = 1;
  options.offline.cache.use_candidate_cache = false;
  options.offline.cache.use_result_cache = false;
  options.offline.cache.use_plan_cache = false;
  return options;
}

VideoQueryEngine* Stack::EngineFor(const std::string& video) const {
  if (shard_engines.size() == 1) return shard_engines[0].get();
  return shard_engines[static_cast<size_t>(shard_map.ShardOf(video))].get();
}

svq::server::Server* Stack::ServerFor(const std::string& video) const {
  if (shard_servers.size() == 1) return shard_servers[0].get();
  return shard_servers[static_cast<size_t>(shard_map.ShardOf(video))].get();
}

svq::core::SnapshotPtr Stack::CatalogSnapshot() const {
  return catalog_engine != nullptr ? catalog_engine->Pin()
                                   : shard_engines[0]->Pin();
}

Stack::~Stack() {
  if (router != nullptr) router->Shutdown();
  for (auto& server : shard_servers) server->Shutdown();
  if (churn_server != nullptr) churn_server->Shutdown();
  if (feed_server != nullptr) feed_server->Shutdown();
}

std::unique_ptr<Stack> SetUp(const Workload& workload,
                             const std::string& run_dir) {
  auto stack = std::make_unique<Stack>();
  std::filesystem::create_directories(run_dir);

  // --- Serve stack.
  if (workload.regime == Regime::kHot) {
    stack->shard_engines.push_back(MakeEngine(IngestOptions(), ServingCache()));
    VideoQueryEngine* engine = stack->shard_engines[0].get();
    for (const VideoPtr& video : workload.catalog) {
      CheckOk(engine->AddVideo(video).status(), "AddVideo");
    }
    CheckOk(engine->IngestAll(), "IngestAll");
    stack->shard_servers.push_back(StartServer(engine));
    stack->front_port = stack->shard_servers[0]->port();
  } else {
    // Ingest to disk once, then serve what svqd --catalog would reopen.
    const std::string catalog_dir = run_dir + "/catalog";
    {
      auto writer = MakeEngine(DiskIngest(catalog_dir, nullptr),
                                CacheOptions());
      for (const VideoPtr& video : workload.catalog) {
        CheckOk(writer->AddVideo(video).status(), "AddVideo");
      }
      CheckOk(writer->IngestAll(), "disk IngestAll");
    }
    std::vector<std::string> names;
    for (const VideoPtr& video : workload.catalog) {
      names.push_back(video->name());
    }
    std::vector<svq::cluster::ShardEndpoint> endpoints(2, {"127.0.0.1", 1});
    stack->shard_map = ValueOrDie(
        svq::cluster::AssignContiguous(names, endpoints), "AssignContiguous");
    for (int s = 0; s < 2; ++s) {
      stack->shard_engines.push_back(
          MakeEngine(IngestOptions(), ColdShardCache()));
    }
    stack->catalog_engine = MakeEngine(IngestOptions(), CacheOptions());
    const Clock::time_point reopen_start = Clock::now();
    for (const std::string& name : names) {
      auto ingested = std::make_shared<const svq::core::IngestedVideo>(
          ValueOrDie(svq::core::OpenIngestedVideo(catalog_dir + "/" + name),
                     "OpenIngestedVideo " + name));
      CheckOk(stack->EngineFor(name)->AddIngested(ingested).status(),
              "shard AddIngested");
      CheckOk(stack->catalog_engine->AddIngested(ingested).status(),
              "catalog AddIngested");
    }
    stack->reopen_ms_per_video =
        MsSince(reopen_start) / static_cast<double>(names.size());
    for (size_t s = 0; s < stack->shard_engines.size(); ++s) {
      stack->shard_servers.push_back(StartServer(
          stack->shard_engines[s].get(), std::max(1, MaxClients() / 2)));
      stack->shard_map.shards[s].port = stack->shard_servers[s]->port();
    }
    stack->router = std::make_unique<svq::cluster::Router>(
        stack->shard_map, svq::cluster::RouterOptions{});
    CheckOk(stack->router->Start(), "router start");
    stack->front_port = stack->router->port();
  }

  // --- Churn stack: base videos published through the disk backend.
  stack->churn_dir = run_dir + "/churn";
  stack->churn_env = std::make_unique<CountingEnv>();
  stack->churn_engine = MakeEngine(
      DiskIngest(stack->churn_dir, stack->churn_env.get()), ServingCache());
  for (const VideoPtr& video : workload.churn_base) {
    CheckOk(stack->churn_engine->AddVideo(video).status(), "churn AddVideo");
  }
  CheckOk(stack->churn_engine->IngestAll(), "churn IngestAll");
  stack->churn_server = StartServer(stack->churn_engine.get());

  // --- Feed stack: raw videos; standing queries need no ingest.
  stack->feed_engine = MakeEngine(IngestOptions(), ServingCache());
  for (const VideoPtr& video : workload.feed_videos) {
    CheckOk(stack->feed_engine->AddVideo(video).status(), "feed AddVideo");
  }
  stack->feed_server = StartServer(stack->feed_engine.get());

  // --- Warm-up: every distinct statement once over the wire.
  const uint16_t front = stack->front_port;
  stack->warm_front = AskAll(workload.space, workload.space.size(),
                             [front](const RankedOp&) { return front; });
  if (workload.regime == Regime::kCold) {
    const Stack* s = stack.get();
    stack->warm_shard =
        AskAll(workload.space, workload.per_video_count,
               [s](const RankedOp& op) { return s->ServerFor(op.video)->port(); });
  }
  const uint16_t churn_port = stack->churn_server->port();
  stack->warm_churn =
      AskAll(workload.churn_space, workload.churn_space.size(),
             [churn_port](const RankedOp&) { return churn_port; });
  return stack;
}

namespace {

/// Serial, uncached answers of `ops[0..count)` on `snapshot`.
std::vector<Answer> OracleAnswers(const svq::core::SnapshotPtr& snapshot,
                                  const std::vector<RankedOp>& ops,
                                  size_t count) {
  std::vector<Answer> answers;
  answers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto result = svq::query::ExecuteStatementOn(snapshot, ops[i].statement,
                                                 {}, OracleOptions());
    CheckOk(result.status(), "oracle: " + ops[i].statement);
    answers.push_back(ToAnswer(*result));
  }
  return answers;
}

void Compare(const std::vector<Answer>& got, const std::vector<Answer>& want,
             const std::vector<RankedOp>& ops, const std::string& path) {
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameAnswer(got[i], want[i])) {
      Fatal("answer from " + path + " differs from the oracle for: " +
            ops[i].statement);
    }
  }
}

/// In-memory ingest of `videos`, for checking reopened disk artifacts.
std::unique_ptr<VideoQueryEngine> MemoryTwin(
    const std::vector<VideoPtr>& videos) {
  auto engine = MakeEngine(IngestOptions(), CacheOptions());
  for (const VideoPtr& video : videos) {
    CheckOk(engine->AddVideo(video).status(), "twin AddVideo");
  }
  CheckOk(engine->IngestAll(), "twin IngestAll");
  return engine;
}

}  // namespace

Expected CheckOracle(const Workload& workload, const Stack& stack) {
  Expected expected;
  const svq::core::SnapshotPtr catalog = stack.CatalogSnapshot();
  expected.serve = OracleAnswers(catalog, workload.space, workload.space.size());
  Compare(stack.warm_front, expected.serve, workload.space,
          workload.regime == Regime::kCold ? "svq_router" : "svqd");
  Compare(stack.warm_shard, expected.serve, workload.space, "svqd shard");

  if (workload.regime == Regime::kCold) {
    // Reopened disk artifacts answer like an in-memory ingest.
    auto twin = MemoryTwin(workload.catalog);
    Compare(OracleAnswers(twin->Pin(), workload.space, workload.space.size()),
            expected.serve, workload.space, "in-memory ingest");
  }

  const svq::core::SnapshotPtr churn = stack.churn_engine->Pin();
  expected.churn =
      OracleAnswers(churn, workload.churn_space, workload.churn_space.size());
  Compare(stack.warm_churn, expected.churn, workload.churn_space,
          "churn svqd");
  {
    // The churn tables were written through the disk backend; reopening
    // them must answer like the in-memory ingest too.
    auto reopened = MakeEngine(IngestOptions(), CacheOptions());
    for (const VideoPtr& video : workload.churn_base) {
      auto ingested = ValueOrDie(
          svq::core::OpenIngestedVideo(stack.churn_dir + "/" + video->name()),
          "reopen churn " + video->name());
      CheckOk(reopened
                  ->AddIngested(std::make_shared<const svq::core::IngestedVideo>(
                      std::move(ingested)))
                  .status(),
              "reopened AddIngested");
    }
    auto twin = MemoryTwin(workload.churn_base);
    const auto want = OracleAnswers(twin->Pin(), workload.churn_space,
                                    workload.churn_space.size());
    Compare(OracleAnswers(reopened->Pin(), workload.churn_space,
                          workload.churn_space.size()),
            want, workload.churn_space, "reopened churn artifacts");
    Compare(expected.churn, want, workload.churn_space, "churn disk tables");
  }

  // Feeds: OnlineEngine::Run plus Finish, through the batch QUERY path.
  const svq::core::SnapshotPtr feeds = stack.feed_engine->Pin();
  for (const FeedPlan& plan : workload.feed_plans) {
    std::vector<Answer> per_statement;
    for (const std::string& statement : plan.statements) {
      auto result = svq::query::ExecuteStatementOn(feeds, statement, {},
                                                   OracleOptions());
      CheckOk(result.status(), "feed oracle: " + statement);
      per_statement.push_back(ToAnswer(*result));
    }
    expected.feeds.push_back(std::move(per_statement));
  }
  return expected;
}

}  // namespace e2ebench
