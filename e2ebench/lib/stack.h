#ifndef E2EBENCH_LIB_STACK_H_
#define E2EBENCH_LIB_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "lib/util.h"
#include "lib/workload.h"
#include "svq/cluster/router.h"
#include "svq/core/engine.h"
#include "svq/query/executor.h"
#include "svq/server/server.h"

namespace e2ebench {

/// A ranked answer in wire form.
using Answer = std::vector<svq::server::WireSequence>;

/// The wire form of an in-process result, as svqd encodes it.
Answer ToAnswer(const svq::query::StatementResult& result);
/// Clips must match exactly; bounds within 1e-9 (a smaller K served from a
/// cached larger-K result may differ in the last bits, docs/caching.md).
bool SameAnswer(const Answer& got, const Answer& want);

/// Serial, cache-bypassed statement options: the oracle's configuration.
svq::query::StatementOptions OracleOptions();

/// The serving stack of one workload, all in this process: engines,
/// svqd servers, and for the cold regime svq_router over two shards.
/// Each phase gets engines and servers of its own, so one phase's cache and
/// catalog state cannot leak into another phase's numbers.
struct Stack {
  // Serve. Hot: one engine + svqd. Cold: one engine + svqd per shard,
  // the router in front, and `catalog_engine` holding every reopened
  // video (uncached) for oracle and in-process layer timings.
  std::vector<std::unique_ptr<svq::core::VideoQueryEngine>> shard_engines;
  std::vector<std::unique_ptr<svq::server::Server>> shard_servers;
  std::unique_ptr<svq::core::VideoQueryEngine> catalog_engine;
  std::unique_ptr<svq::cluster::Router> router;
  svq::cluster::ShardMap shard_map;
  /// Where serve clients connect: the router (cold) or the svqd (hot).
  uint16_t front_port = 0;
  /// Per-video OpenIngestedVideo time of the cold catalog reopen.
  double reopen_ms_per_video = 0.0;

  // Churn: disk backend through the counting Env.
  std::unique_ptr<CountingEnv> churn_env;
  std::unique_ptr<svq::core::VideoQueryEngine> churn_engine;
  std::unique_ptr<svq::server::Server> churn_server;
  std::string churn_dir;

  // Feeds.
  std::unique_ptr<svq::core::VideoQueryEngine> feed_engine;
  std::unique_ptr<svq::server::Server> feed_server;

  /// Wire answers collected by the warm-up pass, indexed like
  /// Workload::space / churn_space. For the cold regime the per-video
  /// statements are also asked of their shard directly.
  std::vector<Answer> warm_front;
  std::vector<Answer> warm_shard;
  std::vector<Answer> warm_churn;

  /// The engine serving `video` (hot: the only one).
  svq::core::VideoQueryEngine* EngineFor(const std::string& video) const;
  svq::server::Server* ServerFor(const std::string& video) const;
  /// A snapshot holding the whole serve catalog.
  svq::core::SnapshotPtr CatalogSnapshot() const;

  Stack() = default;
  /// Shuts the router down before the servers it forwards to.
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

/// Stands the stack up: ingest or reopen, start servers and router, warm
/// up. `run_dir` is a fresh directory inside the checkout.
std::unique_ptr<Stack> SetUp(const Workload& workload,
                             const std::string& run_dir);

/// What the oracle expects for every distinct operation.
struct Expected {
  std::vector<Answer> serve;
  std::vector<Answer> churn;
  /// Per feed plan, per statement: the completed-sequence intervals.
  std::vector<std::vector<Answer>> feeds;
};

/// Computes every distinct operation's answer in-process, serially and
/// with the cache bypassed, on the same snapshots the servers pinned, and
/// checks the warm-up wire answers against it. Reopened disk artifacts are
/// checked against an in-memory ingest of the same videos. Fatal on the
/// first mismatch.
Expected CheckOracle(const Workload& workload, const Stack& stack);

}  // namespace e2ebench

#endif  // E2EBENCH_LIB_STACK_H_
