#ifndef E2EBENCH_LIB_PHASES_H_
#define E2EBENCH_LIB_PHASES_H_

#include <cstdint>
#include <vector>

#include "lib/stack.h"
#include "lib/util.h"
#include "lib/workload.h"

namespace e2ebench {

/// Every phase is a closed loop: a client sends its next request only after
/// the previous reply arrived, one request outstanding per connection, as
/// server::Client callers do.
///
/// Client counts stay well below nproc. The servers run in this process,
/// so every client keeps a server thread (and, behind the router, up to two
/// shard threads) busy too; with four clients the benchmark would run more
/// busy threads than the machine has cores and measure the scheduler.

/// A phase stops at `seconds` or once each client issued `max_ops`
/// operations (0 = no cap), whichever comes first.
struct PhaseLimits {
  double seconds = 0.0;
  int64_t max_ops = 0;
  /// Which repetition of the phase this is; each round draws a fresh part
  /// of the seeded operation sequences.
  int round = 0;
};

/// Ranked statements against the serve front (router or svqd).
struct ServeResult {
  OpStats topk;
  OpStats broadcast;
  double wall_s = 0.0;
};
constexpr int kServeClients = 2;
/// With `spans` set (one log per client), every request also records a
/// client round-trip span — the traced variant of the same loop.
ServeResult RunServe(const Workload& workload, const Stack& stack,
                     const Expected& expected, PhaseLimits limits,
                     std::vector<SpanLog>* spans = nullptr);

/// One writer ingesting new videos through the disk backend beside one
/// closed-loop reader of already-published videos.
struct ChurnResult {
  OpStats readers;
  OpStats ingests;
  int64_t frames = 0;
  double ingest_s = 0.0;
  int64_t bytes_written = 0;
};
constexpr int kChurnReaders = 1;
/// The writer ingests churn_pool from `*next_video` on and advances it.
ChurnResult RunChurn(const Workload& workload, const Stack& stack,
                     const Expected& expected, PhaseLimits limits,
                     size_t* next_video);

/// Two feed connections; each in turn opens a feed from a FeedPlan,
/// subscribes its four standing SVAQD statements, FEEDs fixed-size clip
/// batches to the end of the stream, unsubscribes and checks every event
/// against the oracle.
struct FeedResult {
  OpStats feeds;          ///< FEED round trips
  OpStats subscriptions;  ///< one per standing query: events match oracle
  OpStats control;        ///< SUBSCRIBE / UNSUBSCRIBE round trips
  int64_t clips = 0;
  int64_t dropped_events = 0;
  double wall_s = 0.0;
};
constexpr int kFeeds = 2;
constexpr int64_t kFeedBatchClips = 8;
FeedResult RunFeeds(const Workload& workload, const Stack& stack,
                    const Expected& expected, PhaseLimits limits);

}  // namespace e2ebench

#endif  // E2EBENCH_LIB_PHASES_H_
