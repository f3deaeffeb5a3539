#ifndef E2EBENCH_LIB_WORKLOAD_H_
#define E2EBENCH_LIB_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lib/util.h"
#include "svq/video/synthetic_video.h"

namespace e2ebench {

using VideoPtr = std::shared_ptr<const svq::video::SyntheticVideo>;

/// How a workload stands up its ranked-serving stack.
enum class Regime {
  /// One svqd over memory tables with svqd's default 64 MB cache; Zipfian
  /// statement draws, so the working set fits the cache.
  kHot,
  /// Disk tables reopened from an ingest directory, split over two svqd
  /// shards behind svq_router, with a cache budget far below the
  /// statement space; uniform draws, so the working set does not fit.
  kCold,
};

/// One ranked statement of a workload's statement space.
struct RankedOp {
  std::string statement;
  /// Empty for `PROCESS *` broadcasts.
  std::string video;
  bool broadcast() const { return video.empty(); }
};

/// One feed's standing queries: four SVAQD statements with overlapping
/// labels over one video.
struct FeedPlan {
  std::string video;
  std::vector<std::string> statements;
};

/// Everything one run feeds the program under test, generated from the
/// seed: videos, label sets, statement spaces, feed plans. The draw order
/// of operations comes from OpStream.
///
/// Every workload runs three phases back to back, each on its own stack:
///  - serve: closed-loop ranked statements (per-video and PROCESS *);
///  - churn: one writer ingesting new videos to disk beside two readers;
///  - feeds: four feeds of standing SVAQD queries driven by FEED.
/// The regime decides the catalog shape and the serving topology.
struct Workload {
  std::string name;
  Regime regime = Regime::kHot;
  uint64_t seed = 0;

  // Serve phase.
  std::vector<VideoPtr> catalog;
  /// Per-video statements first, then broadcasts.
  std::vector<RankedOp> space;
  size_t per_video_count = 0;
  /// Share of serve draws that are PROCESS * broadcasts.
  double broadcast_share = 0.0;
  /// Zipf exponent of the per-video serve draws and the churn reads; 0
  /// draws uniformly. Broadcasts are always drawn uniformly.
  double zipf_s = 0.0;
  /// Seeded permutation from Zipf rank to per-video statement index.
  std::vector<size_t> per_video_rank;

  // Churn phase: readers query `churn_base` (published during set-up)
  // while the writer ingests `churn_pool` in order.
  std::vector<VideoPtr> churn_base;
  std::vector<VideoPtr> churn_pool;
  std::vector<RankedOp> churn_space;
  std::vector<size_t> churn_rank;

  // Feed phase.
  std::vector<VideoPtr> feed_videos;
  std::vector<FeedPlan> feed_plans;

  size_t broadcast_count() const { return space.size() - per_video_count; }
  /// Digest of every generated input: video specs and ground truth,
  /// statement spaces and feed plans.
  uint64_t CatalogDigest() const;
};

/// The workload names run.py accepts, with the reason each exists.
struct WorkloadInfo {
  const char* name;
  Regime regime;
  const char* why;
};
const std::vector<WorkloadInfo>& Workloads();
const WorkloadInfo* FindWorkload(const std::string& name);

/// Generates the named workload from `seed`.
Workload BuildWorkload(const WorkloadInfo& info, uint64_t seed);

/// A client's deterministic sequence of serve operations (indices into
/// Workload::space).
class OpStream {
 public:
  OpStream(const Workload& workload, uint64_t stream_id);
  size_t Next();

 private:
  const Workload* workload_;
  Rng rng_;
  ZipfSampler per_video_;
};

/// A churn reader's deterministic sequence (indices into churn_space).
class ChurnStream {
 public:
  ChurnStream(const Workload& workload, uint64_t stream_id);
  size_t Next();

 private:
  const Workload* workload_;
  Rng rng_;
  ZipfSampler zipf_;
};

/// Digest of the first `count` operations of serve streams 0..3.
uint64_t OpSequenceDigest(const Workload& workload, int count);

}  // namespace e2ebench

#endif  // E2EBENCH_LIB_WORKLOAD_H_
