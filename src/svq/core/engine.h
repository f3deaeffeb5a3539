#ifndef SVQ_CORE_ENGINE_H_
#define SVQ_CORE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "svq/cache/cache_options.h"
#include "svq/cache/cache_stats.h"
#include "svq/cache/query_cache.h"
#include "svq/common/execution_context.h"
#include "svq/common/result.h"
#include "svq/core/baselines.h"
#include "svq/core/ingest.h"
#include "svq/core/online_engine.h"
#include "svq/core/query.h"
#include "svq/core/repository.h"
#include "svq/core/rvaq.h"
#include "svq/models/synthetic_models.h"

namespace svq::core {

/// Which algorithm answers an offline top-K query.
enum class OfflineAlgorithm { kRvaq, kRvaqNoSkip, kFagin, kPqTraverse };

/// Which ingested videos carry each label: the posting lists `P_o`, `P_a`
/// of paper §4.2 one level up. A video carries a label when its
/// individual-sequence set for it is non-empty. Object and action labels
/// are kept apart (one name may be both); each list is in video-name order.
/// Immutable, and lists are shared between snapshot generations. The index
/// borrows its video pointers from the snapshot's entries, which keep them
/// alive: the catalog never drops or re-ingests a video.
struct LabelIndex {
  using Videos = std::vector<const IngestedVideo*>;
  using Lists = std::map<std::string, std::shared_ptr<const Videos>>;

  Lists objects;
  Lists actions;
  int64_t ingested = 0;

  /// This index plus `added`, none of which it lists yet. Copies only the
  /// lists of the labels the added videos carry.
  std::shared_ptr<const LabelIndex> Extend(Videos added) const;

  /// The videos that carry every label of `query` (action, extra actions,
  /// objects), in video-name order: the shortest of the labels' lists,
  /// keeping the videos that carry the other labels too.
  Videos Matching(const Query& query) const;
};

/// An immutable point-in-time view of the engine's catalog: every
/// registered video, every ingested artifact set, and the model suite /
/// online config in force when the snapshot was taken.
///
/// Snapshots are published with copy-on-write semantics: a writer copies
/// the current snapshot (cheap — entries hold shared_ptrs, not artifact
/// bytes), mutates the copy, and swaps it in atomically. A query *pins*
/// the snapshot it starts on by holding the shared_ptr, so catalog churn
/// after the pin — new videos, new ingests, suite swaps — is invisible to
/// it, and the refcounted `IngestedVideo` artifacts it reads stay alive
/// even after the catalog has moved on. Once published, a snapshot is
/// never mutated; concurrent readers need no locks.
struct CatalogSnapshot {
  struct Entry {
    std::shared_ptr<const video::SyntheticVideo> video;
    video::VideoId id = video::kInvalidVideoId;
    /// Set once the video is ingested. Shared ownership is what lets a
    /// pinned snapshot outlive later catalog churn.
    std::shared_ptr<const IngestedVideo> ingested;
  };

  std::map<std::string, Entry> videos;
  video::VideoId next_id = 0;
  /// This snapshot generation's query cache (docs/caching.md); nullptr when
  /// the engine runs with caching disabled. Every Publish attaches a fresh
  /// instance, so a cache entry can never outlive — or be read across — the
  /// snapshot whose artifacts produced it: staleness is impossible by
  /// construction and pinned readers keep hitting their own generation.
  std::shared_ptr<svq::cache::SnapshotCache> cache;
  /// Lists exactly the ingested entries of `videos`. Never null; Publish
  /// keeps the previous pointer when a publish ingests nothing.
  std::shared_ptr<const LabelIndex> label_index =
      std::make_shared<const LabelIndex>();
  /// Immutable within the snapshot: queries build their per-execution
  /// model instances from these copies, so a concurrent set_suite() /
  /// set_online_config() can never race a running query (the old
  /// `mutable_suite()` escape hatch is gone for exactly that reason).
  models::ModelSuite suite;
  OnlineConfig online_config;

  /// Entry lookup; nullptr when the name is not registered. The pointer is
  /// valid for the snapshot's lifetime.
  const Entry* Find(const std::string& video_name) const;
};

/// A pinned, refcounted snapshot handle. Holding one keeps every artifact
/// reachable from it alive.
using SnapshotPtr = std::shared_ptr<const CatalogSnapshot>;

/// Snapshot-pinned execution: runs entirely against `snapshot`, regardless
/// of any catalog churn after the pin. These are what the
/// VideoQueryEngine::Execute* members delegate to after pinning; they are
/// exposed so callers can run several queries against one consistent view
/// (and so tests can prove the isolation). `suite_override`, when non-null,
/// replaces the snapshot's model suite for this execution only — the
/// per-statement USING mechanism, without mutating any shared state.
Result<OnlineResult> ExecuteOnlineOn(
    const SnapshotPtr& snapshot, const Query& query,
    const std::string& video_name,
    OnlineEngine::Mode mode = OnlineEngine::Mode::kSvaqd,
    const ExecutionContext& context = {},
    const models::ModelSuite* suite_override = nullptr);

Result<TopKResult> ExecuteTopKOn(
    const SnapshotPtr& snapshot, const Query& query,
    const std::string& video_name, int k,
    OfflineAlgorithm algorithm = OfflineAlgorithm::kRvaq,
    const OfflineOptions& options = OfflineOptions(),
    const ExecutionContext& context = {});

/// Runs RVAQ only on the videos that carry every label of `query`. The
/// others have no candidate sequences, so the answer, the storage counters
/// and the errors equal a fan-out over every ingested video's; when no
/// video carries the labels, the answer is OK and empty.
Result<RepositoryResult> ExecuteTopKAllOn(
    const SnapshotPtr& snapshot, const Query& query, int k,
    const OfflineOptions& options = OfflineOptions(),
    const ExecutionContext& context = {});

/// The user-facing facade: a video repository plus query execution, safe
/// for concurrent serving.
///
/// Concurrency protocol (writer/reader):
///  - The whole catalog lives in one immutable CatalogSnapshot behind a
///    mutex-guarded shared_ptr. Readers (queries, Pin, Ingested, HasVideo)
///    grab the pointer under the mutex — a few instructions — and then
///    work lock-free on the pinned snapshot. Readers never block writers
///    and never block each other.
///  - Writers (AddVideo, Ingest, IngestAll, set_suite, set_online_config)
///    serialize on a writer mutex, build a new snapshot copy-on-write, and
///    publish it with one pointer swap. Ingestion work happens while the
///    writer mutex is held (writers queue behind an in-flight ingest), but
///    queries keep executing against the previous snapshot throughout.
///  - A query observes the catalog exactly as it was when the query
///    started: an Ingest that completes mid-query is invisible to it, and
///    artifacts it reads cannot be destroyed under it (shared ownership).
///
/// Register videos with AddVideo; run streaming queries with ExecuteOnline
/// (SVAQ/SVAQD, no pre-processing); ingest videos once with Ingest and run
/// ranked top-K queries with ExecuteTopK (RVAQ and baselines). Model
/// instances are created per execution from the pinned snapshot's
/// ModelSuite, so the vocabulary always covers the query's labels and
/// inference accounting is per-run.
class VideoQueryEngine {
 public:
  explicit VideoQueryEngine(
      models::ModelSuite suite = models::ModelSuite(),
      OnlineConfig online_config = OnlineConfig(),
      IngestOptions ingest_options = IngestOptions(),
      svq::cache::CacheOptions cache_options = svq::cache::CacheOptions());

  /// Registers a video under its `name()`. Errors: AlreadyExists.
  Result<video::VideoId> AddVideo(
      std::shared_ptr<const video::SyntheticVideo> video);

  /// Registers artifacts reopened from a kDisk ingest's video file
  /// (OpenIngestedVideo) under `ingested->name`. The entry carries no raw
  /// video, so offline top-K queries work immediately while online /
  /// streaming execution over it reports FailedPrecondition (re-running
  /// inference needs the frames, which only the original ingest had).
  /// Errors: InvalidArgument (null/empty name), AlreadyExists.
  Result<video::VideoId> AddIngested(
      std::shared_ptr<const IngestedVideo> ingested);

  /// Runs the one-time ingestion phase for `video_name` (paper §4.2) and
  /// publishes the artifacts in a new snapshot. Queries already running
  /// keep their pinned pre-ingest view. Errors: NotFound; AlreadyExists
  /// when already ingested.
  Status Ingest(const std::string& video_name);

  /// Ingests every registered-but-not-ingested video, processing up to
  /// `parallelism` videos concurrently (0 = hardware concurrency). Videos
  /// are independent, so results are identical to serial ingestion. All
  /// successes publish atomically in one snapshot; on error the successes
  /// are kept and the first error is returned.
  Status IngestAll(int parallelism = 0);

  /// Replaces the model suite / online config for *future* snapshots.
  /// In-flight queries keep the suite of the snapshot they pinned.
  void set_suite(models::ModelSuite suite);
  void set_online_config(OnlineConfig online_config);

  /// Pins the current catalog snapshot. Hold the handle to run several
  /// queries against one consistent view via the Execute*On functions.
  SnapshotPtr Pin() const;

  /// Ingested artifacts; nullptr when not registered or not ingested. The
  /// returned pointer participates in snapshot ownership, so it stays
  /// valid across later catalog churn.
  std::shared_ptr<const IngestedVideo> Ingested(
      const std::string& video_name) const;

  /// Whether a video is registered under this name (in the current
  /// snapshot).
  bool HasVideo(const std::string& video_name) const;

  /// Copies of the current snapshot's suite / config.
  models::ModelSuite suite() const;
  OnlineConfig online_config() const;

  /// Engine-lifetime cache counters (cumulative across snapshot
  /// generations). Always non-null, even with caching disabled — the
  /// counters simply stay at zero.
  const std::shared_ptr<svq::cache::CacheStats>& cache_stats() const {
    return cache_stats_;
  }

  /// Streaming execution of `query` over the named video (paper §3), on a
  /// snapshot pinned at call entry.
  Result<OnlineResult> ExecuteOnline(
      const Query& query, const std::string& video_name,
      OnlineEngine::Mode mode = OnlineEngine::Mode::kSvaqd,
      const ExecutionContext& context = {});

  /// Ranked top-K execution over the named (ingested) video (paper §4), on
  /// a snapshot pinned at call entry.
  Result<TopKResult> ExecuteTopK(
      const Query& query, const std::string& video_name, int k,
      OfflineAlgorithm algorithm = OfflineAlgorithm::kRvaq,
      const OfflineOptions& options = OfflineOptions(),
      const ExecutionContext& context = {});

  /// Ranked top-K over every ingested video in the repository (paper §4.2
  /// multi-video setting), on a snapshot pinned at call entry. Errors:
  /// FailedPrecondition when nothing has been ingested yet.
  Result<RepositoryResult> ExecuteTopKAll(
      const Query& query, int k,
      const OfflineOptions& options = OfflineOptions(),
      const ExecutionContext& context = {});

 private:
  /// Attaches a fresh SnapshotCache (when caching is enabled), extends the
  /// label index with `ingested` (the videos this publish ingests) and
  /// atomically replaces the published snapshot. Called with writer_mu_
  /// held; the single choke point through which every catalog mutation
  /// invalidates the cache.
  void Publish(std::shared_ptr<CatalogSnapshot> next,
               LabelIndex::Videos ingested = {});

  /// Runs the ingestion phase for one entry against `snapshot`'s suite.
  /// Pure compute: touches no engine state.
  Result<IngestedVideo> IngestOne(const CatalogSnapshot& snapshot,
                                  const CatalogSnapshot::Entry& entry) const;

  /// Set at construction, immutable afterwards (safe to read from any
  /// thread without locks).
  const IngestOptions ingest_options_;
  const svq::cache::CacheOptions cache_options_;
  /// Shared with every snapshot generation's cache; outlives them all.
  std::shared_ptr<svq::cache::CacheStats> cache_stats_;

  /// Serializes writers; never held by readers.
  std::mutex writer_mu_;

  /// Guards only the snapshot_ pointer itself.
  mutable std::mutex snapshot_mu_;
  SnapshotPtr snapshot_;
};

}  // namespace svq::core

#endif  // SVQ_CORE_ENGINE_H_
