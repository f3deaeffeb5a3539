#include "svq/core/engine.h"

#include <algorithm>
#include <future>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "svq/cache/fingerprint.h"
#include "svq/observability/trace.h"

namespace svq::core {

namespace {

const char* AlgorithmSpanName(OfflineAlgorithm algorithm) {
  switch (algorithm) {
    case OfflineAlgorithm::kRvaq:
      return "rvaq";
    case OfflineAlgorithm::kRvaqNoSkip:
      return "rvaq_noskip";
    case OfflineAlgorithm::kFagin:
      return "fagin";
    case OfflineAlgorithm::kPqTraverse:
      return "pq_traverse";
  }
  return "offline";
}

/// Merges an execution's accounting into the context's optional per-query
/// sinks. Each context belongs to one query, so the sinks are written from
/// exactly one thread.
void DrainToSinks(const ExecutionContext& context,
                  const OfflineRunStats& stats) {
  if (context.storage_sink() != nullptr) {
    context.storage_sink()->Merge(stats.storage);
  }
  if (context.runtime_sink() != nullptr) {
    context.runtime_sink()->Merge(stats.runtime);
  }
}

/// Statement fingerprint for the top-K result cache: the canonicalized
/// query (labels sorted within each conjunctive list — the binder produces
/// this order, and Intersect-based candidate generation is order
/// independent), the target video, the algorithm, and every option that
/// changes the produced sequences or bounds. K is deliberately excluded:
/// an exact entry computed at K serves any K' <= K (CachedTopK::Serves).
uint64_t ResultCacheKey(const Query& query, const std::string& video_name,
                        OfflineAlgorithm algorithm,
                        const OfflineOptions& options) {
  svq::cache::Fingerprint fp;
  fp.Mix("result").Mix(video_name);
  fp.Mix("act").Mix(query.action);
  std::vector<std::string> extras = query.extra_actions;
  std::sort(extras.begin(), extras.end());
  for (const std::string& extra : extras) fp.Mix("xa").Mix(extra);
  std::vector<std::string> objects = query.objects;
  std::sort(objects.begin(), objects.end());
  for (const std::string& object : objects) fp.Mix("obj").Mix(object);
  // Disjunctions and relationships are rejected by the offline path today,
  // but mix them anyway so the key stays correct if that ever changes.
  for (const auto& group : query.object_disjunctions) {
    fp.Mix("disj");
    for (const std::string& label : group) fp.Mix(label);
  }
  for (const Relationship& rel : query.relationships) {
    fp.Mix("rel").Mix(static_cast<int>(rel.op)).Mix(rel.subject)
        .Mix(rel.object);
  }
  fp.Mix("alg").Mix(static_cast<int>(algorithm));
  fp.Mix(options.enable_skip).Mix(options.compute_exact_scores);
  return fp.value();
}

/// A cached entry serving a (possibly smaller) K, converted back to the
/// engine's result type. Stats stay zero: no storage was touched.
TopKResult FromCached(const svq::cache::CachedTopK& cached, int k) {
  TopKResult result;
  const size_t n = std::min(cached.entries.size(), static_cast<size_t>(k));
  result.sequences.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RankedSequence seq;
    seq.clips = cached.entries[i].clips;
    seq.lower_bound = cached.entries[i].lower_bound;
    seq.upper_bound = cached.entries[i].upper_bound;
    result.sequences.push_back(seq);
  }
  return result;
}

std::shared_ptr<const svq::cache::CachedTopK> ToCached(
    const TopKResult& result, int k, const OfflineOptions& options) {
  auto cached = std::make_shared<svq::cache::CachedTopK>();
  cached->computed_k = k;
  cached->exact = options.compute_exact_scores;
  cached->entries.reserve(result.sequences.size());
  for (const RankedSequence& seq : result.sequences) {
    svq::cache::CachedTopK::Entry entry;
    entry.clips = seq.clips;
    entry.lower_bound = seq.lower_bound;
    entry.upper_bound = seq.upper_bound;
    cached->entries.push_back(entry);
  }
  return cached;
}

bool ByName(const IngestedVideo* a, const IngestedVideo* b) {
  return a->name < b->name;
}

bool Carries(const IngestedVideo& video, const std::string& label,
             bool is_action) {
  const video::IntervalSet* sequences = is_action
                                            ? video.ActionSequences(label)
                                            : video.ObjectSequences(label);
  return sequences != nullptr && !sequences->empty();
}

/// Merges the name-sorted `added` into the list of every label of one kind
/// that an added video carries.
void Grow(const LabelIndex::Videos& added, bool is_action,
          LabelIndex::Lists* lists) {
  std::map<std::string, LabelIndex::Videos> grown;
  for (const IngestedVideo* video : added) {
    for (const auto& [label, sequences] :
         is_action ? video->action_sequences : video->object_sequences) {
      if (!sequences.empty()) grown[label].push_back(video);
    }
  }
  for (const auto& [label, videos] : grown) {
    std::shared_ptr<const LabelIndex::Videos>& slot = (*lists)[label];
    const LabelIndex::Videos none;
    const LabelIndex::Videos& old = slot != nullptr ? *slot : none;
    auto list = std::make_shared<LabelIndex::Videos>();
    list->reserve(old.size() + videos.size());
    std::merge(old.begin(), old.end(), videos.begin(), videos.end(),
               std::back_inserter(*list), ByName);
    slot = std::move(list);
  }
}

}  // namespace

std::shared_ptr<const LabelIndex> LabelIndex::Extend(Videos added) const {
  std::sort(added.begin(), added.end(), ByName);
  auto next = std::make_shared<LabelIndex>(*this);
  Grow(added, /*is_action=*/false, &next->objects);
  Grow(added, /*is_action=*/true, &next->actions);
  next->ingested += static_cast<int64_t>(added.size());
  return next;
}

LabelIndex::Videos LabelIndex::Matching(const Query& query) const {
  std::vector<std::pair<const std::string*, bool>> labels = {
      {&query.action, true}};
  for (const std::string& extra : query.extra_actions) {
    labels.emplace_back(&extra, true);
  }
  for (const std::string& object : query.objects) {
    labels.emplace_back(&object, false);
  }
  const Videos* shortest = nullptr;
  for (const auto& [label, is_action] : labels) {
    const Lists& lists = is_action ? actions : objects;
    const auto it = lists.find(*label);
    if (it == lists.end()) return {};
    if (shortest == nullptr || it->second->size() < shortest->size()) {
      shortest = it->second.get();
    }
  }
  Videos matching;
  for (const IngestedVideo* video : *shortest) {
    if (std::all_of(labels.begin(), labels.end(), [&](const auto& label) {
          return Carries(*video, *label.first, label.second);
        })) {
      matching.push_back(video);
    }
  }
  return matching;
}

const CatalogSnapshot::Entry* CatalogSnapshot::Find(
    const std::string& video_name) const {
  auto it = videos.find(video_name);
  return it == videos.end() ? nullptr : &it->second;
}

Result<OnlineResult> ExecuteOnlineOn(const SnapshotPtr& snapshot,
                                     const Query& query,
                                     const std::string& video_name,
                                     OnlineEngine::Mode mode,
                                     const ExecutionContext& context,
                                     const models::ModelSuite* suite_override) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot must be set");
  }
  // Gate before model construction: an already-expired context must not
  // pay for (or run) any inference.
  SVQ_RETURN_NOT_OK(context.Check());
  const CatalogSnapshot::Entry* entry = snapshot->Find(video_name);
  if (entry == nullptr) {
    return Status::NotFound("video '" + video_name + "' is not registered");
  }
  if (entry->video == nullptr) {
    // Registered via AddIngested: artifacts only, no raw frames to run
    // models over.
    return Status::FailedPrecondition(
        "video '" + video_name +
        "' was opened from ingested artifacts; online execution needs the "
        "raw video");
  }
  const models::ModelSuite& suite =
      suite_override != nullptr ? *suite_override : snapshot->suite;
  observability::TraceSpan execute_span(context.trace(), "execute");
  models::ModelSet models = models::MakeModelSet(
      entry->video, suite, query.AllObjectLabels(), query.AllActions());
  SVQ_ASSIGN_OR_RETURN(
      std::unique_ptr<OnlineEngine> engine,
      OnlineEngine::Create(mode, query, snapshot->online_config,
                           entry->video->layout(), models.detector.get(),
                           models.recognizer.get(), context));
  video::SyntheticVideoStream stream(entry->video, entry->id);
  observability::TraceSpan mode_span(
      context.trace(),
      mode == OnlineEngine::Mode::kSvaq ? "svaq" : "svaqd");
  return engine->Run(stream);
}

Result<TopKResult> ExecuteTopKOn(const SnapshotPtr& snapshot,
                                 const Query& query,
                                 const std::string& video_name, int k,
                                 OfflineAlgorithm algorithm,
                                 const OfflineOptions& options,
                                 const ExecutionContext& context) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot must be set");
  }
  SVQ_RETURN_NOT_OK(context.Check());
  const CatalogSnapshot::Entry* entry = snapshot->Find(video_name);
  if (entry == nullptr) {
    return Status::NotFound("video '" + video_name + "' is not registered");
  }
  if (entry->ingested == nullptr) {
    return Status::FailedPrecondition("video '" + video_name +
                                      "' has not been ingested");
  }
  const AdditiveScoring scoring;
  observability::TraceSpan execute_span(context.trace(), "execute");

  // Result cache with single-flight deduplication (docs/caching.md).
  // The first identical statement to arrive computes; concurrent duplicates
  // wait briefly and re-check instead of redoing storage work. A leader
  // that errors simply releases the flight — followers promote themselves.
  svq::cache::SnapshotCache* cache = snapshot->cache.get();
  const bool use_result_cache =
      cache != nullptr && options.cache.use_result_cache;
  uint64_t result_key = 0;
  svq::cache::SingleFlightLease lease;
  if (use_result_cache) {
    result_key = ResultCacheKey(query, video_name, algorithm, options);
    bool waited = false;
    while (true) {
      if (auto found = cache->LookupResult(result_key)) {
        const svq::cache::CachedTopK& cached = **found;
        if (cached.Serves(k)) {
          observability::TraceSpan hit_span(context.trace(),
                                            "cache.result_hit");
          return FromCached(cached, k);
        }
        // Present but computed at a smaller K (or inexact): recompute —
        // joining the flight would only serve us the same short entry.
        break;
      }
      if (cache->result_flights().Begin(result_key)) {
        lease = svq::cache::SingleFlightLease(&cache->result_flights(),
                                              result_key);
        break;
      }
      SVQ_RETURN_NOT_OK(context.Check());
      if (!waited) {
        waited = true;
        cache->stats()->single_flight_waits.fetch_add(
            1, std::memory_order_relaxed);
      }
      cache->result_flights().WaitBriefly(result_key);
    }
  }

  observability::TraceSpan algorithm_span(context.trace(),
                                          AlgorithmSpanName(algorithm));
  Result<TopKResult> result = Status::InvalidArgument(
      "unknown offline algorithm");
  switch (algorithm) {
    case OfflineAlgorithm::kRvaq:
      result = RunRvaq(*entry->ingested, query, k, scoring, options, context);
      break;
    case OfflineAlgorithm::kRvaqNoSkip:
      result = RunRvaqNoSkip(*entry->ingested, query, k, scoring,
                             options.cost_model, context);
      break;
    case OfflineAlgorithm::kFagin:
      result = RunFagin(*entry->ingested, query, k, scoring,
                        options.cost_model, context);
      break;
    case OfflineAlgorithm::kPqTraverse:
      result = RunPqTraverse(*entry->ingested, query, k, scoring,
                             options.cost_model, context);
      break;
  }
  if (result.ok()) {
    DrainToSinks(context, result->stats);
    if (use_result_cache) {
      // Insert before the lease releases the flight, so woken followers
      // find the entry on their re-check.
      cache->InsertResult(result_key, ToCached(*result, k, options));
    }
  }
  return result;
}

Result<RepositoryResult> ExecuteTopKAllOn(const SnapshotPtr& snapshot,
                                          const Query& query, int k,
                                          const OfflineOptions& options,
                                          const ExecutionContext& context) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot must be set");
  }
  SVQ_RETURN_NOT_OK(context.Check());
  const LabelIndex& index = *snapshot->label_index;
  if (index.ingested == 0) {
    return Status::FailedPrecondition("no ingested videos in the repository");
  }
  SVQ_RETURN_NOT_OK(ValidateOfflineQuery(query));
  const AdditiveScoring scoring;
  // Not memoized: the K interleaving is cross-video. An empty list still
  // goes through RunRepositoryTopK, which rejects k < 1.
  Result<RepositoryResult> result = RunRepositoryTopK(
      index.Matching(query), query, k, scoring, options, context);
  if (result.ok()) DrainToSinks(context, result->stats);
  return result;
}

VideoQueryEngine::VideoQueryEngine(models::ModelSuite suite,
                                   OnlineConfig online_config,
                                   IngestOptions ingest_options,
                                   svq::cache::CacheOptions cache_options)
    : ingest_options_(std::move(ingest_options)),
      cache_options_(cache_options),
      cache_stats_(std::make_shared<svq::cache::CacheStats>()) {
  auto snapshot = std::make_shared<CatalogSnapshot>();
  snapshot->suite = std::move(suite);
  snapshot->online_config = online_config;
  // Route through Publish so the initial snapshot gets its cache too.
  Publish(std::move(snapshot));
}

SnapshotPtr VideoQueryEngine::Pin() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void VideoQueryEngine::Publish(std::shared_ptr<CatalogSnapshot> next,
                               LabelIndex::Videos ingested) {
  // Every catalog mutation funnels through here, so attaching a *fresh*
  // SnapshotCache per publish is the entire invalidation story: entries
  // derived from superseded artifacts become unreachable with their
  // snapshot, while queries pinned to the old generation keep their (still
  // correct for that view) cache until the last pin drops.
  if (cache_options_.enabled) {
    next->cache =
        std::make_shared<svq::cache::SnapshotCache>(cache_options_,
                                                    cache_stats_);
  }
  if (!ingested.empty()) {
    next->label_index = next->label_index->Extend(std::move(ingested));
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(next);
}

Result<video::VideoId> VideoQueryEngine::AddVideo(
    std::shared_ptr<const video::SyntheticVideo> video) {
  if (video == nullptr) {
    return Status::InvalidArgument("video must be set");
  }
  std::lock_guard<std::mutex> writer(writer_mu_);
  const SnapshotPtr current = Pin();
  if (current->videos.contains(video->name())) {
    return Status::AlreadyExists("video '" + video->name() +
                                 "' already registered");
  }
  auto next = std::make_shared<CatalogSnapshot>(*current);
  const std::string name = video->name();
  CatalogSnapshot::Entry entry;
  entry.video = std::move(video);
  entry.id = next->next_id++;
  const video::VideoId id = entry.id;
  next->videos.emplace(name, std::move(entry));
  Publish(std::move(next));
  return id;
}

Result<video::VideoId> VideoQueryEngine::AddIngested(
    std::shared_ptr<const IngestedVideo> ingested) {
  if (ingested == nullptr) {
    return Status::InvalidArgument("ingested must be set");
  }
  if (ingested->name.empty()) {
    return Status::InvalidArgument("ingested video must carry a name");
  }
  std::lock_guard<std::mutex> writer(writer_mu_);
  const SnapshotPtr current = Pin();
  if (current->videos.contains(ingested->name)) {
    return Status::AlreadyExists("video '" + ingested->name +
                                 "' already registered");
  }
  auto next = std::make_shared<CatalogSnapshot>(*current);
  const std::string name = ingested->name;
  CatalogSnapshot::Entry entry;
  entry.id = ingested->id;
  // Keep future AddVideo ids disjoint from the reopened artifact's id.
  next->next_id = std::max(next->next_id, ingested->id + 1);
  const IngestedVideo* added = ingested.get();
  entry.ingested = std::move(ingested);
  const video::VideoId id = entry.id;
  next->videos.emplace(name, std::move(entry));
  Publish(std::move(next), {added});
  return id;
}

Result<IngestedVideo> VideoQueryEngine::IngestOne(
    const CatalogSnapshot& snapshot,
    const CatalogSnapshot::Entry& entry) const {
  // Ingestion is query independent: models process their full vocabulary.
  models::ModelSet models =
      models::MakeModelSet(entry.video, snapshot.suite,
                           /*query_object_labels=*/{},
                           /*query_action_labels=*/{});
  return IngestVideo(entry.video, entry.id, models.tracker.get(),
                     models.recognizer.get(), ingest_options_);
}

Status VideoQueryEngine::Ingest(const std::string& video_name) {
  // The writer mutex is held across the ingestion compute: other *writers*
  // queue behind it, but queries keep executing against the previous
  // snapshot throughout and observe the new artifacts only after the final
  // Publish.
  std::lock_guard<std::mutex> writer(writer_mu_);
  const SnapshotPtr current = Pin();
  const CatalogSnapshot::Entry* entry = current->Find(video_name);
  if (entry == nullptr) {
    return Status::NotFound("video '" + video_name + "' is not registered");
  }
  if (entry->ingested != nullptr) {
    return Status::AlreadyExists("video '" + video_name +
                                 "' is already ingested");
  }
  SVQ_ASSIGN_OR_RETURN(IngestedVideo ingested, IngestOne(*current, *entry));
  auto artifacts = std::make_shared<const IngestedVideo>(std::move(ingested));
  const IngestedVideo* added = artifacts.get();
  auto next = std::make_shared<CatalogSnapshot>(*current);
  next->videos[video_name].ingested = std::move(artifacts);
  Publish(std::move(next), {added});
  return Status::OK();
}

Status VideoQueryEngine::IngestAll(int parallelism) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  const SnapshotPtr current = Pin();
  std::vector<const CatalogSnapshot::Entry*> pending;
  for (const auto& [name, entry] : current->videos) {
    if (entry.ingested == nullptr) pending.push_back(&entry);
  }
  if (pending.empty()) return Status::OK();
  if (parallelism <= 0) {
    parallelism = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  // Videos are independent: per-video model instances, per-video outputs.
  // Ingest in bounded waves; each task fills its own slot.
  std::vector<std::shared_ptr<const IngestedVideo>> results(pending.size());
  Status first_error;
  for (size_t wave = 0; wave < pending.size();
       wave += static_cast<size_t>(parallelism)) {
    const size_t end = std::min(pending.size(),
                                wave + static_cast<size_t>(parallelism));
    std::vector<std::future<Result<IngestedVideo>>> futures;
    for (size_t i = wave; i < end; ++i) {
      const CatalogSnapshot::Entry* entry = pending[i];
      futures.push_back(std::async(std::launch::async, [this, &current,
                                                        entry]() {
        return IngestOne(*current, *entry);
      }));
    }
    for (size_t i = wave; i < end; ++i) {
      Result<IngestedVideo> result = futures[i - wave].get();
      if (!result.ok()) {
        if (first_error.ok()) first_error = result.status();
        continue;
      }
      results[i] =
          std::make_shared<const IngestedVideo>(std::move(result).value());
    }
  }
  // One atomic publish for every success: a reader sees either none or all
  // of this batch (plus whatever partial set an errored batch produced).
  auto next = std::make_shared<CatalogSnapshot>(*current);
  LabelIndex::Videos added;
  for (size_t i = 0; i < pending.size(); ++i) {
    if (results[i] == nullptr) continue;
    added.push_back(results[i].get());
    next->videos[pending[i]->video->name()].ingested = std::move(results[i]);
  }
  Publish(std::move(next), std::move(added));
  return first_error;
}

void VideoQueryEngine::set_suite(models::ModelSuite suite) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  auto next = std::make_shared<CatalogSnapshot>(*Pin());
  next->suite = std::move(suite);
  Publish(std::move(next));
}

void VideoQueryEngine::set_online_config(OnlineConfig online_config) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  auto next = std::make_shared<CatalogSnapshot>(*Pin());
  next->online_config = online_config;
  Publish(std::move(next));
}

std::shared_ptr<const IngestedVideo> VideoQueryEngine::Ingested(
    const std::string& video_name) const {
  const SnapshotPtr snapshot = Pin();
  const CatalogSnapshot::Entry* entry = snapshot->Find(video_name);
  return entry == nullptr ? nullptr : entry->ingested;
}

bool VideoQueryEngine::HasVideo(const std::string& video_name) const {
  return Pin()->videos.contains(video_name);
}

models::ModelSuite VideoQueryEngine::suite() const { return Pin()->suite; }

OnlineConfig VideoQueryEngine::online_config() const {
  return Pin()->online_config;
}

Result<OnlineResult> VideoQueryEngine::ExecuteOnline(
    const Query& query, const std::string& video_name,
    OnlineEngine::Mode mode, const ExecutionContext& context) {
  return ExecuteOnlineOn(Pin(), query, video_name, mode, context);
}

Result<TopKResult> VideoQueryEngine::ExecuteTopK(
    const Query& query, const std::string& video_name, int k,
    OfflineAlgorithm algorithm, const OfflineOptions& options,
    const ExecutionContext& context) {
  return ExecuteTopKOn(Pin(), query, video_name, k, algorithm, options,
                       context);
}

Result<RepositoryResult> VideoQueryEngine::ExecuteTopKAll(
    const Query& query, int k, const OfflineOptions& options,
    const ExecutionContext& context) {
  return ExecuteTopKAllOn(Pin(), query, k, options, context);
}

}  // namespace svq::core
