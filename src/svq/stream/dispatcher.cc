#include "svq/stream/dispatcher.h"

#include <algorithm>
#include <utility>

#include "svq/query/binder.h"
#include "svq/query/executor.h"

namespace svq::stream {

StreamDispatcher::StreamDispatcher(core::VideoQueryEngine* engine,
                                   StreamOptions options)
    : engine_(engine), options_(options) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

StreamDispatcher::~StreamDispatcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_worker_ = true;
  }
  worker_cv_.notify_all();
  worker_.join();
  // Cancel whatever is still standing so engines never run again; no
  // terminal events — consumers holding SubscriptionPtrs outlive us and
  // can still drain what was queued.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, sub] : subs_) sub->Cancel();
}

void StreamDispatcher::set_event_callback(EventCallback callback) {
  event_callback_ = std::move(callback);
}

Result<StreamDispatcher::FeedPtr> StreamDispatcher::EnsureFeed(
    const std::string& feed_name, const std::string& video_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = feeds_.find(feed_name);
  if (it != feeds_.end()) {
    if (it->second->entry->video->name() != video_name) {
      return Status::FailedPrecondition(
          "feed '" + feed_name + "' is bound to video '" +
          it->second->entry->video->name() + "', not '" + video_name + "'");
    }
    return it->second;
  }
  core::SnapshotPtr snapshot = engine_->Pin();
  const core::CatalogSnapshot::Entry* entry = snapshot->Find(video_name);
  if (entry == nullptr) {
    return Status::NotFound("video '" + video_name + "' is not registered");
  }
  if (entry->video == nullptr) {
    // Registered via AddIngested: there are no raw frames to feed the
    // standing-query engines with.
    return Status::FailedPrecondition(
        "video '" + video_name +
        "' was opened from ingested artifacts; streaming needs the raw "
        "video");
  }
  auto feed = std::make_shared<Feed>();
  feed->name = feed_name;
  feed->snapshot = std::move(snapshot);
  feed->entry = entry;
  feed->pool = std::make_unique<SharedModelPool>(
      entry->video, feed->snapshot->online_config.object_threshold);
  feed->num_clips = entry->video->NumClips();
  feeds_.emplace(feed_name, feed);
  feeds_created_.fetch_add(1, std::memory_order_relaxed);
  return feed;
}

Result<SubscriptionPtr> StreamDispatcher::Subscribe(
    const std::string& feed_name, const std::string& statement,
    const SubscribeOptions& options) {
  SVQ_ASSIGN_OR_RETURN(query::BoundQuery bound,
                       query::ParseAndBind(statement));
  if (bound.ranked) {
    return Status::InvalidArgument(
        "standing queries take streaming statements; ranked statements "
        "(RANK / ORDER BY ... LIMIT) have a definite end and belong on the "
        "QUERY verb");
  }
  const std::string resolved_feed =
      feed_name.empty() ? bound.video : feed_name;
  SVQ_ASSIGN_OR_RETURN(FeedPtr feed, EnsureFeed(resolved_feed, bound.video));

  const uint64_t id =
      next_subscription_id_.fetch_add(1, std::memory_order_relaxed);
  size_t capacity = options_.event_queue_capacity;
  if (options.queue_capacity != 0) {
    capacity = std::min(capacity, options.queue_capacity);
  }
  SubscriptionPtr sub(
      new Subscription(id, resolved_feed, statement, capacity));

  {
    std::lock_guard<std::mutex> lock(feed->mu);
    if (feed->closed) {
      return Status::FailedPrecondition("feed '" + resolved_feed +
                                        "' is closed");
    }
    if (static_cast<int>(feed->subs.size()) >=
        options_.max_subscriptions_per_feed) {
      return Status(StatusCode::kResourceExhausted,
                    "feed '" + resolved_feed + "' is at its subscription "
                    "cap (" +
                        std::to_string(options_.max_subscriptions_per_feed) +
                        ")");
    }
    const models::ModelSuite suite =
        query::ResolveSuiteFor(feed->snapshot->suite, bound);
    core::FrameTable* frames = feed->pool->Frames(
        suite.object_profile, suite.seed, bound.query.AllObjectLabels());
    core::ShotTable* shots = feed->pool->Shots(
        suite.action_profile, suite.seed, bound.query.AllActions());
    ExecutionContext context;
    context.set_cancellation(sub->cancel_.token());
    if (options.timeout_ms > 0) {
      context.set_deadline(ExecutionContext::Clock::now() +
                           std::chrono::milliseconds(options.timeout_ms));
    }
    SVQ_ASSIGN_OR_RETURN(
        sub->engine_,
        core::OnlineEngine::Create(options.mode, bound.query,
                                   feed->snapshot->online_config,
                                   feed->entry->video->layout(), frames,
                                   shots, context));
    feed->subs.push_back(sub);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    subs_.emplace(id, sub);
  }
  subscriptions_opened_.fetch_add(1, std::memory_order_relaxed);
  subscriptions_active_.fetch_add(1, std::memory_order_relaxed);
  return sub;
}

Status StreamDispatcher::Unsubscribe(uint64_t subscription_id) {
  SubscriptionPtr sub;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = subs_.find(subscription_id);
    if (it == subs_.end()) {
      return Status::NotFound("no subscription " +
                              std::to_string(subscription_id));
    }
    sub = it->second;
    subs_.erase(it);
  }
  // Fire cancellation and detach; the feed's dispatch loop prunes the
  // entry at the next clip boundary. Deliberately cheap — safe to call
  // from the server's IO thread on disconnect without blocking behind an
  // in-flight clip dispatch.
  sub->Cancel();
  if (sub->MarkDetached()) {
    subscriptions_active_.fetch_sub(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void StreamDispatcher::DispatchOneLocked(const FeedPtr& feed,
                                         const video::ClipRef& clip,
                                         std::vector<uint64_t>* notify) {
  for (const SubscriptionPtr& sub : feed->subs) {
    if (sub->detached()) continue;
    Status status;
    Subscription::PushOutcome outcome = sub->ProcessClip(clip, &status);
    if (!status.ok()) {
      const Subscription::PushOutcome fail = sub->FailStream(status);
      outcome.pushed += fail.pushed;
      outcome.dropped += fail.dropped;
      if (sub->MarkDetached()) {
        subscriptions_active_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    events_pushed_.fetch_add(static_cast<int64_t>(outcome.pushed),
                             std::memory_order_relaxed);
    events_dropped_.fetch_add(outcome.dropped, std::memory_order_relaxed);
    if (outcome.pushed > 0) notify->push_back(sub->id());
  }
  // A subscription leaving its feed keeps the statistics it left with.
  std::erase_if(feed->subs, [](const SubscriptionPtr& s) {
    if (!s->detached()) return false;
    s->SnapshotStats();
    return true;
  });
  clips_dispatched_.fetch_add(1, std::memory_order_relaxed);
  FoldPoolCountersLocked(feed);
}

void StreamDispatcher::CloseFeedLocked(const FeedPtr& feed,
                                       std::vector<uint64_t>* notify) {
  if (feed->closed) return;
  feed->closed = true;
  for (const SubscriptionPtr& sub : feed->subs) {
    if (!sub->detached()) {
      const Subscription::PushOutcome outcome = sub->FinishStream();
      events_pushed_.fetch_add(static_cast<int64_t>(outcome.pushed),
                               std::memory_order_relaxed);
      events_dropped_.fetch_add(outcome.dropped, std::memory_order_relaxed);
      if (outcome.pushed > 0) notify->push_back(sub->id());
    } else {
      sub->SnapshotStats();
    }
    if (sub->MarkDetached()) {
      subscriptions_active_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  feed->subs.clear();
  FoldPoolCountersLocked(feed);
}

void StreamDispatcher::SnapshotStatsLocked(const FeedPtr& feed) {
  for (const SubscriptionPtr& sub : feed->subs) sub->SnapshotStats();
}

void StreamDispatcher::Notify(const std::vector<uint64_t>& notify) {
  if (!event_callback_) return;
  for (const uint64_t id : notify) event_callback_(id);
}

void StreamDispatcher::FoldPoolCountersLocked(const FeedPtr& feed) {
  const models::InferenceStats run = feed->pool->RunStats();
  const models::InferenceStats charged = feed->pool->ChargedStats();
  model_units_run_.fetch_add(run.units - feed->folded_run.units,
                             std::memory_order_relaxed);
  model_ms_run_.fetch_add(run.simulated_ms - feed->folded_run.simulated_ms,
                          std::memory_order_relaxed);
  model_units_charged_.fetch_add(charged.units - feed->folded_charged.units,
                                 std::memory_order_relaxed);
  model_ms_charged_.fetch_add(
      charged.simulated_ms - feed->folded_charged.simulated_ms,
      std::memory_order_relaxed);
  feed->folded_run = run;
  feed->folded_charged = charged;
}

Result<FeedProgress> StreamDispatcher::FeedClips(const std::string& feed_name,
                                                 int64_t max_clips) {
  if (max_clips < 1) {
    return Status::InvalidArgument("max_clips must be >= 1");
  }
  FeedPtr feed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = feeds_.find(feed_name);
    if (it == feeds_.end()) {
      return Status::NotFound("no feed '" + feed_name + "'");
    }
    feed = it->second;
  }
  FeedProgress progress;
  std::vector<uint64_t> notify;
  {
    std::lock_guard<std::mutex> lock(feed->mu);
    if (feed->closed) {
      return Status::FailedPrecondition("feed '" + feed_name +
                                        "' is closed");
    }
    for (int64_t i = 0; i < max_clips && feed->next_clip < feed->num_clips;
         ++i) {
      const video::ClipRef clip = video::MakeClipRef(
          feed->entry->video->layout(), feed->entry->id, feed->next_clip,
          feed->entry->video->num_frames());
      DispatchOneLocked(feed, clip, &notify);
      ++feed->next_clip;
      ++progress.clips_dispatched;
    }
    // The bound video is exhausted: drain and close so subscribers get
    // their trailing flush + kEndOfStream instead of waiting forever.
    if (feed->next_clip >= feed->num_clips) {
      CloseFeedLocked(feed, &notify);
    } else {
      SnapshotStatsLocked(feed);
    }
    progress.next_clip = feed->next_clip;
    progress.num_clips = feed->num_clips;
    progress.closed = feed->closed;
  }
  if (progress.closed) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = feeds_.find(feed_name);
    if (it != feeds_.end() && it->second == feed) feeds_.erase(it);
  }
  Notify(notify);
  return progress;
}

Status StreamDispatcher::AttachSource(
    const std::string& feed_name, const std::string& video_name,
    std::unique_ptr<video::VideoStream> source) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must be set");
  }
  SVQ_ASSIGN_OR_RETURN(FeedPtr feed, EnsureFeed(feed_name, video_name));
  {
    std::lock_guard<std::mutex> lock(feed->mu);
    if (feed->closed) {
      return Status::FailedPrecondition("feed '" + feed_name +
                                        "' is closed");
    }
    if (feed->source_attached) {
      return Status::FailedPrecondition("feed '" + feed_name +
                                        "' already has a source attached");
    }
    if (source->video_id() != feed->entry->id) {
      return Status::InvalidArgument(
          "source streams video id " +
          std::to_string(source->video_id()) + " but feed '" + feed_name +
          "' is bound to video id " + std::to_string(feed->entry->id));
    }
    feed->source_attached = true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    source_tasks_.push_back(SourceTask{feed_name, std::move(source)});
  }
  worker_cv_.notify_one();
  return Status::OK();
}

Status StreamDispatcher::CloseFeed(const std::string& feed_name) {
  FeedPtr feed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = feeds_.find(feed_name);
    if (it == feeds_.end()) {
      return Status::NotFound("no feed '" + feed_name + "'");
    }
    feed = it->second;
  }
  std::vector<uint64_t> notify;
  {
    std::lock_guard<std::mutex> lock(feed->mu);
    CloseFeedLocked(feed, &notify);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = feeds_.find(feed_name);
    if (it != feeds_.end() && it->second == feed) feeds_.erase(it);
  }
  Notify(notify);
  return Status::OK();
}

bool StreamDispatcher::HasFeed(const std::string& feed_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return feeds_.count(feed_name) > 0;
}

SubscriptionPtr StreamDispatcher::Find(uint64_t subscription_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(subscription_id);
  return it == subs_.end() ? nullptr : it->second;
}

DispatcherStats StreamDispatcher::Stats() const {
  DispatcherStats stats;
  stats.feeds_created = feeds_created_.load(std::memory_order_relaxed);
  stats.subscriptions_opened =
      subscriptions_opened_.load(std::memory_order_relaxed);
  stats.subscriptions_active =
      subscriptions_active_.load(std::memory_order_relaxed);
  stats.clips_dispatched = clips_dispatched_.load(std::memory_order_relaxed);
  stats.events_pushed = events_pushed_.load(std::memory_order_relaxed);
  stats.events_dropped = events_dropped_.load(std::memory_order_relaxed);
  stats.model_units_run = model_units_run_.load(std::memory_order_relaxed);
  stats.model_units_charged =
      model_units_charged_.load(std::memory_order_relaxed);
  stats.model_ms_run = model_ms_run_.load(std::memory_order_relaxed);
  stats.model_ms_charged =
      model_ms_charged_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.feeds_open = static_cast<int64_t>(feeds_.size());
  }
  return stats;
}

void StreamDispatcher::WorkerLoop() {
  for (;;) {
    SourceTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      worker_cv_.wait(lock, [this] {
        return stop_worker_ || !source_tasks_.empty();
      });
      if (stop_worker_) return;
      task = std::move(source_tasks_.front());
      source_tasks_.pop_front();
    }
    FeedPtr feed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = feeds_.find(task.feed_name);
      if (it != feeds_.end()) feed = it->second;
    }
    if (feed == nullptr) continue;  // feed closed before the pump started
    bool feed_closed = false;
    while (!feed_closed) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_worker_) return;
      }
      std::optional<video::ClipRef> clip = task.source->NextClip();
      std::vector<uint64_t> notify;
      {
        std::lock_guard<std::mutex> lock(feed->mu);
        if (feed->closed) {
          feed_closed = true;
        } else if (!clip.has_value()) {
          // Source exhausted: drain and close.
          CloseFeedLocked(feed, &notify);
          feed_closed = true;
        } else {
          DispatchOneLocked(feed, *clip, &notify);
          SnapshotStatsLocked(feed);
          feed->next_clip = clip->clip + 1;
        }
      }
      if (feed_closed) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = feeds_.find(task.feed_name);
        if (it != feeds_.end() && it->second == feed) feeds_.erase(it);
      }
      Notify(notify);
    }
  }
}

}  // namespace svq::stream
