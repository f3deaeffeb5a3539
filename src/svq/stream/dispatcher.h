#ifndef SVQ_STREAM_DISPATCHER_H_
#define SVQ_STREAM_DISPATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svq/common/result.h"
#include "svq/core/engine.h"
#include "svq/stream/shared_models.h"
#include "svq/stream/subscription.h"
#include "svq/video/video_stream.h"

namespace svq::stream {

/// Dispatcher-wide tunables.
struct StreamOptions {
  /// Default per-subscription event queue capacity (the lag/drop policy
  /// bound; docs/streaming.md). Subscribers may request less, never more.
  size_t event_queue_capacity = 256;
  /// Standing queries per feed beyond this are rejected with
  /// kResourceExhausted.
  int max_subscriptions_per_feed = 64;
};

/// Point-in-time dispatcher counters (monotonic since construction, except
/// the two gauges).
struct DispatcherStats {
  int64_t feeds_created = 0;
  int64_t feeds_open = 0;  ///< gauge
  int64_t subscriptions_opened = 0;
  int64_t subscriptions_active = 0;  ///< gauge
  int64_t clips_dispatched = 0;
  int64_t events_pushed = 0;
  int64_t events_dropped = 0;
  /// Shared-inference accounting: units/ms the shared models actually ran
  /// vs. what dedicated per-query models would have run. The difference is
  /// the saving.
  int64_t model_units_run = 0;
  int64_t model_units_charged = 0;
  double model_ms_run = 0.0;
  double model_ms_charged = 0.0;
};

/// Per-subscription knobs for StreamDispatcher::Subscribe.
struct SubscribeOptions {
  core::OnlineEngine::Mode mode = core::OnlineEngine::Mode::kSvaqd;
  /// 0 = dispatcher default; larger values are clamped to it.
  size_t queue_capacity = 0;
  /// Lifetime bound of the standing query in ms; 0 = unbounded. On expiry
  /// the next dispatched clip fails the query with kDeadlineExceeded and a
  /// kError terminal event is queued.
  uint32_t timeout_ms = 0;
};

/// Cursor state of one feed after a FeedClips call.
struct FeedProgress {
  int64_t clips_dispatched = 0;
  int64_t next_clip = 0;
  int64_t num_clips = 0;
  /// The feed reached the end of its bound video and has been drained
  /// (subscribers got their trailing flush + kEndOfStream).
  bool closed = false;
};

/// Continuous-query multiplexer (docs/streaming.md): standing SVAQ/SVAQD
/// statements subscribe to a named live feed; clips dispatched into the
/// feed run each distinct model once (SharedModelPool) and fan out to
/// every subscribed engine; completed result sequences surface as events
/// in each subscription's bounded queue.
///
/// A feed is bound to a registered video of the engine's catalog — the
/// snapshot is pinned at feed creation, so every standing query on the
/// feed sees one consistent catalog view for its whole life, and all
/// co-located subscribers read the same process-wide critical-value
/// tables (core::CriticalValueTable). Clips are dispatched either
/// synchronously (FeedClips — the wire FEED verb) or by the dispatcher
/// worker pumping an attached VideoStream source. When the
/// cursor reaches the end of the bound video the feed drains: every
/// subscriber's engine is Finish()ed (trailing open sequence flushed),
/// kEndOfStream is queued, and the feed closes.
///
/// Threading: dispatch is serialized per feed (distinct feeds dispatch
/// concurrently); Subscribe/Unsubscribe/Poll may run from any thread. The
/// event callback is invoked WITHOUT any dispatcher or feed lock held, so
/// it may re-enter the dispatcher or take unrelated locks freely.
class StreamDispatcher {
 public:
  /// Called after dispatch queues >= 1 new event on a subscription; the
  /// server uses it to push EVENT frames. May be invoked from whichever
  /// thread dispatched the clip (a FeedClips caller or the worker).
  using EventCallback = std::function<void(uint64_t subscription_id)>;

  /// `engine` is borrowed and must outlive the dispatcher.
  StreamDispatcher(core::VideoQueryEngine* engine, StreamOptions options = {});
  ~StreamDispatcher();

  StreamDispatcher(const StreamDispatcher&) = delete;
  StreamDispatcher& operator=(const StreamDispatcher&) = delete;

  /// Must be set before any clip is dispatched (not thread safe against
  /// dispatch). Optional — in-process consumers can simply Poll.
  void set_event_callback(EventCallback callback);

  /// Registers a standing query. `feed_name` may be empty, in which case
  /// the statement's source video names the feed. The feed is created on
  /// first use, pinning the engine's current snapshot; an existing feed
  /// must be bound to the statement's video. Errors: InvalidArgument
  /// (parse/bind failure, ranked statement), NotFound (video not
  /// registered), FailedPrecondition (feed closed / bound elsewhere),
  /// kResourceExhausted (per-feed subscription cap).
  Result<SubscriptionPtr> Subscribe(const std::string& feed_name,
                                    const std::string& statement,
                                    const SubscribeOptions& options = {});

  /// Cancels and detaches a subscription. Queued events stay pollable;
  /// no terminal event is added (the consumer asked to stop). Errors:
  /// NotFound.
  Status Unsubscribe(uint64_t subscription_id);

  /// Dispatches up to `max_clips` clips from the feed's cursor on the
  /// calling thread, draining and closing the feed when the bound video
  /// ends. Errors: NotFound (no such feed), InvalidArgument
  /// (max_clips < 1). A feed that was already closed returns
  /// FailedPrecondition.
  Result<FeedProgress> FeedClips(const std::string& feed_name,
                                 int64_t max_clips);

  /// Hands a live source to the dispatcher worker, which pumps its clips
  /// into the feed until the source ends, then drains and closes the feed.
  /// The feed is created if absent, bound to `video_name` (the source's
  /// clips must come from that video). Errors: NotFound,
  /// FailedPrecondition (feed closed or already has a source attached).
  Status AttachSource(const std::string& feed_name,
                      const std::string& video_name,
                      std::unique_ptr<video::VideoStream> source);

  /// Drains and closes a feed now: subscribers get their trailing flush +
  /// kEndOfStream. Errors: NotFound.
  Status CloseFeed(const std::string& feed_name);

  bool HasFeed(const std::string& feed_name) const;

  /// The subscription with this id, or nullptr.
  SubscriptionPtr Find(uint64_t subscription_id) const;

  DispatcherStats Stats() const;

 private:
  struct Feed {
    std::string name;
    core::SnapshotPtr snapshot;
    const core::CatalogSnapshot::Entry* entry = nullptr;
    std::unique_ptr<SharedModelPool> pool;

    /// Serializes dispatch and membership changes on this feed.
    std::mutex mu;
    std::vector<SubscriptionPtr> subs;
    int64_t next_clip = 0;
    int64_t num_clips = 0;
    bool closed = false;
    bool source_attached = false;

    /// Pool accounting already folded into the dispatcher counters
    /// (guarded by mu; see FoldPoolCountersLocked).
    models::InferenceStats folded_run;
    models::InferenceStats folded_charged;
  };
  using FeedPtr = std::shared_ptr<Feed>;

  /// Finds or creates the feed bound to `video_name` (mu_ taken inside).
  Result<FeedPtr> EnsureFeed(const std::string& feed_name,
                             const std::string& video_name);

  /// Dispatches one clip to every live subscription (feed->mu held).
  /// Appends subscriptions with fresh events to `notify`.
  void DispatchOneLocked(const FeedPtr& feed, const video::ClipRef& clip,
                         std::vector<uint64_t>* notify);

  /// Drains + closes the feed (feed->mu held); fills `notify`.
  void CloseFeedLocked(const FeedPtr& feed, std::vector<uint64_t>* notify);

  /// Copies every attached subscription's engine statistics for
  /// Subscription::stats() (feed->mu held): once per batch, not per clip.
  void SnapshotStatsLocked(const FeedPtr& feed);

  /// Invokes the event callback for each id, with no locks held.
  void Notify(const std::vector<uint64_t>& notify);

  /// Folds one feed pool's inference accounting into the dispatcher-wide
  /// counters as a delta since the previous fold (feed->mu held).
  void FoldPoolCountersLocked(const FeedPtr& feed);

  void WorkerLoop();

  core::VideoQueryEngine* const engine_;
  const StreamOptions options_;
  EventCallback event_callback_;

  mutable std::mutex mu_;  // guards feeds_, subs_, worker queue
  std::map<std::string, FeedPtr> feeds_;
  std::map<uint64_t, SubscriptionPtr> subs_;
  std::atomic<uint64_t> next_subscription_id_{1};

  struct SourceTask {
    std::string feed_name;
    std::unique_ptr<video::VideoStream> source;
  };
  std::deque<SourceTask> source_tasks_;
  std::condition_variable worker_cv_;
  bool stop_worker_ = false;
  std::thread worker_;

  // Counters (relaxed: read by Stats, written by dispatch paths).
  std::atomic<int64_t> feeds_created_{0};
  std::atomic<int64_t> subscriptions_opened_{0};
  std::atomic<int64_t> subscriptions_active_{0};
  std::atomic<int64_t> clips_dispatched_{0};
  std::atomic<int64_t> events_pushed_{0};
  std::atomic<int64_t> events_dropped_{0};
  std::atomic<int64_t> model_units_run_{0};
  std::atomic<int64_t> model_units_charged_{0};
  std::atomic<double> model_ms_run_{0.0};
  std::atomic<double> model_ms_charged_{0.0};
};

}  // namespace svq::stream

#endif  // SVQ_STREAM_DISPATCHER_H_
