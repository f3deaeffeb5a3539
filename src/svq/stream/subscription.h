#ifndef SVQ_STREAM_SUBSCRIPTION_H_
#define SVQ_STREAM_SUBSCRIPTION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "svq/common/execution_context.h"
#include "svq/core/online_engine.h"
#include "svq/stream/stream_event.h"

namespace svq::stream {

class StreamDispatcher;

/// One standing query registered on a feed: an OnlineEngine fed every
/// dispatched clip, plus a bounded event queue the owner drains with
/// Poll(). Created by StreamDispatcher::Subscribe; the dispatcher drives
/// the engine, consumers only ever Poll/Cancel.
///
/// Thread safety: Poll/Cancel/stats/finished are safe from any thread and
/// may race dispatch. The engine itself is only ever touched by the
/// dispatch path, which the owning feed serializes.
class Subscription {
 public:
  ~Subscription();

  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  uint64_t id() const { return id_; }
  const std::string& feed() const { return feed_; }
  const std::string& statement() const { return statement_; }

  /// Drains up to `max` queued events (0 = all), oldest first.
  std::deque<StreamEvent> Poll(size_t max = 0);

  /// Queued events right now.
  size_t pending() const;

  /// True once a terminal event (kEndOfStream / kError) has been queued —
  /// no further events will ever arrive.
  bool finished() const;

  /// Total events discarded by the lag/drop policy so far.
  int64_t dropped_total() const;

  /// Fires the standing query's CancellationSource: the next dispatched
  /// clip fails with kCancelled and a kError terminal event is queued.
  /// This is what a client disconnect triggers server-side.
  void Cancel() { cancel_.Cancel(); }

  /// Engine statistics as of the last dispatched batch: the dispatcher
  /// copies them once per batch it feeds, at end of stream, and when the
  /// subscription leaves its feed.
  core::OnlineStats stats() const;

 private:
  friend class StreamDispatcher;

  Subscription(uint64_t id, std::string feed, std::string statement,
               size_t queue_capacity);

  /// Dispatch-path internals (feed lock held by the dispatcher); all
  /// report how many events were newly queued and how many older ones the
  /// drop policy discarded.
  struct PushOutcome {
    size_t pushed = 0;
    int64_t dropped = 0;
  };
  PushOutcome ProcessClip(const video::ClipRef& clip, Status* status);
  /// End-of-stream: flushes the trailing open sequence
  /// (OnlineEngine::Finish), copies the final statistics and queues
  /// kEndOfStream.
  PushOutcome FinishStream();
  /// Copies the engine's statistics into what stats() reports.
  void SnapshotStats();
  /// Terminal failure: queues kError with `status`.
  PushOutcome FailStream(Status status);

  bool detached() const {
    return detached_.load(std::memory_order_acquire);
  }
  /// Returns false when the subscription was already detached.
  bool MarkDetached() {
    return !detached_.exchange(true, std::memory_order_acq_rel);
  }

  const uint64_t id_;
  const std::string feed_;
  const std::string statement_;

  CancellationSource cancel_;

  /// The standing query's engine, set by the dispatcher right after
  /// construction. It evaluates from the feed pool's shared tables, so the
  /// dispatcher runs it only while the subscription is on its feed.
  std::unique_ptr<core::OnlineEngine> engine_;

  /// Lazily set once the subscription leaves its feed (cancel, error, or
  /// feed close); the dispatch loop prunes detached subscriptions.
  std::atomic<bool> detached_{false};

  mutable std::mutex mu_;  // guards queue_ + last_stats_ below
  EventQueue queue_;
  int64_t dropped_total_ = 0;
  core::OnlineStats last_stats_;
};

using SubscriptionPtr = std::shared_ptr<Subscription>;

}  // namespace svq::stream

#endif  // SVQ_STREAM_SUBSCRIPTION_H_
