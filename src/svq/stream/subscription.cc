#include "svq/stream/subscription.h"

#include <utility>

namespace svq::stream {

Subscription::Subscription(uint64_t id, std::string feed,
                           std::string statement, size_t queue_capacity)
    : id_(id),
      feed_(std::move(feed)),
      statement_(std::move(statement)),
      queue_(queue_capacity) {}

Subscription::~Subscription() = default;

std::deque<StreamEvent> Subscription::Poll(size_t max) {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.Pop(max);
}

size_t Subscription::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool Subscription::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.terminal_queued();
}

int64_t Subscription::dropped_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_total_;
}

core::OnlineStats Subscription::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_stats_;
}

Subscription::PushOutcome Subscription::ProcessClip(
    const video::ClipRef& clip, Status* status) {
  PushOutcome outcome;
  *status = engine_->ProcessClip(clip);
  if (!status->ok()) return outcome;
  const std::vector<video::Interval> completed = engine_->TakeCompleted();
  std::lock_guard<std::mutex> lock(mu_);
  for (const video::Interval& interval : completed) {
    StreamEvent event;
    event.kind = StreamEvent::Kind::kSequence;
    event.sequence = interval;
    outcome.dropped += queue_.Push(std::move(event));
    ++outcome.pushed;
  }
  dropped_total_ += outcome.dropped;
  return outcome;
}

Subscription::PushOutcome Subscription::FinishStream() {
  PushOutcome outcome;
  std::vector<video::Interval> completed;
  if (engine_ != nullptr) {
    engine_->Finish();
    completed = engine_->TakeCompleted();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.terminal_queued()) return outcome;
  if (engine_ != nullptr) last_stats_ = engine_->Snapshot();
  for (const video::Interval& interval : completed) {
    StreamEvent event;
    event.kind = StreamEvent::Kind::kSequence;
    event.sequence = interval;
    outcome.dropped += queue_.Push(std::move(event));
    ++outcome.pushed;
  }
  StreamEvent end;
  end.kind = StreamEvent::Kind::kEndOfStream;
  outcome.dropped += queue_.Push(std::move(end));
  ++outcome.pushed;
  dropped_total_ += outcome.dropped;
  return outcome;
}

void Subscription::SnapshotStats() {
  if (engine_ == nullptr) return;
  core::OnlineStats stats = engine_->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  last_stats_ = std::move(stats);
}

Subscription::PushOutcome Subscription::FailStream(Status status) {
  PushOutcome outcome;
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.terminal_queued()) return outcome;
  StreamEvent event;
  event.kind = StreamEvent::Kind::kError;
  event.status = std::move(status);
  outcome.dropped += queue_.Push(std::move(event));
  ++outcome.pushed;
  dropped_total_ += outcome.dropped;
  return outcome;
}

}  // namespace svq::stream
