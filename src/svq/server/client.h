#ifndef SVQ_SERVER_CLIENT_H_
#define SVQ_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "svq/common/result.h"
#include "svq/server/wire.h"

namespace svq::server {

/// Starts a non-blocking TCP connect to `host:port` (TCP_NODELAY set);
/// `*connected` reports a connect that completed at once, otherwise the
/// socket turns writable when the handshake ends (SO_ERROR says how).
Status Dial(const std::string& host, uint16_t port, int* fd,
            bool* connected);

/// A blocking wire-level client for svqd. One connection, one outstanding
/// request at a time (the protocol allows pipelining; this client does
/// not). Not thread safe — use one Client per thread.
///
/// `Execute` returns the transport outcome as the Result's status and the
/// *query* outcome inside QueryResponse::status: a query that the server
/// rejected (kResourceExhausted) or expired (kDeadlineExceeded) is a
/// successful round trip carrying a non-OK query status.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Movable: ownership of the connection transfers; the source is left
  /// disconnected.
  Client(Client&& other) noexcept
      : fd_(other.fd_),
        next_request_id_(other.next_request_id_),
        assembler_(std::move(other.assembler_)),
        event_stash_(std::move(other.event_stash_)) {
    other.fd_ = -1;
  }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      next_request_id_ = other.next_request_id_;
      assembler_ = std::move(other.assembler_);
      event_stash_ = std::move(other.event_stash_);
      other.fd_ = -1;
    }
    return *this;
  }

  /// Connects to `host:port`. `recv_timeout` bounds every later receive so
  /// a dead server surfaces as IOError instead of a hang; it must comfortably
  /// exceed the longest query timeout you plan to issue. `connect_timeout`
  /// bounds the TCP handshake itself (non-blocking connect + poll) so a
  /// black-holed address surfaces as IOError instead of hanging for the
  /// kernel's SYN-retry budget; zero keeps the historical unbounded
  /// blocking connect.
  Status Connect(const std::string& host, uint16_t port,
                 std::chrono::milliseconds recv_timeout =
                     std::chrono::milliseconds(120000),
                 std::chrono::milliseconds connect_timeout =
                     std::chrono::milliseconds(0));

  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Runs one statement with a per-request timeout (0 = unlimited). The
  /// timeout travels to the server and becomes the query's
  /// ExecutionContext deadline.
  Result<QueryResponse> Execute(const std::string& statement,
                                uint32_t timeout_ms = 0);

  /// The STATS verb: the server's metrics-registry snapshot (help strings
  /// are not sent). Through svq_router it is the cluster's: every
  /// backend's snapshot merged with the router's own.
  Result<observability::MetricsSnapshot> GetStats();

  /// The EXPLAIN verb (wire v3): renders the statement's cost-based plan
  /// against the server's current catalog snapshot. With `analyze` the
  /// statement executes server-side (through admission control, same as
  /// Execute) and actuals are rendered beside the estimates; `timeout_ms`
  /// bounds that execution (0 = unlimited). Like Execute, the transport
  /// outcome is the Result's status and the explain outcome lives in
  /// ExplainResponse::status.
  Result<ExplainResponse> Explain(const std::string& statement,
                                  bool analyze = false,
                                  uint32_t timeout_ms = 0);

  // --- Streaming verbs (wire v4, docs/streaming.md). Once a subscription
  // is open, the server may push EVENT frames at any time; frames that
  // arrive while this client awaits some other response are stashed and
  // surfaced by NextEvent() in arrival order.

  /// Registers a standing streaming statement against `feed` (empty = the
  /// statement's FROM video). `mode` is 0 for SVAQ, 1 for SVAQD;
  /// `queue_capacity` 0 takes the server default; `timeout_ms` bounds the
  /// subscription's lifetime (0 = unlimited). The subscription outcome is
  /// in SubscribeResponse::status.
  Result<SubscribeResponse> Subscribe(const std::string& feed,
                                      const std::string& statement,
                                      uint8_t mode = 1,
                                      uint32_t queue_capacity = 0,
                                      uint32_t timeout_ms = 0);

  /// The FEED verb: dispatches up to `clip_count` clips of the feed's
  /// source video to every standing subscription on the feed.
  Result<FeedResponse> FeedClips(const std::string& feed, int64_t clip_count);

  /// Tears down a subscription; every event it produced is delivered (and
  /// stashed here) before the acknowledgement.
  Result<UnsubscribeResponse> Unsubscribe(uint64_t subscription_id);

  /// The next server-pushed event: from the stash if one is buffered,
  /// otherwise blocks on the socket (bounded by the connect recv_timeout).
  Result<EventFrame> NextEvent();

  /// Events buffered while awaiting other responses.
  size_t stashed_events() const { return event_stash_.size(); }

 private:
  Status SendAll(const std::string& frame);
  /// Receives exactly one complete frame payload.
  Status RecvPayload(std::string* payload);
  /// Receives payloads until one of `expected` type arrives, stashing any
  /// EVENT frames pushed in between. `payload` holds the expected frame.
  Status RecvExpected(MessageType expected, std::string* payload);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameAssembler assembler_;
  std::deque<EventFrame> event_stash_;
};

}  // namespace svq::server

#endif  // SVQ_SERVER_CLIENT_H_
