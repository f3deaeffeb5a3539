#ifndef SVQ_SERVER_WIRE_H_
#define SVQ_SERVER_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "svq/common/status.h"
#include "svq/observability/metrics.h"

namespace svq::server {

/// The svqd framing protocol (docs/server.md). Every message is one frame:
///
///   [u32 payload_length (LE)] [payload]
///   payload := [u8 version] [u8 message_type] [message body]
///
/// All integers are little-endian and fixed width; strings are a u32 length
/// followed by raw bytes; doubles travel as their IEEE-754 bit pattern in a
/// u64. The payload length excludes the 4-byte header. Frames above the
/// receiver's configured maximum are a protocol error (the stream cannot be
/// resynchronized and the connection is closed), so a hostile peer cannot
/// make the server buffer unboundedly.
///
/// Version history: v1 — initial protocol; v2 — STATS responses carry the
/// flattened metrics-registry entries after the fixed counter block;
/// v3 — EXPLAIN verb (plan text for a statement, optionally executed
/// under ANALYZE); v4 — streaming verbs (SUBSCRIBE / FEED / UNSUBSCRIBE)
/// plus server-pushed EVENT frames for standing queries
/// (docs/streaming.md); v5 — the STATS response is the metrics-registry
/// snapshot alone, every histogram with all of its buckets.
inline constexpr uint8_t kWireVersion = 5;
inline constexpr size_t kFrameHeaderBytes = 4;
inline constexpr size_t kDefaultMaxFrameBytes = 1 << 20;

/// Frame payload discriminator (second payload byte).
enum class MessageType : uint8_t {
  kQueryRequest = 1,    ///< QUERY verb: statement + per-request timeout
  kStatsRequest = 2,    ///< STATS verb: the server's metrics registry
  kQueryResponse = 3,
  kStatsResponse = 4,
  kExplainRequest = 5,  ///< EXPLAIN verb: render the statement's plan
  kExplainResponse = 6,
  // v4 streaming verbs (docs/streaming.md). EVENT frames are the one
  // server-initiated message of the protocol: they may arrive at any time
  // between a subscriber's request/response pairs.
  kSubscribeRequest = 7,    ///< SUBSCRIBE verb: register a standing query
  kSubscribeResponse = 8,
  kFeedRequest = 9,         ///< FEED verb: dispatch clips into a feed
  kFeedResponse = 10,
  kEvent = 11,              ///< server push: one subscription event
  kUnsubscribeRequest = 12, ///< UNSUBSCRIBE verb: tear down a subscription
  kUnsubscribeResponse = 13,
};

// ---------------------------------------------------------------------------
// Low-level append/read primitives (exposed for tests).

void AppendU8(std::string* out, uint8_t value);
void AppendU32(std::string* out, uint32_t value);
void AppendU64(std::string* out, uint64_t value);
void AppendI64(std::string* out, int64_t value);
void AppendF64(std::string* out, double value);
void AppendString(std::string* out, std::string_view value);

/// Bounds-checked sequential reader over an untrusted payload. Every Read*
/// returns Corruption instead of overrunning; a decode is complete only
/// when the caller also verifies AtEnd().
class WireCursor {
 public:
  explicit WireCursor(std::string_view bytes) : bytes_(bytes) {}

  Status ReadU8(uint8_t* value);
  Status ReadU32(uint32_t* value);
  Status ReadU64(uint64_t* value);
  Status ReadI64(int64_t* value);
  Status ReadF64(double* value);
  Status ReadString(std::string* value);

  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  Status Need(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Messages.

/// QUERY verb request: one dialect statement plus the client's deadline,
/// which the server turns into an ExecutionContext deadline so an expired
/// request is cancelled server-side instead of running to completion.
struct QueryRequest {
  /// Client-chosen correlation id, echoed verbatim in the response.
  uint64_t request_id = 0;
  /// Statement text in the SVQ-ACT dialect (docs/QUERY_LANGUAGE.md).
  std::string statement;
  /// Per-request budget in milliseconds; 0 means unlimited.
  uint32_t timeout_ms = 0;
};

/// One result sequence. Ranked statements carry certified score bounds;
/// streaming statements report intervals only (bounds are zero).
struct WireSequence {
  int64_t begin = 0;
  int64_t end = 0;
  double lower_bound = 0.0;
  double upper_bound = 0.0;

  friend bool operator==(const WireSequence&, const WireSequence&) = default;
};

/// Per-query accounting mirrored over the wire: the engine-side storage /
/// runtime / timing counters, plus the two server-side components of the
/// observed latency (time queued behind admission control and time
/// executing).
struct WireQueryMetrics {
  int64_t sorted_accesses = 0;
  int64_t random_accesses = 0;
  int64_t sequential_reads = 0;
  double virtual_ms = 0.0;
  double algorithm_ms = 0.0;
  double model_ms = 0.0;
  int64_t clips_processed = 0;
  int64_t threads_used = 1;
  int64_t tasks_executed = 0;
  double fanout_ms = 0.0;
  double server_queue_ms = 0.0;
  double server_exec_ms = 0.0;

  friend bool operator==(const WireQueryMetrics&,
                         const WireQueryMetrics&) = default;
};

/// QUERY verb response. `status` is the statement's full outcome
/// (kResourceExhausted = rejected by admission control before execution;
/// kDeadlineExceeded / kCancelled = terminated mid-execution); sequences
/// and metrics are meaningful only when it is OK.
struct QueryResponse {
  uint64_t request_id = 0;
  Status status;
  bool ranked = false;
  std::vector<WireSequence> sequences;
  WireQueryMetrics metrics;
};

/// EXPLAIN verb request (v3): render the cost-based plan for a statement
/// against the server's current catalog snapshot. With `analyze` the
/// statement is also executed (through admission control, like QUERY) and
/// actual rows/timings are rendered beside the estimates.
struct ExplainRequest {
  /// Client-chosen correlation id, echoed verbatim in the response.
  uint64_t request_id = 0;
  /// Statement text; a leading EXPLAIN [ANALYZE] prefix is accepted too.
  std::string statement;
  /// EXPLAIN ANALYZE: execute and annotate with actuals.
  bool analyze = false;
  /// Per-request budget in milliseconds; 0 means unlimited. Only
  /// meaningful under `analyze`, where the statement really runs.
  uint32_t timeout_ms = 0;
};

/// EXPLAIN verb response: the rendered plan text, meaningful only when
/// `status` is OK.
struct ExplainResponse {
  uint64_t request_id = 0;
  Status status;
  std::string text;
};

/// SUBSCRIBE verb request (v4): register a standing streaming statement
/// against a named feed. The server answers with a SubscribeResponse and
/// then pushes Event frames as the feed advances (docs/streaming.md).
struct SubscribeRequest {
  /// Client-chosen correlation id, echoed verbatim in the response.
  uint64_t request_id = 0;
  /// Feed name; empty means "the statement's FROM video" — the server
  /// creates the feed over that video on first use.
  std::string feed;
  /// Standing statement text; must be a streaming (non-ranked) statement.
  std::string statement;
  /// Online engine mode: 0 = SVAQ (static background), 1 = SVAQD
  /// (drift-adaptive). Other values are rejected.
  uint8_t mode = 1;
  /// Per-subscriber event queue capacity; 0 means the server default. A
  /// slow consumer overflowing this queue receives gap markers instead of
  /// stalling the feed.
  uint32_t queue_capacity = 0;
  /// Subscription lifetime budget in milliseconds; 0 means unlimited.
  uint32_t timeout_ms = 0;
};

/// SUBSCRIBE verb response. `subscription_id` and `feed` are meaningful
/// only when `status` is OK; the id tags every subsequent Event frame and
/// is what UNSUBSCRIBE takes.
struct SubscribeResponse {
  uint64_t request_id = 0;
  Status status;
  uint64_t subscription_id = 0;
  /// The resolved feed name (echoes the request's, or the statement's
  /// video when the request left it empty).
  std::string feed;
};

/// FEED verb request (v4): dispatch up to `clip_count` clips of the feed's
/// source video into the feed, fanning each clip out to every standing
/// subscription. Exhausting the source closes the feed and flushes
/// end-of-stream events to all subscribers.
struct FeedRequest {
  uint64_t request_id = 0;
  std::string feed;
  /// Number of clips to dispatch; must be >= 1.
  int64_t clip_count = 0;
};

/// FEED verb response: how far the feed advanced.
struct FeedResponse {
  uint64_t request_id = 0;
  Status status;
  /// Clips actually dispatched by this request.
  int64_t clips_dispatched = 0;
  /// Cursor after the dispatch (next clip index to be fed).
  int64_t next_clip = 0;
  /// The source was exhausted and the feed closed; subscribers have been
  /// sent their end-of-stream events.
  bool feed_closed = false;
};

/// Server-pushed subscription event (v4) — the only server-initiated
/// frame. `kind` mirrors stream::StreamEvent::Kind: 1 = completed result
/// sequence [begin, end); 2 = gap marker (`dropped` events were evicted
/// from a lagging subscriber's queue; `status` is kResourceExhausted);
/// 3 = end of stream; 4 = stream error (`status` says why). Kinds 3 and 4
/// are terminal — no further events follow for this subscription.
struct EventFrame {
  uint64_t subscription_id = 0;
  uint8_t kind = 0;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t dropped = 0;
  Status status;
};

/// UNSUBSCRIBE verb request (v4): tear down a subscription. Pending events
/// are flushed to the client before the response frame, so everything the
/// subscription produced is delivered ahead of the acknowledgement.
struct UnsubscribeRequest {
  uint64_t request_id = 0;
  uint64_t subscription_id = 0;
};

struct UnsubscribeResponse {
  uint64_t request_id = 0;
  Status status;
};

// ---------------------------------------------------------------------------
// Frame encode/decode.

/// Builds a complete frame (header + version + type + body).
std::string EncodeFrame(MessageType type, std::string_view body);

std::string EncodeQueryRequest(const QueryRequest& request);
std::string EncodeStatsRequest();
std::string EncodeQueryResponse(const QueryResponse& response);
/// The STATS response body (v5): the snapshot's counters, gauges and
/// histograms, each section a u32 count of entries in name order. A
/// counter or gauge is its name and f64 value; a histogram is its name,
/// i64 count, f64 sum_micros, u32 bucket count (always kHistogramBuckets)
/// and that many i64 buckets. Help strings stay home.
std::string EncodeStatsResponse(const observability::MetricsSnapshot& stats);
std::string EncodeExplainRequest(const ExplainRequest& request);
std::string EncodeExplainResponse(const ExplainResponse& response);
std::string EncodeSubscribeRequest(const SubscribeRequest& request);
std::string EncodeSubscribeResponse(const SubscribeResponse& response);
std::string EncodeFeedRequest(const FeedRequest& request);
std::string EncodeFeedResponse(const FeedResponse& response);
std::string EncodeEvent(const EventFrame& event);
std::string EncodeUnsubscribeRequest(const UnsubscribeRequest& request);
std::string EncodeUnsubscribeResponse(const UnsubscribeResponse& response);

/// Reads the version and type bytes of a complete frame payload and leaves
/// `cursor` positioned at the body. Errors: Corruption (truncated);
/// Unimplemented (version mismatch — a newer peer).
Status DecodePayloadHeader(WireCursor* cursor, MessageType* type);

/// Body decoders; `cursor` must be positioned past the payload header.
/// Every decoder verifies the body is fully consumed.
Status DecodeQueryRequest(WireCursor* cursor, QueryRequest* request);
Status DecodeQueryResponse(WireCursor* cursor, QueryResponse* response);
/// Corruption also when a section's names do not strictly increase, so
/// every decoded snapshot keeps MetricsSnapshot's name order.
Status DecodeStatsResponse(WireCursor* cursor,
                           observability::MetricsSnapshot* stats);
Status DecodeExplainRequest(WireCursor* cursor, ExplainRequest* request);
Status DecodeExplainResponse(WireCursor* cursor, ExplainResponse* response);
Status DecodeSubscribeRequest(WireCursor* cursor, SubscribeRequest* request);
Status DecodeSubscribeResponse(WireCursor* cursor,
                               SubscribeResponse* response);
Status DecodeFeedRequest(WireCursor* cursor, FeedRequest* request);
Status DecodeFeedResponse(WireCursor* cursor, FeedResponse* response);
Status DecodeEvent(WireCursor* cursor, EventFrame* event);
Status DecodeUnsubscribeRequest(WireCursor* cursor,
                                UnsubscribeRequest* request);
Status DecodeUnsubscribeResponse(WireCursor* cursor,
                                 UnsubscribeResponse* response);

// ---------------------------------------------------------------------------
// Incremental frame assembly (the read path of both peers).

/// Accumulates raw stream bytes and yields complete frame payloads.
/// Enforces the frame-size cap *from the header*, before buffering the
/// payload, so a hostile length prefix cannot balloon memory.
class FrameAssembler {
 public:
  explicit FrameAssembler(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Buffers `n` raw bytes from the stream.
  void Feed(const char* data, size_t n);

  /// Extracts the next complete payload if one is buffered. Returns OK and
  /// sets `*has_frame` accordingly; returns InvalidArgument when the stream
  /// is unrecoverable (frame longer than the cap) — the connection must be
  /// dropped.
  Status Next(std::string* payload, bool* has_frame);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;
};

}  // namespace svq::server

#endif  // SVQ_SERVER_WIRE_H_
