#include "svq/server/wire.h"

#include <bit>

namespace svq::server {

// ---------------------------------------------------------------------------
// Primitives.

void AppendU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

void AppendU32(std::string* out, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void AppendI64(std::string* out, int64_t value) {
  AppendU64(out, static_cast<uint64_t>(value));
}

void AppendF64(std::string* out, double value) {
  AppendU64(out, std::bit_cast<uint64_t>(value));
}

void AppendString(std::string* out, std::string_view value) {
  AppendU32(out, static_cast<uint32_t>(value.size()));
  out->append(value);
}

Status WireCursor::Need(size_t n) {
  if (pos_ + n > bytes_.size()) {
    return Status::Corruption("frame truncated: need " + std::to_string(n) +
                              " bytes, have " +
                              std::to_string(bytes_.size() - pos_));
  }
  return Status::OK();
}

Status WireCursor::ReadU8(uint8_t* value) {
  SVQ_RETURN_NOT_OK(Need(1));
  *value = static_cast<uint8_t>(bytes_[pos_++]);
  return Status::OK();
}

Status WireCursor::ReadU32(uint32_t* value) {
  SVQ_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *value = v;
  return Status::OK();
}

Status WireCursor::ReadU64(uint64_t* value) {
  SVQ_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *value = v;
  return Status::OK();
}

Status WireCursor::ReadI64(int64_t* value) {
  uint64_t raw = 0;
  SVQ_RETURN_NOT_OK(ReadU64(&raw));
  *value = static_cast<int64_t>(raw);
  return Status::OK();
}

Status WireCursor::ReadF64(double* value) {
  uint64_t raw = 0;
  SVQ_RETURN_NOT_OK(ReadU64(&raw));
  *value = std::bit_cast<double>(raw);
  return Status::OK();
}

Status WireCursor::ReadString(std::string* value) {
  uint32_t length = 0;
  SVQ_RETURN_NOT_OK(ReadU32(&length));
  SVQ_RETURN_NOT_OK(Need(length));
  value->assign(bytes_.substr(pos_, length));
  pos_ += length;
  return Status::OK();
}

namespace {

Status ExpectEnd(const WireCursor& cursor) {
  if (!cursor.AtEnd()) {
    return Status::Corruption("trailing bytes after message body");
  }
  return Status::OK();
}

// Statuses use the svq/common encoding (u8 code + string message); the
// code byte is validated so a hostile frame cannot smuggle an
// out-of-range StatusCode into the process.
Status ReadStatus(WireCursor* cursor, Status* status) {
  uint8_t raw_code = 0;
  SVQ_RETURN_NOT_OK(cursor->ReadU8(&raw_code));
  if (raw_code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("unknown status code " +
                              std::to_string(raw_code));
  }
  std::string message;
  SVQ_RETURN_NOT_OK(cursor->ReadString(&message));
  *status = Status(static_cast<StatusCode>(raw_code), std::move(message));
  return Status::OK();
}

/// Reads an entry count and checks that that many entries of at least
/// `min_bytes` each fit in the rest of the frame, before the caller
/// reserves anything: a hostile count cannot force an allocation beyond
/// what the frame holds.
Status ReadCount(WireCursor* cursor, size_t min_bytes, const char* what,
                 uint32_t* count) {
  SVQ_RETURN_NOT_OK(cursor->ReadU32(count));
  if (static_cast<size_t>(*count) * min_bytes > cursor->remaining()) {
    return Status::Corruption(std::string(what) + " count overruns frame");
  }
  return Status::OK();
}

/// Reads one STATS section: a count, then entries that `read` decodes,
/// whose names must strictly increase.
template <typename Entry, typename Read>
Status ReadStatsSection(WireCursor* cursor, size_t min_bytes,
                        std::vector<Entry>* entries, Read read) {
  uint32_t count = 0;
  SVQ_RETURN_NOT_OK(ReadCount(cursor, min_bytes, "stats entry", &count));
  entries->clear();
  entries->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Entry entry;
    SVQ_RETURN_NOT_OK(cursor->ReadString(&entry.name));
    SVQ_RETURN_NOT_OK(read(&entry));
    if (!entries->empty() && !(entries->back().name < entry.name)) {
      return Status::Corruption("stats entry '" + entry.name +
                                "' out of name order");
    }
    entries->push_back(std::move(entry));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Frames.

std::string EncodeFrame(MessageType type, std::string_view body) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + 2 + body.size());
  AppendU32(&frame, static_cast<uint32_t>(2 + body.size()));
  AppendU8(&frame, kWireVersion);
  AppendU8(&frame, static_cast<uint8_t>(type));
  frame.append(body);
  return frame;
}

std::string EncodeQueryRequest(const QueryRequest& request) {
  std::string body;
  AppendU64(&body, request.request_id);
  AppendU32(&body, request.timeout_ms);
  AppendString(&body, request.statement);
  return EncodeFrame(MessageType::kQueryRequest, body);
}

std::string EncodeStatsRequest() {
  return EncodeFrame(MessageType::kStatsRequest, "");
}

std::string EncodeQueryResponse(const QueryResponse& response) {
  std::string body;
  AppendU64(&body, response.request_id);
  EncodeStatus(response.status, &body);
  AppendU8(&body, response.ranked ? 1 : 0);
  AppendU32(&body, static_cast<uint32_t>(response.sequences.size()));
  for (const WireSequence& sequence : response.sequences) {
    AppendI64(&body, sequence.begin);
    AppendI64(&body, sequence.end);
    AppendF64(&body, sequence.lower_bound);
    AppendF64(&body, sequence.upper_bound);
  }
  const WireQueryMetrics& m = response.metrics;
  AppendI64(&body, m.sorted_accesses);
  AppendI64(&body, m.random_accesses);
  AppendI64(&body, m.sequential_reads);
  AppendF64(&body, m.virtual_ms);
  AppendF64(&body, m.algorithm_ms);
  AppendF64(&body, m.model_ms);
  AppendI64(&body, m.clips_processed);
  AppendI64(&body, m.threads_used);
  AppendI64(&body, m.tasks_executed);
  AppendF64(&body, m.fanout_ms);
  AppendF64(&body, m.server_queue_ms);
  AppendF64(&body, m.server_exec_ms);
  return EncodeFrame(MessageType::kQueryResponse, body);
}

std::string EncodeStatsResponse(const observability::MetricsSnapshot& stats) {
  std::string body;
  for (const auto* section : {&stats.counters, &stats.gauges}) {
    AppendU32(&body, static_cast<uint32_t>(section->size()));
    for (const observability::MetricsSnapshot::Value& value : *section) {
      AppendString(&body, value.name);
      AppendF64(&body, value.value);
    }
  }
  AppendU32(&body, static_cast<uint32_t>(stats.histograms.size()));
  for (const observability::HistogramSnapshot& histogram : stats.histograms) {
    AppendString(&body, histogram.name);
    AppendI64(&body, histogram.count);
    AppendF64(&body, histogram.sum_micros);
    AppendU32(&body, static_cast<uint32_t>(histogram.buckets.size()));
    for (const int64_t bucket : histogram.buckets) AppendI64(&body, bucket);
  }
  return EncodeFrame(MessageType::kStatsResponse, body);
}

std::string EncodeExplainRequest(const ExplainRequest& request) {
  std::string body;
  AppendU64(&body, request.request_id);
  AppendU8(&body, request.analyze ? 1 : 0);
  AppendU32(&body, request.timeout_ms);
  AppendString(&body, request.statement);
  return EncodeFrame(MessageType::kExplainRequest, body);
}

std::string EncodeExplainResponse(const ExplainResponse& response) {
  std::string body;
  AppendU64(&body, response.request_id);
  EncodeStatus(response.status, &body);
  AppendString(&body, response.text);
  return EncodeFrame(MessageType::kExplainResponse, body);
}

std::string EncodeSubscribeRequest(const SubscribeRequest& request) {
  std::string body;
  AppendU64(&body, request.request_id);
  AppendString(&body, request.feed);
  AppendString(&body, request.statement);
  AppendU8(&body, request.mode);
  AppendU32(&body, request.queue_capacity);
  AppendU32(&body, request.timeout_ms);
  return EncodeFrame(MessageType::kSubscribeRequest, body);
}

std::string EncodeSubscribeResponse(const SubscribeResponse& response) {
  std::string body;
  AppendU64(&body, response.request_id);
  EncodeStatus(response.status, &body);
  AppendU64(&body, response.subscription_id);
  AppendString(&body, response.feed);
  return EncodeFrame(MessageType::kSubscribeResponse, body);
}

std::string EncodeFeedRequest(const FeedRequest& request) {
  std::string body;
  AppendU64(&body, request.request_id);
  AppendString(&body, request.feed);
  AppendI64(&body, request.clip_count);
  return EncodeFrame(MessageType::kFeedRequest, body);
}

std::string EncodeFeedResponse(const FeedResponse& response) {
  std::string body;
  AppendU64(&body, response.request_id);
  EncodeStatus(response.status, &body);
  AppendI64(&body, response.clips_dispatched);
  AppendI64(&body, response.next_clip);
  AppendU8(&body, response.feed_closed ? 1 : 0);
  return EncodeFrame(MessageType::kFeedResponse, body);
}

std::string EncodeEvent(const EventFrame& event) {
  std::string body;
  AppendU64(&body, event.subscription_id);
  AppendU8(&body, event.kind);
  AppendI64(&body, event.begin);
  AppendI64(&body, event.end);
  AppendI64(&body, event.dropped);
  EncodeStatus(event.status, &body);
  return EncodeFrame(MessageType::kEvent, body);
}

std::string EncodeUnsubscribeRequest(const UnsubscribeRequest& request) {
  std::string body;
  AppendU64(&body, request.request_id);
  AppendU64(&body, request.subscription_id);
  return EncodeFrame(MessageType::kUnsubscribeRequest, body);
}

std::string EncodeUnsubscribeResponse(const UnsubscribeResponse& response) {
  std::string body;
  AppendU64(&body, response.request_id);
  EncodeStatus(response.status, &body);
  return EncodeFrame(MessageType::kUnsubscribeResponse, body);
}

Status DecodePayloadHeader(WireCursor* cursor, MessageType* type) {
  uint8_t version = 0;
  SVQ_RETURN_NOT_OK(cursor->ReadU8(&version));
  if (version != kWireVersion) {
    // Name both versions so the peer can report the mismatch precisely
    // (svq_client parses this message for its version-mismatch exit code).
    return Status::Unimplemented(
        "unsupported wire version " + std::to_string(version) +
        " (this peer speaks v" + std::to_string(kWireVersion) + ")");
  }
  uint8_t raw_type = 0;
  SVQ_RETURN_NOT_OK(cursor->ReadU8(&raw_type));
  if (raw_type < static_cast<uint8_t>(MessageType::kQueryRequest) ||
      raw_type > static_cast<uint8_t>(MessageType::kUnsubscribeResponse)) {
    return Status::Corruption("unknown message type " +
                              std::to_string(raw_type));
  }
  *type = static_cast<MessageType>(raw_type);
  return Status::OK();
}

Status DecodeQueryRequest(WireCursor* cursor, QueryRequest* request) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&request->request_id));
  SVQ_RETURN_NOT_OK(cursor->ReadU32(&request->timeout_ms));
  SVQ_RETURN_NOT_OK(cursor->ReadString(&request->statement));
  return ExpectEnd(*cursor);
}

Status DecodeQueryResponse(WireCursor* cursor, QueryResponse* response) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&response->request_id));
  SVQ_RETURN_NOT_OK(ReadStatus(cursor, &response->status));
  uint8_t ranked = 0;
  SVQ_RETURN_NOT_OK(cursor->ReadU8(&ranked));
  response->ranked = ranked != 0;
  uint32_t sequence_count = 0;
  // 32 bytes per sequence.
  SVQ_RETURN_NOT_OK(ReadCount(cursor, 32, "sequence", &sequence_count));
  response->sequences.assign(sequence_count, WireSequence());
  for (WireSequence& sequence : response->sequences) {
    SVQ_RETURN_NOT_OK(cursor->ReadI64(&sequence.begin));
    SVQ_RETURN_NOT_OK(cursor->ReadI64(&sequence.end));
    SVQ_RETURN_NOT_OK(cursor->ReadF64(&sequence.lower_bound));
    SVQ_RETURN_NOT_OK(cursor->ReadF64(&sequence.upper_bound));
  }
  WireQueryMetrics& m = response->metrics;
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&m.sorted_accesses));
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&m.random_accesses));
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&m.sequential_reads));
  SVQ_RETURN_NOT_OK(cursor->ReadF64(&m.virtual_ms));
  SVQ_RETURN_NOT_OK(cursor->ReadF64(&m.algorithm_ms));
  SVQ_RETURN_NOT_OK(cursor->ReadF64(&m.model_ms));
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&m.clips_processed));
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&m.threads_used));
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&m.tasks_executed));
  SVQ_RETURN_NOT_OK(cursor->ReadF64(&m.fanout_ms));
  SVQ_RETURN_NOT_OK(cursor->ReadF64(&m.server_queue_ms));
  SVQ_RETURN_NOT_OK(cursor->ReadF64(&m.server_exec_ms));
  return ExpectEnd(*cursor);
}

Status DecodeStatsResponse(WireCursor* cursor,
                           observability::MetricsSnapshot* stats) {
  // Smallest encodings: an empty name plus the fixed-width fields.
  constexpr size_t kValueBytes = 4 + 8;
  constexpr size_t kHistogramBytes =
      4 + 8 + 8 + 4 + 8 * observability::kHistogramBuckets;
  const auto read_value =
      [cursor](observability::MetricsSnapshot::Value* value) {
        return cursor->ReadF64(&value->value);
      };
  SVQ_RETURN_NOT_OK(
      ReadStatsSection(cursor, kValueBytes, &stats->counters, read_value));
  SVQ_RETURN_NOT_OK(
      ReadStatsSection(cursor, kValueBytes, &stats->gauges, read_value));
  SVQ_RETURN_NOT_OK(ReadStatsSection(
      cursor, kHistogramBytes, &stats->histograms,
      [cursor](observability::HistogramSnapshot* histogram) {
        SVQ_RETURN_NOT_OK(cursor->ReadI64(&histogram->count));
        SVQ_RETURN_NOT_OK(cursor->ReadF64(&histogram->sum_micros));
        uint32_t buckets = 0;
        SVQ_RETURN_NOT_OK(cursor->ReadU32(&buckets));
        if (buckets != histogram->buckets.size()) {
          return Status::Corruption(
              "histogram '" + histogram->name + "' has " +
              std::to_string(buckets) + " buckets, expected " +
              std::to_string(histogram->buckets.size()));
        }
        for (int64_t& bucket : histogram->buckets) {
          SVQ_RETURN_NOT_OK(cursor->ReadI64(&bucket));
        }
        return Status::OK();
      }));
  return ExpectEnd(*cursor);
}

Status DecodeExplainRequest(WireCursor* cursor, ExplainRequest* request) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&request->request_id));
  uint8_t analyze = 0;
  SVQ_RETURN_NOT_OK(cursor->ReadU8(&analyze));
  request->analyze = analyze != 0;
  SVQ_RETURN_NOT_OK(cursor->ReadU32(&request->timeout_ms));
  SVQ_RETURN_NOT_OK(cursor->ReadString(&request->statement));
  return ExpectEnd(*cursor);
}

Status DecodeExplainResponse(WireCursor* cursor, ExplainResponse* response) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&response->request_id));
  SVQ_RETURN_NOT_OK(ReadStatus(cursor, &response->status));
  SVQ_RETURN_NOT_OK(cursor->ReadString(&response->text));
  return ExpectEnd(*cursor);
}

Status DecodeSubscribeRequest(WireCursor* cursor, SubscribeRequest* request) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&request->request_id));
  SVQ_RETURN_NOT_OK(cursor->ReadString(&request->feed));
  SVQ_RETURN_NOT_OK(cursor->ReadString(&request->statement));
  SVQ_RETURN_NOT_OK(cursor->ReadU8(&request->mode));
  SVQ_RETURN_NOT_OK(cursor->ReadU32(&request->queue_capacity));
  SVQ_RETURN_NOT_OK(cursor->ReadU32(&request->timeout_ms));
  return ExpectEnd(*cursor);
}

Status DecodeSubscribeResponse(WireCursor* cursor,
                               SubscribeResponse* response) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&response->request_id));
  SVQ_RETURN_NOT_OK(ReadStatus(cursor, &response->status));
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&response->subscription_id));
  SVQ_RETURN_NOT_OK(cursor->ReadString(&response->feed));
  return ExpectEnd(*cursor);
}

Status DecodeFeedRequest(WireCursor* cursor, FeedRequest* request) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&request->request_id));
  SVQ_RETURN_NOT_OK(cursor->ReadString(&request->feed));
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&request->clip_count));
  return ExpectEnd(*cursor);
}

Status DecodeFeedResponse(WireCursor* cursor, FeedResponse* response) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&response->request_id));
  SVQ_RETURN_NOT_OK(ReadStatus(cursor, &response->status));
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&response->clips_dispatched));
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&response->next_clip));
  uint8_t closed = 0;
  SVQ_RETURN_NOT_OK(cursor->ReadU8(&closed));
  response->feed_closed = closed != 0;
  return ExpectEnd(*cursor);
}

Status DecodeEvent(WireCursor* cursor, EventFrame* event) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&event->subscription_id));
  SVQ_RETURN_NOT_OK(cursor->ReadU8(&event->kind));
  // Kind mirrors stream::StreamEvent::Kind; reject values outside it so a
  // hostile server cannot hand the client an unclassifiable event.
  if (event->kind < 1 || event->kind > 4) {
    return Status::Corruption("unknown event kind " +
                              std::to_string(event->kind));
  }
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&event->begin));
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&event->end));
  SVQ_RETURN_NOT_OK(cursor->ReadI64(&event->dropped));
  SVQ_RETURN_NOT_OK(ReadStatus(cursor, &event->status));
  return ExpectEnd(*cursor);
}

Status DecodeUnsubscribeRequest(WireCursor* cursor,
                                UnsubscribeRequest* request) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&request->request_id));
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&request->subscription_id));
  return ExpectEnd(*cursor);
}

Status DecodeUnsubscribeResponse(WireCursor* cursor,
                                 UnsubscribeResponse* response) {
  SVQ_RETURN_NOT_OK(cursor->ReadU64(&response->request_id));
  SVQ_RETURN_NOT_OK(ReadStatus(cursor, &response->status));
  return ExpectEnd(*cursor);
}

// ---------------------------------------------------------------------------
// Assembly.

void FrameAssembler::Feed(const char* data, size_t n) {
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

Status FrameAssembler::Next(std::string* payload, bool* has_frame) {
  *has_frame = false;
  if (buffer_.size() - consumed_ < kFrameHeaderBytes) return Status::OK();
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(
                  static_cast<uint8_t>(buffer_[consumed_ + i]))
              << (8 * i);
  }
  if (static_cast<size_t>(length) > max_frame_bytes_) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(length) + " bytes exceeds cap of " +
        std::to_string(max_frame_bytes_));
  }
  if (buffer_.size() - consumed_ < kFrameHeaderBytes + length) {
    return Status::OK();
  }
  payload->assign(buffer_, consumed_ + kFrameHeaderBytes, length);
  consumed_ += kFrameHeaderBytes + length;
  *has_frame = true;
  return Status::OK();
}

}  // namespace svq::server
