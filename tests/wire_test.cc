#include "svq/server/wire.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>
#include <vector>

namespace svq::server {
namespace {

QueryResponse SampleResponse() {
  QueryResponse response;
  response.request_id = 77;
  response.status = Status::OK();
  response.ranked = true;
  response.sequences = {{10, 24, 800.5, 812.0}, {100, 120, 500.0, 500.0}};
  response.metrics.sorted_accesses = 1234;
  response.metrics.random_accesses = 567;
  response.metrics.sequential_reads = 89;
  response.metrics.virtual_ms = 3120.25;
  response.metrics.algorithm_ms = 4.5;
  response.metrics.model_ms = 0.0;
  response.metrics.clips_processed = 0;
  response.metrics.threads_used = 4;
  response.metrics.tasks_executed = 32;
  response.metrics.fanout_ms = 2.75;
  response.metrics.server_queue_ms = 0.4;
  response.metrics.server_exec_ms = 18.0;
  return response;
}

/// Strips the 4-byte length header and returns the payload.
std::string PayloadOf(const std::string& frame) {
  EXPECT_GE(frame.size(), kFrameHeaderBytes + 2);
  return frame.substr(kFrameHeaderBytes);
}

TEST(WireTest, QueryRequestRoundTrip) {
  QueryRequest request;
  request.request_id = 42;
  request.statement = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, "
                      "obj USING ObjectDetector, act USING ActionRecognizer) "
                      "WHERE act='smoking' AND obj.include('cup')";
  request.timeout_ms = 250;
  const std::string frame = EncodeQueryRequest(request);

  const std::string payload = PayloadOf(frame);
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  EXPECT_EQ(type, MessageType::kQueryRequest);
  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(&cursor, &decoded).ok());
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.statement, request.statement);
  EXPECT_EQ(decoded.timeout_ms, request.timeout_ms);
}

TEST(WireTest, QueryResponseRoundTrip) {
  const QueryResponse response = SampleResponse();
  const std::string payload = PayloadOf(EncodeQueryResponse(response));
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  EXPECT_EQ(type, MessageType::kQueryResponse);
  QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(&cursor, &decoded).ok());
  EXPECT_EQ(decoded.request_id, response.request_id);
  EXPECT_TRUE(decoded.status.ok());
  EXPECT_EQ(decoded.ranked, response.ranked);
  EXPECT_EQ(decoded.sequences, response.sequences);
  EXPECT_EQ(decoded.metrics, response.metrics);
}

TEST(WireTest, ErrorResponseCarriesStatus) {
  QueryResponse response;
  response.request_id = 7;
  response.status = Status::ResourceExhausted("admission queue full");
  const std::string payload = PayloadOf(EncodeQueryResponse(response));
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(&cursor, &decoded).ok());
  EXPECT_TRUE(decoded.status.IsResourceExhausted());
  EXPECT_EQ(decoded.status.message(), "admission queue full");
  EXPECT_TRUE(decoded.sequences.empty());
}

/// A STATS body with every section populated and doubles that only a
/// bit-exact encoding keeps: negative zero, a subnormal, infinities, a NaN
/// with a payload, and an integer past 2^53.
observability::MetricsSnapshot SampleStats() {
  observability::MetricsSnapshot stats;
  stats.counters = {
      {"svq_storage_random_accesses_total", "", 567.0},
      {"svqd_queries_ok_total", "", 9007199254740994.0},
      {"svqd_weird_total", "", std::bit_cast<double>(0x7ff8dead0000beefULL)}};
  stats.gauges = {
      {"svqd_connections_open", "", -0.0},
      {"svqd_in_flight", "", 4.9406564584124654e-324},
      {"svqd_queue_depth", "", -std::numeric_limits<double>::infinity()}};
  observability::HistogramSnapshot phase;
  phase.name = "svqd_phase_execute_micros";
  phase.count = 100;
  phase.sum_micros = 123456.789;
  phase.buckets[10] = 60;
  phase.buckets[11] = 40;
  observability::HistogramSnapshot latency;
  latency.name = "svqd_query_latency_micros";
  latency.count = std::numeric_limits<int64_t>::max();
  latency.sum_micros = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < latency.buckets.size(); ++i) {
    latency.buckets[i] = static_cast<int64_t>(i) - 13;
  }
  stats.histograms = {phase, latency};
  return stats;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(WireTest, StatsResponseRoundTrip) {
  const observability::MetricsSnapshot stats = SampleStats();
  const std::string payload = PayloadOf(EncodeStatsResponse(stats));
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  EXPECT_EQ(type, MessageType::kStatsResponse);
  observability::MetricsSnapshot decoded;
  ASSERT_TRUE(DecodeStatsResponse(&cursor, &decoded).ok());

  const auto expect_values =
      [](const std::vector<observability::MetricsSnapshot::Value>& got,
         const std::vector<observability::MetricsSnapshot::Value>& want) {
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].name, want[i].name);
          EXPECT_EQ(Bits(got[i].value), Bits(want[i].value)) << want[i].name;
        }
      };
  expect_values(decoded.counters, stats.counters);
  expect_values(decoded.gauges, stats.gauges);
  ASSERT_EQ(decoded.histograms.size(), stats.histograms.size());
  for (size_t i = 0; i < stats.histograms.size(); ++i) {
    const observability::HistogramSnapshot& want = stats.histograms[i];
    const observability::HistogramSnapshot& got = decoded.histograms[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(Bits(got.sum_micros), Bits(want.sum_micros));
    EXPECT_EQ(got.buckets, want.buckets);
  }
}

TEST(WireTest, StatsResponseTruncationFailsCleanly) {
  const std::string payload = PayloadOf(EncodeStatsResponse(SampleStats()));
  for (size_t cut = 2; cut < payload.size(); ++cut) {
    const std::string prefix = payload.substr(0, cut);
    WireCursor cursor(prefix);
    MessageType type = MessageType::kStatsRequest;
    ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
    observability::MetricsSnapshot decoded;
    EXPECT_TRUE(DecodeStatsResponse(&cursor, &decoded).IsCorruption()) << cut;
  }
}

TEST(WireTest, StatsResponseRejectsWrongBucketCount) {
  observability::MetricsSnapshot stats;
  stats.histograms = {SampleStats().histograms[0]};
  const std::string good = PayloadOf(EncodeStatsResponse(stats));
  // Header, three section counts, then the histogram's name, count and sum.
  const size_t offset =
      2 + 3 * 4 + 4 + stats.histograms[0].name.size() + 8 + 8;
  ASSERT_EQ(static_cast<uint8_t>(good[offset]),
            observability::kHistogramBuckets);
  for (const uint8_t buckets : {0, 26, 28, 255}) {
    std::string payload = good;
    payload[offset] = static_cast<char>(buckets);
    WireCursor cursor(payload);
    MessageType type = MessageType::kStatsRequest;
    ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
    observability::MetricsSnapshot decoded;
    EXPECT_TRUE(DecodeStatsResponse(&cursor, &decoded).IsCorruption())
        << static_cast<int>(buckets);
  }
}

TEST(WireTest, StatsResponseRejectsTrailingBytes) {
  std::string payload = PayloadOf(EncodeStatsResponse(SampleStats()));
  payload += "x";
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  observability::MetricsSnapshot decoded;
  EXPECT_TRUE(DecodeStatsResponse(&cursor, &decoded).IsCorruption());
}

TEST(WireTest, StatsResponseRejectsNamesOutOfOrder) {
  // Merging relies on every snapshot's name order, so a decoded one must
  // keep it: a repeated or decreasing name is corruption.
  for (const auto& names : std::vector<std::vector<std::string>>{
           {"b_total", "a_total"}, {"a_total", "a_total"}}) {
    observability::MetricsSnapshot stats;
    for (const std::string& name : names) {
      stats.gauges.push_back({name, "", 1.0});
    }
    const std::string payload = PayloadOf(EncodeStatsResponse(stats));
    WireCursor cursor(payload);
    MessageType type = MessageType::kStatsRequest;
    ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
    observability::MetricsSnapshot decoded;
    EXPECT_TRUE(DecodeStatsResponse(&cursor, &decoded).IsCorruption())
        << names[0] << ", " << names[1];
  }
}

TEST(WireTest, ExplainRequestRoundTrip) {
  ExplainRequest request;
  request.request_id = 91;
  request.statement = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, "
                      "act) WHERE act='jumping'";
  request.analyze = true;
  request.timeout_ms = 750;
  const std::string payload = PayloadOf(EncodeExplainRequest(request));
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  EXPECT_EQ(type, MessageType::kExplainRequest);
  ExplainRequest decoded;
  ASSERT_TRUE(DecodeExplainRequest(&cursor, &decoded).ok());
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.statement, request.statement);
  EXPECT_EQ(decoded.analyze, request.analyze);
  EXPECT_EQ(decoded.timeout_ms, request.timeout_ms);
}

TEST(WireTest, ExplainResponseRoundTrip) {
  ExplainResponse response;
  response.request_id = 92;
  response.status = Status::OK();
  response.text = "Statement: ranked top-3 query (offline)\n  Plan: "
                  "algorithm=RVAQ (cost-based auto selection)\n";
  const std::string payload = PayloadOf(EncodeExplainResponse(response));
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  EXPECT_EQ(type, MessageType::kExplainResponse);
  ExplainResponse decoded;
  ASSERT_TRUE(DecodeExplainResponse(&cursor, &decoded).ok());
  EXPECT_EQ(decoded.request_id, response.request_id);
  EXPECT_TRUE(decoded.status.ok());
  EXPECT_EQ(decoded.text, response.text);
}

TEST(WireTest, ExplainErrorResponseCarriesStatus) {
  ExplainResponse response;
  response.request_id = 93;
  response.status = Status::InvalidArgument("parse error");
  const std::string payload = PayloadOf(EncodeExplainResponse(response));
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  ExplainResponse decoded;
  ASSERT_TRUE(DecodeExplainResponse(&cursor, &decoded).ok());
  EXPECT_TRUE(decoded.status.IsInvalidArgument());
  EXPECT_EQ(decoded.status.message(), "parse error");
  EXPECT_TRUE(decoded.text.empty());
}

TEST(WireTest, TruncatedExplainPayloadsFailCleanly) {
  ExplainRequest request;
  request.request_id = 1;
  request.statement = "SELECT 1";
  request.analyze = true;
  const std::string payload = PayloadOf(EncodeExplainRequest(request));
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    const std::string prefix = payload.substr(0, cut);
    WireCursor cursor(prefix);
    MessageType type = MessageType::kStatsRequest;
    const Status header = DecodePayloadHeader(&cursor, &type);
    if (!header.ok()) continue;
    ExplainRequest decoded;
    EXPECT_FALSE(DecodeExplainRequest(&cursor, &decoded).ok()) << cut;
  }
}

TEST(WireTest, RejectsWrongVersion) {
  std::string frame = EncodeStatsRequest();
  frame[kFrameHeaderBytes] = static_cast<char>(kWireVersion + 1);
  // The payload must outlive the cursor, which only holds a view into it.
  const std::string payload = PayloadOf(frame);
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  EXPECT_TRUE(DecodePayloadHeader(&cursor, &type).IsUnimplemented());
}

TEST(WireTest, RejectsUnknownMessageType) {
  std::string frame = EncodeStatsRequest();
  frame[kFrameHeaderBytes + 1] = static_cast<char>(200);
  const std::string payload = PayloadOf(frame);
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  EXPECT_TRUE(DecodePayloadHeader(&cursor, &type).IsCorruption());
}

TEST(WireTest, TruncatedPayloadsFailCleanly) {
  QueryRequest request;
  request.request_id = 1;
  request.statement = "SELECT 1";
  request.timeout_ms = 9;
  const std::string payload = PayloadOf(EncodeQueryRequest(request));
  // Every proper prefix must decode to an error, never crash or succeed.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    const std::string prefix = payload.substr(0, cut);
    WireCursor cursor(prefix);
    MessageType type = MessageType::kStatsRequest;
    const Status header = DecodePayloadHeader(&cursor, &type);
    if (!header.ok()) continue;
    QueryRequest decoded;
    EXPECT_FALSE(DecodeQueryRequest(&cursor, &decoded).ok()) << cut;
  }
}

TEST(WireTest, TrailingGarbageRejected) {
  QueryRequest request;
  request.statement = "SELECT 1";
  std::string payload = PayloadOf(EncodeQueryRequest(request));
  payload += "garbage";
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  QueryRequest decoded;
  EXPECT_TRUE(DecodeQueryRequest(&cursor, &decoded).IsCorruption());
}

TEST(WireTest, HostileSequenceCountRejected) {
  // A response frame claiming 2^31 sequences in a tiny body must be caught
  // by the count-vs-remaining-bytes check, not allocate gigabytes.
  QueryResponse response;
  response.request_id = 1;
  std::string payload = PayloadOf(EncodeQueryResponse(response));
  // The count field sits after request id (8) + status (1 + 4 + 0) + ranked
  // byte (1) = byte 14 of the body (plus the 2-byte payload header).
  const size_t count_offset = 2 + 14;
  payload[count_offset + 3] = static_cast<char>(0x80);
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  QueryResponse decoded;
  EXPECT_TRUE(DecodeQueryResponse(&cursor, &decoded).IsCorruption());
}

TEST(FrameAssemblerTest, ReassemblesByteByByte) {
  QueryRequest request;
  request.request_id = 5;
  request.statement = "SELECT MERGE(clipID) FROM x";
  request.timeout_ms = 1000;
  const std::string frame = EncodeQueryRequest(request);

  FrameAssembler assembler;
  std::string payload;
  bool has_frame = false;
  for (size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(assembler.Next(&payload, &has_frame).ok());
    EXPECT_FALSE(has_frame) << "frame complete too early at byte " << i;
    assembler.Feed(frame.data() + i, 1);
  }
  ASSERT_TRUE(assembler.Next(&payload, &has_frame).ok());
  ASSERT_TRUE(has_frame);
  EXPECT_EQ(payload, frame.substr(kFrameHeaderBytes));
}

TEST(FrameAssemblerTest, YieldsMultipleFramesFromOneFeed) {
  const std::string a = EncodeStatsRequest();
  QueryRequest request;
  request.statement = "SELECT 1";
  const std::string b = EncodeQueryRequest(request);
  const std::string stream = a + b + a;

  FrameAssembler assembler;
  assembler.Feed(stream.data(), stream.size());
  std::string payload;
  bool has_frame = false;
  int frames = 0;
  while (true) {
    ASSERT_TRUE(assembler.Next(&payload, &has_frame).ok());
    if (!has_frame) break;
    ++frames;
  }
  EXPECT_EQ(frames, 3);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(FrameAssemblerTest, OversizedFrameIsAnError) {
  FrameAssembler assembler(/*max_frame_bytes=*/64);
  // A header announcing 1 MiB: rejected from the header alone, before any
  // payload bytes arrive.
  std::string header;
  AppendU32(&header, 1 << 20);
  assembler.Feed(header.data(), header.size());
  std::string payload;
  bool has_frame = false;
  EXPECT_TRUE(assembler.Next(&payload, &has_frame).IsInvalidArgument());
}

TEST(WireTest, EmptyRegistryRoundTrips) {
  const observability::MetricsSnapshot stats;
  const std::string payload = PayloadOf(EncodeStatsResponse(stats));
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  observability::MetricsSnapshot decoded;
  ASSERT_TRUE(DecodeStatsResponse(&cursor, &decoded).ok());
  EXPECT_EQ(decoded, stats);
}

TEST(WireTest, HostileRegistryCountRejected) {
  // An empty snapshot is three u32 section counts: counters, gauges,
  // histograms. Inflating any of them must trip the count-vs-remaining
  // check before the decoder reserves room for the entries.
  const std::string empty =
      PayloadOf(EncodeStatsResponse(observability::MetricsSnapshot()));
  ASSERT_EQ(empty.size(), 2u + 3 * 4);
  for (const size_t section : {0, 1, 2}) {
    std::string payload = empty;
    payload.replace(2 + 4 * section, 4, "\xff\xff\xff\xff");
    WireCursor cursor(payload);
    MessageType type = MessageType::kStatsRequest;
    ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
    observability::MetricsSnapshot decoded;
    const Status status = DecodeStatsResponse(&cursor, &decoded);
    EXPECT_TRUE(status.IsCorruption()) << section;
    EXPECT_NE(status.message().find("overruns frame"), std::string::npos)
        << section << ": " << status.message();
  }
}

// --- Streaming verbs (wire v4): round trips, every-prefix truncation, and
// hostile-field rejection for each frame type.

/// Decodes the payload header and asserts the type matches.
template <typename T>
Status DecodeAs(const std::string& payload, MessageType want,
                Status (*decode)(WireCursor*, T*), T* out) {
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  SVQ_RETURN_NOT_OK(DecodePayloadHeader(&cursor, &type));
  EXPECT_EQ(type, want);
  return decode(&cursor, out);
}

/// Every proper prefix of `payload` must decode to an error — never crash,
/// never succeed on partial data.
template <typename T>
void ExpectAllPrefixesFail(const std::string& payload,
                           Status (*decode)(WireCursor*, T*)) {
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    const std::string prefix = payload.substr(0, cut);
    WireCursor cursor(prefix);
    MessageType type = MessageType::kStatsRequest;
    if (!DecodePayloadHeader(&cursor, &type).ok()) continue;
    T decoded;
    EXPECT_FALSE(decode(&cursor, &decoded).ok()) << cut;
  }
}

TEST(WireTest, SubscribeRequestRoundTrip) {
  SubscribeRequest request;
  request.request_id = 31;
  request.feed = "lobby_camera";
  request.statement = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, "
                      "obj, act) WHERE act='jumping' AND obj.include('car')";
  request.mode = 0;
  request.queue_capacity = 16;
  request.timeout_ms = 5000;
  const std::string payload = PayloadOf(EncodeSubscribeRequest(request));
  SubscribeRequest decoded;
  ASSERT_TRUE(DecodeAs(payload, MessageType::kSubscribeRequest,
                       DecodeSubscribeRequest, &decoded)
                  .ok());
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.feed, request.feed);
  EXPECT_EQ(decoded.statement, request.statement);
  EXPECT_EQ(decoded.mode, request.mode);
  EXPECT_EQ(decoded.queue_capacity, request.queue_capacity);
  EXPECT_EQ(decoded.timeout_ms, request.timeout_ms);
  ExpectAllPrefixesFail(payload, DecodeSubscribeRequest);
}

TEST(WireTest, SubscribeResponseRoundTrip) {
  SubscribeResponse response;
  response.request_id = 32;
  response.status = Status::OK();
  response.subscription_id = 901;
  response.feed = "lobby_camera";
  const std::string payload = PayloadOf(EncodeSubscribeResponse(response));
  SubscribeResponse decoded;
  ASSERT_TRUE(DecodeAs(payload, MessageType::kSubscribeResponse,
                       DecodeSubscribeResponse, &decoded)
                  .ok());
  EXPECT_EQ(decoded.request_id, response.request_id);
  EXPECT_TRUE(decoded.status.ok());
  EXPECT_EQ(decoded.subscription_id, response.subscription_id);
  EXPECT_EQ(decoded.feed, response.feed);
  ExpectAllPrefixesFail(payload, DecodeSubscribeResponse);
}

TEST(WireTest, SubscribeErrorResponseCarriesStatus) {
  SubscribeResponse response;
  response.request_id = 33;
  response.status = Status::ResourceExhausted("feed subscriber limit");
  const std::string payload = PayloadOf(EncodeSubscribeResponse(response));
  SubscribeResponse decoded;
  ASSERT_TRUE(DecodeAs(payload, MessageType::kSubscribeResponse,
                       DecodeSubscribeResponse, &decoded)
                  .ok());
  EXPECT_TRUE(decoded.status.IsResourceExhausted());
  EXPECT_EQ(decoded.status.message(), "feed subscriber limit");
  EXPECT_EQ(decoded.subscription_id, 0u);
}

TEST(WireTest, FeedRequestRoundTrip) {
  FeedRequest request;
  request.request_id = 41;
  request.feed = "lobby_camera";
  request.clip_count = 128;
  const std::string payload = PayloadOf(EncodeFeedRequest(request));
  FeedRequest decoded;
  ASSERT_TRUE(DecodeAs(payload, MessageType::kFeedRequest, DecodeFeedRequest,
                       &decoded)
                  .ok());
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.feed, request.feed);
  EXPECT_EQ(decoded.clip_count, request.clip_count);
  ExpectAllPrefixesFail(payload, DecodeFeedRequest);
}

TEST(WireTest, FeedResponseRoundTrip) {
  FeedResponse response;
  response.request_id = 42;
  response.status = Status::OK();
  response.clips_dispatched = 128;
  response.next_clip = 640;
  response.feed_closed = true;
  const std::string payload = PayloadOf(EncodeFeedResponse(response));
  FeedResponse decoded;
  ASSERT_TRUE(DecodeAs(payload, MessageType::kFeedResponse,
                       DecodeFeedResponse, &decoded)
                  .ok());
  EXPECT_EQ(decoded.request_id, response.request_id);
  EXPECT_TRUE(decoded.status.ok());
  EXPECT_EQ(decoded.clips_dispatched, response.clips_dispatched);
  EXPECT_EQ(decoded.next_clip, response.next_clip);
  EXPECT_EQ(decoded.feed_closed, response.feed_closed);
  ExpectAllPrefixesFail(payload, DecodeFeedResponse);
}

TEST(WireTest, EventFrameRoundTrip) {
  EventFrame event;
  event.subscription_id = 901;
  event.kind = 2;  // gap
  event.begin = 0;
  event.end = 0;
  event.dropped = 17;
  event.status = Status::ResourceExhausted("subscriber lagging");
  const std::string payload = PayloadOf(EncodeEvent(event));
  EventFrame decoded;
  ASSERT_TRUE(
      DecodeAs(payload, MessageType::kEvent, DecodeEvent, &decoded).ok());
  EXPECT_EQ(decoded.subscription_id, event.subscription_id);
  EXPECT_EQ(decoded.kind, event.kind);
  EXPECT_EQ(decoded.dropped, event.dropped);
  EXPECT_TRUE(decoded.status.IsResourceExhausted());
  ExpectAllPrefixesFail(payload, DecodeEvent);
}

TEST(WireTest, EventFrameRejectsHostileKind) {
  // kind bytes outside [1, 4] are meaningless; a decoder that let them
  // through would hand the client an event it cannot classify.
  EventFrame event;
  event.subscription_id = 1;
  event.kind = 1;
  event.begin = 3;
  event.end = 9;
  std::string payload = PayloadOf(EncodeEvent(event));
  // kind is the byte right after the 2-byte payload header + 8-byte id.
  const size_t kind_offset = 2 + 8;
  for (const uint8_t hostile : {0, 5, 200}) {
    payload[kind_offset] = static_cast<char>(hostile);
    EventFrame decoded;
    EXPECT_TRUE(DecodeAs(payload, MessageType::kEvent, DecodeEvent, &decoded)
                    .IsCorruption())
        << static_cast<int>(hostile);
  }
}

TEST(WireTest, UnsubscribeRoundTrip) {
  UnsubscribeRequest request;
  request.request_id = 51;
  request.subscription_id = 901;
  const std::string request_payload =
      PayloadOf(EncodeUnsubscribeRequest(request));
  UnsubscribeRequest decoded_request;
  ASSERT_TRUE(DecodeAs(request_payload, MessageType::kUnsubscribeRequest,
                       DecodeUnsubscribeRequest, &decoded_request)
                  .ok());
  EXPECT_EQ(decoded_request.request_id, request.request_id);
  EXPECT_EQ(decoded_request.subscription_id, request.subscription_id);
  ExpectAllPrefixesFail(request_payload, DecodeUnsubscribeRequest);

  UnsubscribeResponse response;
  response.request_id = 51;
  response.status = Status::NotFound("no subscription 901");
  const std::string response_payload =
      PayloadOf(EncodeUnsubscribeResponse(response));
  UnsubscribeResponse decoded_response;
  ASSERT_TRUE(DecodeAs(response_payload, MessageType::kUnsubscribeResponse,
                       DecodeUnsubscribeResponse, &decoded_response)
                  .ok());
  EXPECT_EQ(decoded_response.request_id, response.request_id);
  EXPECT_TRUE(decoded_response.status.IsNotFound());
  ExpectAllPrefixesFail(response_payload, DecodeUnsubscribeResponse);
}

TEST(WireTest, StreamFramesRejectTrailingGarbage) {
  FeedRequest feed;
  feed.feed = "f";
  feed.clip_count = 1;
  std::string payload = PayloadOf(EncodeFeedRequest(feed));
  payload += "x";
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  FeedRequest decoded;
  EXPECT_TRUE(DecodeFeedRequest(&cursor, &decoded).IsCorruption());
}

TEST(WireTest, HostileStatusCodeRejected) {
  // A status byte beyond the last defined StatusCode must be treated as
  // corruption, not cast blindly into the enum. In every response that
  // carries a status, its code byte follows the 2-byte header and the
  // 8-byte request id.
  constexpr size_t kStatusAt = 2 + 8;
  {
    SubscribeResponse response;
    response.request_id = 1;
    std::string payload = PayloadOf(EncodeSubscribeResponse(response));
    payload[kStatusAt] = static_cast<char>(250);
    SubscribeResponse decoded;
    EXPECT_TRUE(DecodeAs(payload, MessageType::kSubscribeResponse,
                         DecodeSubscribeResponse, &decoded)
                    .IsCorruption());
  }
  {
    std::string payload = PayloadOf(EncodeQueryResponse(SampleResponse()));
    payload[kStatusAt] = static_cast<char>(250);
    QueryResponse decoded;
    EXPECT_TRUE(DecodeAs(payload, MessageType::kQueryResponse,
                         DecodeQueryResponse, &decoded)
                    .IsCorruption());
  }
  {
    ExplainResponse response;
    response.request_id = 1;
    response.text = "plan";
    std::string payload = PayloadOf(EncodeExplainResponse(response));
    payload[kStatusAt] = static_cast<char>(250);
    ExplainResponse decoded;
    EXPECT_TRUE(DecodeAs(payload, MessageType::kExplainResponse,
                         DecodeExplainResponse, &decoded)
                    .IsCorruption());
  }
}

TEST(WireHistogramTest, PercentilesFromBuckets) {
  // svq_client reads p50/p99 off the histograms of a decoded STATS
  // response, so the percentiles must survive the wire.
  observability::HistogramSnapshot histogram;
  histogram.name = "svqd_query_latency_micros";
  histogram.count = 4;
  histogram.buckets[0] = 1;   // < 2 us
  histogram.buckets[1] = 1;   // [2, 4)
  histogram.buckets[9] = 1;   // [512, 1024)
  histogram.buckets[observability::kHistogramBuckets - 1] = 1;  // overflow
  observability::MetricsSnapshot stats;
  stats.histograms = {histogram, observability::HistogramSnapshot()};
  stats.histograms[1].name = "svqd_stats_latency_micros";

  const std::string payload = PayloadOf(EncodeStatsResponse(stats));
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsRequest;
  ASSERT_TRUE(DecodePayloadHeader(&cursor, &type).ok());
  observability::MetricsSnapshot decoded;
  ASSERT_TRUE(DecodeStatsResponse(&cursor, &decoded).ok());
  const observability::HistogramSnapshot* latency =
      decoded.FindHistogram("svqd_query_latency_micros");
  ASSERT_NE(latency, nullptr);
  EXPECT_LE(latency->PercentileMicros(0.5), 4.0);
  EXPECT_GT(latency->PercentileMicros(0.99), 1e6);
  const observability::HistogramSnapshot* empty =
      decoded.FindHistogram("svqd_stats_latency_micros");
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->PercentileMicros(0.5), 0.0);
}

}  // namespace
}  // namespace svq::server
