#include "svq/server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>

namespace svq::server {

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Dial(const std::string& host, uint16_t port, int* fd_out,
            bool* connected) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("invalid host address '" + host + "'");
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    *connected = true;
  } else if (errno == EINPROGRESS || errno == EINTR) {
    // An interrupted connect proceeds asynchronously, same as EINPROGRESS.
    *connected = false;
  } else {
    const Status status(StatusCode::kIOError,
                        "connect to " + host + ":" + std::to_string(port) +
                            ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  *fd_out = fd;
  return Status::OK();
}

Status Client::Connect(const std::string& host, uint16_t port,
                       std::chrono::milliseconds recv_timeout,
                       std::chrono::milliseconds connect_timeout) {
  Close();
  const std::string endpoint = host + ":" + std::to_string(port);
  bool connected = false;
  SVQ_RETURN_NOT_OK(Dial(host, port, &fd_, &connected));
  if (!connected) {
    // Wait for the handshake: a black-holed endpoint (no SYN-ACK, no RST)
    // fails within `connect_timeout` instead of hanging the caller; zero
    // waits as long as the kernel's SYN-retry budget, like a blocking
    // connect.
    pollfd pfd{fd_, POLLOUT, 0};
    const auto deadline = std::chrono::steady_clock::now() + connect_timeout;
    for (;;) {
      int wait_ms = -1;
      if (connect_timeout.count() > 0) {
        wait_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count());
        if (wait_ms <= 0) {
          Close();
          return Status::IOError("connect to " + endpoint + ": timed out");
        }
      }
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready > 0) break;
      if (ready == 0) {
        Close();
        return Status::IOError("connect to " + endpoint + ": timed out");
      }
      if (errno == EINTR) continue;
      const Status status(StatusCode::kIOError,
                          std::string("poll: ") + std::strerror(errno));
      Close();
      return status;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
        so_error != 0) {
      const Status status(
          StatusCode::kIOError,
          "connect to " + endpoint + ": " +
              std::strerror(so_error != 0 ? so_error : errno));
      Close();
      return status;
    }
  }
  // The client itself is blocking; SO_RCVTIMEO bounds every receive.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK) < 0) {
    const Status status(StatusCode::kIOError,
                        std::string("fcntl: ") + std::strerror(errno));
    Close();
    return status;
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(recv_timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((recv_timeout.count() % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return Status::OK();
}

Status Client::SendAll(const std::string& frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Client::RecvPayload(std::string* payload) {
  for (;;) {
    bool has_frame = false;
    SVQ_RETURN_NOT_OK(assembler_.Next(payload, &has_frame));
    if (has_frame) return Status::OK();
    char buffer[65536];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      assembler_.Feed(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::IOError("server closed the connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IOError("receive timed out waiting for the server");
    }
    return Status::IOError(std::string("recv: ") + std::strerror(errno));
  }
}

Status Client::RecvExpected(MessageType expected, std::string* payload) {
  for (;;) {
    SVQ_RETURN_NOT_OK(RecvPayload(payload));
    WireCursor cursor(*payload);
    MessageType type = expected;
    SVQ_RETURN_NOT_OK(DecodePayloadHeader(&cursor, &type));
    if (type == MessageType::kEvent) {
      // A standing query pushed between our request and its response —
      // stash it for NextEvent and keep waiting.
      EventFrame event;
      SVQ_RETURN_NOT_OK(DecodeEvent(&cursor, &event));
      event_stash_.push_back(std::move(event));
      continue;
    }
    if (type != expected) {
      return Status::Corruption(
          "expected frame type " +
          std::to_string(static_cast<int>(expected)) + ", got " +
          std::to_string(static_cast<int>(type)));
    }
    return Status::OK();
  }
}

Result<QueryResponse> Client::Execute(const std::string& statement,
                                      uint32_t timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  QueryRequest request;
  request.request_id = next_request_id_++;
  request.statement = statement;
  request.timeout_ms = timeout_ms;
  SVQ_RETURN_NOT_OK(SendAll(EncodeQueryRequest(request)));

  std::string payload;
  SVQ_RETURN_NOT_OK(RecvExpected(MessageType::kQueryResponse, &payload));
  WireCursor cursor(payload);
  MessageType type = MessageType::kQueryResponse;
  SVQ_RETURN_NOT_OK(DecodePayloadHeader(&cursor, &type));
  QueryResponse response;
  SVQ_RETURN_NOT_OK(DecodeQueryResponse(&cursor, &response));
  if (response.request_id != request.request_id) {
    return Status::Corruption("response correlation id mismatch");
  }
  return response;
}

Result<ExplainResponse> Client::Explain(const std::string& statement,
                                        bool analyze, uint32_t timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  ExplainRequest request;
  request.request_id = next_request_id_++;
  request.statement = statement;
  request.analyze = analyze;
  request.timeout_ms = timeout_ms;
  SVQ_RETURN_NOT_OK(SendAll(EncodeExplainRequest(request)));

  std::string payload;
  SVQ_RETURN_NOT_OK(RecvExpected(MessageType::kExplainResponse, &payload));
  WireCursor cursor(payload);
  MessageType type = MessageType::kExplainResponse;
  SVQ_RETURN_NOT_OK(DecodePayloadHeader(&cursor, &type));
  ExplainResponse response;
  SVQ_RETURN_NOT_OK(DecodeExplainResponse(&cursor, &response));
  if (response.request_id != request.request_id) {
    return Status::Corruption("response correlation id mismatch");
  }
  return response;
}

Result<observability::MetricsSnapshot> Client::GetStats() {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  SVQ_RETURN_NOT_OK(SendAll(EncodeStatsRequest()));
  std::string payload;
  SVQ_RETURN_NOT_OK(RecvExpected(MessageType::kStatsResponse, &payload));
  WireCursor cursor(payload);
  MessageType type = MessageType::kStatsResponse;
  SVQ_RETURN_NOT_OK(DecodePayloadHeader(&cursor, &type));
  observability::MetricsSnapshot stats;
  SVQ_RETURN_NOT_OK(DecodeStatsResponse(&cursor, &stats));
  return stats;
}

Result<SubscribeResponse> Client::Subscribe(const std::string& feed,
                                            const std::string& statement,
                                            uint8_t mode,
                                            uint32_t queue_capacity,
                                            uint32_t timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  SubscribeRequest request;
  request.request_id = next_request_id_++;
  request.feed = feed;
  request.statement = statement;
  request.mode = mode;
  request.queue_capacity = queue_capacity;
  request.timeout_ms = timeout_ms;
  SVQ_RETURN_NOT_OK(SendAll(EncodeSubscribeRequest(request)));

  std::string payload;
  SVQ_RETURN_NOT_OK(RecvExpected(MessageType::kSubscribeResponse, &payload));
  WireCursor cursor(payload);
  MessageType type = MessageType::kSubscribeResponse;
  SVQ_RETURN_NOT_OK(DecodePayloadHeader(&cursor, &type));
  SubscribeResponse response;
  SVQ_RETURN_NOT_OK(DecodeSubscribeResponse(&cursor, &response));
  if (response.request_id != request.request_id) {
    return Status::Corruption("response correlation id mismatch");
  }
  return response;
}

Result<FeedResponse> Client::FeedClips(const std::string& feed,
                                       int64_t clip_count) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  FeedRequest request;
  request.request_id = next_request_id_++;
  request.feed = feed;
  request.clip_count = clip_count;
  SVQ_RETURN_NOT_OK(SendAll(EncodeFeedRequest(request)));

  std::string payload;
  SVQ_RETURN_NOT_OK(RecvExpected(MessageType::kFeedResponse, &payload));
  WireCursor cursor(payload);
  MessageType type = MessageType::kFeedResponse;
  SVQ_RETURN_NOT_OK(DecodePayloadHeader(&cursor, &type));
  FeedResponse response;
  SVQ_RETURN_NOT_OK(DecodeFeedResponse(&cursor, &response));
  if (response.request_id != request.request_id) {
    return Status::Corruption("response correlation id mismatch");
  }
  return response;
}

Result<UnsubscribeResponse> Client::Unsubscribe(uint64_t subscription_id) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  UnsubscribeRequest request;
  request.request_id = next_request_id_++;
  request.subscription_id = subscription_id;
  SVQ_RETURN_NOT_OK(SendAll(EncodeUnsubscribeRequest(request)));

  std::string payload;
  SVQ_RETURN_NOT_OK(
      RecvExpected(MessageType::kUnsubscribeResponse, &payload));
  WireCursor cursor(payload);
  MessageType type = MessageType::kUnsubscribeResponse;
  SVQ_RETURN_NOT_OK(DecodePayloadHeader(&cursor, &type));
  UnsubscribeResponse response;
  SVQ_RETURN_NOT_OK(DecodeUnsubscribeResponse(&cursor, &response));
  if (response.request_id != request.request_id) {
    return Status::Corruption("response correlation id mismatch");
  }
  return response;
}

Result<EventFrame> Client::NextEvent() {
  if (!event_stash_.empty()) {
    EventFrame event = std::move(event_stash_.front());
    event_stash_.pop_front();
    return event;
  }
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  std::string payload;
  SVQ_RETURN_NOT_OK(RecvPayload(&payload));
  WireCursor cursor(payload);
  MessageType type = MessageType::kEvent;
  SVQ_RETURN_NOT_OK(DecodePayloadHeader(&cursor, &type));
  if (type != MessageType::kEvent) {
    return Status::Corruption("expected an event frame");
  }
  EventFrame event;
  SVQ_RETURN_NOT_OK(DecodeEvent(&cursor, &event));
  return event;
}

}  // namespace svq::server
