#include "svq/server/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace svq::server {

namespace {

bool IsRequest(MessageType type) {
  switch (type) {
    case MessageType::kQueryRequest:
    case MessageType::kStatsRequest:
    case MessageType::kExplainRequest:
    case MessageType::kSubscribeRequest:
    case MessageType::kFeedRequest:
    case MessageType::kUnsubscribeRequest:
      return true;
    default:
      return false;
  }
}

/// The IO thread's longest sleep: how soon it notices a drain or stop.
constexpr std::chrono::milliseconds kIoPollInterval{100};

/// Sends `data` from `*offset` until it is all out or the socket is full.
/// Returns false on a write error (the peer is gone).
bool WriteSome(int fd, const std::string& data, size_t* offset) {
  while (*offset < data.size()) {
    const ssize_t n = ::send(fd, data.data() + *offset, data.size() - *offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      *offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  return true;
}

}  // namespace

struct Transport::Connection {
  Connection(ConnectionId id, int fd, size_t max_frame_bytes)
      : id(id), assembler(max_frame_bytes), fd(fd) {}

  const ConnectionId id;
  /// IO thread only.
  FrameAssembler assembler;
  bool close_after_flush = false;
  /// Cancellation of this connection's admitted, unfinished jobs, by job
  /// id (guarded by Transport::mu_); fired on disconnect.
  std::map<uint64_t, CancellationSource> inflight;

  /// Guards the socket and its write side. The IO thread closes `fd` under
  /// it, so a writer on another thread never touches a closed (or reused)
  /// descriptor.
  std::mutex mu;
  int fd;
  /// Frames the socket has not taken, oldest first; the front may be
  /// partly written (`write_offset` bytes).
  std::deque<std::string> outbox;
  size_t write_offset = 0;
  /// A write failed; the IO thread closes the connection.
  bool broken = false;
};

Transport::Transport(TransportOptions options, TransportMetrics metrics,
                     Handler* handler)
    : options_(std::move(options)), metrics_(metrics), handler_(handler) {}

Transport::~Transport() {
  Shutdown(std::chrono::milliseconds(0));
  // The wake pipe outlives Shutdown: a thread outside the transport may
  // still be inside Send while it runs.
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

Status Transport::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (started_) return Status::FailedPrecondition("server already started");

  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const auto fail = [this](Status status) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  };
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail(Status::InvalidArgument("invalid bind address '" +
                                        options_.bind_address + "'"));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(Status::IOError(std::string("bind: ") + std::strerror(errno)));
  }
  if (::listen(listen_fd_, 128) < 0) {
    return fail(
        Status::IOError(std::string("listen: ") + std::strerror(errno)));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) {
    return fail(Status::IOError(std::string("pipe2: ") + std::strerror(errno)));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  started_ = true;
  workers_.reserve(static_cast<size_t>(std::max(0, options_.workers)));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
  io_thread_ = std::thread([this]() { IoLoop(); });
  return Status::OK();
}

void Transport::WakeIo() {
  if (wake_write_fd_ < 0) return;
  const char byte = 1;
  // EAGAIN means a wake is already pending — exactly what we need.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void Transport::RefreshGaugesLocked() {
  if (metrics_.connections_open != nullptr) {
    metrics_.connections_open->Set(static_cast<double>(connections_.size()));
  }
  if (metrics_.queue_depth != nullptr) {
    metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
  }
  if (metrics_.in_flight != nullptr) {
    metrics_.in_flight->Set(static_cast<double>(in_flight_));
  }
}

// ---------------------------------------------------------------------------
// IO thread.

void Transport::IoLoop() {
  std::vector<pollfd> fds;
  std::vector<ConnectionPtr> polled;
  std::vector<ConnectionPtr> broken;
  for (;;) {
    fds.clear();
    polled.clear();
    broken.clear();
    bool listening = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_ && listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      fds.push_back({wake_read_fd_, POLLIN, 0});
      if (listen_fd_ >= 0) {
        listening = true;
        fds.push_back({listen_fd_, POLLIN, 0});
      }
      bool pending = false;
      for (const auto& [id, conn] : connections_) {
        short events = POLLIN;
        {
          std::lock_guard<std::mutex> conn_lock(conn->mu);
          if (conn->broken) {
            broken.push_back(conn);
            continue;
          }
          if (!conn->outbox.empty()) {
            events |= POLLOUT;
            pending = true;
          }
        }
        fds.push_back({conn->fd, events, 0});
        polled.push_back(conn);
      }
      if (stop_io_ && (!pending || Clock::now() >= io_flush_deadline_)) {
        break;
      }
    }
    for (const ConnectionPtr& conn : broken) Close(conn);
    const Clock::time_point now = Clock::now();
    Clock::time_point wake = now + kIoPollInterval;
    PrepareTasks(now, &fds, &wake);
    const auto timeout =
        std::chrono::ceil<std::chrono::milliseconds>(wake - now).count();
    if (::poll(fds.data(), fds.size(),
               static_cast<int>(std::max<int64_t>(0, timeout))) < 0) {
      // EINTR: a signal (e.g. the drain handler) interrupted the wait —
      // loop and re-poll. Any other failure leaves revents unspecified, so
      // fall through to the next round rather than acting on them.
      continue;
    }
    // Driven tasks first: what they were waiting for may finish a request.
    AdvanceTasks(fds);
    if (fds[0].revents & POLLIN) {
      char scratch[256];
      while (::read(wake_read_fd_, scratch, sizeof(scratch)) > 0) {
      }
    }
    if (listening && (fds[1].revents & POLLIN)) AcceptPending();
    const size_t base = 1 + (listening ? 1 : 0);
    for (size_t i = 0; i < polled.size(); ++i) {
      const ConnectionPtr& conn = polled[i];
      if ((fds[base + i].revents & (POLLIN | POLLHUP | POLLERR)) &&
          !ReadFrom(conn)) {
        continue;  // closed
      }
      if (Flush(conn)) Close(conn);
    }
  }
}

void Transport::AcceptPending() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;  // interrupted: retry immediately
      return;  // EAGAIN or a transient error: try next poll round
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(next_connection_id_++, fd,
                                             options_.max_frame_bytes);
    connections_.emplace(conn->id, std::move(conn));
    if (metrics_.connections_opened != nullptr) {
      metrics_.connections_opened->Increment();
    }
    RefreshGaugesLocked();
  }
}

bool Transport::ReadFrom(const ConnectionPtr& conn) {
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->assembler.Feed(buffer, static_cast<size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buffer))) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // interrupted: retry the recv
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or a hard error: the peer is gone.
    Close(conn);
    return false;
  }
  // Once a reply that ends the connection is out, later frames go unread.
  while (!conn->close_after_flush) {
    std::string payload;
    bool has_frame = false;
    if (!conn->assembler.Next(&payload, &has_frame).ok()) {
      // Oversized frame: the stream cannot be resynchronized.
      Close(conn);
      return false;
    }
    if (!has_frame) break;
    HandleFrame(conn, payload);
  }
  return true;
}

void Transport::HandleFrame(const ConnectionPtr& conn,
                            const std::string& payload) {
  const Clock::time_point received = Clock::now();
  WireCursor cursor(payload);
  MessageType type = MessageType::kQueryRequest;
  Status header = DecodePayloadHeader(&cursor, &type);
  if (header.ok() && !IsRequest(type)) {
    header = Status::InvalidArgument("response frames are server-to-client");
  }
  if (!header.ok()) {
    // Unknown version or type: answer once, then drop the connection — the
    // peer speaks a different protocol.
    conn->close_after_flush = true;
    SendTo(conn, EncodeFailure(EncodeQueryResponse, 0, header));
    return;
  }
  Dispatch dispatch = handler_->Decode({conn->id, type, &cursor, received});
  if (dispatch.job.run || dispatch.job.start) {
    Admit(conn, std::move(dispatch.job));
    return;
  }
  SendTo(conn, std::move(dispatch.reply));
}

void Transport::Admit(const ConnectionPtr& conn, Job job) {
  std::string why;
  Driven driven;
  CancellationSource cancel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      why = "server draining, not accepting new queries";
    } else if (static_cast<int>(queue_.size()) + in_flight_ >=
               options_.max_admitted) {
      why = "admission queue full (" + std::to_string(in_flight_) +
            " in flight + " + std::to_string(queue_.size()) +
            " queued); retry later";
    } else {
      if (metrics_.admitted != nullptr) metrics_.admitted->Increment();
      if (job.admitted != nullptr) job.admitted->Increment();
      const uint64_t id = next_job_id_++;
      conn->inflight.emplace(id, cancel);
      if (job.start) {
        // Driven by this (the IO) thread from its next poll round on.
        ++in_flight_;
        driven.id = id;
        driven.connection = conn;
      } else {
        Queued item;
        item.id = id;
        item.connection = conn;
        item.job = std::move(job);
        item.cancel = cancel;
        queue_.push_back(std::move(item));
      }
      RefreshGaugesLocked();
    }
    if (!why.empty() && metrics_.rejected != nullptr) {
      metrics_.rejected->Increment();
    }
  }
  if (!why.empty()) {
    SendTo(conn, job.reject(Status::ResourceExhausted(std::move(why))));
  } else if (driven.connection != nullptr) {
    driven.task = job.start(cancel.token());
    driven_.push_back(std::move(driven));
  } else {
    // Notified after unlocking, so the worker does not wake into a held
    // mutex and sleep again.
    work_cv_.notify_one();
  }
}

void Transport::PrepareTasks(Clock::time_point now, std::vector<pollfd>* fds,
                             Clock::time_point* wake) {
  for (Driven& driven : driven_) {
    driven.first_fd = fds->size();
    driven.finished = driven.task->Prepare(now, fds, wake);
    driven.num_fds = fds->size() - driven.first_fd;
    if (driven.finished) Complete(driven);
  }
  std::erase_if(driven_, [](const Driven& driven) { return driven.finished; });
}

void Transport::AdvanceTasks(const std::vector<pollfd>& fds) {
  const Clock::time_point now = Clock::now();
  for (Driven& driven : driven_) {
    if (driven.num_fds == 0) continue;
    const pollfd* first = fds.data() + driven.first_fd;
    const bool ready = std::any_of(
        first, first + driven.num_fds,
        [](const pollfd& fd) { return fd.revents != 0; });
    if (ready && driven.task->Advance(now, first)) {
      driven.finished = true;
      Complete(driven);
    }
  }
  std::erase_if(driven_, [](const Driven& driven) { return driven.finished; });
}

void Transport::Complete(Driven& driven) {
  SendTo(driven.connection, driven.task->Finish());
  {
    std::lock_guard<std::mutex> lock(mu_);
    driven.connection->inflight.erase(driven.id);
    --in_flight_;
    RefreshGaugesLocked();
  }
  drain_cv_.notify_all();
}

void Transport::SendTo(const ConnectionPtr& conn, std::string frame) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd < 0 || conn->broken) return;
    if (!conn->outbox.empty()) {
      // The IO thread is flushing a backlog; keep frames in order.
      conn->outbox.push_back(std::move(frame));
      return;
    }
    // No backlog: the producing thread writes the frame itself.
    size_t offset = 0;
    if (!WriteSome(conn->fd, frame, &offset)) {
      conn->broken = true;
    } else if (offset == frame.size()) {
      return;
    } else {
      conn->outbox.push_back(std::move(frame));
      conn->write_offset = offset;
    }
  }
  // A backlog or a dead socket: the IO thread takes it from here.
  WakeIo();
}

bool Transport::Flush(const ConnectionPtr& conn) {
  bool progressed = false;
  bool close = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (!conn->outbox.empty() && !conn->broken) {
      const std::string& front = conn->outbox.front();
      const size_t before = conn->write_offset;
      if (!WriteSome(conn->fd, front, &conn->write_offset)) {
        conn->broken = true;
        break;
      }
      progressed |= conn->write_offset > before;
      if (conn->write_offset < front.size()) break;
      conn->outbox.pop_front();
      conn->write_offset = 0;
    }
    close = conn->broken ||
            (conn->close_after_flush && conn->outbox.empty());
  }
  if (progressed && !close) handler_->OnDrained(conn->id);
  return close;
}

void Transport::Close(const ConnectionPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A vanished client abandons its jobs: fire their cancellation so
    // in-flight work unwinds instead of computing a result nobody reads.
    for (auto& [id, source] : conn->inflight) source.Cancel();
    conn->inflight.clear();
    connections_.erase(conn->id);
    RefreshGaugesLocked();
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
    conn->outbox.clear();
  }
  handler_->OnClose(conn->id);
}

Transport::ConnectionPtr Transport::Find(ConnectionId connection) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = connections_.find(connection);
  return it == connections_.end() ? nullptr : it->second;
}

void Transport::Send(ConnectionId connection, std::string frame) {
  if (ConnectionPtr conn = Find(connection)) SendTo(conn, std::move(frame));
}

size_t Transport::Backlog(ConnectionId connection) const {
  const ConnectionPtr conn = Find(connection);
  if (conn == nullptr) return 0;
  std::lock_guard<std::mutex> lock(conn->mu);
  return conn->outbox.size();
}

// ---------------------------------------------------------------------------
// Workers.

void Transport::WorkerLoop() {
  for (;;) {
    Queued item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this]() { return stop_workers_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_workers_ with a drained queue
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      RefreshGaugesLocked();
    }
    std::string frame = item.job.run(item.cancel.token());
    {
      // The job no longer holds a worker slot once its response exists, so
      // a client that answers the response with its next request finds the
      // slot free; drain still waits for the send.
      std::lock_guard<std::mutex> lock(mu_);
      item.connection->inflight.erase(item.id);
      --in_flight_;
      ++sending_;
      RefreshGaugesLocked();
    }
    SendTo(item.connection, std::move(frame));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --sending_;
    }
    drain_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Lifecycle.

void Transport::Shutdown(std::chrono::milliseconds drain_timeout) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!started_ || shut_down_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  WakeIo();  // the IO loop closes the listen socket on its next pass
  const auto idle = [this]() { return in_flight_ == 0 && sending_ == 0; };
  std::deque<Queued> backlog;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Give admitted jobs the drain budget to finish on their own.
    drain_cv_.wait_for(lock, drain_timeout,
                       [&]() { return queue_.empty() && idle(); });
    // Budget exhausted: take the backlog (answered below, unlocked) and
    // fire cancellation on everything still running; jobs poll it
    // cooperatively, so workers unwind promptly.
    backlog.swap(queue_);
    for (const Queued& item : backlog) {
      item.connection->inflight.erase(item.id);
    }
    for (const auto& [id, conn] : connections_) {
      for (auto& [job, source] : conn->inflight) source.Cancel();
    }
    RefreshGaugesLocked();
  }
  WakeIo();  // driven tasks see their cancellation on the IO thread
  for (Queued& item : backlog) {
    if (metrics_.cancelled != nullptr) metrics_.cancelled->Increment();
    SendTo(item.connection,
           item.job.reject(Status::Cancelled("server shutting down")));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, idle);
    stop_workers_ = true;
    stop_io_ = true;
    io_flush_deadline_ = Clock::now() + std::chrono::seconds(1);
    shut_down_ = true;
    RefreshGaugesLocked();
  }
  work_cv_.notify_all();
  WakeIo();
  for (std::thread& worker : workers_) worker.join();
  if (io_thread_.joinable()) io_thread_.join();
  // The IO thread has exited: sockets are single-owner again.
  std::map<ConnectionId, ConnectionPtr> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
    RefreshGaugesLocked();
  }
  for (const auto& [id, conn] : connections) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace svq::server
