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
#include <deque>
#include <thread>
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

/// A loop's longest sleep: how soon it notices a drain or stop.
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
  Connection(ConnectionId id, int fd, size_t max_frame_bytes, Loop* loop)
      : id(id), loop(loop), assembler(max_frame_bytes), fd(fd) {}

  const ConnectionId id;
  /// The loop that owns the connection.
  Loop* const loop;
  /// Owning loop only.
  FrameAssembler assembler;
  bool close_after_flush = false;
  bool closed = false;
  /// Cancellation of this connection's admitted, unfinished jobs, by job
  /// id (guarded by Transport::mu_); fired on disconnect and by drain.
  std::vector<std::pair<uint64_t, CancellationSource>> inflight;

  /// Guards the socket and its write side. The owning loop closes `fd`
  /// under it, so a writer on another thread never touches a closed (or
  /// reused) descriptor.
  std::mutex mu;
  int fd;
  /// Frames the socket has not taken, oldest first; the front may be
  /// partly written (`write_offset` bytes).
  std::deque<std::string> outbox;
  size_t write_offset = 0;
  /// A write failed; the owning loop closes the connection.
  bool broken = false;
};

struct Transport::Loop {
  explicit Loop(size_t index) : index(index) {}

  const size_t index;
  int wake_read_fd = -1;
  int wake_write_fd = -1;
  /// Connections placed on this loop and not closed (guarded by
  /// Transport::mu_).
  int open = 0;
  /// Connections loop 0 handed over and this loop has not taken yet.
  std::mutex inbox_mu;
  std::vector<ConnectionPtr> inbox;
  /// This loop's thread only.
  std::vector<ConnectionPtr> connections;
  std::vector<Entry> batch;
  std::vector<Driven> driven;
  std::thread thread;
};

Transport::Transport(TransportOptions options, TransportMetrics metrics,
                     Handler* handler)
    : options_(std::move(options)), metrics_(metrics), handler_(handler) {}

Transport::~Transport() {
  Shutdown(std::chrono::milliseconds(0));
  // The wake pipes outlive Shutdown: a thread outside the transport may
  // still be inside Send while it runs.
  for (const std::unique_ptr<Loop>& loop : loops_) {
    if (loop->wake_read_fd >= 0) ::close(loop->wake_read_fd);
    if (loop->wake_write_fd >= 0) ::close(loop->wake_write_fd);
  }
}

Status Transport::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (started_) return Status::FailedPrecondition("server already started");
  if (options_.loops < 1) {
    return Status::InvalidArgument("a transport needs at least one loop");
  }

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
  for (int i = 0; i < options_.loops; ++i) {
    auto loop = std::make_unique<Loop>(static_cast<size_t>(i));
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) {
      return fail(
          Status::IOError(std::string("pipe2: ") + std::strerror(errno)));
    }
    loop->wake_read_fd = pipe_fds[0];
    loop->wake_write_fd = pipe_fds[1];
    loops_.push_back(std::move(loop));
  }

  started_ = true;
  for (const std::unique_ptr<Loop>& loop : loops_) {
    loop->thread = std::thread([this, &loop = *loop]() { RunLoop(loop); });
  }
  return Status::OK();
}

void Transport::Wake(Loop& loop) {
  const char byte = 1;
  // EAGAIN means a wake is already pending — exactly what we need.
  [[maybe_unused]] const ssize_t n = ::write(loop.wake_write_fd, &byte, 1);
}

void Transport::RefreshGaugesLocked() {
  if (metrics_.connections_open != nullptr) {
    metrics_.connections_open->Set(static_cast<double>(connections_.size()));
  }
  if (metrics_.queue_depth != nullptr) {
    metrics_.queue_depth->Set(static_cast<double>(admitted_ - running_));
  }
  if (metrics_.in_flight != nullptr) {
    metrics_.in_flight->Set(static_cast<double>(running_));
  }
}

// ---------------------------------------------------------------------------
// The loops.

void Transport::RunLoop(Loop& loop) {
  std::vector<pollfd> fds;
  std::vector<ConnectionPtr> polled;
  std::vector<ConnectionPtr> broken;
  for (;;) {
    fds.clear();
    polled.clear();
    broken.clear();
    const bool stopping = stop_.load(std::memory_order_acquire);
    if (loop.index == 0 && listen_fd_ >= 0 &&
        draining_.load(std::memory_order_acquire)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    fds.push_back({loop.wake_read_fd, POLLIN, 0});
    const bool listening = loop.index == 0 && listen_fd_ >= 0;
    if (listening) fds.push_back({listen_fd_, POLLIN, 0});
    bool pending = false;
    for (const ConnectionPtr& conn : loop.connections) {
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
    for (const ConnectionPtr& conn : broken) Close(conn);
    if (stopping && (!pending || Clock::now() >= flush_deadline_)) break;
    const Clock::time_point now = Clock::now();
    Clock::time_point wake = now + kIoPollInterval;
    PrepareTasks(loop, now, &fds, &wake);
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
    AdvanceTasks(loop, fds);
    if (fds[0].revents & POLLIN) {
      char scratch[256];
      while (::read(loop.wake_read_fd, scratch, sizeof(scratch)) > 0) {
      }
      TakeInbox(loop);
    }
    if (listening && (fds[1].revents & POLLIN)) AcceptPending(loop);
    const size_t base = 1 + (listening ? 1 : 0);
    for (size_t i = 0; i < polled.size(); ++i) {
      if (fds[base + i].revents & (POLLIN | POLLHUP | POLLERR)) {
        ReadFrom(loop, polled[i]);
      }
    }
    RunBatch(loop);
    for (const ConnectionPtr& conn : polled) {
      if (!conn->closed && Flush(conn)) Close(conn);
    }
  }
}

void Transport::AcceptPending(Loop& loop) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;  // interrupted: retry immediately
      return;  // EAGAIN or a transient error: try next poll round
    }
    ConnectionPtr conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (static_cast<int>(connections_.size()) >= options_.max_connections) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // The loop with the fewest open connections, lowest index on ties.
      Loop* target = loops_.front().get();
      for (const std::unique_ptr<Loop>& candidate : loops_) {
        if (candidate->open < target->open) target = candidate.get();
      }
      ++target->open;
      conn = std::make_shared<Connection>(next_connection_id_++, fd,
                                          options_.max_frame_bytes, target);
      connections_.emplace(conn->id, conn);
      if (metrics_.connections_opened != nullptr) {
        metrics_.connections_opened->Increment();
      }
      RefreshGaugesLocked();
    }
    if (conn->loop == &loop) {
      loop.connections.push_back(std::move(conn));
      continue;
    }
    Loop& target = *conn->loop;
    {
      std::lock_guard<std::mutex> lock(target.inbox_mu);
      target.inbox.push_back(std::move(conn));
    }
    Wake(target);
  }
}

void Transport::TakeInbox(Loop& loop) {
  std::lock_guard<std::mutex> lock(loop.inbox_mu);
  for (ConnectionPtr& conn : loop.inbox) {
    loop.connections.push_back(std::move(conn));
  }
  loop.inbox.clear();
}

void Transport::ReadFrom(Loop& loop, const ConnectionPtr& conn) {
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
    return;
  }
  // Once a reply that ends the connection is out, later frames go unread.
  while (!conn->close_after_flush) {
    std::string payload;
    bool has_frame = false;
    if (!conn->assembler.Next(&payload, &has_frame).ok()) {
      // Oversized frame: the stream cannot be resynchronized.
      Close(conn);
      return;
    }
    if (!has_frame) break;
    HandleFrame(loop, conn, payload);
  }
}

void Transport::HandleFrame(Loop& loop, const ConnectionPtr& conn,
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
    Entry entry;
    entry.connection = conn;
    entry.reply = EncodeFailure(EncodeQueryResponse, 0, header);
    loop.batch.push_back(std::move(entry));
    return;
  }
  Dispatch dispatch = handler_->Decode({conn->id, type, &cursor, received});
  if (dispatch.job.run || dispatch.job.start) {
    Admit(loop, conn, std::move(dispatch.job));
    return;
  }
  Entry entry;
  entry.connection = conn;
  entry.reply = std::move(dispatch.reply);
  loop.batch.push_back(std::move(entry));
}

void Transport::Admit(Loop& loop, const ConnectionPtr& conn, Job job) {
  Entry entry;
  entry.connection = conn;
  std::string why;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load(std::memory_order_relaxed)) {
      why = "server draining, not accepting new queries";
    } else if (admitted_ >= options_.max_admitted) {
      why = "admission bound reached (" + std::to_string(running_) +
            " running + " + std::to_string(admitted_ - running_) +
            " waiting); retry later";
    } else {
      if (metrics_.admitted != nullptr) metrics_.admitted->Increment();
      if (job.admitted != nullptr) job.admitted->Increment();
      entry.id = next_job_id_++;
      conn->inflight.emplace_back(entry.id, entry.cancel);
      ++admitted_;
      RefreshGaugesLocked();
    }
    if (!why.empty() && metrics_.rejected != nullptr) {
      metrics_.rejected->Increment();
    }
  }
  if (why.empty()) {
    entry.job = std::move(job);
  } else {
    entry.reply = job.reject(Status::ResourceExhausted(std::move(why)));
  }
  loop.batch.push_back(std::move(entry));
}

void Transport::RunBatch(Loop& loop) {
  for (Entry& entry : loop.batch) {
    if (entry.job.run || entry.job.start) {
      Execute(loop, entry);
    } else {
      SendTo(entry.connection, std::move(entry.reply));
    }
  }
  loop.batch.clear();
}

void Transport::Execute(Loop& loop, Entry& entry) {
  const ConnectionPtr& conn = entry.connection;
  const CancellationToken cancel = entry.cancel.token();
  if (cancel.cancelled()) {
    // Its connection closed (nobody to answer), or drain gave up on it.
    Release(conn, entry.id, /*ran=*/false);
    if (!conn->closed) {
      if (metrics_.cancelled != nullptr) metrics_.cancelled->Increment();
      SendTo(conn, entry.job.reject(Status::Cancelled("server shutting down")));
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++running_;
    RefreshGaugesLocked();
  }
  if (entry.job.start) {
    // Driven by this loop from its next poll round on.
    Driven driven;
    driven.id = entry.id;
    driven.connection = conn;
    driven.task = entry.job.start(cancel);
    loop.driven.push_back(std::move(driven));
    return;
  }
  std::string frame = entry.job.run(cancel);
  // The job no longer counts once its response exists, so a client that
  // answers the response with its next request finds the slot free.
  Release(conn, entry.id, /*ran=*/true);
  SendTo(conn, std::move(frame));
}

void Transport::Release(const ConnectionPtr& conn, uint64_t id, bool ran) {
  bool draining = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(conn->inflight,
                  [id](const auto& job) { return job.first == id; });
    --admitted_;
    if (ran) --running_;
    RefreshGaugesLocked();
    draining = draining_.load(std::memory_order_relaxed);
  }
  if (draining) drain_cv_.notify_all();
}

void Transport::PrepareTasks(Loop& loop, Clock::time_point now,
                             std::vector<pollfd>* fds,
                             Clock::time_point* wake) {
  for (Driven& driven : loop.driven) {
    driven.first_fd = fds->size();
    driven.finished = driven.task->Prepare(now, fds, wake);
    driven.num_fds = fds->size() - driven.first_fd;
    if (driven.finished) Complete(driven);
  }
  std::erase_if(loop.driven,
                [](const Driven& driven) { return driven.finished; });
}

void Transport::AdvanceTasks(Loop& loop, const std::vector<pollfd>& fds) {
  const Clock::time_point now = Clock::now();
  for (Driven& driven : loop.driven) {
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
  std::erase_if(loop.driven,
                [](const Driven& driven) { return driven.finished; });
}

void Transport::Complete(Driven& driven) {
  SendTo(driven.connection, driven.task->Finish());
  Release(driven.connection, driven.id, /*ran=*/true);
}

void Transport::SendTo(const ConnectionPtr& conn, std::string frame) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd < 0 || conn->broken) return;
    if (!conn->outbox.empty()) {
      // The owning loop is flushing a backlog; keep frames in order.
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
  // A backlog or a dead socket: the owning loop takes it from here.
  Wake(*conn->loop);
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
  if (conn->closed) return;
  conn->closed = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A vanished client abandons its jobs: its driven tasks unwind, and its
    // loop drops the jobs it has not run yet.
    for (auto& [id, source] : conn->inflight) source.Cancel();
    conn->inflight.clear();
    connections_.erase(conn->id);
    --conn->loop->open;
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
  std::erase(conn->loop->connections, conn);
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
// Lifecycle.

void Transport::Shutdown(std::chrono::milliseconds drain_timeout) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!started_ || shut_down_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  Wake(*loops_.front());  // loop 0 closes the listen socket on its next pass
  const auto idle = [this]() { return admitted_ == 0; };
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Give admitted jobs the drain budget to finish on their own.
    drain_cv_.wait_for(lock, drain_timeout, idle);
    // Budget exhausted: fire the cancellation of every admitted job. Jobs
    // poll it cooperatively, so running ones unwind promptly, and each loop
    // answers the jobs it has not run yet with kCancelled.
    for (const auto& [id, conn] : connections_) {
      for (auto& [job, source] : conn->inflight) source.Cancel();
    }
  }
  // Driven tasks see their cancellation on their loop.
  for (const std::unique_ptr<Loop>& loop : loops_) Wake(*loop);
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, idle);
    flush_deadline_ = Clock::now() + std::chrono::seconds(1);
    stop_.store(true, std::memory_order_release);
    shut_down_ = true;
  }
  for (const std::unique_ptr<Loop>& loop : loops_) Wake(*loop);
  for (const std::unique_ptr<Loop>& loop : loops_) loop->thread.join();
  // The loops have exited: sockets are single-owner again.
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
