#ifndef SVQ_SERVER_TRANSPORT_H_
#define SVQ_SERVER_TRANSPORT_H_

#include <poll.h>

#include <chrono>
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

#include "svq/common/execution_context.h"
#include "svq/common/status.h"
#include "svq/observability/metrics.h"
#include "svq/server/wire.h"

namespace svq::server {

/// Names one accepted connection for the life of a Transport.
using ConnectionId = uint64_t;

/// An admitted request that the IO thread drives itself instead of handing
/// it to a worker: one that spends its life waiting on other sockets (the
/// router's backend calls), so no thread is held while it waits. Every
/// call comes from the IO thread.
class Task {
 public:
  using Clock = ExecutionContext::Clock;

  virtual ~Task() = default;
  /// Fires the task's due timers and appends the sockets it waits on to
  /// `*fds`, lowering `*wake` to its next timer. Returns true once the task
  /// is finished (it appends nothing then).
  virtual bool Prepare(Clock::time_point now, std::vector<pollfd>* fds,
                       Clock::time_point* wake) = 0;
  /// Handles poll's verdict on the sockets the last Prepare appended, in
  /// the same order (`fds` points at the first). Returns true once the task
  /// is finished.
  virtual bool Advance(Clock::time_point now, const pollfd* fds) = 0;
  /// The encoded response frame of a finished task.
  virtual std::string Finish() = 0;
};

/// One admitted request. A handler builds it on the IO thread; a transport
/// worker runs it, or the IO thread drives it.
struct Job {
  /// Runs on a worker and returns the encoded response frame. `cancel`
  /// fires when the client disconnects or drain gives up on the request.
  std::function<std::string(const CancellationToken& cancel)> run;
  /// Set instead of `run` for a job the IO thread drives: builds its task
  /// once the job is admitted. The task must finish promptly once `cancel`
  /// has fired; the IO thread looks at it again right after.
  std::function<std::unique_ptr<Task>(const CancellationToken& cancel)>
      start;
  /// Encodes `status` in the verb's own response type: the answer to a
  /// request the transport turns away (queue full, draining) or cancels in
  /// drain before it ran.
  std::function<std::string(const Status& status)> reject;
  /// Per-verb counter bumped when the job is admitted (may be null).
  observability::Counter* admitted = nullptr;
};

/// What a handler makes of one request frame: a reply sent at once, or a
/// job for the admission queue.
struct Dispatch {
  std::string reply;
  Job job;

  static Dispatch Reply(std::string frame) {
    Dispatch dispatch;
    dispatch.reply = std::move(frame);
    return dispatch;
  }
  static Dispatch Admit(Job job) {
    Dispatch dispatch;
    dispatch.job = std::move(job);
    return dispatch;
  }
};

/// One request frame as the IO thread received it.
struct Frame {
  ConnectionId connection = 0;
  /// A request verb (QUERY, STATS, EXPLAIN, SUBSCRIBE, FEED, UNSUBSCRIBE);
  /// the transport answers every other type itself.
  MessageType type = MessageType::kQueryRequest;
  /// Positioned at the message body.
  WireCursor* body = nullptr;
  ExecutionContext::Clock::time_point received{};
};

/// The verbs a server speaks, plugged into a Transport. Every call comes
/// from the IO thread with no transport lock held, so a handler may call
/// back into the transport (Send, Backlog).
class Handler {
 public:
  virtual ~Handler() = default;
  /// Decodes one request into a reply or an admitted job.
  virtual Dispatch Decode(const Frame& frame) = 0;
  /// The connection is gone; the cancellation of its unfinished jobs has
  /// already fired.
  virtual void OnClose(ConnectionId /*connection*/) {}
  /// The IO thread flushed part of the connection's backlog.
  virtual void OnDrained(ConnectionId /*connection*/) {}
};

/// Bounds of one Transport.
struct TransportOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  /// Accepted connections beyond this are closed at once.
  int max_connections = 64;
  /// Worker threads for `run` jobs (0 when every job is driven by the IO
  /// thread).
  int workers = 4;
  /// Jobs admitted and unfinished — running, queued for a worker, or driven
  /// by the IO thread; a job beyond this is rejected.
  int max_admitted = 20;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// Registry entries the transport keeps current; any may be null.
struct TransportMetrics {
  observability::Counter* connections_opened = nullptr;
  observability::Gauge* connections_open = nullptr;
  observability::Gauge* queue_depth = nullptr;
  observability::Gauge* in_flight = nullptr;
  /// Jobs admitted and jobs turned away.
  observability::Counter* admitted = nullptr;
  observability::Counter* rejected = nullptr;
  /// Queued jobs answered with kCancelled by drain.
  observability::Counter* cancelled = nullptr;
};

/// The socket layer shared by svqd and svq_router (docs/server.md).
///
/// One IO thread owns listen and accept (with the connection cap), frame
/// assembly, and every close. A handler decodes each frame on the IO thread
/// into an immediate reply or a job; at most `max_admitted` jobs are
/// admitted and unfinished at once. A `run` job waits in the queue for one
/// of `workers` worker threads; a `start` job's task is driven by the IO
/// thread itself, its sockets polled beside the clients'. The thread that
/// produces a frame writes it straight to the socket when the connection
/// has no backlog; the IO thread flushes whatever a short write leaves
/// behind. A client that disconnects fires the cancellation of its
/// unfinished jobs.
///
/// Shutdown(drain) stops accepting, rejects new jobs with
/// kResourceExhausted, lets admitted jobs finish within the drain budget,
/// answers the remaining backlog with kCancelled and fires the cancellation
/// of running jobs, flushes responses (up to 1 s), then joins its threads.
class Transport {
 public:
  using Clock = ExecutionContext::Clock;

  /// `handler` is borrowed and must outlive the transport's threads.
  Transport(TransportOptions options, TransportMetrics metrics,
            Handler* handler);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Binds, listens, and starts the IO and worker threads. Errors: IOError,
  /// InvalidArgument (bad bind address), FailedPrecondition (started).
  Status Start();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  /// Graceful drain, then stop. Safe to call more than once.
  void Shutdown(std::chrono::milliseconds drain_timeout);

  /// Sends `frame` on `connection` from any thread, after every frame sent
  /// on it before; dropped when the connection is gone.
  void Send(ConnectionId connection, std::string frame);

  /// Frames queued on `connection` that the socket has not taken yet (0
  /// when the connection is gone).
  size_t Backlog(ConnectionId connection) const;

 private:
  struct Connection;
  using ConnectionPtr = std::shared_ptr<Connection>;
  struct Queued {
    uint64_t id = 0;
    ConnectionPtr connection;
    Job job;
    CancellationSource cancel;
  };
  /// A job the IO thread drives.
  struct Driven {
    uint64_t id = 0;
    ConnectionPtr connection;
    std::unique_ptr<Task> task;
    /// Its sockets in this round's poll set.
    size_t first_fd = 0;
    size_t num_fds = 0;
    bool finished = false;
  };

  void IoLoop();
  void WorkerLoop();
  void AcceptPending();
  /// Reads and handles every complete frame; false when the connection
  /// closed.
  bool ReadFrom(const ConnectionPtr& conn);
  void HandleFrame(const ConnectionPtr& conn, const std::string& payload);
  void Admit(const ConnectionPtr& conn, Job job);
  /// IO thread: fires the driven tasks' timers and adds their sockets to
  /// `*fds`; completes and drops the ones that finished.
  void PrepareTasks(Clock::time_point now, std::vector<pollfd>* fds,
                    Clock::time_point* wake);
  /// IO thread: hands each driven task poll's verdict on its sockets.
  void AdvanceTasks(const std::vector<pollfd>& fds);
  /// IO thread: sends a finished task's response and frees its slot.
  void Complete(Driven& driven);
  /// Writes `frame` directly when the outbox is empty, else queues it.
  void SendTo(const ConnectionPtr& conn, std::string frame);
  /// IO thread: writes the backlog; returns whether the connection must
  /// close (write error, or a close was requested and the backlog is out).
  bool Flush(const ConnectionPtr& conn);
  void Close(const ConnectionPtr& conn);
  ConnectionPtr Find(ConnectionId connection) const;
  void WakeIo();
  /// Gauges from queue/connection state (mu_ held).
  void RefreshGaugesLocked();

  const TransportOptions options_;
  const TransportMetrics metrics_;
  Handler* const handler_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;

  /// Serializes Start/Shutdown (mu_ cannot be held across joins).
  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool shut_down_ = false;

  /// Lock order: a handler's own lock, then mu_, then a Connection's mu.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue_ or stop_workers_
  std::condition_variable drain_cv_;  // Shutdown: queue and workers idle
  std::map<ConnectionId, ConnectionPtr> connections_;
  std::deque<Queued> queue_;
  ConnectionId next_connection_id_ = 1;
  uint64_t next_job_id_ = 1;
  /// Jobs running (on a worker or driven), and finished jobs whose
  /// response is still being sent.
  int in_flight_ = 0;
  int sending_ = 0;
  bool draining_ = false;
  bool stop_workers_ = false;
  bool stop_io_ = false;
  Clock::time_point io_flush_deadline_{};

  /// IO thread only.
  std::vector<Driven> driven_;

  std::thread io_thread_;
  std::vector<std::thread> workers_;
};

/// A `Response` carrying only `request_id` and `status`: how a handler
/// answers a request of that verb it cannot serve.
template <typename Response>
std::string EncodeFailure(std::string (*encode)(const Response&),
                          uint64_t request_id, Status status) {
  Response response;
  response.request_id = request_id;
  response.status = std::move(status);
  return encode(response);
}

/// Decodes a `Request` from `frame` into a job that calls
/// `run(request, cancel)` and is rejected with a `Response`. A request that
/// does not decode is answered at once with a `Response` carrying why.
template <typename Request, typename Response, typename Run>
Dispatch AdmitRequest(const Frame& frame,
                      Status (*decode)(WireCursor*, Request*),
                      std::string (*encode)(const Response&), Run run,
                      observability::Counter* admitted = nullptr) {
  Request request;
  const Status decoded = decode(frame.body, &request);
  if (!decoded.ok()) {
    return Dispatch::Reply(EncodeFailure(encode, request.request_id, decoded));
  }
  Job job;
  job.reject = [encode, id = request.request_id](const Status& status) {
    return EncodeFailure(encode, id, status);
  };
  job.run = [run = std::move(run), request = std::move(request)](
                const CancellationToken& cancel) {
    return run(request, cancel);
  };
  job.admitted = admitted;
  return Dispatch::Admit(std::move(job));
}

}  // namespace svq::server

#endif  // SVQ_SERVER_TRANSPORT_H_
