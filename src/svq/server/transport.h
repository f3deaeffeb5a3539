#ifndef SVQ_SERVER_TRANSPORT_H_
#define SVQ_SERVER_TRANSPORT_H_

#include <poll.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "svq/common/execution_context.h"
#include "svq/common/status.h"
#include "svq/observability/metrics.h"
#include "svq/server/wire.h"

namespace svq::server {

/// Names one accepted connection for the life of a Transport.
using ConnectionId = uint64_t;

/// An admitted request that the loop owning its connection drives instead
/// of running inline: one that spends its life waiting on other sockets
/// (the router's backend calls), so the loop serves its other connections
/// while it waits. Every call comes from that loop.
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

/// One admitted request. A handler builds it on the loop that owns the
/// connection, and that loop runs it inline or drives it.
struct Job {
  /// Runs on the loop and returns the encoded response frame. `cancel`
  /// fires when drain gives up on the request.
  std::function<std::string(const CancellationToken& cancel)> run;
  /// Set instead of `run` for a job the loop drives: builds its task once
  /// the loop reaches the job. The task must finish promptly once `cancel`
  /// has fired (the client disconnected, or drain gave up on it); the loop
  /// looks at it again right after.
  std::function<std::unique_ptr<Task>(const CancellationToken& cancel)>
      start;
  /// Encodes `status` in the verb's own response type: the answer to a
  /// request the transport turns away (bound reached, draining) or cancels
  /// in drain before it ran.
  std::function<std::string(const Status& status)> reject;
  /// Per-verb counter bumped when the job is admitted (may be null).
  observability::Counter* admitted = nullptr;
};

/// What a handler makes of one request frame: a reply, or a job to admit.
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

/// One request frame as the loop that owns its connection received it.
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
/// from the loop that owns the connection, with no transport lock held, so
/// a handler may call back into the transport (Send, Backlog).
class Handler {
 public:
  virtual ~Handler() = default;
  /// Decodes one request into a reply or an admitted job.
  virtual Dispatch Decode(const Frame& frame) = 0;
  /// The connection is gone; the cancellation of its unfinished jobs has
  /// already fired.
  virtual void OnClose(ConnectionId /*connection*/) {}
  /// The loop flushed part of the connection's backlog.
  virtual void OnDrained(ConnectionId /*connection*/) {}
};

/// Bounds of one Transport.
struct TransportOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  /// Accepted connections beyond this, over all loops, are closed at once.
  int max_connections = 64;
  /// Event loops, at least 1. Loop 0 also accepts.
  int loops = 4;
  /// Jobs admitted and unfinished over all loops — read but not yet run,
  /// running, or driven; a job beyond this is rejected.
  int max_admitted = 20;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// Registry entries the transport keeps current; any may be null.
struct TransportMetrics {
  observability::Counter* connections_opened = nullptr;
  observability::Gauge* connections_open = nullptr;
  /// Admitted jobs not yet run, and jobs running or driven.
  observability::Gauge* queue_depth = nullptr;
  observability::Gauge* in_flight = nullptr;
  /// Jobs admitted and jobs turned away.
  observability::Counter* admitted = nullptr;
  observability::Counter* rejected = nullptr;
  /// Admitted jobs that drain answered with kCancelled before they ran.
  observability::Counter* cancelled = nullptr;
};

/// The socket layer shared by svqd and svq_router (docs/server.md).
///
/// `loops` event loops each own the connections they are given: a loop
/// reads and assembles their frames, has the handler decode each into a
/// reply or a job, runs each admitted `run` job inline, writes the
/// response itself, and drives its connections' `start` tasks, polling
/// their sockets beside the clients'. No request crosses a thread between
/// its frame and its answer. Loop 0 also listens, and gives each new
/// connection to the loop with the fewest open connections (lowest index
/// on ties); that handover, through the loop's inbox and wake pipe, is the
/// only one.
///
/// A loop reads every complete frame from its ready connections before it
/// runs any of them: it admits them while fewer than `max_admitted` jobs
/// are admitted and unfinished over all loops, rejects the rest, then runs
/// the admitted ones in the order it read them, so a connection's
/// responses leave in request order. A long job delays only the other
/// connections of its own loop. A thread that sends on a connection writes
/// straight to the socket when the connection has no backlog; the owning
/// loop flushes whatever a short write leaves behind. A connection that
/// hangs up is closed on its loop's next poll, which fires the
/// cancellation of its driven tasks and drops its jobs not yet run; a job
/// already running for it finishes, and its response is dropped.
///
/// Shutdown(drain) stops accepting, rejects new jobs with
/// kResourceExhausted, lets admitted jobs finish within the drain budget,
/// then fires the cancellation of what remains (each loop answers its jobs
/// not yet run with kCancelled), flushes responses (up to 1 s), and joins
/// the loops.
class Transport {
 public:
  using Clock = ExecutionContext::Clock;

  /// `handler` is borrowed and must outlive the transport's threads.
  Transport(TransportOptions options, TransportMetrics metrics,
            Handler* handler);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Binds, listens, and starts the loops. Errors: IOError,
  /// InvalidArgument (bad bind address, fewer than one loop),
  /// FailedPrecondition (started).
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
  struct Loop;
  /// A frame a loop read this round, in read order: a reply to send, or an
  /// admitted job (`job.run` or `job.start` set) to run or start.
  struct Entry {
    ConnectionPtr connection;
    std::string reply;
    Job job;
    uint64_t id = 0;
    CancellationSource cancel;
  };
  /// A job its loop drives.
  struct Driven {
    uint64_t id = 0;
    ConnectionPtr connection;
    std::unique_ptr<Task> task;
    /// Its sockets in this round's poll set.
    size_t first_fd = 0;
    size_t num_fds = 0;
    bool finished = false;
  };

  void RunLoop(Loop& loop);
  /// Loop 0: accepts every pending connection and places each on a loop.
  void AcceptPending(Loop& loop);
  /// Takes the connections loop 0 handed over.
  void TakeInbox(Loop& loop);
  /// Reads every complete frame into the loop's batch; closes the
  /// connection on a hang-up or a broken stream.
  void ReadFrom(Loop& loop, const ConnectionPtr& conn);
  void HandleFrame(Loop& loop, const ConnectionPtr& conn,
                   const std::string& payload);
  /// Admits `job` or appends its rejection to the batch.
  void Admit(Loop& loop, const ConnectionPtr& conn, Job job);
  /// Sends, runs or starts the batch's entries in read order.
  void RunBatch(Loop& loop);
  void Execute(Loop& loop, Entry& entry);
  /// Fires the driven tasks' timers and adds their sockets to `*fds`;
  /// completes and drops the ones that finished.
  void PrepareTasks(Loop& loop, Clock::time_point now,
                    std::vector<pollfd>* fds, Clock::time_point* wake);
  /// Hands each driven task poll's verdict on its sockets.
  void AdvanceTasks(Loop& loop, const std::vector<pollfd>& fds);
  /// Sends a finished task's response and frees its slot.
  void Complete(Driven& driven);
  /// Frees an admitted job's slot; `ran` when it was running or driven.
  void Release(const ConnectionPtr& conn, uint64_t id, bool ran);
  /// Writes `frame` directly when the outbox is empty, else queues it.
  void SendTo(const ConnectionPtr& conn, std::string frame);
  /// Writes the backlog; returns whether the connection must close (write
  /// error, or a close was requested and the backlog is out).
  bool Flush(const ConnectionPtr& conn);
  /// On the owning loop.
  void Close(const ConnectionPtr& conn);
  ConnectionPtr Find(ConnectionId connection) const;
  void Wake(Loop& loop);
  /// Gauges from the job and connection counts (mu_ held).
  void RefreshGaugesLocked();

  const TransportOptions options_;
  const TransportMetrics metrics_;
  Handler* const handler_;

  /// Loop 0's, and Start's and Shutdown's when the loops are not running.
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  /// Serializes Start/Shutdown (mu_ cannot be held across joins).
  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool shut_down_ = false;

  /// Lock order: a handler's own lock, then mu_, then a Connection's mu (or
  /// a loop's inbox lock).
  mutable std::mutex mu_;
  std::condition_variable drain_cv_;  // Shutdown: every admitted job done
  std::map<ConnectionId, ConnectionPtr> connections_;
  ConnectionId next_connection_id_ = 1;
  uint64_t next_job_id_ = 1;
  /// Jobs admitted and unfinished, and the ones of them running or driven.
  int admitted_ = 0;
  int running_ = 0;
  /// Written under mu_; the loops read them without it.
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  /// Set before stop_.
  Clock::time_point flush_deadline_{};

  std::vector<std::unique_ptr<Loop>> loops_;
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
