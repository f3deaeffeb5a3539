#ifndef E2EBENCH_LIB_UTIL_H_
#define E2EBENCH_LIB_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "svq/common/result.h"
#include "svq/io/env.h"
#include "svq/server/client.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Aborts the benchmark with a message on stderr; the caller prints no
/// result line, so the run counts as failed.
[[noreturn]] void Fatal(const std::string& message);
void CheckOk(const svq::Status& status, const std::string& what);
template <class T>
T ValueOrDie(svq::Result<T> result, const std::string& what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Seeded generation. Every input the program under test sees is drawn from
// these, so one --seed reproduces the whole workload bit for bit.

/// splitmix64: small, fast, and identical on every platform (unlike the
/// standard distributions, whose algorithms are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n must be > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from a parent seed and a tag.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// Zipf(s) over ranks [0, n): P(rank r) ∝ 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(Rng& rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// FNV-1a, for catalog and operation-sequence digests.
class Digest {
 public:
  void Add(std::string_view bytes);
  void AddU64(uint64_t value);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

// ---------------------------------------------------------------------------
// Accounting.

/// Nearest-rank percentile of `samples` (any order), or nullopt when fewer
/// than ten samples lie beyond it — a p99 needs at least 1000 samples.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Median of `values`; 0 when empty.
double Median(std::vector<double> values);

enum class Outcome { kOk, kFailed, kRefused, kTimedOut, kWrong };

/// Outcome of a status the server returned for one request.
Outcome Classify(const svq::Status& status);

/// One operation type's attempts and the latencies of its successes. A
/// failed, refused, timed-out or wrong request counts against `attempted`
/// and contributes no latency sample.
struct OpStats {
  std::vector<double> latencies_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t refused = 0;
  int64_t timed_out = 0;
  int64_t wrong = 0;

  void Record(Outcome outcome, double latency_ms);
  void Merge(const OpStats& other);
  int64_t bad() const { return failed + refused + timed_out + wrong; }
  int64_t ok() const { return attempted - bad(); }
};

// ---------------------------------------------------------------------------
// Load generation: one load-generating process, at most nproc client
// threads and connections.

/// The client cap: the machine's hardware concurrency (nproc).
int MaxClients();
/// Clamps a requested client count to [1, MaxClients()].
int ClampClients(int requested);

/// A wire client that counts itself against the process-wide connection
/// gauge, so tests can prove the cap holds.
class BenchClient {
 public:
  BenchClient() = default;
  ~BenchClient();
  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;

  svq::Status Connect(uint16_t port);
  svq::server::Client& wire() { return client_; }

  static int open_now() { return open_.load(); }
  static int peak() { return peak_.load(); }
  static void ResetPeak() { peak_.store(open_.load()); }

 private:
  svq::server::Client client_;
  bool counted_ = false;
  static std::atomic<int> open_;
  static std::atomic<int> peak_;
};

void NoteWorkerStart();
void NoteWorkerEnd();
/// Most RunWorkers threads ever alive at once in this process.
int WorkerPeak();

/// Runs `fn(worker_index)` on ClampClients(n) threads and joins them all.
/// Returns the number of workers actually started.
template <class Fn>
int RunWorkers(int n, Fn fn) {
  const int workers = ClampClients(n);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads.emplace_back([&fn, i]() {
      NoteWorkerStart();
      fn(i);
      NoteWorkerEnd();
    });
  }
  for (std::thread& t : threads) t.join();
  return workers;
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// Machine-wide CPU time from /proc/stat, in clock ticks. Steal is time
/// the hypervisor gave to other guests; a run that saw much of it is slow
/// for reasons outside the program, so runs print it beside their figures.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
/// Steal as a share of all CPU time between two reads.
double StealFraction(const CpuTimes& before, const CpuTimes& after);

// ---------------------------------------------------------------------------
// I/O accounting: a counting Env handed to ingest through
// IngestOptions::env. It delegates every call to Env::Default(), so the
// flush policy (write, fsync, rename, directory fsync) is unchanged.

class CountingEnv final : public svq::io::Env {
 public:
  struct Counts {
    int64_t files = 0;
    int64_t bytes_written = 0;
    int64_t syncs = 0;  ///< file fsyncs plus directory fsyncs
    int64_t renames = 0;
    double sync_ms = 0.0;
    /// Time inside any Env call (appends, syncs, renames), for self time.
    double env_ms = 0.0;
  };

  svq::Result<std::unique_ptr<svq::io::WritableFile>> NewWritableFile(
      const std::string& path) override;
  svq::Status RenameFile(const std::string& from,
                         const std::string& to) override;
  svq::Status RemoveFile(const std::string& path) override;
  svq::Status SyncDir(const std::string& dir) override;
  svq::Result<uint64_t> FileSize(const std::string& path) override;

  Counts Read() const;
  void AddSync(double ms);
  void AddAppend(size_t bytes, double ms);
  void AddEnvMs(double ms);

 private:
  mutable std::mutex mu_;
  Counts counts_;
};

// ---------------------------------------------------------------------------
// Spans of the traced run: recorded in memory, written once at the end.

struct Span {
  uint64_t request_id = 0;
  int id = 0;
  int parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded span log. Child calls of one request are replayed back
/// to back rather than nested in time, so a span's self time is its
/// duration minus the durations of its direct children.
class SpanLog {
 public:
  SpanLog();
  int Begin(std::string_view name, uint64_t request_id, int parent);
  void End(int id);
  /// Records an already-measured interval.
  int Add(std::string_view name, uint64_t request_id, int parent,
          Clock::time_point start, Clock::time_point end);

  /// Appends another log's spans (same process epoch), renumbered.
  void Absorb(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }
  /// Mean self time in microseconds per span of each name.
  std::map<std::string, double> MeanSelfMicros() const;
  svq::Status WriteJsonLines(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Result line.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The final stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace e2ebench

#endif  // E2EBENCH_LIB_UTIL_H_
