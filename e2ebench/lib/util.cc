#include "lib/util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace e2ebench {

void Fatal(const std::string& message) {
  std::fprintf(stderr, "e2ebench: FATAL: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void CheckOk(const svq::Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what + ": " + status.ToString());
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  Rng rng(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  rng.Next();
  return rng.Next();
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Draw(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

void Digest::Add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<uint8_t>(c);
    hash_ *= 1099511628211ULL;
  }
  AddU64(bytes.size());
}

void Digest::AddU64(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ULL;
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const double rank = std::ceil(p * static_cast<double>(n));
  const size_t index =
      rank < 1.0 ? 0 : std::min(n - 1, static_cast<size_t>(rank) - 1);
  if (n - 1 - index < 10) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

Outcome Classify(const svq::Status& status) {
  if (status.ok()) return Outcome::kOk;
  switch (status.code()) {
    case svq::StatusCode::kResourceExhausted:
      return Outcome::kRefused;
    case svq::StatusCode::kDeadlineExceeded:
      return Outcome::kTimedOut;
    default:
      return Outcome::kFailed;
  }
}

void OpStats::Record(Outcome outcome, double latency_ms) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      latencies_ms.push_back(latency_ms);
      break;
    case Outcome::kFailed:
      ++failed;
      break;
    case Outcome::kRefused:
      ++refused;
      break;
    case Outcome::kTimedOut:
      ++timed_out;
      break;
    case Outcome::kWrong:
      ++wrong;
      break;
  }
}

void OpStats::Merge(const OpStats& other) {
  latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                      other.latencies_ms.end());
  attempted += other.attempted;
  failed += other.failed;
  refused += other.refused;
  timed_out += other.timed_out;
  wrong += other.wrong;
}

int MaxClients() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int ClampClients(int requested) {
  return std::clamp(requested, 1, MaxClients());
}

namespace {
std::atomic<int> live_workers{0};
std::atomic<int> worker_peak{0};

void RaisePeak(std::atomic<int>& peak, int value) {
  int seen = peak.load();
  while (value > seen && !peak.compare_exchange_weak(seen, value)) {
  }
}
}  // namespace

void NoteWorkerStart() { RaisePeak(worker_peak, ++live_workers); }
void NoteWorkerEnd() { --live_workers; }
int WorkerPeak() { return worker_peak.load(); }

std::atomic<int> BenchClient::open_{0};
std::atomic<int> BenchClient::peak_{0};

BenchClient::~BenchClient() {
  client_.Close();
  if (counted_) --open_;
}

svq::Status BenchClient::Connect(uint16_t port) {
  if (!counted_) {
    counted_ = true;
    RaisePeak(peak_, ++open_);
  }
  return client_.Connect("127.0.0.1", port, std::chrono::milliseconds(60000),
                         std::chrono::milliseconds(5000));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

CpuTimes ReadCpuTimes() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTimes times;
  uint64_t value = 0;
  for (int field = 0; field < 8 && (stat >> value); ++field) {
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double StealFraction(const CpuTimes& before, const CpuTimes& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

namespace {

class CountingFile final : public svq::io::WritableFile {
 public:
  CountingFile(std::unique_ptr<svq::io::WritableFile> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  svq::Status Append(std::string_view data) override {
    const Clock::time_point start = Clock::now();
    svq::Status status = base_->Append(data);
    env_->AddAppend(data.size(), MsSince(start));
    return status;
  }
  svq::Status Sync() override {
    const Clock::time_point start = Clock::now();
    svq::Status status = base_->Sync();
    env_->AddSync(MsSince(start));
    return status;
  }
  svq::Status Close() override {
    const Clock::time_point start = Clock::now();
    svq::Status status = base_->Close();
    env_->AddEnvMs(MsSince(start));
    return status;
  }

 private:
  std::unique_ptr<svq::io::WritableFile> base_;
  CountingEnv* env_;
};

}  // namespace

svq::Result<std::unique_ptr<svq::io::WritableFile>>
CountingEnv::NewWritableFile(const std::string& path) {
  const Clock::time_point start = Clock::now();
  auto base = svq::io::Env::Default()->NewWritableFile(path);
  {
    std::lock_guard<std::mutex> lock(mu_);
    counts_.env_ms += MsSince(start);
    if (base.ok()) ++counts_.files;
  }
  if (!base.ok()) return base.status();
  return std::unique_ptr<svq::io::WritableFile>(
      new CountingFile(std::move(base).value(), this));
}

svq::Status CountingEnv::RenameFile(const std::string& from,
                                    const std::string& to) {
  const Clock::time_point start = Clock::now();
  svq::Status status = svq::io::Env::Default()->RenameFile(from, to);
  std::lock_guard<std::mutex> lock(mu_);
  counts_.env_ms += MsSince(start);
  ++counts_.renames;
  return status;
}

svq::Status CountingEnv::RemoveFile(const std::string& path) {
  const Clock::time_point start = Clock::now();
  svq::Status status = svq::io::Env::Default()->RemoveFile(path);
  AddEnvMs(MsSince(start));
  return status;
}

svq::Status CountingEnv::SyncDir(const std::string& dir) {
  const Clock::time_point start = Clock::now();
  svq::Status status = svq::io::Env::Default()->SyncDir(dir);
  AddSync(MsSince(start));
  return status;
}

svq::Result<uint64_t> CountingEnv::FileSize(const std::string& path) {
  return svq::io::Env::Default()->FileSize(path);
}

CountingEnv::Counts CountingEnv::Read() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

void CountingEnv::AddSync(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.syncs;
  counts_.sync_ms += ms;
  counts_.env_ms += ms;
}

void CountingEnv::AddAppend(size_t bytes, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.bytes_written += static_cast<int64_t>(bytes);
  counts_.env_ms += ms;
}

void CountingEnv::AddEnvMs(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.env_ms += ms;
}

SpanLog::SpanLog() {
  // One epoch for every log of the process, so logs recorded on different
  // threads merge onto one timeline.
  static const Clock::time_point process_epoch = Clock::now();
  epoch_ = process_epoch;
}

void SpanLog::Absorb(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    span.id += offset;
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

int64_t SpanLog::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int SpanLog::Begin(std::string_view name, uint64_t request_id, int parent) {
  Span span;
  span.request_id = request_id;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.name = std::string(name);
  span.start_ns = Ns(Clock::now());
  span.end_ns = span.start_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = Ns(Clock::now());
}

int SpanLog::Add(std::string_view name, uint64_t request_id, int parent,
                 Clock::time_point start, Clock::time_point end) {
  const int id = Begin(name, request_id, parent);
  spans_[static_cast<size_t>(id)].start_ns = Ns(start);
  spans_[static_cast<size_t>(id)].end_ns = Ns(end);
  return id;
}

std::map<std::string, double> SpanLog::MeanSelfMicros() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::pair<double, int64_t>> sums;
  for (const Span& span : spans_) {
    const int64_t self = std::max<int64_t>(
        0, span.end_ns - span.start_ns - child_ns[static_cast<size_t>(span.id)]);
    auto& [total, count] = sums[span.name];
    total += static_cast<double>(self) / 1000.0;
    ++count;
  }
  std::map<std::string, double> means;
  for (const auto& [name, sum] : sums) {
    means[name] = sum.first / static_cast<double>(sum.second);
  }
  return means;
}

svq::Status SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return svq::Status::IOError("cannot write span file " + path);
  for (const Span& span : spans_) {
    out << "{\"request_id\":" << span.request_id << ",\"span\":" << span.id
        << ",\"parent\":" << span.parent << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  out.flush();
  if (!out) return svq::Status::IOError("short write to span file " + path);
  return svq::Status::OK();
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace e2ebench
