#ifndef SVQ_BENCH_BENCH_UTIL_H_
#define SVQ_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure reproduction binaries. Each bench
// regenerates one table or figure of the paper's §5 evaluation and prints
// the same rows/series the paper reports. Absolute numbers differ (the
// substrate is a simulator, see DESIGN.md), but the shape — who wins, by
// roughly what factor, where crossovers fall — is the reproduction target
// recorded in EXPERIMENTS.md.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "svq/common/result.h"
#include "svq/common/status.h"

namespace svq::benchutil {

/// Machine-readable bench output: collects (metric, value, unit, threads)
/// rows and writes them as `BENCH_<name>.json` when Flush() is called (or
/// on destruction), so the perf trajectory can be tracked run over run.
/// Files land in SVQ_BENCH_JSON_DIR (default: the working directory); each
/// run rewrites its bench's file.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  ~BenchJson() { Flush(); }

  void Record(const std::string& metric, double value,
              const std::string& unit, int threads = 1) {
    rows_.push_back({metric, unit, value, threads});
  }

  /// Writes the collected rows; further Records start a new batch.
  void Flush() {
    if (rows_.empty()) return;
    const char* dir = std::getenv("SVQ_BENCH_JSON_DIR");
    const std::string path = std::string(dir == nullptr ? "." : dir) +
                             "/BENCH_" + bench_name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      rows_.clear();
      return;
    }
    out << "{\n  \"bench\": \"" << Escaped(bench_name_)
        << "\",\n  \"results\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      char value[64];
      std::snprintf(value, sizeof(value), "%.6g", row.value);
      out << "    {\"metric\": \"" << Escaped(row.metric)
          << "\", \"value\": " << value << ", \"unit\": \""
          << Escaped(row.unit) << "\", \"threads\": " << row.threads << "}"
          << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("    wrote %s (%zu metrics)\n", path.c_str(), rows_.size());
    rows_.clear();
  }

 private:
  struct Row {
    std::string metric;
    std::string unit;
    double value = 0.0;
    int threads = 1;
  };

  static std::string Escaped(const std::string& raw) {
    std::string out;
    for (const char c : raw) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_name_;
  std::vector<Row> rows_;
};

/// Workload scale factor: fraction of the paper's video lengths. Override
/// with SVQ_BENCH_SCALE for quicker/slower runs.
inline double ScaleFromEnv(double default_scale) {
  const char* env = std::getenv("SVQ_BENCH_SCALE");
  if (env == nullptr) return default_scale;
  const double value = std::atof(env);
  return value > 0.0 ? value : default_scale;
}

inline void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintNote(const std::string& note) {
  std::printf("    %s\n", note.c_str());
}

/// Aborts the bench with a readable message when a setup step fails.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T ValueOrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace svq::benchutil

#endif  // SVQ_BENCH_BENCH_UTIL_H_
