#ifndef SVQ_CORE_INGEST_H_
#define SVQ_CORE_INGEST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "svq/common/result.h"
#include "svq/core/query.h"
#include "svq/models/action_recognizer.h"
#include "svq/models/inference_stats.h"
#include "svq/models/object_tracker.h"
#include "svq/runtime/runtime_options.h"
#include "svq/storage/score_table.h"
#include "svq/storage/statistics.h"
#include "svq/video/interval_set.h"
#include "svq/video/synthetic_video.h"

namespace svq::io {
class Env;
}  // namespace svq::io

namespace svq::core {

/// Computes the positive clips of one label from its full per-occurrence-
/// unit prediction-indicator stream, using the SVAQD machinery (kernel
/// background estimate + scan-statistic critical value per clip). This is
/// the §4.2 "Individual Sequences" step, run per object/action type at
/// ingestion time. The returned set lives in the clip domain.
Result<video::IntervalSet> ComputePositiveClips(
    const std::vector<uint8_t>& unit_events, int units_per_clip, double alpha,
    double reference_windows, double bandwidth, double initial_p,
    int64_t merge_gap_clips = 1);

/// Ingestion-phase configuration.
struct IngestOptions {
  /// Score thresholds for the prediction indicators.
  double object_threshold = 0.5;
  double action_threshold = 0.5;
  /// Scan-statistic parameters for positive-clip determination.
  double alpha = 0.05;
  double reference_windows = 200.0;
  double object_bandwidth = 4096.0;
  double action_bandwidth = 512.0;
  double initial_object_p = 1e-4;
  double initial_action_p = 1e-3;
  /// Gap filling for the individual sequences (see
  /// OnlineConfig::merge_gap_clips).
  int64_t merge_gap_clips = 1;

  enum class TableBackend {
    kMemory,  ///< clip score tables built in RAM only
    kDisk,    ///< clip score tables built in RAM and, with every other
              ///< artifact, also written to one file per video
  };
  TableBackend backend = TableBackend::kMemory;
  /// The ingest directory, required for kDisk: each video becomes the file
  /// `<directory>/<video name>`, and the directory is created when missing.
  std::string directory;
  /// I/O environment for the kDisk file write. nullptr means
  /// io::Env::Default(); tests pass a FaultInjectionEnv to simulate crashes
  /// mid-ingest.
  io::Env* env = nullptr;

  /// Parallel-execution knobs for the post-inference ingest phases
  /// (per-clip score aggregation, per-type sequence determination, per-type
  /// table construction). Model inference itself runs in stream order, one
  /// tracker and one recognizer range call per clip: a real tracker may
  /// carry identity state from one clip into the next, so one video's
  /// inference never fans out. The default of one thread is the sequential
  /// reference path with byte-identical outputs.
  runtime::RuntimeOptions runtime;

  Status Validate() const;
};

/// Wall-clock breakdown of one IngestVideo call, phase by phase, plus the
/// pool counters of its parallel regions.
struct IngestRunStats {
  /// Sequential model inference: one tracker and one recognizer range
  /// call per clip, over the stream.
  double inference_ms = 0.0;
  /// Parallel per-clip aggregation of predictions into score/event arrays.
  double scoring_ms = 0.0;
  /// Parallel per-type positive-sequence determination (SVAQD machinery).
  double sequences_ms = 0.0;
  /// Parallel per-type score-table construction.
  double tables_ms = 0.0;
  runtime::RuntimeStats runtime;
};

/// Everything the ingestion phase materializes for one video (paper §4.2):
/// per-type clip score tables (sorted by score) and per-type individual
/// sequences, for every type in the deployed models' vocabularies.
struct IngestedVideo {
  video::VideoId id = video::kInvalidVideoId;
  std::string name;
  video::VideoLayout layout;
  int64_t num_frames = 0;
  int64_t num_clips = 0;

  std::map<std::string, std::unique_ptr<storage::ScoreTable>> object_tables;
  std::map<std::string, std::unique_ptr<storage::ScoreTable>> action_tables;
  /// `P_{o_i}` per object type, clip domain.
  std::map<std::string, video::IntervalSet> object_sequences;
  /// `P_{a_j}` per action type, clip domain.
  std::map<std::string, video::IntervalSet> action_sequences;
  /// Per-type selectivity statistics, derived from the tables and posting
  /// lists above at ingest/open time (docs/planner.md). Immutable with the
  /// rest of the artifact set.
  std::map<std::string, storage::TypeStatistics> object_statistics;
  std::map<std::string, storage::TypeStatistics> action_statistics;

  /// Model inference spent during ingestion (one-time cost).
  models::InferenceStats ingest_inference;
  /// Phase timings and pool counters of the ingest run that built this.
  IngestRunStats ingest_stats;

  /// Table lookup helpers; nullptr when the type was never detected.
  const storage::ScoreTable* ObjectTable(const std::string& label) const;
  const storage::ScoreTable* ActionTable(const std::string& label) const;
  const video::IntervalSet* ObjectSequences(const std::string& label) const;
  const video::IntervalSet* ActionSequences(const std::string& label) const;
  /// Statistics lookup helpers; nullptr when the type was never detected
  /// (the planner treats a missing type as zero selectivity).
  const storage::TypeStatistics* ObjectStatistics(
      const std::string& label) const;
  const storage::TypeStatistics* ActionStatistics(
      const std::string& label) const;

  /// (Re)derives object_statistics / action_statistics from the tables and
  /// posting lists. Called by IngestVideo and OpenIngestedVideo once the
  /// artifacts are in place; cheap (interval counts and table sizes only).
  void ComputeStatistics();
};

/// Runs the ingestion phase over one video with the given tracker and
/// action recognizer. Query independent: processes every type in the model
/// vocabularies. With the kDisk backend, the whole video — header, one
/// section per object and action type, checksum footer — is committed as
/// the single file `<options.directory>/<video name>` (docs/storage.md);
/// a reopen of that file serves exactly the artifacts returned. Errors:
/// InvalidArgument (including a kDisk video name that is not a plain file
/// name), IOError.
Result<IngestedVideo> IngestVideo(
    const std::shared_ptr<const video::SyntheticVideo>& video,
    video::VideoId id, models::ObjectTracker* tracker,
    models::ActionRecognizer* recognizer, const IngestOptions& options);

/// Reopens the file `path` that a kDisk ingestion wrote: reads it once,
/// verifies its checksum footer once, and parses every section against
/// the header's clip count — no model inference. This is how a repository
/// restarts without paying the (hours-long) ingestion again. Errors:
/// IOError (missing or unreadable; a per-video directory of an earlier
/// format says to re-ingest), Corruption (the damaged file is quarantined
/// to `<path>.quarantined`).
Result<IngestedVideo> OpenIngestedVideo(const std::string& path);

}  // namespace svq::core

#endif  // SVQ_CORE_INGEST_H_
