#include "svq/core/ingest.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <limits>
#include <optional>
#include <string_view>

#include "svq/core/critical_values.h"
#include "svq/io/bytes.h"
#include "svq/io/checksum_format.h"
#include "svq/io/env.h"
#include "svq/runtime/thread_pool.h"
#include "svq/stats/kernel_estimator.h"
#include "svq/storage/sequence_store.h"
#include "svq/video/video_stream.h"

namespace svq::core {

namespace {

// Magic + fields + the CRC-32C checksum footer of svq/io/checksum_format.h,
// written atomically (docs/storage.md).
constexpr uint32_t kManifestMagic = 0x324D5653;  // "SVM2"
constexpr uint64_t kMaxManifestLabels = 1u << 20;
constexpr uint64_t kMaxLabelLength = 1u << 20;

std::string SanitizeLabel(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

/// Persists everything OpenIngestedVideo needs to rebuild the IngestedVideo
/// without the source video or the models. Written last, atomically: the
/// manifest is the ingest's commit point — a directory without a complete
/// manifest is not a catalog entry (docs/storage.md).
Status WriteManifest(const std::string& directory, const IngestedVideo& v,
                     const std::vector<std::string>& object_labels,
                     const std::vector<std::string>& action_labels,
                     io::Env* env) {
  std::string buffer;
  io::AppendValue(&buffer, kManifestMagic);
  io::AppendLengthPrefixedString(&buffer, v.name);
  io::AppendValue(&buffer, v.id);
  io::AppendValue(&buffer, static_cast<int32_t>(v.layout.frames_per_shot));
  io::AppendValue(&buffer, static_cast<int32_t>(v.layout.shots_per_clip));
  io::AppendValue(&buffer, v.layout.fps);
  io::AppendValue(&buffer, v.num_frames);
  io::AppendValue(&buffer, v.num_clips);
  io::AppendValue(&buffer, static_cast<uint64_t>(object_labels.size()));
  for (const std::string& label : object_labels) {
    io::AppendLengthPrefixedString(&buffer, label);
  }
  io::AppendValue(&buffer, static_cast<uint64_t>(action_labels.size()));
  for (const std::string& label : action_labels) {
    io::AppendLengthPrefixedString(&buffer, label);
  }
  io::AppendChecksumFooter(&buffer);
  return io::WriteFileAtomic(env, directory + "/manifest.svqm", buffer);
}

Result<std::unique_ptr<storage::ScoreTable>> BuildTable(
    const std::vector<double>& clip_scores,
    const video::IntervalSet& positive_clips, const IngestOptions& options,
    const std::string& file_stem) {
  // A row exists for every clip with a detection, plus every clip inside
  // the label's positive sequences even when its own score is zero (gap
  // filling can bridge detection-free clips): the offline algorithms rely
  // on candidate clips having rows in every queried table.
  std::vector<storage::ClipScoreRow> rows;
  for (size_t clip = 0; clip < clip_scores.size(); ++clip) {
    if (clip_scores[clip] > 0.0 ||
        positive_clips.Contains(static_cast<int64_t>(clip))) {
      rows.push_back({static_cast<video::ClipIndex>(clip),
                      clip_scores[clip]});
    }
  }
  const int64_t num_clips = static_cast<int64_t>(clip_scores.size());
  SVQ_ASSIGN_OR_RETURN(std::unique_ptr<storage::ScoreTable> table,
                       storage::ScoreTable::Create(std::move(rows), num_clips));
  if (options.backend != IngestOptions::TableBackend::kDisk) return table;
  const std::string path = options.directory + "/" + file_stem + ".svqt";
  SVQ_RETURN_NOT_OK(table->Write(path, options.env));
  // Serve the table read back from the file, exactly as a restart would.
  return storage::ScoreTable::Open(path, num_clips);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic label -> dense-id interning in first-seen (stream) order.
/// The dense ids index the per-label accumulator arrays of the parallel
/// aggregation phase; final outputs are keyed by label string again, so the
/// intern order never leaks into results.
struct LabelIntern {
  std::map<std::string, int> index;
  std::vector<std::string> labels;

  int Intern(const std::string& label) {
    auto [it, inserted] =
        index.try_emplace(label, static_cast<int>(labels.size()));
    if (inserted) labels.push_back(label);
    return it->second;
  }
};

/// One model prediction flattened to (dense label, occurrence unit, score).
/// Units are frames for objects and shots for actions; each unit belongs to
/// exactly one clip, which is what makes the per-clip aggregation phase
/// race-free.
struct UnitPrediction {
  int32_t label = 0;
  int64_t unit = 0;
  double score = 0.0;
};

}  // namespace

Result<video::IntervalSet> ComputePositiveClips(
    const std::vector<uint8_t>& unit_events, int units_per_clip, double alpha,
    double reference_windows, double bandwidth, double initial_p,
    int64_t merge_gap_clips) {
  if (units_per_clip < 1) {
    return Status::InvalidArgument("units_per_clip must be >= 1");
  }
  if (merge_gap_clips < 0) {
    return Status::InvalidArgument("merge_gap_clips must be >= 0");
  }
  stats::KernelRateEstimator::Options est_options;
  est_options.bandwidth = bandwidth;
  est_options.initial_p = initial_p;
  est_options.warmup_ous = static_cast<int64_t>(bandwidth);
  SVQ_ASSIGN_OR_RETURN(stats::KernelRateEstimator estimator,
                       stats::KernelRateEstimator::Create(est_options));
  const CriticalValueTable& kcrit =
      CriticalValueTable::For(units_per_clip, reference_windows, alpha);

  video::IntervalSet positives;
  int64_t last_positive = -1;
  const int64_t num_units = static_cast<int64_t>(unit_events.size());
  const int64_t num_clips =
      (num_units + units_per_clip - 1) / units_per_clip;
  for (int64_t clip = 0; clip < num_clips; ++clip) {
    const int64_t begin = clip * units_per_clip;
    const int64_t end = std::min(num_units, begin + units_per_clip);
    int count = 0;
    for (int64_t u = begin; u < end; ++u) count += unit_events[u] ? 1 : 0;
    // Decide with the critical value in force *before* this clip's data
    // enters the estimate (streaming semantics), then update — feeding the
    // null estimate only from negative clips (see UpdatePolicy docs).
    const int k = kcrit.Get(estimator.rate());
    if (count >= k) {
      // Bridge short gaps, as the online engine does.
      if (last_positive >= 0 && clip - last_positive - 1 <= merge_gap_clips) {
        positives.Add({last_positive, clip + 1});
      } else {
        positives.Add({clip, clip + 1});
      }
      last_positive = clip;
    }
    // Signal-looking clips are excluded from the null estimate; see
    // UpdatePolicy::kNegativeUnits.
    if (count < NullExclusionQuota(k, end - begin)) {
      for (int64_t u = begin; u < end; ++u) {
        estimator.Step(unit_events[u] != 0);
      }
    }
  }
  return positives;
}

Status IngestOptions::Validate() const {
  if (object_threshold < 0 || object_threshold > 1 || action_threshold < 0 ||
      action_threshold > 1) {
    return Status::InvalidArgument("thresholds must be in [0, 1]");
  }
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (reference_windows < 2.0) {
    return Status::InvalidArgument("reference_windows must be >= 2");
  }
  if (!(object_bandwidth > 0.0) || !(action_bandwidth > 0.0)) {
    return Status::InvalidArgument("bandwidths must be > 0");
  }
  if (backend == TableBackend::kDisk && directory.empty()) {
    return Status::InvalidArgument("disk backend requires a directory");
  }
  return Status::OK();
}

const storage::ScoreTable* IngestedVideo::ObjectTable(
    const std::string& label) const {
  auto it = object_tables.find(label);
  return it == object_tables.end() ? nullptr : it->second.get();
}

const storage::ScoreTable* IngestedVideo::ActionTable(
    const std::string& label) const {
  auto it = action_tables.find(label);
  return it == action_tables.end() ? nullptr : it->second.get();
}

const video::IntervalSet* IngestedVideo::ObjectSequences(
    const std::string& label) const {
  auto it = object_sequences.find(label);
  return it == object_sequences.end() ? nullptr : &it->second;
}

const video::IntervalSet* IngestedVideo::ActionSequences(
    const std::string& label) const {
  auto it = action_sequences.find(label);
  return it == action_sequences.end() ? nullptr : &it->second;
}

const storage::TypeStatistics* IngestedVideo::ObjectStatistics(
    const std::string& label) const {
  auto it = object_statistics.find(label);
  return it == object_statistics.end() ? nullptr : &it->second;
}

const storage::TypeStatistics* IngestedVideo::ActionStatistics(
    const std::string& label) const {
  auto it = action_statistics.find(label);
  return it == action_statistics.end() ? nullptr : &it->second;
}

void IngestedVideo::ComputeStatistics() {
  object_statistics.clear();
  action_statistics.clear();
  const double clips = num_clips > 0 ? static_cast<double>(num_clips) : 0.0;
  auto stats_of = [&](const video::IntervalSet* sequences,
                      const storage::ScoreTable* table) {
    storage::TypeStatistics stats;
    if (table != nullptr) stats.table_rows = table->NumRows();
    if (sequences != nullptr) {
      stats.posting_intervals = static_cast<int64_t>(sequences->size());
      stats.covered_clips = sequences->TotalLength();
    }
    if (clips > 0.0) {
      stats.density = static_cast<double>(stats.covered_clips) / clips;
    }
    return stats;
  };
  for (const auto& [label, sequences] : object_sequences) {
    object_statistics.emplace(label,
                              stats_of(&sequences, ObjectTable(label)));
  }
  for (const auto& [label, sequences] : action_sequences) {
    action_statistics.emplace(label,
                              stats_of(&sequences, ActionTable(label)));
  }
  // Tables without posting lists still get a row-count entry: the type was
  // detected somewhere even though no positive sequence survived the scan
  // statistic, and a zero-density entry prices it correctly.
  for (const auto& [label, table] : object_tables) {
    if (!object_statistics.contains(label)) {
      object_statistics.emplace(label, stats_of(nullptr, table.get()));
    }
  }
  for (const auto& [label, table] : action_tables) {
    if (!action_statistics.contains(label)) {
      action_statistics.emplace(label, stats_of(nullptr, table.get()));
    }
  }
}

Result<IngestedVideo> IngestVideo(
    const std::shared_ptr<const video::SyntheticVideo>& video,
    video::VideoId id, models::ObjectTracker* tracker,
    models::ActionRecognizer* recognizer, const IngestOptions& options) {
  if (video == nullptr) {
    return Status::InvalidArgument("video must be set");
  }
  if (tracker == nullptr || recognizer == nullptr) {
    return Status::InvalidArgument("tracker and recognizer must be set");
  }
  SVQ_RETURN_NOT_OK(options.Validate());

  IngestedVideo out;
  out.id = id;
  out.name = video->name();
  out.layout = video->layout();
  out.num_frames = video->num_frames();
  out.num_clips = video->NumClips();

  const models::InferenceStats tracker_base = tracker->stats();
  const models::InferenceStats recognizer_base = recognizer->stats();

  const int threads = options.runtime.ResolvedThreads();
  std::optional<runtime::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  runtime::ThreadPool* pool_ptr = pool ? &*pool : nullptr;
  out.ingest_stats.runtime.threads_used = threads;

  // Phase A — model scoring, strictly in stream order: trackers carry
  // temporal identity state, so inference cannot fan out within one video
  // (cross-video parallelism lives in VideoQueryEngine::IngestAll and
  // RunRepositoryTopK). Predictions are flattened to compact per-clip
  // records so every later phase is model-free and parallel.
  const int64_t num_shots = video->NumShots();
  LabelIntern object_labels;
  LabelIntern action_labels;
  std::vector<std::vector<UnitPrediction>> object_raw(
      static_cast<size_t>(out.num_clips));
  std::vector<std::vector<UnitPrediction>> action_raw(
      static_cast<size_t>(out.num_clips));
  double phase_start = NowMs();
  video::SyntheticVideoStream stream(video, id);
  while (auto clip = stream.NextClip()) {
    const size_t clip_index = static_cast<size_t>(clip->clip);
    for (video::FrameIndex frame = clip->frames.begin;
         frame < clip->frames.end; ++frame) {
      SVQ_ASSIGN_OR_RETURN(const std::vector<models::ObjectDetection> dets,
                           tracker->Track(frame));
      for (const models::ObjectDetection& det : dets) {
        object_raw[clip_index].push_back(
            {static_cast<int32_t>(object_labels.Intern(det.label)),
             static_cast<int64_t>(frame), det.score});
      }
    }
    for (const video::ShotRef& shot : clip->shots) {
      SVQ_ASSIGN_OR_RETURN(const std::vector<models::ActionScore> scores,
                           recognizer->Recognize(shot));
      for (const models::ActionScore& s : scores) {
        action_raw[clip_index].push_back(
            {static_cast<int32_t>(action_labels.Intern(s.label)),
             static_cast<int64_t>(shot.shot), s.score});
      }
    }
  }
  out.ingest_stats.inference_ms = NowMs() - phase_start;

  // Phase B — per-clip predicate scoring, parallel over clips. Each task
  // owns a contiguous clip range; a unit (frame/shot) belongs to exactly
  // one clip, so all writes into the shared per-label arrays are disjoint.
  const size_t num_object_labels = object_labels.labels.size();
  const size_t num_action_labels = action_labels.labels.size();
  std::vector<std::vector<double>> object_scores(
      num_object_labels,
      std::vector<double>(static_cast<size_t>(out.num_clips), 0.0));
  std::vector<std::vector<double>> action_scores(
      num_action_labels,
      std::vector<double>(static_cast<size_t>(out.num_clips), 0.0));
  std::vector<std::vector<uint8_t>> object_events(
      num_object_labels,
      std::vector<uint8_t>(static_cast<size_t>(out.num_frames), 0));
  std::vector<std::vector<uint8_t>> action_events(
      num_action_labels,
      std::vector<uint8_t>(static_cast<size_t>(num_shots), 0));
  phase_start = NowMs();
  runtime::ParallelFor(
      pool_ptr, 0, out.num_clips, options.runtime.grain,
      [&](int64_t chunk_begin, int64_t chunk_end) {
        for (int64_t c = chunk_begin; c < chunk_end; ++c) {
          const size_t clip_index = static_cast<size_t>(c);
          for (const UnitPrediction& p : object_raw[clip_index]) {
            object_scores[static_cast<size_t>(p.label)][clip_index] +=
                p.score;
            if (p.score >= options.object_threshold) {
              object_events[static_cast<size_t>(p.label)]
                           [static_cast<size_t>(p.unit)] = 1;
            }
          }
          for (const UnitPrediction& p : action_raw[clip_index]) {
            action_scores[static_cast<size_t>(p.label)][clip_index] +=
                p.score;
            if (p.score >= options.action_threshold) {
              action_events[static_cast<size_t>(p.label)]
                           [static_cast<size_t>(p.unit)] = 1;
            }
          }
        }
      });
  out.ingest_stats.scoring_ms = NowMs() - phase_start;
  object_raw.clear();
  object_raw.shrink_to_fit();
  action_raw.clear();
  action_raw.shrink_to_fit();

  // Phase C — individual sequences (P_o, P_a) via the SVAQD machinery,
  // parallel over types; one label's kernel estimate is independent of
  // every other label. Slots are reduced in intern order after the barrier
  // (first error by index wins), then keyed back by label string.
  const int64_t num_labels =
      static_cast<int64_t>(num_object_labels + num_action_labels);
  std::vector<std::optional<Result<video::IntervalSet>>> sequence_slots(
      static_cast<size_t>(num_labels));
  phase_start = NowMs();
  runtime::ParallelFor(
      pool_ptr, 0, num_labels, /*grain=*/1,
      [&](int64_t chunk_begin, int64_t chunk_end) {
        for (int64_t i = chunk_begin; i < chunk_end; ++i) {
          const size_t slot = static_cast<size_t>(i);
          if (slot < num_object_labels) {
            sequence_slots[slot].emplace(ComputePositiveClips(
                object_events[slot], out.layout.FramesPerClip(),
                options.alpha, options.reference_windows,
                options.object_bandwidth, options.initial_object_p,
                options.merge_gap_clips));
          } else {
            sequence_slots[slot].emplace(ComputePositiveClips(
                action_events[slot - num_object_labels],
                out.layout.shots_per_clip, options.alpha,
                options.reference_windows, options.action_bandwidth,
                options.initial_action_p, options.merge_gap_clips));
          }
        }
      });
  out.ingest_stats.sequences_ms = NowMs() - phase_start;
  for (size_t i = 0; i < static_cast<size_t>(num_labels); ++i) {
    Result<video::IntervalSet>& slot = *sequence_slots[i];
    if (!slot.ok()) return slot.status();
    if (i < num_object_labels) {
      out.object_sequences.emplace(object_labels.labels[i],
                                   std::move(slot).value());
    } else {
      out.action_sequences.emplace(
          action_labels.labels[i - num_object_labels],
          std::move(slot).value());
    }
  }

  // Phase D — per-type score-table construction, parallel over types. With
  // the disk backend every label writes its own file, so tasks never share
  // a path.
  std::vector<std::optional<Result<std::unique_ptr<storage::ScoreTable>>>>
      table_slots(static_cast<size_t>(num_labels));
  // Read-only views for the parallel tasks: lookups must never insert.
  const auto& object_sequences = out.object_sequences;
  const auto& action_sequences = out.action_sequences;
  phase_start = NowMs();
  runtime::ParallelFor(
      pool_ptr, 0, num_labels, /*grain=*/1,
      [&](int64_t chunk_begin, int64_t chunk_end) {
        for (int64_t i = chunk_begin; i < chunk_end; ++i) {
          const size_t slot = static_cast<size_t>(i);
          if (slot < num_object_labels) {
            const std::string& label = object_labels.labels[slot];
            table_slots[slot].emplace(
                BuildTable(object_scores[slot], object_sequences.at(label),
                           options, "obj_" + SanitizeLabel(label)));
          } else {
            const std::string& label =
                action_labels.labels[slot - num_object_labels];
            table_slots[slot].emplace(BuildTable(
                action_scores[slot - num_object_labels],
                action_sequences.at(label), options,
                "act_" + SanitizeLabel(label)));
          }
        }
      });
  out.ingest_stats.tables_ms = NowMs() - phase_start;
  for (size_t i = 0; i < static_cast<size_t>(num_labels); ++i) {
    Result<std::unique_ptr<storage::ScoreTable>>& slot = *table_slots[i];
    if (!slot.ok()) return slot.status();
    if (i < num_object_labels) {
      out.object_tables.emplace(object_labels.labels[i],
                                std::move(slot).value());
    } else {
      out.action_tables.emplace(action_labels.labels[i - num_object_labels],
                                std::move(slot).value());
    }
  }
  if (pool_ptr != nullptr) {
    out.ingest_stats.runtime.Merge(pool_ptr->Counters());
  }

  // Persist the individual sequences and the manifest alongside the disk
  // tables so the directory can be reopened without re-ingesting.
  if (options.backend == IngestOptions::TableBackend::kDisk) {
    SVQ_RETURN_NOT_OK(storage::SequenceStore::Save(
        options.directory + "/object_sequences.svqs", out.object_sequences,
        options.env));
    SVQ_RETURN_NOT_OK(storage::SequenceStore::Save(
        options.directory + "/action_sequences.svqs", out.action_sequences,
        options.env));
    std::vector<std::string> object_labels;
    for (const auto& [label, _] : out.object_tables) {
      object_labels.push_back(label);
    }
    std::vector<std::string> action_labels;
    for (const auto& [label, _] : out.action_tables) {
      action_labels.push_back(label);
    }
    // The manifest commits the ingest: every artifact it references is
    // already complete and durable on disk when this rename lands.
    SVQ_RETURN_NOT_OK(WriteManifest(options.directory, out, object_labels,
                                    action_labels, options.env));
  }

  // Selectivity statistics ride with the artifacts: posting-list interval
  // counts, covered-clip densities, and table sizes, derived once here so
  // the planner never touches the tables on the query path.
  out.ComputeStatistics();

  out.ingest_inference.units =
      (tracker->stats().units - tracker_base.units) +
      (recognizer->stats().units - recognizer_base.units);
  out.ingest_inference.simulated_ms =
      (tracker->stats().simulated_ms - tracker_base.simulated_ms) +
      (recognizer->stats().simulated_ms - recognizer_base.simulated_ms);
  return out;
}

namespace {

/// Quarantines a corrupt artifact: the file is renamed aside to
/// `<file>.quarantined` (best effort) so a restart does not keep serving —
/// or re-tripping over — damaged bytes, and an operator can inspect them.
/// Only Corruption quarantines; a missing file stays a plain IOError.
Status QuarantineIfCorrupt(Status status, const std::string& file_path) {
  if (!status.IsCorruption()) return status;
  std::error_code ec;
  std::filesystem::rename(file_path, file_path + ".quarantined", ec);
  if (ec) return status;
  return Status::Corruption(status.message() + " (quarantined to " +
                            file_path + ".quarantined)");
}

/// Whether a manifest's frame and clip counts agree with its (validated)
/// layout. Both counts are untrusted, so they are range-checked before any
/// arithmetic: the clip count must fit a score table's rank index, and
/// frames may not exceed what that many clips hold.
bool CountsAgree(const IngestedVideo& v) {
  const int64_t frames_per_clip =
      int64_t{v.layout.frames_per_shot} * v.layout.shots_per_clip;
  if (frames_per_clip > std::numeric_limits<int>::max()) return false;
  if (v.num_clips < 0 || v.num_clips > storage::ScoreTable::kMaxClips) {
    return false;
  }
  if (v.num_frames < 0 || v.num_frames > v.num_clips * frames_per_clip) {
    return false;
  }
  return v.num_clips == v.layout.NumClips(v.num_frames);
}

}  // namespace

Result<IngestedVideo> OpenIngestedVideo(const std::string& directory) {
  const std::string manifest_path = directory + "/manifest.svqm";
  std::vector<std::string> object_labels;
  std::vector<std::string> action_labels;
  auto parse_manifest = [&]() -> Result<IngestedVideo> {
    SVQ_ASSIGN_OR_RETURN(const std::string file,
                         io::ReadFileToString(manifest_path));
    SVQ_ASSIGN_OR_RETURN(const std::string_view payload,
                         io::StripChecksumFooter(file, manifest_path));
    io::ByteReader in(payload);
    uint32_t magic = 0;
    if (!in.Read(&magic) || magic != kManifestMagic) {
      return Status::Corruption("bad manifest magic in " + directory);
    }
    IngestedVideo out;
    int32_t frames_per_shot = 0;
    int32_t shots_per_clip = 0;
    std::string name;
    if (!in.ReadLengthPrefixedString(&name, kMaxLabelLength) ||
        !in.Read(&out.id) || !in.Read(&frames_per_shot) ||
        !in.Read(&shots_per_clip) || !in.Read(&out.layout.fps) ||
        !in.Read(&out.num_frames) || !in.Read(&out.num_clips)) {
      return Status::Corruption("truncated manifest in " + directory);
    }
    out.name = std::move(name);
    out.layout.frames_per_shot = frames_per_shot;
    out.layout.shots_per_clip = shots_per_clip;
    if (const Status layout = out.layout.Validate(); !layout.ok()) {
      // A manifest carrying an impossible layout is damage, not a caller
      // mistake: surface it on the corruption path so it quarantines.
      return Status::Corruption("invalid layout in manifest in " +
                                directory + ": " + layout.message());
    }
    if (!CountsAgree(out)) {
      return Status::Corruption("frame and clip counts disagree with the "
                                "layout in manifest in " +
                                directory);
    }
    auto read_labels = [&](std::vector<std::string>* labels) {
      uint64_t count = 0;
      // Bound the untrusted count: each label costs at least its 8-byte
      // length prefix, so more labels than remaining/8 cannot exist.
      if (!in.Read(&count) || count > kMaxManifestLabels ||
          count > in.remaining() / sizeof(uint64_t)) {
        return false;
      }
      for (uint64_t i = 0; i < count; ++i) {
        std::string label;
        if (!in.ReadLengthPrefixedString(&label, kMaxLabelLength)) {
          return false;
        }
        labels->push_back(std::move(label));
      }
      return true;
    };
    if (!read_labels(&object_labels) || !read_labels(&action_labels)) {
      return Status::Corruption("truncated label lists in " + directory);
    }
    return out;
  };

  Result<IngestedVideo> parsed = parse_manifest();
  if (!parsed.ok()) {
    return QuarantineIfCorrupt(parsed.status(), manifest_path);
  }
  IngestedVideo out = std::move(parsed).value();

  for (const std::string& label : object_labels) {
    const std::string path =
        directory + "/obj_" + SanitizeLabel(label) + ".svqt";
    auto table = storage::ScoreTable::Open(path, out.num_clips);
    if (!table.ok()) return QuarantineIfCorrupt(table.status(), path);
    out.object_tables.emplace(label, std::move(table).value());
  }
  for (const std::string& label : action_labels) {
    const std::string path =
        directory + "/act_" + SanitizeLabel(label) + ".svqt";
    auto table = storage::ScoreTable::Open(path, out.num_clips);
    if (!table.ok()) return QuarantineIfCorrupt(table.status(), path);
    out.action_tables.emplace(label, std::move(table).value());
  }
  {
    const std::string path = directory + "/object_sequences.svqs";
    auto sequences = storage::SequenceStore::Load(path);
    if (!sequences.ok()) {
      return QuarantineIfCorrupt(sequences.status(), path);
    }
    out.object_sequences = std::move(sequences).value();
  }
  {
    const std::string path = directory + "/action_sequences.svqs";
    auto sequences = storage::SequenceStore::Load(path);
    if (!sequences.ok()) {
      return QuarantineIfCorrupt(sequences.status(), path);
    }
    out.action_sequences = std::move(sequences).value();
  }
  // Statistics are pure derivations of the artifacts, so a reopened
  // directory reconstructs them instead of persisting a separate file.
  out.ComputeStatistics();
  return out;
}

}  // namespace svq::core
