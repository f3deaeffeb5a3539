#include "svq/core/ingest.h"

#include <algorithm>
#include <chrono>
#include <cstring>
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

// The v3 video file (docs/storage.md): a header, one section per object
// type and per action type, and the CRC-32C checksum footer of
// svq/io/checksum_format.h, written atomically as one file.
constexpr uint32_t kVideoFileMagic = 0x33565653;  // "SVV3"
constexpr uint32_t kVideoFileVersion = 3;
constexpr uint64_t kMaxNameLength = 1u << 20;
/// The smallest section: its length, an empty label, no interval, no row.
constexpr uint64_t kMinSectionBytes = 4 * sizeof(uint64_t);

/// Appends one section: its length (uint64, the bytes that follow), the
/// label's sequence-store entry, then its score table.
void AppendSection(const std::string& label,
                   const video::IntervalSet& sequences,
                   const storage::ScoreTable& table, std::string* out) {
  const size_t length_at = out->size();
  io::AppendValue(out, uint64_t{0});
  storage::SequenceStore::AppendEntry(label, sequences, out);
  table.AppendTo(out);
  const uint64_t length = out->size() - length_at - sizeof(uint64_t);
  std::memcpy(out->data() + length_at, &length, sizeof(length));
}

/// Serializes everything OpenIngestedVideo needs to rebuild `v` without
/// the source video or the models. Every type has both a table and a
/// sequence set (IngestVideo builds one of each per label).
std::string EncodeVideoFile(const IngestedVideo& v) {
  std::string out;
  io::AppendValue(&out, kVideoFileMagic);
  io::AppendValue(&out, kVideoFileVersion);
  io::AppendLengthPrefixedString(&out, v.name);
  io::AppendValue(&out, v.id);
  io::AppendValue(&out, static_cast<int32_t>(v.layout.frames_per_shot));
  io::AppendValue(&out, static_cast<int32_t>(v.layout.shots_per_clip));
  io::AppendValue(&out, v.layout.fps);
  io::AppendValue(&out, v.num_frames);
  io::AppendValue(&out, v.num_clips);
  io::AppendValue(&out, static_cast<uint64_t>(v.object_tables.size()));
  io::AppendValue(&out, static_cast<uint64_t>(v.action_tables.size()));
  for (const auto& [label, table] : v.object_tables) {
    AppendSection(label, v.object_sequences.at(label), *table, &out);
  }
  for (const auto& [label, table] : v.action_tables) {
    AppendSection(label, v.action_sequences.at(label), *table, &out);
  }
  io::AppendChecksumFooter(&out);
  return out;
}

/// Whether a header's frame and clip counts agree with its (validated)
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

/// Parses `count` sections of one kind into `tables` and `sequences`. Each
/// section's length is bounded by the bytes that remain before it is
/// read, and its entry and table must fill it exactly.
Status ParseSections(io::ByteReader* in, uint64_t count, int64_t num_clips,
                     const std::string& path,
                     std::map<std::string,
                              std::unique_ptr<storage::ScoreTable>>* tables,
                     std::map<std::string, video::IntervalSet>* sequences) {
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t length = 0;
    std::string_view bytes;
    if (!in->Read(&length) || length > in->remaining()) {
      return Status::Corruption("section length overruns the file in " +
                                path);
    }
    in->ReadView(&bytes, static_cast<size_t>(length));
    io::ByteReader section(bytes);
    SVQ_ASSIGN_OR_RETURN(storage::SequenceStore::Entry entry,
                         storage::SequenceStore::ParseEntry(&section, path));
    std::string_view rows;
    section.ReadView(&rows, section.remaining());
    SVQ_ASSIGN_OR_RETURN(std::unique_ptr<storage::ScoreTable> table,
                         storage::ScoreTable::Parse(rows, num_clips, path));
    if (tables->contains(entry.first)) {
      return Status::Corruption("duplicate label '" + entry.first + "' in " +
                                path);
    }
    tables->emplace(entry.first, std::move(table));
    sequences->emplace(std::move(entry.first), std::move(entry.second));
  }
  return Status::OK();
}

/// Parses a whole video file, footer first: after the checksum holds,
/// every header field and section is still bounds-checked before use, so
/// a hostile but checksum-valid file fails as Corruption before any
/// allocation it sizes. Statistics are left to the caller.
Result<IngestedVideo> ParseVideoFile(std::string_view file,
                                     const std::string& path) {
  SVQ_ASSIGN_OR_RETURN(const std::string_view payload,
                       io::StripChecksumFooter(file, path));
  io::ByteReader in(payload);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!in.Read(&magic) || magic != kVideoFileMagic) {
    return Status::Corruption("bad magic in " + path);
  }
  if (!in.Read(&version) || version != kVideoFileVersion) {
    return Status::Corruption("unsupported version in " + path);
  }
  IngestedVideo out;
  int32_t frames_per_shot = 0;
  int32_t shots_per_clip = 0;
  uint64_t object_count = 0;
  uint64_t action_count = 0;
  if (!in.ReadLengthPrefixedString(&out.name, kMaxNameLength) ||
      !in.Read(&out.id) || !in.Read(&frames_per_shot) ||
      !in.Read(&shots_per_clip) || !in.Read(&out.layout.fps) ||
      !in.Read(&out.num_frames) || !in.Read(&out.num_clips) ||
      !in.Read(&object_count) || !in.Read(&action_count)) {
    return Status::Corruption("truncated header in " + path);
  }
  out.layout.frames_per_shot = frames_per_shot;
  out.layout.shots_per_clip = shots_per_clip;
  if (const Status layout = out.layout.Validate(); !layout.ok()) {
    // A header carrying an impossible layout is damage, not a caller
    // mistake: surface it on the corruption path so it quarantines.
    return Status::Corruption("invalid layout in " + path + ": " +
                              layout.message());
  }
  if (!CountsAgree(out)) {
    return Status::Corruption(
        "frame and clip counts disagree with the layout in " + path);
  }
  // Every section takes at least kMinSectionBytes, so no more sections
  // than that fit in what remains can exist.
  const uint64_t max_sections = in.remaining() / kMinSectionBytes;
  if (object_count > max_sections ||
      action_count > max_sections - object_count) {
    return Status::Corruption("section count exceeds the file in " + path);
  }
  SVQ_RETURN_NOT_OK(ParseSections(&in, object_count, out.num_clips, path,
                                  &out.object_tables,
                                  &out.object_sequences));
  SVQ_RETURN_NOT_OK(ParseSections(&in, action_count, out.num_clips, path,
                                  &out.action_tables,
                                  &out.action_sequences));
  if (in.remaining() != 0) {
    return Status::Corruption("trailing bytes after the last section in " +
                              path);
  }
  return out;
}

/// Writes `v` as one file `<options.directory>/<v.name>`. The rename
/// inside io::WriteFileAtomic commits the ingest, and its directory fsync
/// makes the new catalog entry durable. The ingest keeps serving `v`, the
/// artifacts it built: parsing the bytes back at ingest, to serve or only
/// to check them, measured 10-27% more peak RSS on e2ebench's cold-routed
/// workload, and the codec's exact round trip is a tested property.
Status PersistVideo(const IngestedVideo& v, const IngestOptions& options) {
  const std::string path = options.directory + "/" + v.name;
  const std::string file = EncodeVideoFile(v);
  // Concurrent ingests may race to create the directory; an existing one
  // is not an error.
  std::error_code ec;
  std::filesystem::create_directories(options.directory, ec);
  if (ec) {
    return Status::IOError("create directory failed: " + options.directory +
                           ": " + ec.message());
  }
  return io::WriteFileAtomic(options.env, path, file);
}

Result<std::unique_ptr<storage::ScoreTable>> BuildTable(
    const std::vector<double>& clip_scores,
    const video::IntervalSet& positive_clips) {
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
  // The table keeps this vector while the video is served: drop the
  // growth slack, as a table parsed from its exact row count has none.
  rows.shrink_to_fit();
  return storage::ScoreTable::Create(
      std::move(rows), static_cast<int64_t>(clip_scores.size()));
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Dense ids for the labels of one model's vocabulary, in first-emitted
/// (stream) order. The dense ids index the per-label accumulator arrays of
/// the parallel aggregation phase, so a label the model never emits gets no
/// array and no table; final outputs are keyed by label string again, so
/// the intern order never leaks into results.
struct LabelIntern {
  explicit LabelIntern(const std::vector<std::string>& vocabulary)
      : vocabulary(vocabulary), dense(vocabulary.size(), -1) {}

  /// Rewrites the label of every emission of one range call over `range`
  /// from its vocabulary index to its dense id, checking each emission
  /// before an aggregation array is indexed with it.
  Status Intern(const video::Interval& range,
                std::vector<models::Emission>* emissions) {
    for (models::Emission& e : *emissions) {
      SVQ_RETURN_NOT_OK(models::CheckEmission(e, dense.size(), range));
      int32_t& id = dense[static_cast<size_t>(e.label)];
      if (id < 0) {
        id = static_cast<int32_t>(labels.size());
        labels.push_back(vocabulary[static_cast<size_t>(e.label)]);
      }
      e.label = id;
    }
    return Status::OK();
  }

  const std::vector<std::string>& vocabulary;
  std::vector<int32_t> dense;       // by vocabulary index; -1 until emitted
  std::vector<std::string> labels;  // by dense id
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
  if (options.backend == IngestOptions::TableBackend::kDisk) {
    const std::string& name = video->name();
    if (name.empty() || name == "." || name == ".." ||
        name.find('/') != std::string::npos) {
      return Status::InvalidArgument("video name '" + name +
                                     "' cannot name a file in the ingest "
                                     "directory");
    }
  }

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

  // Phase A — model inference in stream order, one tracker and one
  // recognizer range call per clip (ingest.h's runtime note says why it
  // does not fan out within one video; cross-video parallelism lives in
  // VideoQueryEngine::IngestAll and RunRepositoryTopK). Each call appends
  // (label, unit, score) straight to its clip's compact record: no box,
  // track id, label string or per-frame vector is built, and no buffer
  // beside the records, as one call over the whole video would need. Every
  // later phase is model-free and parallel.
  const int64_t num_shots = video->NumShots();
  LabelIntern object_labels(tracker->SupportedLabels());
  LabelIntern action_labels(recognizer->SupportedLabels());
  std::vector<std::vector<models::Emission>> object_raw(
      static_cast<size_t>(out.num_clips));
  std::vector<std::vector<models::Emission>> action_raw(
      static_cast<size_t>(out.num_clips));
  double phase_start = NowMs();
  video::SyntheticVideoStream stream(video, id);
  while (auto clip = stream.NextClip()) {
    const size_t clip_index = static_cast<size_t>(clip->clip);
    const video::Interval shots = clip->ShotRange();
    SVQ_RETURN_NOT_OK(tracker->Track(clip->frames, &object_raw[clip_index],
                                     nullptr, nullptr));
    SVQ_RETURN_NOT_OK(
        object_labels.Intern(clip->frames, &object_raw[clip_index]));
    SVQ_RETURN_NOT_OK(recognizer->Recognize(shots, &action_raw[clip_index]));
    SVQ_RETURN_NOT_OK(action_labels.Intern(shots, &action_raw[clip_index]));
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
          for (const models::Emission& p : object_raw[clip_index]) {
            object_scores[static_cast<size_t>(p.label)][clip_index] +=
                p.score;
            if (p.score >= options.object_threshold) {
              object_events[static_cast<size_t>(p.label)]
                           [static_cast<size_t>(p.unit)] = 1;
            }
          }
          for (const models::Emission& p : action_raw[clip_index]) {
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

  // Phase D — per-type score-table construction, parallel over types.
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
                BuildTable(object_scores[slot], object_sequences.at(label)));
          } else {
            const std::string& label =
                action_labels.labels[slot - num_object_labels];
            table_slots[slot].emplace(
                BuildTable(action_scores[slot - num_object_labels],
                           action_sequences.at(label)));
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

  if (options.backend == IngestOptions::TableBackend::kDisk) {
    SVQ_RETURN_NOT_OK(PersistVideo(out, options));
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

/// Quarantines a corrupt video file: it is renamed aside to
/// `<file>.quarantined` (best effort) so a restart does not keep serving —
/// or re-tripping over — damaged bytes, and an operator can inspect them.
/// Only Corruption quarantines; a missing file stays a plain IOError.
Status QuarantineIfCorrupt(Status status, const std::string& path) {
  if (!status.IsCorruption()) return status;
  std::error_code ec;
  std::filesystem::rename(path, path + ".quarantined", ec);
  if (ec) return status;
  return Status::Corruption(status.message() + " (quarantined to " + path +
                            ".quarantined)");
}

}  // namespace

Result<IngestedVideo> OpenIngestedVideo(const std::string& path) {
  Result<std::string> file = io::ReadFileToString(path);
  if (!file.ok()) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      return Status::IOError(
          path + " is a per-video directory written before format v3; "
                 "re-ingest the video to write its one-file form");
    }
    return file.status();
  }
  Result<IngestedVideo> parsed = ParseVideoFile(*file, path);
  if (!parsed.ok()) return QuarantineIfCorrupt(parsed.status(), path);
  // Statistics are pure derivations of the artifacts, so a reopened video
  // reconstructs them instead of persisting them.
  parsed->ComputeStatistics();
  return parsed;
}

}  // namespace svq::core
