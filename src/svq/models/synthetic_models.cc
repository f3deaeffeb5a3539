#include "svq/models/synthetic_models.h"

#include <algorithm>
#include <cmath>

namespace svq::models {

using video::Interval;
using video::IntervalSet;

namespace {

uint64_t MixHash(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic RNG for one (label, unit) pair, from the label's
/// LabelStream::unit_seed; gives every occurrence unit an independent but
/// reproducible score draw.
Rng UnitRng(uint64_t unit_seed, int64_t unit) {
  return Rng(MixHash(unit_seed, static_cast<uint64_t>(unit) + 0x51ed2701));
}

double DrawScore(const ScoreDistribution& dist, Rng& rng) {
  return rng.NextBeta(dist.alpha, dist.beta);
}

Status CheckRange(const Interval& range, int64_t num_units,
                  const char* unit) {
  if (range.begin < 0 || range.end < range.begin || range.end > num_units) {
    return Status::OutOfRange(
        std::string(unit) + " range [" + std::to_string(range.begin) + ", " +
        std::to_string(range.end) + ") is outside the video's " +
        std::to_string(num_units) + " " + unit + "s");
  }
  return Status::OK();
}

/// Builds every vocabulary label's stream once, on a model's first range
/// call: the overlay over `truth(label)`, the label's presence in the
/// model's unit domain, from the RNG stream that `seed` and the label
/// select; the same value seeds the label's unit draws.
template <typename Truth>
void EnsureStreams(const std::vector<std::string>& vocabulary,
                   int64_t num_units, const DetectorProfile& profile,
                   uint64_t seed, Truth&& truth,
                   std::vector<LabelStream>* streams) {
  if (!streams->empty()) return;
  streams->reserve(vocabulary.size());
  for (const std::string& label : vocabulary) {
    LabelStream stream;
    stream.unit_seed = MixHash(seed, HashLabel(label));
    stream.overlay = PresenceOverlay::Build(
        truth(label), num_units, profile.TprFor(label), profile.FprFor(label),
        profile.mean_miss_burst, profile.mean_fp_burst, profile.ideal,
        Rng(stream.unit_seed));
    streams->push_back(std::move(stream));
  }
}

/// Index of the first interval of `runs` ending after `unit`.
size_t FirstEndingAfter(const std::vector<Interval>& runs, int64_t unit) {
  return static_cast<size_t>(
      std::upper_bound(runs.begin(), runs.end(), unit,
                       [](int64_t u, const Interval& run) {
                         return u < run.end;
                       }) -
      runs.begin());
}

/// One label's pass over `range`: walks its true and false detections in
/// unit order, merging the two disjoint interval lists of its overlay, and
/// scores each emitted unit from the unit's own RNG. Calls
/// `visit(unit, is_true, score, rng)` with the RNG the score was drawn
/// from, which a false positive's box continues.
template <typename Visit>
void EmitLabel(const LabelStream& stream, const DetectorProfile& profile,
               const Interval& range, Visit&& visit) {
  const std::vector<Interval>& hits =
      stream.overlay.true_detected().intervals();
  const std::vector<Interval>& false_hits =
      stream.overlay.false_detected().intervals();
  size_t t = FirstEndingAfter(hits, range.begin);
  size_t f = FirstEndingAfter(false_hits, range.begin);
  while (true) {
    const bool more_true = t < hits.size() && hits[t].begin < range.end;
    const bool more_false =
        f < false_hits.size() && false_hits[f].begin < range.end;
    if (!more_true && !more_false) return;
    const bool is_true =
        more_true && (!more_false || hits[t].begin < false_hits[f].begin);
    const Interval& run = is_true ? hits[t++] : false_hits[f++];
    const ScoreDistribution& law =
        is_true ? profile.true_score : profile.false_score;
    const int64_t end = std::min(run.end, range.end);
    for (int64_t unit = std::max(run.begin, range.begin); unit < end;
         ++unit) {
      Rng rng = UnitRng(stream.unit_seed, unit);
      const double score = profile.ideal ? 1.0 : DrawScore(law, rng);
      visit(unit, is_true, score, rng);
    }
  }
}

BoundingBox DrawBox(Rng& rng) {
  BoundingBox box;
  box.x = rng.NextDouble(0.0, 0.7);
  box.y = rng.NextDouble(0.0, 0.7);
  box.width = rng.NextDouble(0.1, 0.3);
  box.height = rng.NextDouble(0.1, 0.3);
  return box;
}

std::vector<std::string> BuildVocabulary(
    const std::vector<std::string>& truth_labels,
    const std::vector<std::string>& extra) {
  std::vector<std::string> vocab = truth_labels;
  for (const std::string& label : extra) {
    if (std::find(vocab.begin(), vocab.end(), label) == vocab.end()) {
      vocab.push_back(label);
    }
  }
  std::sort(vocab.begin(), vocab.end());
  return vocab;
}

/// EnsureStreams for an object model: overlays over frame presence.
void EnsureObjectStreams(const video::SyntheticVideo& video,
                         const std::vector<std::string>& vocabulary,
                         const DetectorProfile& profile, uint64_t seed,
                         std::vector<LabelStream>* streams) {
  EnsureStreams(
      vocabulary, video.num_frames(), profile, seed,
      [&](const std::string& label) -> const IntervalSet& {
        return video.ground_truth().ObjectPresence(label);
      },
      streams);
}

/// The box of an object emission: a true detection carries its instance's
/// stable geometry, a false positive hallucinates a random box.
BoundingBox EmissionBox(const InstanceLookup& lookup, const std::string& label,
                        video::FrameIndex frame, bool is_true, uint64_t seed,
                        Rng& rng) {
  const video::TrackInstance* instance =
      is_true ? lookup.At(label, frame) : nullptr;
  return instance != nullptr ? InstanceBox(*instance, frame, seed)
                             : DrawBox(rng);
}

}  // namespace

uint64_t HashLabel(const std::string& label) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : label) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

BoundingBox InstanceBox(const video::TrackInstance& instance,
                        video::FrameIndex frame, uint64_t seed) {
  Rng rng(MixHash(seed ^ 0xb0b0b0ULL,
                  static_cast<uint64_t>(instance.instance_id)));
  const double width = rng.NextDouble(0.08, 0.25);
  const double height = rng.NextDouble(0.10, 0.30);
  const double base_cx = rng.NextDouble(width / 2, 1.0 - width / 2);
  const double base_cy = rng.NextDouble(height / 2, 1.0 - height / 2);
  const double amplitude = rng.NextDouble(0.01, 0.06);
  const double period = rng.NextDouble(240.0, 900.0);
  const double phase = rng.NextDouble(0.0, 2.0 * M_PI);
  const double t = static_cast<double>(frame - instance.frames.begin);
  const double cx = std::clamp(
      base_cx + amplitude * std::sin(2.0 * M_PI * t / period + phase),
      width / 2, 1.0 - width / 2);
  const double cy = std::clamp(
      base_cy + 0.5 * amplitude * std::cos(2.0 * M_PI * t / period + phase),
      height / 2, 1.0 - height / 2);
  BoundingBox box;
  box.x = cx - width / 2;
  box.y = cy - height / 2;
  box.width = width;
  box.height = height;
  return box;
}

InstanceLookup::InstanceLookup(const video::GroundTruth& ground_truth) {
  for (const video::TrackInstance& inst : ground_truth.instances()) {
    by_label_[inst.label].push_back(&inst);
  }
  for (auto& [label, instances] : by_label_) {
    std::sort(instances.begin(), instances.end(),
              [](const video::TrackInstance* a,
                 const video::TrackInstance* b) {
                return a->frames.begin < b->frames.begin;
              });
  }
}

const video::TrackInstance* InstanceLookup::At(const std::string& label,
                                               video::FrameIndex frame) const {
  auto it = by_label_.find(label);
  if (it == by_label_.end()) return nullptr;
  const auto& instances = it->second;
  auto upper = std::upper_bound(
      instances.begin(), instances.end(), frame,
      [](video::FrameIndex f, const video::TrackInstance* inst) {
        return f < inst->frames.begin;
      });
  for (auto rit = upper; rit != instances.begin();) {
    --rit;
    if ((*rit)->frames.Contains(frame)) return *rit;
  }
  return nullptr;
}

PresenceOverlay PresenceOverlay::Build(const IntervalSet& truth,
                                       int64_t num_units, double tpr,
                                       double fpr, double mean_miss_burst,
                                       double mean_fp_burst, bool ideal,
                                       Rng rng) {
  PresenceOverlay overlay;
  if (ideal || (tpr >= 1.0 && fpr <= 0.0)) {
    overlay.detected_ = truth;
    overlay.true_detected_ = truth;
    return overlay;
  }
  // Dropout bursts inside true presence: an alternating process whose
  // stationary on-fraction equals the miss rate 1 - tpr.
  IntervalSet misses;
  const double miss_frac = 1.0 - tpr;
  if (miss_frac > 0.0 && !truth.empty()) {
    const double mean_off = miss_frac >= 1.0
                                ? 1.0
                                : mean_miss_burst * tpr / miss_frac;
    misses = IntervalSet(video::GenerateAlternatingProcess(
        num_units, mean_miss_burst, mean_off, rng));
  }
  // False-positive bursts outside true presence, stationary fraction fpr.
  IntervalSet false_positives;
  if (fpr > 0.0) {
    const double mean_off =
        fpr >= 1.0 ? 1.0 : mean_fp_burst * (1.0 - fpr) / fpr;
    IntervalSet raw(video::GenerateAlternatingProcess(
        num_units, mean_fp_burst, mean_off, rng));
    false_positives =
        IntervalSet::Intersect(raw, truth.Complement(0, num_units));
  }
  overlay.true_detected_ = IntervalSet::Difference(truth, misses);
  overlay.false_detected_ = false_positives;
  overlay.detected_ =
      IntervalSet::Union(overlay.true_detected_, false_positives);
  return overlay;
}

// ---------------------------------------------------------------------------
// SyntheticObjectDetector

SyntheticObjectDetector::SyntheticObjectDetector(
    std::shared_ptr<const video::SyntheticVideo> video,
    DetectorProfile profile, std::vector<std::string> extra_vocabulary,
    uint64_t seed)
    : video_(std::move(video)),
      profile_(std::move(profile)),
      vocabulary_(BuildVocabulary(video_->ground_truth().ObjectLabels(),
                                  extra_vocabulary)),
      seed_(seed),
      lookup_(video_->ground_truth()) {}

Status SyntheticObjectDetector::Detect(const video::Interval& frames,
                                       std::vector<Emission>* emissions,
                                       std::vector<BoundingBox>* boxes) {
  SVQ_RETURN_NOT_OK(CheckRange(frames, video_->num_frames(), "frame"));
  EnsureObjectStreams(*video_, vocabulary_, profile_, seed_, &streams_);
  stats_.Add(frames.length(), profile_.cost_ms);
  for (size_t l = 0; l < streams_.size(); ++l) {
    const int32_t label = static_cast<int32_t>(l);
    EmitLabel(streams_[l], profile_, frames,
              [&](int64_t frame, bool is_true, double score, Rng& rng) {
                emissions->push_back({label, frame, score});
                if (boxes != nullptr) {
                  boxes->push_back(EmissionBox(lookup_, vocabulary_[l], frame,
                                               is_true, seed_, rng));
                }
              });
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SyntheticActionRecognizer

SyntheticActionRecognizer::SyntheticActionRecognizer(
    std::shared_ptr<const video::SyntheticVideo> video,
    DetectorProfile profile, std::vector<std::string> extra_vocabulary,
    uint64_t seed)
    : video_(std::move(video)),
      profile_(std::move(profile)),
      vocabulary_(BuildVocabulary(video_->ground_truth().ActionLabels(),
                                  extra_vocabulary)),
      seed_(seed) {}

video::IntervalSet SyntheticActionRecognizer::ShotTruth(
    const std::string& label) const {
  const IntervalSet& frames = video_->ground_truth().ActionPresence(label);
  const video::VideoLayout& layout = video_->layout();
  const int64_t fps = layout.frames_per_shot;
  IntervalSet shots;
  for (const Interval& range : frames.intervals()) {
    const int64_t first_shot = range.begin / fps;
    const int64_t last_shot = (range.end - 1) / fps;
    for (int64_t s = first_shot; s <= last_shot; ++s) {
      const Interval shot_frames = {s * fps, (s + 1) * fps};
      const int64_t overlap =
          std::min(shot_frames.end, range.end) -
          std::max(shot_frames.begin, range.begin);
      // Half-coverage rule: the recognizer "truly sees" the action when it
      // occupies at least half the shot.
      if (2 * overlap >= fps) shots.Add({s, s + 1});
    }
  }
  return shots;
}

Status SyntheticActionRecognizer::Recognize(
    const video::Interval& shots, std::vector<Emission>* emissions) {
  SVQ_RETURN_NOT_OK(CheckRange(shots, video_->NumShots(), "shot"));
  EnsureStreams(
      vocabulary_, video_->NumShots(), profile_, seed_ ^ 0xac7101ULL,
      [&](const std::string& label) { return ShotTruth(label); }, &streams_);
  stats_.Add(shots.length(), profile_.cost_ms);
  for (size_t l = 0; l < streams_.size(); ++l) {
    const int32_t label = static_cast<int32_t>(l);
    EmitLabel(streams_[l], profile_, shots,
              [&](int64_t shot, bool, double score, Rng&) {
                emissions->push_back({label, shot, score});
              });
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SyntheticObjectTracker

SyntheticObjectTracker::SyntheticObjectTracker(
    std::shared_ptr<const video::SyntheticVideo> video,
    DetectorProfile detector_profile, TrackerProfile tracker_profile,
    std::vector<std::string> extra_vocabulary, uint64_t seed)
    : video_(std::move(video)),
      detector_profile_(std::move(detector_profile)),
      tracker_profile_(std::move(tracker_profile)),
      vocabulary_(BuildVocabulary(video_->ground_truth().ObjectLabels(),
                                  extra_vocabulary)),
      seed_(seed),
      lookup_(video_->ground_truth()) {}

int64_t SyntheticObjectTracker::TrueTrackIdAt(const std::string& label,
                                              video::FrameIndex frame) {
  const video::TrackInstance* inst = lookup_.At(label, frame);
  if (inst == nullptr) return -1;
  // Identity churn: the instance fragments into geometric-length track
  // segments, each with its own identifier (deterministic per instance).
  auto bit = segment_boundaries_.find(inst->instance_id);
  if (bit == segment_boundaries_.end()) {
    std::vector<int64_t> boundaries;
    Rng rng(MixHash(seed_ ^ 0x7eac4e7ULL,
                    static_cast<uint64_t>(inst->instance_id)));
    int64_t cursor = inst->frames.begin;
    while (cursor < inst->frames.end) {
      cursor += 1 + static_cast<int64_t>(rng.NextGeometric(
                        1.0 / std::max(1.0,
                                       tracker_profile_.mean_segment_frames)));
      boundaries.push_back(std::min(cursor, inst->frames.end));
    }
    bit = segment_boundaries_.emplace(inst->instance_id, std::move(boundaries))
              .first;
  }
  const std::vector<int64_t>& bounds = bit->second;
  const int64_t segment =
      std::upper_bound(bounds.begin(), bounds.end(), frame) - bounds.begin();
  return (inst->instance_id << 12) | (segment & 0xFFF);
}

int64_t SyntheticObjectTracker::FalseTrackIdAt(size_t index,
                                               video::FrameIndex frame) const {
  const int64_t idx =
      streams_[index].overlay.false_detected().FindInterval(frame);
  if (idx < 0) return -1;
  // False tracks get identifiers in a disjoint high range, one per
  // false-positive burst.
  return (int64_t{1} << 40) |
         (static_cast<int64_t>(HashLabel(vocabulary_[index]) & 0xFFFFF)
          << 16) |
         (idx & 0xFFFF);
}

Status SyntheticObjectTracker::Track(const video::Interval& frames,
                                     std::vector<Emission>* emissions,
                                     std::vector<BoundingBox>* boxes,
                                     std::vector<int64_t>* track_ids) {
  SVQ_RETURN_NOT_OK(CheckRange(frames, video_->num_frames(), "frame"));
  // Same noise streams as a detector with the same profile and seed, so a
  // paired detector/tracker see consistent emissions.
  EnsureObjectStreams(*video_, vocabulary_, detector_profile_, seed_,
                      &streams_);
  stats_.Add(frames.length(),
             detector_profile_.cost_ms + tracker_profile_.cost_ms);
  for (size_t l = 0; l < streams_.size(); ++l) {
    const int32_t label = static_cast<int32_t>(l);
    const std::string& name = vocabulary_[l];
    EmitLabel(streams_[l], detector_profile_, frames,
              [&](int64_t frame, bool is_true, double score, Rng& rng) {
                emissions->push_back({label, frame, score});
                if (boxes != nullptr) {
                  boxes->push_back(EmissionBox(lookup_, name, frame, is_true,
                                               seed_, rng));
                }
                if (track_ids != nullptr) {
                  int64_t id = is_true ? TrueTrackIdAt(name, frame)
                                       : FalseTrackIdAt(l, frame);
                  if (id < 0) id = FalseTrackIdAt(l, frame);
                  track_ids->push_back(id);
                }
              });
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Suites and factories

ModelSet MakeModelSet(const std::shared_ptr<const video::SyntheticVideo>& video,
                      const ModelSuite& suite,
                      const std::vector<std::string>& query_object_labels,
                      const std::vector<std::string>& query_action_labels) {
  ModelSet set;
  set.detector = std::make_unique<SyntheticObjectDetector>(
      video, suite.object_profile, query_object_labels, suite.seed);
  set.recognizer = std::make_unique<SyntheticActionRecognizer>(
      video, suite.action_profile, query_action_labels, suite.seed);
  set.tracker = std::make_unique<SyntheticObjectTracker>(
      video, suite.object_profile, suite.tracker_profile, query_object_labels,
      suite.seed);
  return set;
}

ModelSuite MaskRcnnI3dSuite() {
  ModelSuite suite;
  suite.object_profile = MaskRcnnProfile();
  suite.action_profile = I3dProfile();
  return suite;
}

ModelSuite YoloV3I3dSuite() {
  ModelSuite suite;
  suite.object_profile = YoloV3Profile();
  suite.action_profile = I3dProfile();
  return suite;
}

ModelSuite IdealSuite() {
  ModelSuite suite;
  suite.object_profile = IdealObjectProfile();
  suite.action_profile = IdealActionProfile();
  return suite;
}

}  // namespace svq::models
