#include "svq/core/clip_indicator.h"

#include <bit>
#include <limits>
#include <string>
#include <utility>

#include "svq/core/spatial.h"

namespace svq::core {

std::string FramePredicate::Name() const {
  switch (kind) {
    case Kind::kObject:
      return labels.empty() ? "?" : labels.front();
    case Kind::kAnyOf: {
      std::string name = "any(";
      for (size_t i = 0; i < labels.size(); ++i) {
        if (i > 0) name += "|";
        name += labels[i];
      }
      return name + ")";
    }
    case Kind::kRelationship:
      return relationship.ToString();
  }
  return "?";
}

std::vector<FramePredicate> FramePredicatesOf(const Query& query) {
  std::vector<FramePredicate> predicates;
  for (const std::string& object : query.objects) {
    FramePredicate p;
    p.kind = FramePredicate::Kind::kObject;
    p.labels = {object};
    predicates.push_back(std::move(p));
  }
  for (const auto& group : query.object_disjunctions) {
    FramePredicate p;
    p.kind = FramePredicate::Kind::kAnyOf;
    p.labels = group;
    predicates.push_back(std::move(p));
  }
  for (const Relationship& rel : query.relationships) {
    FramePredicate p;
    p.kind = FramePredicate::Kind::kRelationship;
    p.relationship = rel;
    predicates.push_back(std::move(p));
  }
  return predicates;
}

namespace {

/// Maps each vocabulary index to the slot registered for its label, or -1.
std::vector<int> MapSlots(const std::vector<std::string>& vocabulary,
                          const std::vector<std::string>& slot_labels) {
  std::vector<int> slot_of(vocabulary.size(), -1);
  for (size_t v = 0; v < vocabulary.size(); ++v) {
    for (size_t s = 0; s < slot_labels.size(); ++s) {
      if (vocabulary[v] == slot_labels[s]) {
        slot_of[v] = static_cast<int>(s);
        break;
      }
    }
  }
  return slot_of;
}

}  // namespace

// ---------------------------------------------------------------------------
// FrameTable

FrameTable::FrameTable(models::ObjectDetector* detector, double threshold)
    : detector_(detector), threshold_(threshold) {
  slot_of_ = MapSlots(detector_->SupportedLabels(), labels_);
}

int FrameTable::Slot(const std::string& label) {
  for (size_t s = 0; s < labels_.size(); ++s) {
    if (labels_[s] == label) return static_cast<int>(s);
  }
  labels_.push_back(label);
  slot_of_ = MapSlots(detector_->SupportedLabels(), labels_);
  held_ = false;
  return static_cast<int>(labels_.size() - 1);
}

void FrameTable::KeepDetections() {
  if (keep_detections_) return;
  keep_detections_ = true;
  held_ = false;
}

void FrameTable::Reset(models::ObjectDetector* detector) {
  detector_ = detector;
  slot_of_ = MapSlots(detector_->SupportedLabels(), labels_);
  held_ = false;
}

Status FrameTable::Fill(const video::ClipRef& clip,
                        models::InferenceStats* charge) {
  if (!held_ || clip.frames != frames_) {
    held_ = false;
    const int64_t n = clip.frames.length();
    words_ = static_cast<size_t>((n + 63) / 64);
    masks_.assign(labels_.size() * words_, 0);
    emissions_.clear();
    boxes_.clear();
    const models::InferenceStats before = detector_->stats();
    SVQ_RETURN_NOT_OK(detector_->Detect(clip.frames, &emissions_,
                                        keep_detections_ ? &boxes_ : nullptr));
    for (const models::Emission& e : emissions_) {
      SVQ_RETURN_NOT_OK(
          models::CheckEmission(e, slot_of_.size(), clip.frames));
      const int slot = slot_of_[static_cast<size_t>(e.label)];
      if (slot < 0 || e.score < threshold_) continue;
      const int64_t f = e.unit - clip.frames.begin;
      masks_[static_cast<size_t>(slot) * words_ +
             static_cast<size_t>(f >> 6)] |= uint64_t{1} << (f & 63);
    }
    if (keep_detections_) {
      if (boxes_.size() != emissions_.size()) {
        return Status::Internal("detector returned " +
                                std::to_string(boxes_.size()) + " boxes for " +
                                std::to_string(emissions_.size()) +
                                " detections");
      }
      if (detections_.size() < static_cast<size_t>(n)) {
        detections_.resize(static_cast<size_t>(n));
      }
      for (int64_t f = 0; f < n; ++f) {
        detections_[static_cast<size_t>(f)].clear();
      }
      // Emissions come label by label, so each frame lists its detections
      // in vocabulary order.
      const std::vector<std::string>& vocabulary =
          detector_->SupportedLabels();
      for (size_t i = 0; i < emissions_.size(); ++i) {
        const models::Emission& e = emissions_[i];
        detections_[static_cast<size_t>(e.unit - clip.frames.begin)]
            .push_back({vocabulary[static_cast<size_t>(e.label)], e.score,
                        boxes_[i]});
      }
    }
    const models::InferenceStats& after = detector_->stats();
    bill_.units = after.units - before.units;
    bill_.simulated_ms = after.simulated_ms - before.simulated_ms;
    frames_ = clip.frames;
    num_frames_ = n;
    held_ = true;
  }
  *charge += bill_;
  charged_ += bill_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ShotTable

ShotTable::ShotTable(models::ActionRecognizer* recognizer)
    : recognizer_(recognizer) {
  slot_of_ = MapSlots(recognizer_->SupportedLabels(), labels_);
}

int ShotTable::Slot(const std::string& label) {
  for (size_t s = 0; s < labels_.size(); ++s) {
    if (labels_[s] == label) return static_cast<int>(s);
  }
  labels_.push_back(label);
  slot_of_ = MapSlots(recognizer_->SupportedLabels(), labels_);
  held_ = false;
  return static_cast<int>(labels_.size() - 1);
}

void ShotTable::Reset(models::ActionRecognizer* recognizer) {
  recognizer_ = recognizer;
  slot_of_ = MapSlots(recognizer_->SupportedLabels(), labels_);
  held_ = false;
}

Status ShotTable::Fill(const video::ClipRef& clip,
                       models::InferenceStats* charge) {
  if (!held_ || clip.frames != frames_) {
    held_ = false;
    const video::Interval shots = clip.ShotRange();
    const int64_t n = shots.length();
    scores_.assign(labels_.size() * static_cast<size_t>(n),
                   std::numeric_limits<double>::quiet_NaN());
    emissions_.clear();
    const models::InferenceStats before = recognizer_->stats();
    SVQ_RETURN_NOT_OK(recognizer_->Recognize(shots, &emissions_));
    for (const models::Emission& e : emissions_) {
      SVQ_RETURN_NOT_OK(models::CheckEmission(e, slot_of_.size(), shots));
      const int slot = slot_of_[static_cast<size_t>(e.label)];
      if (slot < 0) continue;
      scores_[static_cast<size_t>(slot) * static_cast<size_t>(n) +
              static_cast<size_t>(e.unit - shots.begin)] = e.score;
    }
    const models::InferenceStats& after = recognizer_->stats();
    bill_.units = after.units - before.units;
    bill_.simulated_ms = after.simulated_ms - before.simulated_ms;
    frames_ = clip.frames;
    num_shots_ = n;
    held_ = true;
  }
  *charge += bill_;
  charged_ += bill_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Evaluation

ClipPredicates PrepareClipPredicates(const Query& query, FrameTable* frames,
                                     ShotTable* shots) {
  ClipPredicates prepared;
  prepared.frames = FramePredicatesOf(query);
  for (const FramePredicate& predicate : prepared.frames) {
    std::vector<int> slots;
    if (predicate.kind == FramePredicate::Kind::kRelationship) {
      frames->KeepDetections();
    } else {
      for (const std::string& label : predicate.labels) {
        slots.push_back(frames->Slot(label));
      }
    }
    prepared.slots.push_back(std::move(slots));
  }
  prepared.actions = query.AllActions();
  for (const std::string& action : prepared.actions) {
    prepared.action_slots.push_back(shots->Slot(action));
  }
  return prepared;
}

namespace {

void SetBit(UnitBits* bits, int64_t i) {
  (*bits)[static_cast<size_t>(i >> 6)] |= uint64_t{1} << (i & 63);
}

int CountBits(const UnitBits& bits) {
  int count = 0;
  for (const uint64_t word : bits) count += std::popcount(word);
  return count;
}

}  // namespace

Status EvaluateClip(const video::ClipRef& clip,
                    const ClipPredicates& predicates,
                    const OnlineConfig& config,
                    const std::vector<int>& frame_kcrits,
                    const std::vector<int>& action_kcrits, FrameTable* frames,
                    ShotTable* shots, const EvalOptions& options,
                    ClipEvaluation* eval) {
  const size_t num_predicates = predicates.frames.size();
  const size_t num_actions = predicates.actions.size();
  if (frame_kcrits.size() != num_predicates ||
      predicates.slots.size() != num_predicates) {
    return Status::InvalidArgument(
        "frame_kcrits size mismatch: " + std::to_string(frame_kcrits.size()) +
        " vs " + std::to_string(num_predicates) + " predicates");
  }
  if (action_kcrits.size() != num_actions ||
      predicates.action_slots.size() != num_actions) {
    return Status::InvalidArgument(
        "action_kcrits size mismatch: " +
        std::to_string(action_kcrits.size()) + " vs " +
        std::to_string(num_actions) + " actions");
  }
  if (frames == nullptr || shots == nullptr || eval == nullptr) {
    return Status::InvalidArgument(
        "frame table, shot table and evaluation must be set");
  }
  if (frames->threshold() != config.object_threshold) {
    return Status::InvalidArgument(
        "frame table masks at threshold " +
        std::to_string(frames->threshold()) + ", query needs " +
        std::to_string(config.object_threshold));
  }

  eval->positive = false;
  eval->evaluated_frame_predicates = 0;
  eval->actions_evaluated = false;
  eval->num_frames = 0;
  eval->num_shots = 0;
  eval->frame_counts.resize(num_predicates);
  eval->frame_events.resize(num_predicates);
  eval->action_counts.resize(num_actions);
  eval->action_events.resize(num_actions);
  eval->detector_charge = {};
  eval->recognizer_charge = {};

  // One detector pass over the clip's frames covers every frame predicate
  // (a real detector emits all classes in a single inference); all
  // predicates are decided together, so a frame-stage failure saves the
  // recognizer pass (Alg. 2 lines 6-8) — or vice versa under actions-first
  // ordering (footnote 5). Object and any-of predicates read the table's
  // label masks; relationships read its detections.
  auto run_frame_stage = [&]() -> Result<bool> {
    size_t words = 0;
    if (num_predicates > 0) {
      SVQ_RETURN_NOT_OK(frames->Fill(clip, &eval->detector_charge));
      eval->num_frames = frames->num_frames();
      words = frames->words();
    }
    bool pass = true;
    for (size_t i = 0; i < num_predicates; ++i) {
      const FramePredicate& predicate = predicates.frames[i];
      UnitBits& events = eval->frame_events[i];
      events.assign(words, 0);
      if (predicate.kind == FramePredicate::Kind::kRelationship) {
        for (int64_t f = 0; f < eval->num_frames; ++f) {
          if (RelationshipHolds(predicate.relationship, frames->detections(f),
                                config.object_threshold)) {
            SetBit(&events, f);
          }
        }
      } else {
        for (const int slot : predicates.slots[i]) {
          const uint64_t* mask = frames->mask(slot);
          for (size_t w = 0; w < words; ++w) events[w] |= mask[w];
        }
      }
      eval->frame_counts[i] = CountBits(events);
      if (eval->frame_counts[i] < frame_kcrits[i]) pass = false;
    }
    eval->evaluated_frame_predicates = static_cast<int>(num_predicates);
    return pass;
  };

  // Action predicates (Alg. 2 lines 9-12), all from one recognizer pass;
  // their conjunction implements footnote 3.
  auto run_action_stage = [&]() -> Result<bool> {
    eval->actions_evaluated = true;
    SVQ_RETURN_NOT_OK(shots->Fill(clip, &eval->recognizer_charge));
    eval->num_shots = shots->num_shots();
    const size_t words = static_cast<size_t>((eval->num_shots + 63) / 64);
    for (size_t a = 0; a < num_actions; ++a) {
      eval->action_events[a].assign(words, 0);
      const double* scores = shots->scores(predicates.action_slots[a]);
      for (int64_t s = 0; s < eval->num_shots; ++s) {
        if (scores[s] >= config.action_threshold) {
          SetBit(&eval->action_events[a], s);
        }
      }
    }
    bool pass = true;
    for (size_t a = 0; a < num_actions; ++a) {
      eval->action_counts[a] = CountBits(eval->action_events[a]);
      if (eval->action_counts[a] < action_kcrits[a]) pass = false;
    }
    return pass;
  };

  bool first_pass = false;
  if (options.actions_first) {
    SVQ_ASSIGN_OR_RETURN(first_pass, run_action_stage());
  } else {
    SVQ_ASSIGN_OR_RETURN(first_pass, run_frame_stage());
  }
  if (!first_pass && !options.disable_short_circuit) return Status::OK();
  bool second_pass = false;
  if (options.actions_first) {
    SVQ_ASSIGN_OR_RETURN(second_pass, run_frame_stage());
  } else {
    SVQ_ASSIGN_OR_RETURN(second_pass, run_action_stage());
  }
  eval->positive = first_pass && second_pass;
  return Status::OK();
}

}  // namespace svq::core
