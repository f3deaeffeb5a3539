#include "svq/stream/shared_models.h"

#include <utility>

#include "svq/cache/fingerprint.h"

namespace svq::stream {

namespace {

/// Stable identity of a shared model: everything that changes the model's
/// output or cost keys a separate underlying instance (two subscribers
/// with different USING clauses must not share).
uint64_t ProfileKey(const models::DetectorProfile& profile, uint64_t seed,
                    bool recognizer) {
  svq::cache::Fingerprint fp;
  fp.Mix(recognizer ? "recognizer" : "detector");
  fp.Mix(profile.name);
  fp.Mix(seed);
  fp.Mix(profile.tpr).Mix(profile.fpr);
  fp.Mix(profile.mean_miss_burst).Mix(profile.mean_fp_burst);
  fp.Mix(profile.true_score.alpha).Mix(profile.true_score.beta);
  fp.Mix(profile.false_score.alpha).Mix(profile.false_score.beta);
  fp.Mix(profile.cost_ms);
  fp.Mix(profile.ideal);
  for (const auto& [label, accuracy] : profile.label_accuracy) {
    fp.Mix(label).Mix(accuracy.tpr).Mix(accuracy.fpr);
  }
  return fp.value();
}

/// Adds `labels` to `shared`'s vocabulary. Returns true when the caller
/// must build the shared model: there is none yet, or the vocabulary grew
/// (the replaced model's stats are then retired). Per-label overlays are
/// pure functions of (video, profile, seed, label), so a rebuilt model
/// agrees with the old one on every label it already knew.
template <typename Shared>
bool GrowVocabulary(Shared* shared, const std::vector<std::string>& labels) {
  bool grew = false;
  for (const std::string& label : labels) {
    grew |= shared->vocabulary.insert(label).second;
  }
  if (shared->model == nullptr) return true;
  if (!grew) return false;
  shared->retired += shared->model->stats();
  return true;
}

}  // namespace

SharedModelPool::SharedModelPool(
    std::shared_ptr<const video::SyntheticVideo> video,
    double object_threshold)
    : video_(std::move(video)), object_threshold_(object_threshold) {}

SharedModelPool::~SharedModelPool() = default;

core::FrameTable* SharedModelPool::Frames(
    const models::DetectorProfile& profile, uint64_t seed,
    const std::vector<std::string>& labels) {
  SharedDetector& shared =
      detectors_[ProfileKey(profile, seed, /*recognizer=*/false)];
  if (GrowVocabulary(&shared, labels)) {
    shared.model = std::make_unique<models::SyntheticObjectDetector>(
        video_, profile,
        std::vector<std::string>(shared.vocabulary.begin(),
                                 shared.vocabulary.end()),
        seed);
    if (shared.table == nullptr) {
      shared.table = std::make_unique<core::FrameTable>(shared.model.get(),
                                                        object_threshold_);
    } else {
      shared.table->Reset(shared.model.get());
    }
  }
  return shared.table.get();
}

core::ShotTable* SharedModelPool::Shots(
    const models::DetectorProfile& profile, uint64_t seed,
    const std::vector<std::string>& labels) {
  SharedRecognizer& shared =
      recognizers_[ProfileKey(profile, seed, /*recognizer=*/true)];
  if (GrowVocabulary(&shared, labels)) {
    shared.model = std::make_unique<models::SyntheticActionRecognizer>(
        video_, profile,
        std::vector<std::string>(shared.vocabulary.begin(),
                                 shared.vocabulary.end()),
        seed);
    if (shared.table == nullptr) {
      shared.table = std::make_unique<core::ShotTable>(shared.model.get());
    } else {
      shared.table->Reset(shared.model.get());
    }
  }
  return shared.table.get();
}

models::InferenceStats SharedModelPool::RunStats() const {
  models::InferenceStats total;
  for (const auto& [key, shared] : detectors_) {
    total += shared.retired;
    total += shared.model->stats();
  }
  for (const auto& [key, shared] : recognizers_) {
    total += shared.retired;
    total += shared.model->stats();
  }
  return total;
}

models::InferenceStats SharedModelPool::ChargedStats() const {
  models::InferenceStats total;
  for (const auto& [key, shared] : detectors_) total += shared.table->charged();
  for (const auto& [key, shared] : recognizers_) {
    total += shared.table->charged();
  }
  return total;
}

}  // namespace svq::stream
