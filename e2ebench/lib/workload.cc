#include "lib/workload.h"

#include <algorithm>
#include <map>
#include <set>

#include "svq/eval/workloads.h"

namespace e2ebench {
namespace {

using svq::video::SyntheticActionSpec;
using svq::video::SyntheticObjectSpec;
using svq::video::SyntheticVideo;
using svq::video::SyntheticVideoSpec;

// Sizes per regime. The comments give the reason for each; the anchor
// timings behind them are in e2ebench/README.md.
struct Sizes {
  // Cold catalog: long videos, several action and object types each.
  int cold_videos = 32;
  int64_t cold_frames = 120000;
  // Churn: published base and the writer's pool (large enough that the
  // writer never runs dry inside one run).
  int hot_churn_base = 16;
  int hot_churn_pool = 720;
  // Nine minutes: long enough that ingest compute, not the fixed fsync
  // cost per artifact, sets the pace, so the rate measures the pipeline.
  int64_t hot_churn_frames = 16200;
  int cold_churn_base = 4;
  int cold_churn_pool = 96;
  // Feeds: one plan per video, drawn by the four feed connections.
  int feed_videos = 64;
  int64_t hot_feed_frames = 5400;
  int64_t cold_feed_frames = 16000;
};
constexpr Sizes kSizes;

const std::vector<std::string>& ActionPool() {
  static const auto* pool = new std::vector<std::string>{
      "washing_dishes", "blowing_leaves",  "walking_the_dog",
      "drinking_beer",  "volleyball",      "playing_rubik_cube",
      "cleaning_sink",  "kneeling",        "doing_crunches",
      "blow_drying_hair", "washing_hands", "archery",
      "smoking",        "robot_dancing"};
  return *pool;
}

std::vector<std::string> ObjectPool() {
  std::vector<std::string> pool;
  for (const auto& [label, accuracy] : svq::eval::WorkloadLabelAccuracy()) {
    pool.push_back(label);
  }
  return pool;
}

/// `count` distinct entries of `pool`, in a seeded order.
std::vector<std::string> Pick(const std::vector<std::string>& pool,
                              size_t count, Rng& rng) {
  std::vector<std::string> shuffled = pool;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
  }
  shuffled.resize(std::min(count, shuffled.size()));
  return shuffled;
}

/// A video in the YouTube emulation's style: action occurrences ~20 s long
/// covering a few percent of the footage, each object correlated with one
/// of the video's actions on top of a background presence process.
VideoPtr MakeVideo(const std::string& name, int64_t frames,
                   const std::vector<std::string>& actions,
                   const std::vector<std::string>& objects, Rng& rng) {
  SyntheticVideoSpec spec;
  spec.name = name;
  spec.num_frames = frames;
  spec.seed = rng.Next();
  for (const std::string& action : actions) {
    spec.actions.push_back(SyntheticActionSpec{action, 600.0, 7500.0});
  }
  for (const std::string& object : objects) {
    SyntheticObjectSpec o;
    o.label = object;
    o.mean_on_frames = 350.0;
    o.mean_off_frames = 2500.0;
    o.correlate_with_action = actions[rng.Below(actions.size())];
    o.correlation = 0.85;
    o.coverage = 0.85;
    o.jitter_frames = 25.0;
    spec.objects.push_back(o);
  }
  return ValueOrDie(SyntheticVideo::Generate(spec), "generate " + name);
}

std::string Labels(const std::vector<std::string>& objects) {
  std::string out;
  for (size_t i = 0; i < objects.size(); ++i) {
    out += (i == 0 ? "'" : ",'") + objects[i] + "'";
  }
  return out;
}

std::string RankedStatement(const std::string& video,
                            const std::string& action,
                            const std::vector<std::string>& objects,
                            int k) {
  return "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS " + video +
         " PRODUCE clipID, obj USING ObjectDetector, act USING "
         "ActionRecognizer) WHERE act='" + action + "' AND obj.include(" +
         Labels(objects) + ") ORDER BY RANK(act, obj) LIMIT " +
         std::to_string(k);
}

std::string StreamingStatement(const std::string& video,
                               const std::string& action,
                               const std::vector<std::string>& objects) {
  return "SELECT MERGE(clipID) FROM (PROCESS " + video +
         " PRODUCE clipID, obj USING ObjectDetector, act USING "
         "ActionRecognizer) WHERE act='" + action + "' AND obj.include(" +
         Labels(objects) + ")";
}

/// Object subsets of size 1 and 2, in label order.
std::vector<std::vector<std::string>> Subsets(std::vector<std::string> labels,
                                              bool pairs) {
  std::sort(labels.begin(), labels.end());
  std::vector<std::vector<std::string>> out;
  for (size_t i = 0; i < labels.size(); ++i) out.push_back({labels[i]});
  if (!pairs) return out;
  for (size_t i = 0; i < labels.size(); ++i) {
    for (size_t j = i + 1; j < labels.size(); ++j) {
      out.push_back({labels[i], labels[j]});
    }
  }
  return out;
}

std::vector<std::string> ActionsOf(const SyntheticVideo& video) {
  std::vector<std::string> out;
  for (const auto& a : video.spec().actions) out.push_back(a.label);
  return out;
}

std::vector<std::string> ObjectsOf(const SyntheticVideo& video) {
  std::vector<std::string> out;
  for (const auto& o : video.spec().objects) out.push_back(o.label);
  return out;
}

/// Per-video statements: every action × object subset (size 1–2) × K.
void AddPerVideo(const std::vector<VideoPtr>& videos,
                 const std::vector<int>& ks, std::vector<RankedOp>* space) {
  for (const VideoPtr& video : videos) {
    for (const std::string& action : ActionsOf(*video)) {
      for (const auto& subset : Subsets(ObjectsOf(*video), true)) {
        for (const int k : ks) {
          space->push_back(
              {RankedStatement(video->name(), action, subset, k),
               video->name()});
        }
      }
    }
  }
}

/// Broadcasts: every action of the catalog × the objects seen with it
/// (singles; pairs too when an action has at most three) × K.
void AddBroadcasts(const std::vector<VideoPtr>& videos,
                   const std::vector<int>& ks, std::vector<RankedOp>* space) {
  std::map<std::string, std::set<std::string>> objects_by_action;
  for (const VideoPtr& video : videos) {
    for (const std::string& action : ActionsOf(*video)) {
      for (const std::string& object : ObjectsOf(*video)) {
        objects_by_action[action].insert(object);
      }
    }
  }
  for (const auto& [action, objects] : objects_by_action) {
    const std::vector<std::string> labels(objects.begin(), objects.end());
    for (const auto& subset : Subsets(labels, labels.size() <= 3)) {
      for (const int k : ks) {
        space->push_back({RankedStatement("*", action, subset, k), ""});
      }
    }
  }
}

std::vector<size_t> Permutation(size_t n, Rng& rng) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  return perm;
}

/// Four standing statements with overlapping labels over one video.
FeedPlan MakeFeedPlan(const SyntheticVideo& video) {
  const std::vector<std::string> a = ActionsOf(video);
  const std::vector<std::string> o = ObjectsOf(video);
  FeedPlan plan;
  plan.video = video.name();
  auto add = [&](const std::string& action, std::vector<std::string> objects) {
    std::sort(objects.begin(), objects.end());
    objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
    plan.statements.push_back(
        StreamingStatement(video.name(), action, objects));
  };
  add(a[0], {o[0]});
  add(a[0], {o[0], o[1 % o.size()]});
  add(a[1 % a.size()], {o[1 % o.size()]});
  add(a[2 % a.size()], {o[0], o[2 % o.size()]});
  return plan;
}

void DigestVideo(const SyntheticVideo& video, Digest* digest) {
  digest->Add(video.name());
  digest->AddU64(static_cast<uint64_t>(video.num_frames()));
  digest->AddU64(video.seed());
  const auto& truth = video.ground_truth();
  for (const std::string& label : truth.ActionLabels()) {
    digest->Add(label);
    for (const auto& interval : truth.ActionPresence(label).intervals()) {
      digest->AddU64(static_cast<uint64_t>(interval.begin));
      digest->AddU64(static_cast<uint64_t>(interval.end));
    }
  }
  for (const std::string& label : truth.ObjectLabels()) {
    digest->Add(label);
    for (const auto& interval : truth.ObjectPresence(label).intervals()) {
      digest->AddU64(static_cast<uint64_t>(interval.begin));
      digest->AddU64(static_cast<uint64_t>(interval.end));
    }
  }
}

}  // namespace

const std::vector<WorkloadInfo>& Workloads() {
  static const auto* workloads = new std::vector<WorkloadInfo>{
      {"hot-zipf", Regime::kHot,
       "YouTube emulation on memory tables, one svqd with a 64 MB cache, "
       "Zipf draws: hits dominate, so wire, admission, parse/bind/plan and "
       "cache lookup show"},
      {"cold-routed", Regime::kCold,
       "long multi-label videos reopened from disk, 2 shards behind "
       "svq_router, uniform draws over 10x the cache: planner, RVAQ, "
       "score tables and scatter-gather show"},
  };
  return *workloads;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& info : Workloads()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

Workload BuildWorkload(const WorkloadInfo& info, uint64_t seed) {
  Workload w;
  w.name = info.name;
  w.regime = info.regime;
  w.seed = seed;
  Rng rng(DeriveSeed(seed, 1));
  const bool hot = info.regime == Regime::kHot;

  // Label pools and K values are fixed, so that seeds vary the videos and
  // the draws, not the kind of work: the seed assigns labels to videos,
  // generates their ground truth and orders the Zipf ranks.
  const std::vector<std::string>& actions = ActionPool();
  const std::vector<std::string> objects = ObjectPool();
  const std::vector<int> kKs = {1, 3, 5, 10};
  std::vector<int> broadcast_ks;
  if (hot) {
    for (const auto& scenario :
         ValueOrDie(svq::eval::YouTubeWorkload(rng.Next(), 1.0),
                    "YouTube workload")) {
      w.catalog.insert(w.catalog.end(), scenario.videos.begin(),
                       scenario.videos.end());
    }
    broadcast_ks = kKs;
    w.broadcast_share = 0.05;
    w.zipf_s = 1.1;
  } else {
    for (int v = 0; v < kSizes.cold_videos; ++v) {
      w.catalog.push_back(MakeVideo("long_" + std::to_string(v),
                                    kSizes.cold_frames, Pick(actions, 3, rng),
                                    Pick(objects, 4, rng), rng));
    }
    broadcast_ks = {1, 5};
    w.broadcast_share = 0.25;
    w.zipf_s = 0.0;
  }
  AddPerVideo(w.catalog, kKs, &w.space);
  w.per_video_count = w.space.size();
  {
    std::vector<RankedOp> broadcasts;
    AddBroadcasts(w.catalog, broadcast_ks, &broadcasts);
    w.space.insert(w.space.end(), broadcasts.begin(), broadcasts.end());
  }
  w.per_video_rank = Permutation(w.per_video_count, rng);

  // Churn: same video shape as the catalog.
  auto churn_video = [&](const std::string& name) {
    return hot ? MakeVideo(name, kSizes.hot_churn_frames,
                           Pick(actions, 1, rng),
                           Pick(objects, 3, rng), rng)
               : MakeVideo(name, kSizes.cold_frames,
                           Pick(actions, 3, rng),
                           Pick(objects, 4, rng), rng);
  };
  const int base = hot ? kSizes.hot_churn_base : kSizes.cold_churn_base;
  const int pool = hot ? kSizes.hot_churn_pool : kSizes.cold_churn_pool;
  for (int i = 0; i < base; ++i) {
    w.churn_base.push_back(churn_video("base_" + std::to_string(i)));
  }
  for (int i = 0; i < pool; ++i) {
    w.churn_pool.push_back(churn_video("new_" + std::to_string(i)));
  }
  AddPerVideo(w.churn_base, kKs, &w.churn_space);
  w.churn_rank = Permutation(w.churn_space.size(), rng);

  // Feeds.
  for (int i = 0; i < kSizes.feed_videos; ++i) {
    const std::string name = "feed_" + std::to_string(i);
    w.feed_videos.push_back(
        hot ? MakeVideo(name, kSizes.hot_feed_frames,
                        Pick(actions, 1, rng),
                        Pick(objects, 3, rng), rng)
            : MakeVideo(name, kSizes.cold_feed_frames,
                        Pick(actions, 3, rng),
                        Pick(objects, 4, rng), rng));
    w.feed_plans.push_back(MakeFeedPlan(*w.feed_videos.back()));
  }
  return w;
}

uint64_t Workload::CatalogDigest() const {
  Digest digest;
  for (const auto* videos : {&catalog, &churn_base, &churn_pool,
                             &feed_videos}) {
    for (const VideoPtr& video : *videos) DigestVideo(*video, &digest);
  }
  for (const auto* ops : {&space, &churn_space}) {
    for (const RankedOp& op : *ops) digest.Add(op.statement);
  }
  for (const FeedPlan& plan : feed_plans) {
    for (const std::string& statement : plan.statements) {
      digest.Add(statement);
    }
  }
  return digest.value();
}

OpStream::OpStream(const Workload& workload, uint64_t stream_id)
    : workload_(&workload),
      rng_(DeriveSeed(workload.seed, 100 + stream_id)),
      per_video_(workload.per_video_count, workload.zipf_s) {}

size_t OpStream::Next() {
  if (rng_.Unit() < workload_->broadcast_share) {
    return workload_->per_video_count +
           rng_.Below(workload_->broadcast_count());
  }
  return workload_->per_video_rank[per_video_.Draw(rng_)];
}

ChurnStream::ChurnStream(const Workload& workload, uint64_t stream_id)
    : workload_(&workload),
      rng_(DeriveSeed(workload.seed, 200 + stream_id)),
      zipf_(workload.churn_space.size(), workload.zipf_s) {}

size_t ChurnStream::Next() {
  return workload_->churn_rank[zipf_.Draw(rng_)];
}

uint64_t OpSequenceDigest(const Workload& workload, int count) {
  Digest digest;
  for (uint64_t stream = 0; stream < 4; ++stream) {
    OpStream ops(workload, stream);
    for (int i = 0; i < count; ++i) {
      digest.Add(workload.space[ops.Next()].statement);
    }
  }
  return digest.value();
}

}  // namespace e2ebench
