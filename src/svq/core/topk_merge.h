#ifndef SVQ_CORE_TOPK_MERGE_H_
#define SVQ_CORE_TOPK_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "svq/core/repository.h"

namespace svq::core {

/// Score-ordered top-K merge shared by the repository parallel fan-out
/// (svq/core/repository.cc) and the cluster router's cross-shard gather
/// (svq/cluster/router.cc): sorts `entries` by descending score, breaking
/// exact score ties with the caller's strict-weak `tie_less`, then truncates
/// to the best `k`. The tie-break must be a total order over the input for
/// the merge to be deterministic — both call sites derive it from stable
/// identifiers (video name / shard index) plus position.
template <typename Entry, typename ScoreOf, typename TieLess>
void SortedTopKMerge(std::vector<Entry>* entries, int k, ScoreOf score_of,
                     TieLess tie_less) {
  std::sort(entries->begin(), entries->end(),
            [&](const Entry& a, const Entry& b) {
              const double score_a = score_of(a);
              const double score_b = score_of(b);
              if (score_a != score_b) return score_a > score_b;
              return tie_less(a, b);
            });
  if (k >= 0 && entries->size() > static_cast<size_t>(k)) {
    entries->resize(static_cast<size_t>(k));
  }
}

/// The repository fan-out's instantiation: certified per-video results rank
/// globally by their (exact or lower-bound) scores; ties break by video name
/// then clip begin. Names, not ids: ids follow insertion order, which a
/// shard's catalog does not share with the whole catalog, while the router
/// assigns shards contiguous ranges of sorted names. So merging each
/// shard's answer by (shard, per-shard rank) gives this same order.
inline void MergeRepositoryTopK(std::vector<RepositoryEntry>* entries,
                                int k) {
  SortedTopKMerge(
      entries, k,
      [](const RepositoryEntry& e) { return e.sequence.lower_bound; },
      [](const RepositoryEntry& a, const RepositoryEntry& b) {
        if (a.video_name != b.video_name) return a.video_name < b.video_name;
        return a.sequence.clips.begin < b.sequence.clips.begin;
      });
}

}  // namespace svq::core

#endif  // SVQ_CORE_TOPK_MERGE_H_
