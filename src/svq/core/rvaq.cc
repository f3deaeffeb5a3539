#include "svq/core/rvaq.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "svq/core/tbclip.h"

namespace svq::core {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Mutable per-sequence bound state (paper §4.3). We maintain one merged
/// processed set per sequence instead of separate top/bottom sets: every
/// processed clip contributes its exact score, and the `remaining`
/// unprocessed clips are bracketed by [s_btm, s_top]. This is never looser
/// than the paper's split accounting, so the stopping condition fires no
/// later.
struct SequenceState {
  video::Interval clips;
  int64_t remaining = 0;
  double exact_sum = 0.0;  // ⊙ over processed clip scores
  double upper = kInf;     // B_up
  double lower = 0.0;      // B_lo
  bool excluded = false;   // conclusively outside the top-K
};

/// Binary search for the sequence containing `clip`; -1 when none.
int64_t FindSequence(const std::vector<SequenceState>& seqs,
                     video::ClipIndex clip) {
  auto it = std::upper_bound(seqs.begin(), seqs.end(), clip,
                             [](video::ClipIndex c, const SequenceState& s) {
                               return c < s.clips.begin;
                             });
  if (it == seqs.begin()) return -1;
  --it;
  if (it->clips.Contains(clip)) return it - seqs.begin();
  return -1;
}

/// The order must be a permutation of the statement's predicates: a
/// dropped predicate would silently widen the candidate set, an invented
/// one would silently narrow it. Count-matching each (label, kind) pair
/// catches both directions, including duplicates.
Status ValidateSweepOrder(const Query& query,
                          const std::vector<SweepStep>& order) {
  auto count_in_query = [&](const SweepStep& step) {
    int64_t n = 0;
    if (step.is_action) {
      n += step.label == query.action ? 1 : 0;
      n += std::count(query.extra_actions.begin(), query.extra_actions.end(),
                      step.label);
    } else {
      n += std::count(query.objects.begin(), query.objects.end(), step.label);
    }
    return n;
  };
  const size_t expected =
      1 + query.extra_actions.size() + query.objects.size();
  if (order.size() != expected) {
    return Status::InvalidArgument(
        "sweep order must cover every query predicate exactly once");
  }
  for (const SweepStep& step : order) {
    const int64_t in_query = count_in_query(step);
    const int64_t in_order = std::count(order.begin(), order.end(), step);
    if (in_query == 0 || in_order != in_query) {
      return Status::InvalidArgument("sweep order step is not a predicate: " +
                                     step.label);
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateOfflineQuery(const Query& query) {
  SVQ_RETURN_NOT_OK(query.Validate());
  if (!query.relationships.empty() || !query.object_disjunctions.empty()) {
    // Relationship and disjunctive predicates are not materialized by the
    // query-independent ingestion phase (they would need per-pair /
    // per-group metadata); they are supported online.
    return Status::Unimplemented(
        "offline queries support conjunctive objects and actions only");
  }
  return Status::OK();
}

Result<video::IntervalSet> CandidateSequences(const IngestedVideo& ingested,
                                              const Query& query) {
  return CandidateSequencesOrdered(ingested, query, {});
}

Result<video::IntervalSet> CandidateSequencesOrdered(
    const IngestedVideo& ingested, const Query& query,
    const std::vector<SweepStep>& order) {
  SVQ_RETURN_NOT_OK(ValidateOfflineQuery(query));
  std::vector<SweepStep> canonical;
  if (order.empty()) {
    canonical.push_back({query.action, true});
    for (const std::string& extra : query.extra_actions) {
      canonical.push_back({extra, true});
    }
    for (const std::string& object : query.objects) {
      canonical.push_back({object, false});
    }
  } else {
    SVQ_RETURN_NOT_OK(ValidateSweepOrder(query, order));
  }

  video::IntervalSet result;
  bool first = true;
  for (const SweepStep& step : order.empty() ? canonical : order) {
    const video::IntervalSet* p =
        step.is_action ? ingested.ActionSequences(step.label)
                       : ingested.ObjectSequences(step.label);
    if (p == nullptr) return video::IntervalSet();
    if (first) {
      result = *p;
      first = false;
    } else {
      result = video::IntervalSet::Intersect(result, *p);
    }
    if (result.empty()) return result;
  }
  return result;
}

Result<TopKResult> RunRvaq(const IngestedVideo& ingested, const Query& query,
                           int k, const SequenceScoring& scoring,
                           const OfflineOptions& options,
                           const ExecutionContext& context) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  SVQ_RETURN_NOT_OK(context.Check());
  const double t0 = NowMs();
  TopKResult result;

  SVQ_ASSIGN_OR_RETURN(
      const video::IntervalSet candidates,
      CandidateSequencesOrdered(ingested, query, options.sweep_order));
  result.stats.candidate_sequences =
      static_cast<int64_t>(candidates.intervals().size());
  result.stats.candidate_clips = candidates.TotalLength();
  if (candidates.empty()) {
    result.stats.algorithm_ms = NowMs() - t0;
    return result;
  }

  std::vector<const storage::ScoreTable*> object_tables;
  for (const std::string& object : query.objects) {
    const storage::ScoreTable* table = ingested.ObjectTable(object);
    if (table == nullptr) {
      return Status::Internal("positive sequences without a score table: " +
                              object);
    }
    object_tables.push_back(table);
  }
  // Extra actions (footnote 3) score like additional additive predicates:
  // their tables join the g's summed side.
  for (const std::string& extra : query.extra_actions) {
    const storage::ScoreTable* table = ingested.ActionTable(extra);
    if (table == nullptr) {
      return Status::Internal("positive sequences without a score table: " +
                              extra);
    }
    object_tables.push_back(table);
  }
  const storage::ScoreTable* action_table = ingested.ActionTable(query.action);
  if (action_table == nullptr) {
    return Status::Internal("positive sequences without a score table: " +
                            query.action);
  }

  std::vector<SequenceState> seqs;
  for (const video::Interval& interval : candidates.intervals()) {
    SequenceState state;
    state.clips = interval;
    state.remaining = interval.length();
    state.exact_sum = scoring.AggregateIdentity();
    seqs.push_back(state);
  }
  const size_t select_k = std::min<size_t>(static_cast<size_t>(k),
                                           seqs.size());

  TbClipIterator iterator(object_tables, action_table, &scoring, &candidates,
                          options.enable_skip, &result.stats.storage,
                          TbClipIterator::Emission::kBounded);
  // The iterator polls the context on every Next(), which bounds how much
  // work an expired query can still do by one step's table accesses.
  iterator.set_context(&context);

  double s_top = kInf;  // certified upper bound on unprocessed clip scores
  double s_btm = 0.0;   // certified lower bound on unprocessed clip scores
  std::vector<size_t> order(seqs.size());
  std::iota(order.begin(), order.end(), 0);

  for (;;) {
    auto next = iterator.Next();
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;  // every candidate clip processed
    const TbClipStep& step = **next;

    auto absorb = [&](const TbClipItem& item) {
      const int64_t idx = FindSequence(seqs, item.clip);
      if (idx < 0) return;  // defensive; iterator only emits candidates
      SequenceState& seq = seqs[static_cast<size_t>(idx)];
      --seq.remaining;
      seq.exact_sum = scoring.Aggregate(seq.exact_sum, item.score);
    };
    absorb(step.top);
    if (step.bottom.clip != step.top.clip) absorb(step.bottom);
    s_top = step.upper_bound;
    s_btm = std::max(s_btm, step.lower_bound);

    // Refresh bounds (Eq. 13/14), clip by clip: processed clips live in
    // exact_sum; clips the iterator has already resolved (their random
    // accesses are paid) contribute their exact scores; only genuinely
    // unseen clips fall back to the certified brackets [s_btm, s_top].
    // Excluded sequences are frozen — their clips are skipped, so further
    // cursor movement says nothing about them.
    for (SequenceState& seq : seqs) {
      if (seq.excluded) continue;
      if (seq.remaining == 0) {
        seq.upper = seq.lower = seq.exact_sum;
        continue;
      }
      double upper = seq.exact_sum;
      double lower = seq.exact_sum;
      bool upper_unbounded = false;
      for (video::ClipIndex c = seq.clips.begin; c < seq.clips.end; ++c) {
        if (iterator.IsProcessed(c)) continue;
        if (const std::optional<double> cached = iterator.ResolvedScore(c)) {
          upper = scoring.Aggregate(upper, scoring.Replicate(*cached, 1));
          lower = scoring.Aggregate(lower, scoring.Replicate(*cached, 1));
          continue;
        }
        if (std::isinf(s_top)) {
          upper_unbounded = true;
        } else {
          upper = scoring.Aggregate(upper, scoring.Replicate(s_top, 1));
        }
        lower = scoring.Aggregate(lower, scoring.Replicate(s_btm, 1));
      }
      seq.upper = upper_unbounded ? kInf : upper;
      seq.lower = lower;
    }

    // Current top-K selection by lower bound (the PQ_lo^K of the paper).
    std::partial_sort(order.begin(), order.begin() + select_k, order.end(),
                      [&](size_t a, size_t b) {
                        if (seqs[a].lower != seqs[b].lower) {
                          return seqs[a].lower > seqs[b].lower;
                        }
                        return a < b;
                      });
    const double b_lo_k = seqs[order[select_k - 1]].lower;
    double b_up_not_k = -kInf;
    for (size_t i = select_k; i < order.size(); ++i) {
      b_up_not_k = std::max(b_up_not_k, seqs[order[i]].upper);
    }

    // Conclusive exclusions feed the skip set (§4.3).
    if (options.enable_skip) {
      for (size_t i = select_k; i < order.size(); ++i) {
        SequenceState& seq = seqs[order[i]];
        if (!seq.excluded && seq.upper < b_lo_k) {
          seq.excluded = true;
          iterator.AddSkipRange(seq.clips);
        }
      }
      if (!options.compute_exact_scores) {
        // Conclusive inclusions may be skipped too when exact scores are
        // not required (Alg. 4 lines 19-20).
        for (size_t i = 0; i < select_k; ++i) {
          SequenceState& seq = seqs[order[i]];
          if (!seq.excluded && seq.lower > b_up_not_k && seq.remaining > 0) {
            seq.excluded = true;  // reuse flag: no further refinement needed
            iterator.AddSkipRange(seq.clips);
          }
        }
      }
    }

    // Stopping condition (Eq. 15), plus exactness of the selected K when
    // exact scores are requested.
    if (b_lo_k >= b_up_not_k) {
      if (!options.compute_exact_scores) break;
      // A sequence's score is exact once its bounds meet (every clip either
      // processed or resolved by the iterator).
      bool all_exact = true;
      for (size_t i = 0; i < select_k; ++i) {
        const SequenceState& seq = seqs[order[i]];
        if (seq.upper - seq.lower > 1e-9 * std::max(1.0, seq.upper)) {
          all_exact = false;
          break;
        }
      }
      if (all_exact) break;
    }
  }

  // Final selection: exact scores where available, lower bounds otherwise.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (seqs[a].lower != seqs[b].lower) return seqs[a].lower > seqs[b].lower;
    return a < b;
  });
  for (size_t i = 0; i < select_k; ++i) {
    const SequenceState& seq = seqs[order[i]];
    RankedSequence ranked;
    ranked.clips = seq.clips;
    ranked.lower_bound = seq.lower;
    ranked.upper_bound = seq.upper;
    result.sequences.push_back(ranked);
  }

  result.stats.iterator_calls = iterator.calls();
  result.stats.virtual_ms =
      result.stats.storage.VirtualMs(options.cost_model);
  result.stats.algorithm_ms = NowMs() - t0;
  return result;
}

}  // namespace svq::core
