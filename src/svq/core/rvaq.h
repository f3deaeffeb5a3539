#ifndef SVQ_CORE_RVAQ_H_
#define SVQ_CORE_RVAQ_H_

#include <string>
#include <vector>

#include "svq/cache/cache_options.h"
#include "svq/common/execution_context.h"
#include "svq/common/result.h"
#include "svq/core/ingest.h"
#include "svq/core/query.h"
#include "svq/core/scoring.h"
#include "svq/runtime/runtime_options.h"
#include "svq/storage/access_stats.h"
#include "svq/video/interval_set.h"

namespace svq::core {

/// One ranked result sequence (clip domain, half-open).
struct RankedSequence {
  video::Interval clips;
  /// Certified bounds at termination; equal when the score is exact.
  double lower_bound = 0.0;
  double upper_bound = 0.0;

  double length() const { return static_cast<double>(clips.length()); }
};

/// Per-run accounting for the offline algorithms.
struct OfflineRunStats {
  storage::StorageMetrics storage;
  /// Virtual disk time under the run's cost model (ms).
  double virtual_ms = 0.0;
  /// Wall-clock time of the algorithm logic (ms).
  double algorithm_ms = 0.0;
  /// TBClip invocations (RVAQ variants only).
  int64_t iterator_calls = 0;
  /// Size of the candidate set P_q actually swept: sequences (intervals)
  /// and the clips they cover. The planner compares these actuals against
  /// its estimates (EXPLAIN ANALYZE, svq_plan_estimate_* counters).
  int64_t candidate_sequences = 0;
  int64_t candidate_clips = 0;
  /// Thread-pool accounting when the run fanned out (threads_used == 1 and
  /// zero tasks on the sequential reference path).
  runtime::RuntimeStats runtime;

  /// Field-by-field aggregation; the single place that knows every field,
  /// used by both the sequential loop and the parallel reduction.
  OfflineRunStats& Merge(const OfflineRunStats& other) {
    storage.Merge(other.storage);
    virtual_ms += other.virtual_ms;
    algorithm_ms += other.algorithm_ms;
    iterator_calls += other.iterator_calls;
    candidate_sequences += other.candidate_sequences;
    candidate_clips += other.candidate_clips;
    runtime.Merge(other.runtime);
    return *this;
  }
};

struct TopKResult {
  /// At most K sequences, highest score first.
  std::vector<RankedSequence> sequences;
  OfflineRunStats stats;
};

/// One step of the candidate interval sweep: intersect the posting list of
/// `label` (an action or object type) into the running candidate set. The
/// planner emits a most-selective-first sequence of these; an empty
/// sweep_order means the canonical statement order.
struct SweepStep {
  std::string label;
  bool is_action = false;

  friend bool operator==(const SweepStep&, const SweepStep&) = default;
};

/// Options for RVAQ and its variants.
struct OfflineOptions {
  /// The C_skip mechanism of §4.3; disabling it yields the paper's
  /// RVAQ-noSkip baseline.
  bool enable_skip = true;
  /// Resolve exact scores for the final top-K (the paper's measured
  /// configuration: "the query requires accessing all the clips of top-K
  /// sequences to obtain their exact scores"). When false, RVAQ stops as
  /// soon as the top-K *set* is certified and reports bounds.
  bool compute_exact_scores = true;
  /// Cost model used to convert access counts to virtual runtime.
  storage::DiskCostModel cost_model;
  /// Parallel-execution knobs (repository fan-out). The default of one
  /// thread is the sequential reference path.
  runtime::RuntimeOptions runtime;
  /// Per-statement cache toggles, read by the engine's Execute*On entry
  /// points when the pinned snapshot carries a cache (docs/caching.md).
  svq::cache::CachePolicy cache;
  /// Planner-chosen intersection order for the candidate sweep. Must cover
  /// exactly the statement's predicates (primary action + extras +
  /// objects) when non-empty; empty keeps the canonical statement order.
  /// Intersection is commutative on the clip domain, so the resulting
  /// candidate set — and therefore the query result — is identical for
  /// every order; only the sweep's intermediate work changes.
  std::vector<SweepStep> sweep_order;
};

/// The statement checks every offline path runs before it reads a video:
/// Query::Validate, then Unimplemented for relationships and any-of groups,
/// which the query-independent ingest does not materialize.
Status ValidateOfflineQuery(const Query& query);

/// Computes the candidate result sequences `P_q` of query `q` by interval
/// sweep over the materialized individual sequences (paper Eq. 12). Empty
/// when a queried type has no positive clips.
Result<video::IntervalSet> CandidateSequences(const IngestedVideo& ingested,
                                              const Query& query);

/// CandidateSequences with an explicit intersection order. `order` must be
/// a permutation of the query's predicates (validated: InvalidArgument on
/// mismatch); an empty order falls back to the canonical statement order.
/// The result is identical to CandidateSequences for every legal order.
Result<video::IntervalSet> CandidateSequencesOrdered(
    const IngestedVideo& ingested, const Query& query,
    const std::vector<SweepStep>& order);

/// Algorithm RVAQ (paper Alg. 4): certified top-K result sequences via
/// progressive upper/lower bound refinement over the TBClip iterator with
/// conclusive-skip pruning, over the candidates CandidateSequencesOrdered
/// sweeps in `options.sweep_order`. `k` must be >= 1. `context` (deadline /
/// cancellation) is polled once per iterator step; an expired context
/// returns Cancelled/DeadlineExceeded instead of a result.
Result<TopKResult> RunRvaq(const IngestedVideo& ingested, const Query& query,
                           int k, const SequenceScoring& scoring,
                           const OfflineOptions& options,
                           const ExecutionContext& context = {});

}  // namespace svq::core

#endif  // SVQ_CORE_RVAQ_H_
