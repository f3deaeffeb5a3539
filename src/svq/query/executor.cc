#include "svq/query/executor.h"

#include <algorithm>

#include "svq/observability/trace.h"
#include "svq/query/parser.h"

namespace svq::query {

namespace {

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

models::ModelSuite ResolveSuiteFor(const models::ModelSuite& base,
                                   const BoundQuery& bound) {
  models::ModelSuite suite = base;
  const std::string detector = ToLower(bound.detector_model);
  if (detector == "maskrcnn" || detector == "mask_rcnn") {
    suite.object_profile = models::MaskRcnnProfile();
  } else if (detector == "yolov3" || detector == "yolo") {
    suite.object_profile = models::YoloV3Profile();
  } else if (detector == "ideal" || detector == "idealmodel") {
    suite.object_profile = models::IdealObjectProfile();
  }
  const std::string recognizer = ToLower(bound.recognizer_model);
  if (recognizer == "i3d" || recognizer == "actionrecognizer") {
    suite.action_profile = models::I3dProfile();
  } else if (recognizer == "ideal" || recognizer == "idealmodel") {
    suite.action_profile = models::IdealActionProfile();
  }
  return suite;
}

Result<StatementResult> ExecuteStatementOn(const core::SnapshotPtr& snapshot,
                                           std::string_view statement,
                                           const ExecutionContext& context,
                                           const StatementOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot must be set");
  }
  observability::QueryTrace* trace = context.trace();
  StatementResult result;
  SelectStatement parsed;
  {
    observability::TraceSpan span(trace, "parse");
    SVQ_ASSIGN_OR_RETURN(parsed, Parse(statement));
  }
  {
    observability::TraceSpan span(trace, "bind");
    SVQ_ASSIGN_OR_RETURN(result.bound, Bind(parsed));
  }

  if (result.bound.video == "*") {
    // Whole-repository broadcast (the binder guarantees ranked + LIMIT):
    // RVAQ over the videos that carry every label of the statement (the
    // snapshot's label index), merged by svq/core/topk_merge.h. Bypasses
    // the per-video cost-based planner — every video gets the default
    // sweep, same as ExecuteTopKAll.
    observability::TraceSpan span(trace, "execute_repository");
    SVQ_ASSIGN_OR_RETURN(
        core::RepositoryResult repo,
        core::ExecuteTopKAllOn(snapshot, result.bound.query,
                               static_cast<int>(result.bound.k),
                               options.offline, context));
    result.repo = std::move(repo);
    return result;
  }

  // The whole statement — suite resolution, planning and execution — sees
  // the one pinned catalog view, and USING overrides stay local to this
  // statement instead of mutating (and racing on) any shared suite.
  models::ModelSuite suite;
  {
    observability::TraceSpan span(trace, "plan");
    suite = ResolveSuiteFor(snapshot->suite, result.bound);
    SVQ_ASSIGN_OR_RETURN(
        result.plan,
        plan::PlanQuery(snapshot, result.bound.query, result.bound.video,
                        result.bound.ranked, result.bound.k,
                        options.algorithm, options.offline, context));
  }

  if (result.bound.ranked) {
    // Lower the physical plan into core terms: the chosen algorithm plus
    // the planner's sweep order (docs/planner.md).
    core::OfflineOptions exec_options = options.offline;
    exec_options.sweep_order = result.plan->SweepOrder();
    SVQ_ASSIGN_OR_RETURN(
        core::TopKResult topk,
        core::ExecuteTopKOn(snapshot, result.bound.query, result.bound.video,
                            static_cast<int>(result.bound.k),
                            result.plan->algorithm, exec_options, context));
    plan::RecordEstimateActuals(*result.plan, topk.stats);
    result.topk = std::move(topk);
    return result;
  }
  SVQ_ASSIGN_OR_RETURN(
      core::OnlineResult online,
      core::ExecuteOnlineOn(snapshot, result.bound.query, result.bound.video,
                            options.online_mode, context, &suite));
  result.online = std::move(online);
  return result;
}

Result<StatementResult> ExecuteStatement(core::VideoQueryEngine* engine,
                                         std::string_view statement,
                                         const ExecutionContext& context,
                                         const StatementOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be set");
  }
  return ExecuteStatementOn(engine->Pin(), statement, context, options);
}

}  // namespace svq::query
