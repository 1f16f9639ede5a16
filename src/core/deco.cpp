#include "core/deco.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/stats.hpp"

namespace deco::core {
namespace {

/// "vm" | "interp" -> engine; unknown strings keep the default (vm).
wlog::ExecMode resolve_exec(const std::string& name) {
  return wlog::parse_exec_mode(name).value_or(wlog::ExecMode::kVm);
}

}  // namespace

Deco::Deco(const cloud::Catalog& catalog, const cloud::MetadataStore& store,
           DecoOptions options)
    : catalog_(&catalog),
      store_(&store),
      options_(std::move(options)),
      backend_(vgpu::make_backend(options_.backend, options_.backend_workers)) {}

SchedulingResult Deco::schedule(const workflow::Workflow& wf,
                                const ProbDeadline& req,
                                const SchedulingOptions& options) {
  TaskTimeEstimator estimator(*catalog_, *store_, options_.estimator);
  SchedulingProblem problem(wf, estimator, *backend_, options_.eval);
  return problem.solve(req, options);
}

EnsemblePlanResult Deco::plan_ensemble(const workflow::Ensemble& ensemble,
                                       const EnsemblePlanOptions& options) {
  EnsemblePlanner planner(*catalog_, *store_, *backend_,
                          options_.ensemble_eval, options_.estimator);
  return planner.plan(ensemble, options);
}

MigrationDecision Deco::optimize_migration(
    const std::vector<MigrationWorkflowState>& states,
    const SearchOptions& options) {
  // All migration workflows share the estimator (its caches are keyed per
  // workflow).
  TaskTimeEstimator estimator(*catalog_, *store_, options_.estimator);
  MigrationOptimizer optimizer(*catalog_, estimator);
  return optimizer.optimize(states, options);
}

WlogSolveResult Deco::solve_program(const std::string& source,
                                    const workflow::Workflow& wf) {
  DECO_OBS_SPAN_TIMED("core", "solve_program", "core.solve_program_ms");
  WlogSolveResult result;
  const wlog::ParseResult parsed = wlog::parse_program(source);
  if (!parsed.ok()) {
    result.error = "parse error (line " + std::to_string(parsed.error->line) +
                   "): " + parsed.error->message;
    return result;
  }
  const wlog::Program& program = parsed.program;

  TaskTimeEstimator estimator(*catalog_, *store_, options_.estimator);
  WlogBridge bridge(wf, estimator);
  const wlog::ProbProgram ir = bridge.build_ir(program);

  DeclarativeOptions dopt;
  dopt.max_states = options_.wlog_max_states;
  dopt.mc_iterations = options_.wlog_mc_iterations;
  dopt.seed = options_.eval.seed;
  dopt.budget = options_.budget;
  dopt.exec = resolve_exec(options_.wlog_exec);
  dopt.segments = options_.wlog_segments;
  DeclarativeSolver solver(dopt);
  const DeclarativeResult solved = solver.solve(program, ir);
  result.stats = solved.stats;
  result.budget = solved.budget;
  if (!solved.ok) {
    result.error = solved.error;
    return result;
  }
  result.ok = true;
  result.goal_value = solved.goal_value;
  result.feasible = solved.feasible;
  result.entities = solved.entities;
  result.choices = solved.choices;
  result.assignment = solved.assignment;

  // Map the generic assignment back to a provisioning plan when the var
  // declaration is configs-shaped: entities enumerate task facts in task-id
  // order, choices enumerate vm facts in type-id order (assertion order is
  // preserved by the clause database).
  if (solved.entities.size() == wf.task_count() &&
      solved.choices.size() == catalog_->type_count()) {
    result.plan = sim::Plan::uniform(wf.task_count(), 0);
    for (std::size_t t = 0; t < wf.task_count(); ++t) {
      result.plan[t].vm_type =
          static_cast<cloud::TypeId>(solved.assignment[t]);
    }
  }
  return result;
}

WlogEnsembleResult Deco::solve_ensemble_program(
    const std::string& source, const workflow::Ensemble& ensemble) {
  WlogEnsembleResult result;
  const wlog::ParseResult parsed = wlog::parse_program(source);
  if (!parsed.ok()) {
    result.error = "parse error (line " + std::to_string(parsed.error->line) +
                   "): " + parsed.error->message;
    return result;
  }

  // Per-member cheapest deadline-feasible plans feed the wfcost facts.
  EnsemblePlanOptions popt;
  popt.per_workflow.search.budget = options_.budget;
  EnsemblePlanner planner(*catalog_, *store_, *backend_,
                          options_.ensemble_eval, options_.estimator);
  EnsemblePlanner::MemberPlans members = planner.solve_members(ensemble, popt);
  result.plans = std::move(members.plans);
  result.member_costs = std::move(members.costs);

  const wlog::ProbProgram ir = build_ensemble_ir(
      parsed.program, ensemble, result.member_costs, members.feasible);
  DeclarativeOptions dopt;
  dopt.max_states = options_.wlog_max_states;
  dopt.mc_iterations = options_.wlog_mc_iterations;
  dopt.seed = options_.eval.seed;
  dopt.budget = options_.budget;
  dopt.exec = resolve_exec(options_.wlog_exec);
  dopt.segments = options_.wlog_segments;
  DeclarativeSolver solver(dopt);
  const DeclarativeResult solved = solver.solve(parsed.program, ir);
  result.stats = solved.stats;
  if (!solved.ok) {
    result.error = solved.error;
    return result;
  }
  result.ok = true;
  result.goal_value = solved.goal_value;
  result.feasible = solved.feasible;
  const std::size_t n = ensemble.members.size();
  result.admitted.assign(n, false);
  for (std::size_t i = 0; i < n && i < solved.assignment.size(); ++i) {
    result.admitted[i] = solved.assignment[i] != 0;
    if (!result.admitted[i]) result.plans[i] = sim::Plan{};
  }
  return result;
}

}  // namespace deco::core
