#include "core/ensemble_planner.hpp"

#include "vgpu/device.hpp"

namespace deco::core {

EnsemblePlanner::EnsemblePlanner(const cloud::Catalog& catalog,
                                 const cloud::MetadataStore& store,
                                 vgpu::ComputeBackend& backend,
                                 EvalOptions eval, EstimatorOptions estimator)
    : catalog_(&catalog),
      store_(&store),
      backend_(&backend),
      eval_(eval),
      estimator_options_(estimator) {}

EnsemblePlanner::MemberPlans EnsemblePlanner::solve_members(
    const workflow::Ensemble& ensemble, const EnsemblePlanOptions& options) {
  const std::size_t n = ensemble.members.size();
  MemberPlans out;
  out.plans.resize(n);
  out.costs.assign(n, 0);
  out.feasible.assign(n, 0);
  // The solves are independent; `solve_member` writes only slot i.
  const auto solve_member = [&](std::size_t i, vgpu::ComputeBackend& backend) {
    const auto& member = ensemble.members[i];
    TaskTimeEstimator estimator(*catalog_, *store_, estimator_options_);
    SchedulingProblem problem(member.workflow, estimator, backend, eval_);
    ProbDeadline req;
    req.quantile = member.deadline_q / 100.0;
    req.deadline_s = member.deadline_s;
    const SchedulingResult sr = problem.solve(req, options.per_workflow);
    out.feasible[i] = sr.found;
    if (sr.found) {
      out.plans[i] = sr.plan;
      out.costs[i] = sr.evaluation.mean_cost;
    }
  };
  if (options.exec.pool != nullptr || options.exec.workers > 0) {
    // Sharded solves: concurrent solves must not share the planner's
    // backend (launch state is mutable), so each run evaluates on a private
    // SerialBackend — bit-identical results by the vgpu contract.
    sim::EnsembleRunner runner(options.exec);
    runner.run(n, /*base_seed=*/0, [&](const sim::RunContext& ctx) {
      vgpu::SerialBackend backend;
      solve_member(ctx.index, backend);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) solve_member(i, *backend_);
  }
  return out;
}

EnsemblePlanResult EnsemblePlanner::plan(const workflow::Ensemble& ensemble,
                                         const EnsemblePlanOptions& options) {
  MemberPlans members = solve_members(ensemble, options);
  workflow::Admission admission =
      ensemble.admit(members.costs, members.feasible);
  EnsemblePlanResult result;
  result.admitted = std::move(admission.admitted);
  result.plans = std::move(members.plans);
  for (std::size_t i = 0; i < result.plans.size(); ++i) {
    if (!result.admitted[i]) result.plans[i] = sim::Plan{};
  }
  result.member_costs = std::move(members.costs);
  result.total_cost = admission.total_cost;
  result.score = ensemble.score(result.admitted);
  return result;
}

}  // namespace deco::core
