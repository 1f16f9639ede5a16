#include "baselines/spss.hpp"

#include <cstdint>

namespace deco::baselines {

Spss::Spss(const cloud::Catalog& catalog, const cloud::MetadataStore& store,
           vgpu::ComputeBackend& backend, SpssOptions options)
    : catalog_(&catalog),
      store_(&store),
      backend_(&backend),
      options_(options) {}

SpssResult Spss::plan(const workflow::Ensemble& ensemble) {
  const std::size_t n = ensemble.members.size();
  SpssResult result;
  result.plans.resize(n);
  result.member_costs.assign(n, 0);
  std::vector<std::uint8_t> feasible(n, 0);
  for (std::size_t idx = 0; idx < n; ++idx) {
    const auto& member = ensemble.members[idx];
    core::TaskTimeEstimator estimator(*catalog_, *store_, options_.estimator);
    // Static plan: Autoscaling-style deadline distribution, no
    // transformation operations (the gap Deco exploits).
    Autoscaling planner(member.workflow, estimator);
    AutoscalingOptions aopt;
    aopt.region = options_.region;
    result.plans[idx] = planner.solve(member.deadline_s, aopt).plan;

    // Planned cost and deadline check against the probabilistic evaluator
    // (the plan itself was made with deterministic estimates — SPSS's model).
    core::PlanEvaluator evaluator(member.workflow, estimator, *backend_,
                                  options_.eval);
    core::ProbDeadline req;
    req.quantile = member.deadline_q / 100.0;
    req.deadline_s = member.deadline_s;
    const core::PlanEvaluation eval =
        evaluator.evaluate(result.plans[idx], req);
    feasible[idx] = eval.feasible;  // cannot complete: don't waste budget
    result.member_costs[idx] = eval.mean_cost;
  }

  // Admit in priority order while the cumulative planned cost fits.
  workflow::Admission admission =
      ensemble.admit(result.member_costs, feasible);
  result.admitted = std::move(admission.admitted);
  for (std::size_t i = 0; i < n; ++i) {
    if (result.admitted[i]) continue;
    result.plans[i] = sim::Plan{};
    result.member_costs[i] = 0;
  }
  result.total_cost = admission.total_cost;
  result.score = ensemble.score(result.admitted);
  return result;
}

}  // namespace deco::baselines
