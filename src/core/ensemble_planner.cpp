#include "core/ensemble_planner.hpp"

#include <cmath>
#include <cstdint>

#include "vgpu/device.hpp"

namespace deco::core {
namespace {

/// Expected cost of the members `admitted` holds, plus member `also` if it is
/// a member index — summed in member order either way, so a child's cost is
/// the same before and after the child is built.
double admission_cost(const std::vector<bool>& admitted,
                      const std::vector<double>& member_costs,
                      std::size_t also) {
  double cost = 0;
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    if (admitted[i] || i == also) cost += member_costs[i];
  }
  return cost;
}

}  // namespace

std::uint64_t admission_key(const std::vector<bool>& admitted) {
  return sequence_key(admitted, [](bool in) { return in ? 1 : 0; });
}

void expand_admissions(const std::vector<bool>& admitted, std::uint64_t key,
                       const std::vector<std::uint8_t>& feasible,
                       const std::vector<double>& member_costs, double budget,
                       Expansion<std::vector<bool>>& out) {
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    if (admitted[i] || !feasible[i]) continue;
    if (!(admission_cost(admitted, member_costs, i) <= budget)) continue;
    const std::uint64_t child_key = rekey(key, i, 0, 1);
    if (!out.fresh(child_key)) continue;
    std::vector<bool> child = admitted;
    child[i] = true;
    out.push(std::move(child), child_key);
  }
}

EnsemblePlanner::EnsemblePlanner(const cloud::Catalog& catalog,
                                 const cloud::MetadataStore& store,
                                 vgpu::ComputeBackend& backend,
                                 EvalOptions eval, EstimatorOptions estimator)
    : catalog_(&catalog),
      store_(&store),
      backend_(&backend),
      eval_(eval),
      estimator_options_(estimator) {}

EnsemblePlanResult EnsemblePlanner::plan(const workflow::Ensemble& ensemble,
                                         const EnsemblePlanOptions& options) {
  EnsemblePlanResult result;
  const std::size_t n = ensemble.members.size();
  result.admitted.assign(n, false);
  result.plans.resize(n);
  result.member_costs.assign(n, 0);

  // Per-member cheapest deadline-feasible plan (once per member).  The
  // solves are independent; `score_member` writes only slot i (byte-wide
  // slots — vector<bool> would make concurrent writes race on shared words).
  std::vector<std::uint8_t> feasible(n, 0);
  std::vector<double> scores(n, 0);
  const auto score_member = [&](std::size_t i, vgpu::ComputeBackend& backend) {
    const auto& member = ensemble.members[i];
    scores[i] = std::pow(2.0, -member.priority);
    TaskTimeEstimator estimator(*catalog_, *store_, estimator_options_);
    SchedulingProblem problem(member.workflow, estimator, backend, eval_);
    ProbDeadline req;
    req.quantile = member.deadline_q / 100.0;
    req.deadline_s = member.deadline_s;
    const SchedulingResult sr = problem.solve(req, options.per_workflow);
    feasible[i] = sr.found;
    if (sr.found) {
      result.plans[i] = sr.plan;
      result.member_costs[i] = sr.evaluation.mean_cost;
    }
  };
  if (options.exec.pool != nullptr || options.exec.workers > 0) {
    // Sharded scoring: concurrent solves must not share the planner's
    // backend (launch state is mutable), so each run evaluates on a private
    // SerialBackend — bit-identical results by the vgpu contract.
    sim::EnsembleRunner runner(options.exec);
    runner.run(n, /*base_seed=*/0, [&](const sim::RunContext& ctx) {
      vgpu::SerialBackend backend;
      score_member(ctx.index, backend);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) score_member(i, *backend_);
  }

  // Admission search: maximize score subject to the budget.
  SearchCallbacks<std::vector<bool>> cb;
  cb.hash = admission_key;
  auto cost_of = [&](const std::vector<bool>& bits) {
    return admission_cost(bits, result.member_costs, n);
  };
  auto score_of = [&](const std::vector<bool>& bits) {
    double score = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (bits[i]) score += scores[i];
    }
    return score;
  };
  cb.expand = [&](const std::vector<bool>& bits, std::uint64_t key,
                  Expansion<std::vector<bool>>& out) {
    expand_admissions(bits, key, feasible, result.member_costs,
                      ensemble.budget, out);
  };
  cb.evaluate = [&](std::span<const std::vector<bool>> states) {
    std::vector<Scored> out(states.size());
    for (std::size_t i = 0; i < states.size(); ++i) {
      out[i].feasible = cost_of(states[i]) <= ensemble.budget;
      out[i].objective = score_of(states[i]);
    }
    return out;
  };
  // A* per the paper: g = h = Score of the state.
  cb.g_score = score_of;
  cb.h_score = score_of;

  SearchOptions sopt = options.search;
  sopt.minimize = false;
  const auto found =
      astar_search(std::vector<bool>(n, false), cb, sopt);
  result.stats = found.stats;
  if (found.best) {
    result.admitted = *found.best;
  }
  result.total_cost = cost_of(result.admitted);
  result.score = score_of(result.admitted);
  for (std::size_t i = 0; i < n; ++i) {
    if (!result.admitted[i]) {
      result.plans[i] = sim::Plan{};
    }
  }
  return result;
}

}  // namespace deco::core
