#include "core/followcost.hpp"

#include <algorithm>
#include <cmath>

#include "workflow/analysis.hpp"

namespace deco::core {
namespace {

constexpr double kGB = 1024.0 * 1024.0 * 1024.0;
/// DAG levels the online scenario executes per workflow and period.
constexpr int kLevelsPerPeriod = 1;

}  // namespace

std::uint64_t region_vector_key(const std::vector<cloud::RegionId>& regions) {
  return sequence_key(regions, [](cloud::RegionId r) { return r; });
}

void expand_region_flips(const std::vector<cloud::RegionId>& regions,
                         std::uint64_t key,
                         const std::vector<std::vector<bool>>& feasible,
                         Expansion<std::vector<cloud::RegionId>>& out) {
  for (std::size_t i = 0; i < regions.size(); ++i) {
    for (cloud::RegionId r = 0; r < feasible[i].size(); ++r) {
      if (r == regions[i] || !feasible[i][r]) continue;
      const std::uint64_t child_key = rekey(key, i, regions[i], r);
      if (!out.fresh(child_key)) continue;
      std::vector<cloud::RegionId> child = regions;
      child[i] = r;
      out.push(std::move(child), child_key);
    }
  }
}

double MigrationWorkflowState::frontier_bytes() const {
  double bytes = 0;
  for (const workflow::Edge& e : wf->edges()) {
    if (finished[e.parent] && !finished[e.child]) bytes += e.bytes;
  }
  return bytes;
}

bool MigrationWorkflowState::done() const {
  return std::all_of(finished.begin(), finished.end(),
                     [](bool f) { return f; });
}

MigrationOptimizer::MigrationOptimizer(const cloud::Catalog& catalog,
                                       TaskTimeEstimator& estimator)
    : catalog_(&catalog), estimator_(&estimator) {}

double MigrationOptimizer::execution_cost(const MigrationWorkflowState& s,
                                          cloud::RegionId region) {
  const double price = catalog_->price(s.vm_type, region) / 3600.0;
  double cost = 0;
  for (workflow::TaskId t = 0; t < s.wf->task_count(); ++t) {
    if (s.finished[t]) continue;
    cost += estimator_->mean_time(*s.wf, t, s.vm_type) * price;
  }
  return cost;
}

double MigrationOptimizer::migration_cost(const MigrationWorkflowState& s,
                                          cloud::RegionId region) const {
  if (region == s.region) return 0;
  return s.frontier_bytes() / kGB * catalog_->egress_price(s.region);
}

double MigrationOptimizer::remaining_time(const MigrationWorkflowState& s,
                                          cloud::RegionId region) {
  // Longest path over unfinished tasks with mean times (finished = weight 0).
  std::vector<double> weights(s.wf->task_count(), 0);
  for (workflow::TaskId t = 0; t < s.wf->task_count(); ++t) {
    if (!s.finished[t]) {
      weights[t] = estimator_->mean_time(*s.wf, t, s.vm_type);
    }
  }
  double time = workflow::critical_path(*s.wf, weights).length;
  if (region != s.region) {
    const double bw_bytes =
        std::max(catalog_->inter_region_net().mean(), 1.0) * 1e6 / 8.0;
    time += s.frontier_bytes() / bw_bytes;
  }
  return time;
}

MigrationDecision MigrationOptimizer::optimize(
    const std::vector<MigrationWorkflowState>& states,
    const SearchOptions& options) {
  MigrationDecision decision;
  const std::size_t n = states.size();
  std::vector<cloud::RegionId> current(n);
  for (std::size_t i = 0; i < n; ++i) current[i] = states[i].region;
  decision.targets = current;
  if (n == 0) return decision;

  // Pre-compute per-workflow per-region cost and feasibility.
  const std::size_t regions = catalog_->region_count();
  std::vector<std::vector<double>> cost(n, std::vector<double>(regions, 0));
  std::vector<std::vector<bool>> feasible(n, std::vector<bool>(regions, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (cloud::RegionId r = 0; r < regions; ++r) {
      cost[i][r] = execution_cost(states[i], r) + migration_cost(states[i], r);
      feasible[i][r] =
          remaining_time(states[i], r) <= states[i].remaining_deadline();
    }
    // Staying put is always allowed even if the deadline is already blown —
    // the least-bad option must exist.
    if (!feasible[i][states[i].region]) {
      bool any = false;
      for (cloud::RegionId r = 0; r < regions; ++r) any = any || feasible[i][r];
      if (!any) feasible[i][states[i].region] = true;
    }
  }

  SearchCallbacks<std::vector<cloud::RegionId>> cb;
  cb.hash = region_vector_key;
  cb.expand = [&feasible](const std::vector<cloud::RegionId>& state,
                          std::uint64_t key,
                          Expansion<std::vector<cloud::RegionId>>& out) {
    expand_region_flips(state, key, feasible, out);
  };
  cb.evaluate = [&](std::span<const std::vector<cloud::RegionId>> batch) {
    std::vector<Scored> out(batch.size());
    for (std::size_t b = 0; b < batch.size(); ++b) {
      double total = 0;
      bool ok = true;
      for (std::size_t i = 0; i < n; ++i) {
        total += cost[i][batch[b][i]];
        ok = ok && feasible[i][batch[b][i]];
      }
      out[b] = Scored{ok, total};
    }
    return out;
  };

  SearchOptions sopt = options;
  sopt.minimize = true;
  if (sopt.max_states == 0) sopt.max_states = 512;
  const auto found = search(current, cb, sopt);
  decision.stats = found.stats;
  if (found.best) {
    decision.targets = *found.best;
    decision.expected_cost = found.best_score.objective;
  }
  return decision;
}

EvacuationPlan choose_evacuation_region(const MigrationWorkflowState& state,
                                        const cloud::Catalog& catalog,
                                        TaskTimeEstimator& estimator,
                                        cloud::RegionId storm_region) {
  MigrationOptimizer optimizer(catalog, estimator);
  EvacuationPlan plan;
  plan.target = state.region;

  // Rank candidate regions by total cost (Eq. 8 execution + Eq. 9 data
  // gravity), feasibility by the remaining static deadline (Eq. 10).  The
  // storm region is not a candidate — that capacity is gone.
  bool have_feasible = false;
  double best_cost = 0;
  double best_time = 0;
  bool have_any = false;
  for (cloud::RegionId r = 0; r < catalog.region_count(); ++r) {
    if (r == storm_region) continue;
    const double cost = optimizer.execution_cost(state, r) +
                        optimizer.migration_cost(state, r);
    const double time = optimizer.remaining_time(state, r);
    const bool feasible = time <= state.remaining_deadline();
    const bool better = !have_any ||
                        (feasible && !have_feasible) ||
                        (feasible == have_feasible &&
                         (feasible ? cost < best_cost : time < best_time));
    if (better) {
      plan.target = r;
      best_cost = cost;
      best_time = time;
      have_feasible = have_feasible || feasible;
      have_any = true;
    }
  }
  plan.moved = have_any && plan.target != state.region;
  plan.execution_cost = optimizer.execution_cost(state, plan.target);
  if (plan.moved) {
    plan.migration_cost = optimizer.migration_cost(state, plan.target);
    const double bw_bytes =
        std::max(catalog.inter_region_net().mean(), 1.0) * 1e6 / 8.0;
    plan.transfer_time_s = state.frontier_bytes() / bw_bytes;
  }
  return plan;
}

FollowCostReport run_followcost_scenario(
    std::vector<MigrationWorkflowState> states, const cloud::Catalog& catalog,
    const MigrationPolicy& policy, util::Rng& rng) {
  FollowCostReport report;
  // Pre-compute per-workflow level structure.
  std::vector<std::vector<int>> levels(states.size());
  std::vector<int> max_level(states.size(), 0);
  for (std::size_t i = 0; i < states.size(); ++i) {
    levels[i] = workflow::levels(*states[i].wf);
    for (int l : levels[i]) max_level[i] = std::max(max_level[i], l);
  }
  std::vector<int> next_level(states.size(), 0);

  auto all_done = [&]() {
    for (const auto& s : states) {
      if (!s.done()) return false;
    }
    return true;
  };

  while (!all_done()) {
    ++report.periods;
    // Ask the policy where each workflow should run this period.
    const std::vector<cloud::RegionId> targets = policy(states);
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i].done() || i >= targets.size()) continue;
      if (targets[i] != states[i].region) {
        report.migration_cost += states[i].frontier_bytes() / kGB *
                                 catalog.egress_price(states[i].region);
        // Transfer time extends the workflow's elapsed clock.
        const double bw =
            cloud::sample_rate(catalog.inter_region_net(), rng) * 1e6 / 8.0;
        states[i].elapsed_s += states[i].frontier_bytes() / bw;
        states[i].region = targets[i];
        ++report.migrations;
      }
    }
    // Execute a period's levels per workflow with sampled dynamics.
    for (std::size_t i = 0; i < states.size(); ++i) {
      MigrationWorkflowState& s = states[i];
      if (s.done()) continue;
      const int until =
          std::min(next_level[i] + kLevelsPerPeriod, max_level[i] + 1);
      const cloud::InstanceType& vm = catalog.type(s.vm_type);
      const double price = catalog.price(s.vm_type, s.region) / 3600.0;
      double level_time = 0;
      for (workflow::TaskId t = 0; t < s.wf->task_count(); ++t) {
        if (s.finished[t] || levels[i][t] >= until) continue;
        // Runtime task time: CPU + I/O with rates sampled from ground truth.
        double time = s.wf->task(t).cpu_seconds /
                      std::max(vm.per_core_units, 0.1);
        const double rate =
            cloud::sample_rate(vm.seq_io_mbps, rng) * 1024.0 * 1024.0;
        time += (s.wf->task(t).input_bytes + s.wf->task(t).output_bytes) / rate;
        report.execution_cost += time * price;
        level_time = std::max(level_time, time);  // level runs in parallel
        s.finished[t] = true;
      }
      s.elapsed_s += level_time;
      next_level[i] = until;
      if (s.done() && s.elapsed_s > s.deadline_s) {
        ++report.deadline_violations;
      }
    }
  }
  report.total_cost = report.execution_cost + report.migration_cost;
  return report;
}

}  // namespace deco::core
