#include "core/spot_planner.hpp"

#include <algorithm>

namespace deco::core {

namespace {

/// Lost attempts a spot task's slack must absorb, in units of its duration.
constexpr double kSlackMultiple = 2.0;
/// Allowance for waiting out a price spike until the market re-admits the
/// bid.
constexpr double kRevocationDelayS = 900;

}  // namespace

std::vector<double> task_slack(const workflow::Workflow& wf,
                               const sim::Plan& plan,
                               TaskTimeEstimator& estimator,
                               double deadline_s) {
  const std::size_t n = wf.task_count();
  std::vector<double> mean(n);
  for (workflow::TaskId t = 0; t < n; ++t) {
    mean[t] = estimator.mean_time(wf, t, plan[t].vm_type);
  }
  const auto topo = wf.topological_order();
  std::vector<double> up(n, 0);
  std::vector<double> down(n, 0);
  if (topo) {
    for (workflow::TaskId t : *topo) {
      up[t] = mean[t];
      for (workflow::TaskId p : wf.parents(t)) {
        up[t] = std::max(up[t], up[p] + mean[t]);
      }
    }
    for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
      const workflow::TaskId t = *it;
      down[t] = mean[t];
      for (workflow::TaskId c : wf.children(t)) {
        down[t] = std::max(down[t], down[c] + mean[t]);
      }
    }
  }
  std::vector<double> slack(n, 0);
  for (workflow::TaskId t = 0; t < n; ++t) {
    slack[t] = deadline_s - (up[t] + down[t] - mean[t]);
  }
  return slack;
}

sim::SpotPolicy plan_spot_policy(const workflow::Workflow& wf,
                                 const sim::Plan& plan,
                                 TaskTimeEstimator& estimator,
                                 double deadline_s,
                                 const SpotPlannerOptions& options) {
  sim::SpotPolicy policy;
  policy.bid_fraction = options.bid_fraction;
  const std::size_t n = wf.task_count();
  policy.use_spot.assign(n, false);
  const auto slack = task_slack(wf, plan, estimator, deadline_s);
  for (workflow::TaskId t = 0; t < n; ++t) {
    const double mean = estimator.mean_time(wf, t, plan[t].vm_type);
    policy.use_spot[t] =
        slack[t] > kSlackMultiple * mean + kRevocationDelayS;
  }
  return policy;
}

}  // namespace deco::core
