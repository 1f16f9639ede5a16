// Tier 0 of the estimator hierarchy: a closed-form moment-matching screen
// that answers "is this plan's probabilistic deadline clearly met, clearly
// missed, or too close to call?" without sampling a single world.
//
// The screen propagates (mean, variance) of task finish times through the
// same position-space parent CSR the MC kernel walks, using Clark's Gaussian
// max-of-normals approximation at every join:
//
//   finish[p] = max over parents q of finish[q]  +  duration[p]
//
// where duration[p] = cpu[p] + C_p * S, C_p the per-(task, vm-type) dynamic
// time (first two moments read off the staged alias columns — the screen
// shares PlanEvaluator's segment cache, so staging cost is paid once for both
// tiers), and S = 1/I the shared interference speedup.  Because every task in
// one MC world scales by the *same* interference draw, the screen conditions
// on I with a 3-node Gauss-Hermite quadrature over I ~ N(1, cv): propagate
// moments once per node, then mix — this captures the strong positive
// correlation a single global factor induces, which a naive independent-task
// variance sum would miss entirely.
//
// At the sinks a normal is fitted to the mixed makespan moments and the
// deadline query P(makespan <= deadline / quantile_safety) is answered in
// closed form; expected cost comes from the same moments (exactly for
// prorated pricing, via a normal ceil-to-hour survival sum for billed hours).
// The verdict is expressed as a z-space margin so PlanEvaluator can apply its
// guard band: |margin| >= guard accepts/rejects outright, anything inside the
// band escalates to Tier 1 sampling (see docs/performance.md).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cloud/instance_type.hpp"
#include "sim/plan.hpp"
#include "workflow/dag.hpp"

namespace deco::core {

class PlanEvaluator;
struct ProbDeadline;

/// Closed-form screen result for one (plan, requirement) query.
struct AnalyticScreen {
  double mean_makespan = 0;      ///< E[makespan] under the normal fit, s
  double makespan_quantile = 0;  ///< requirement quantile of the fit, s
  double deadline_prob = 0;      ///< P(makespan <= derated deadline)
  double mean_cost = 0;          ///< expected cost, USD
  /// Feasibility margin in standard-normal z units: z(deadline_prob) minus
  /// z(required quantile).  Positive means the fit clears the requirement;
  /// PlanEvaluator accepts at >= +kScreenGuardZ, rejects at <= -kScreenGuardZ
  /// and escalates in between (under kAnalytic the band is empty).
  double z_margin = 0;
};

class AnalyticEstimator {
 public:
  /// Borrows the evaluator (friend access to its staged segments, DAG image
  /// and options); the evaluator owns this object, so lifetimes match.
  explicit AnalyticEstimator(PlanEvaluator& owner);

  /// Screens one plan against a probabilistic deadline.  Allocation-free
  /// after warm-up: per-position scratch is reused across calls and task
  /// moments are cached per (task, vm type) alongside the segment cache.
  AnalyticScreen screen(const sim::Plan& plan, const ProbDeadline& req);

 private:
  /// First two moments of one task's dynamic time on one vm type plus its
  /// constant CPU seconds, read off the staged alias columns (which already
  /// fold in failure inflation).
  struct TaskMoments {
    double mean = 0;  ///< E[C], dynamic component
    double var = 0;   ///< Var[C]
    double cpu = 0;   ///< constant CPU seconds (failure-inflated)
  };

  const TaskMoments& moments(workflow::TaskId task, cloud::TypeId type);

  /// E[ceil(max(X, 1s) / 3600)] for X ~ N(mean, sqrt(var)) — the analytic
  /// billed-hours charge, via the survival sum 1 + sum_k P(X > 3600 k).
  static double expected_billed_hours(double mean, double var);

  PlanEvaluator* owner_;
  std::unordered_map<std::uint64_t, TaskMoments> moment_cache_;

  // Per-call scratch, sized to the workflow / group-slot count and reused
  // across calls (capacity sticks, so steady state is allocation-free).
  std::vector<double> fin_mu_;   // finish-time mean per position
  std::vector<double> fin_var_;  // finish-time variance per position
  std::vector<double> dyn_mu_;   // dynamic-time mean per position
  std::vector<double> dyn_var_;  // dynamic-time variance per position
  std::vector<double> cpu_;      // CPU seconds per position
  std::vector<double> price_hour_;  // assigned unit price per position, USD/h
  std::vector<double> avail_mu_;    // per group slot: instance-avail mean
  std::vector<double> avail_var_;
  std::vector<double> gtime_mu_;  // per group slot: summed duration mean
  std::vector<double> gtime_var_;
  std::vector<double> group_price_;       // per group slot, USD/h
  std::vector<std::uint32_t> group_count_;  // members per group slot
};

}  // namespace deco::core
