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
// time (first two moments computed off the alias columns once, when
// PlanEvaluator stages the segment, and stored in its one segment table — so
// staging cost is paid once for all three tiers), and S = 1/I the shared
// interference speedup.  Because every task in
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
//
// Like Tiers 1-2, the screen runs on the compute backend with one block per
// plan.  A screen only reads the evaluator's segment table and DAG image and
// writes its block's scratch arena, so a plan's result is a function of
// (plan, requirement) alone, bit-identical across backends and worker counts.
#pragma once

#include "sim/plan.hpp"
#include "vgpu/device.hpp"

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
  /// Borrows the evaluator (friend access to its segment table, DAG image
  /// and options); the evaluator must outlive this object.
  explicit AnalyticEstimator(const PlanEvaluator& owner);

  /// Screens one plan against a probabilistic deadline.  Every segment the
  /// plan places must already be staged in the owner's table (PlanEvaluator
  /// resolves them serially before the launch).  Per-position and per-group
  /// arrays are borrowed from the block's scratch arena, so concurrent
  /// screens share no mutable state and steady state allocates nothing.
  AnalyticScreen screen(const sim::Plan& plan, const ProbDeadline& req,
                        vgpu::BlockContext& ctx) const;

 private:
  /// E[ceil(max(X, 1s) / 3600)] for X ~ N(mean, sqrt(var)) — the analytic
  /// billed-hours charge, via the survival sum 1 + sum_k P(X > 3600 k).
  static double expected_billed_hours(double mean, double var);

  const PlanEvaluator* owner_;
};

}  // namespace deco::core
