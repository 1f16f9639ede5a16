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
// The screen runs on the compute backend with one block per *run* of
// consecutive plans of a wave, which a search emits as near neighbours.  The
// block keeps each position's per-node finish moments in its scratch arena
// from one plan of the run to the next, and redoes a position's Clark fold
// only when it is dirty: its task's type differs from the previous plan's, a
// parent position was redone, or its group predecessor (the previous
// position on the same instance) changed or was redone.  Every other
// position's moments are, bit for bit, what a fresh propagation would
// compute, so results do not depend on how a wave is cut into runs: a plan's
// screen is a function of (plan, requirement) alone, bit-identical across
// run lengths, backends and worker counts.  A screen only reads the
// evaluator's segment table and DAG image and writes its block's arena.
#pragma once

#include <cstddef>
#include <span>

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

/// Work tally of one screened run (the eval.screen.positions* counters).
struct ScreenRunCounts {
  std::size_t positions = 0;             ///< positions screened, tasks x plans
  std::size_t positions_recomputed = 0;  ///< of those, folds redone
};

class AnalyticEstimator {
 public:
  /// Borrows the evaluator (friend access to its segment table, DAG image
  /// and options); the evaluator must outlive this object.
  explicit AnalyticEstimator(const PlanEvaluator& owner);

  /// Screens a run of plans against a probabilistic deadline, writing plan
  /// i's result to out[i] (out.size() == run.size()); a single plan is a run
  /// of one.  Every segment the run places must already be staged in the
  /// owner's table (PlanEvaluator resolves them serially before the launch).
  /// Per-position and per-group arrays are borrowed from the block's scratch
  /// arena and live only for the call, so concurrent screens share no
  /// mutable state and steady state allocates nothing.
  ScreenRunCounts screen(std::span<const sim::Plan> run,
                         const ProbDeadline& req, vgpu::BlockContext& ctx,
                         std::span<AnalyticScreen> out) const;

 private:
  /// E[ceil(max(X, 1s) / 3600)] for X ~ N(mean, sqrt(var)) — the analytic
  /// billed-hours charge, via the survival sum 1 + sum_k P(X > 3600 k).
  static double expected_billed_hours(double mean, double var);

  const PlanEvaluator* owner_;
};

}  // namespace deco::core
