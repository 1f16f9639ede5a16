// Use case 1 — the workflow scheduling problem (Section 3.1).
//
// Select an instance type per task minimizing the expected monetary cost
// (Eq. 1) subject to a probabilistic deadline (Eq. 3): the p-th percentile of
// the makespan distribution must not exceed D.
//
// Search shape (Fig. 5): the initial state configures every task with the
// cheapest type; children promote tasks to better types.  Children are
// generated for tasks on the *current critical path* (by mean times), which
// keeps the branching factor proportional to the path length.  Instance
// partial hours under the billed cost model are exploited after the search,
// by consolidate().
#pragma once

#include <optional>
#include <vector>

#include "core/evaluator.hpp"
#include "core/search.hpp"
#include "core/transform_ops.hpp"

namespace deco::core {

struct SchedulingOptions {
  SearchOptions search;
  bool use_astar = false;        ///< enabled(astar) in WLog
  cloud::RegionId region = 0;
  SchedulingOptions() {
    search.max_states = 2048;
    search.batch_size = 32;
    search.minimize = true;
    search.stale_wave_limit = 24;
  }
};

struct SchedulingResult {
  sim::Plan plan;
  PlanEvaluation evaluation;
  SearchStats stats;
  bool found = false;  ///< a feasible plan was found
  /// Budget outcome (all-zero when options.search.budget was null).  An
  /// exhausted budget still returns a full-size anytime plan — the best
  /// feasible-or-best-screened placement found before the cutoff — with a
  /// valid evaluation (the final single-plan evaluation runs unbudgeted).
  util::SolveReport budget;
};

class SchedulingProblem {
 public:
  SchedulingProblem(const workflow::Workflow& wf, TaskTimeEstimator& estimator,
                    vgpu::ComputeBackend& backend, EvalOptions eval = {});

  SchedulingResult solve(const ProbDeadline& req,
                         const SchedulingOptions& options = {});

  /// The all-cheapest initial plan (Fig. 5's state "0 -> 0").
  sim::Plan initial_plan(cloud::RegionId region = 0) const;

  /// Critical-path tasks of `plan` under mean task times.
  std::vector<workflow::TaskId> critical_tasks(const sim::Plan& plan);

  /// The search's transition (Fig. 5): each child promotes one distinct
  /// critical-path task of `plan` to the next type.  A child differs from
  /// its parent in one placement, so its key is a rekey of `key` (the
  /// plan_hash of `plan`), and only children `out` finds fresh are copied.
  void expand(const sim::Plan& plan, std::uint64_t key,
              Expansion<sim::Plan>& out);

  /// Greedy feasibility pass: promote the slowest critical-path task until
  /// the probabilistic deadline holds (or every task is maxed out).  Used as
  /// the incumbent the search must beat, so tight deadlines on large
  /// workflows always yield a feasible answer.
  ///
  /// The promotion order depends only on mean times, so the chain's plans
  /// are generated ahead of their scores and scored in waves of 1, 2, 4, ...
  /// up to `max_wave` plans (solve() passes search.batch_size).  In screened
  /// modes a wave's screen-feasible plans are verified in full MC in chain
  /// order.  The first plan that resolves feasible is returned — the same
  /// plan and evaluation a one-plan-at-a-time chain returns.
  /// stats.states_evaluated counts chain plans up to that one (all of them
  /// when the chain runs out of promotions); plans scored past it go to the
  /// search.greedy_speculative counter.
  SchedulingResult greedy_feasible(const ProbDeadline& req,
                                   cloud::RegionId region = 0,
                                   std::size_t max_wave = 32);

  /// Cost polish: per task, switch to the cheapest type that is not slower
  /// (feasibility-safe, applied blindly), then greedily try slower-but-
  /// cheaper switches with feasibility re-checks.  Under Eq. 1's prorated
  /// cost the per-task terms are separable, so this is a cheap descent the
  /// transformation search composes with.
  sim::Plan polish(sim::Plan plan, const ProbDeadline& req);

  /// Instance-hour consolidation (the Merge / Move / Co-Scheduling
  /// transformations applied greedily): packs same-(type, region) tasks onto
  /// shared instances — starting from one instance per bucket and doubling
  /// the instance count until the probabilistic deadline holds.  Only
  /// meaningful under CostModel::kBilledHours, where partial hours are the
  /// dominant waste; solve() runs it automatically in that mode.
  sim::Plan consolidate(sim::Plan plan, const ProbDeadline& req);

  PlanEvaluator& evaluator() { return evaluator_; }

 private:
  /// estimator_->mean_time(*wf_, t, v), memoized in a flat table: the
  /// search, the greedy chain and the polish read it for every task of
  /// every expanded plan.
  double mean_time(workflow::TaskId t, cloud::TypeId v);

  /// One greedy-chain step in place: promotes the slowest promotable
  /// critical-path task (or, with the path maxed, the slowest promotable
  /// task anywhere).  False, with `plan` unchanged, once every task is maxed.
  bool promote_next(sim::Plan& plan);

  /// Screened modes: whether the greedy chain's last plan (every task on
  /// the top type in `region`) fails the screen.  False once the armed
  /// budget has fired.
  bool chain_end_fails_screen(const ProbDeadline& req,
                              cloud::RegionId region);

  /// The screened solve's fallback: the same solve under kMc, which returns
  /// exactly the `mc` answer, with `screened_work`'s evaluated and pruned
  /// states added to its stats.
  SchedulingResult solve_full_mc(const ProbDeadline& req,
                                 const SchedulingOptions& options,
                                 const SearchStats& screened_work);

  const workflow::Workflow* wf_;
  TaskTimeEstimator* estimator_;
  PlanEvaluator evaluator_;
  std::optional<std::vector<workflow::TaskId>> topo_;  ///< nullopt if cyclic
  std::vector<double> mean_;  ///< task-major; < 0 = not yet read
};

}  // namespace deco::core
