// Bridge between WLog programs and the engine's metadata (Section 4.2's
// import() machinery plus Section 5.1's probabilistic IR translation).
//
// import(<workflow>) contributes, for a workflow:
//   task(t_i).                      one fact per task (atoms t0, t1, ...)
//   edge(x, y).                     dependency edges, plus virtual root/tail
//   datasize(x, y, Bytes).          transferred bytes per edge
// import(<cloud>) contributes, for the catalog:
//   vm(v_j).                        one fact per instance type
//   price(v_j, UsdPerSecond).       unit price (per second, so that
//                                   C is T*Up*Con matches Eq. 1)
//   region(r_k).                    one fact per catalog region
//   transfer_price(r_a, r_b, Usd).  inter-region egress price per GB
//                                   (the data-gravity term residency and
//                                   failover goals price transfers with)
// and the probabilistic layer:
//   p_b : exetime(t_i, v_j, T_b)    one annotated-disjunction group per
//                                   (task, type) from the estimator histogram
//                                   ("n is determined by the number of bins
//                                   in the performance histogram").
//
// bind_plan asserts the candidate solution's configs(t, v, 1) facts plus
// region(t_i, r_k) placement facts, after which the interpreter can answer
// totalcost/maxtime (and region-residency/failover) queries per world.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/estimator.hpp"
#include "sim/plan.hpp"
#include "wlog/problog.hpp"
#include "workflow/dag.hpp"
#include "workflow/ensemble.hpp"

namespace deco::core {

struct WlogBridgeOptions {
  std::size_t exetime_bins = 5;  ///< bins per exetime group (IR size control)
  cloud::RegionId region = 0;
};

class WlogBridge {
 public:
  WlogBridge(const workflow::Workflow& wf, TaskTimeEstimator& estimator,
             WlogBridgeOptions options = {});

  /// Builds the probabilistic IR: the program's rules + workflow facts +
  /// cloud facts + exetime groups.
  wlog::ProbProgram build_ir(const wlog::Program& program);

  /// Returns a copy of `ir` with configs facts asserted for `plan`
  /// (including the virtual root/tail tasks, pinned to type 0 with zero
  /// time so they never affect cost or makespan), plus region(t, r) facts
  /// recording each task's placed region.
  wlog::ProbProgram bind_plan(const wlog::ProbProgram& ir,
                              const sim::Plan& plan) const;

  /// Atom names used in the IR.
  static std::string task_atom(workflow::TaskId id);
  static std::string vm_atom(cloud::TypeId id);
  static std::string region_atom(cloud::RegionId id);

  const workflow::Workflow& workflow() const { return *wf_; }

 private:
  const workflow::Workflow* wf_;
  TaskTimeEstimator* estimator_;
  WlogBridgeOptions options_;
};

/// Ensemble facts for declarative workflow-ensemble programs (use case 2):
///   wkf(w_i).  priority(w_i, P).  wfcost(w_i, Cost).  deadline_ok(w_i).
///   budget_limit(B).
/// Costs and deadline feasibility come from each member's cheapest
/// deadline-feasible plan (computed by the scheduling solver).
wlog::ProbProgram build_ensemble_ir(
    const wlog::Program& program, const workflow::Ensemble& ensemble,
    std::span<const double> member_costs,
    std::span<const std::uint8_t> member_feasible);

/// Migration facts for declarative follow-the-cost programs (use case 3):
///   wkf(w_i).  region(r_j).  current(w_i, r_j).
///   exec_cost(w_i, r_j, Usd).   migr_cost(w_i, r_j, Usd).
///   region_ok(w_i, r_j).        (remaining deadline satisfiable there)
/// Derived from the MigrationOptimizer's cost/feasibility model.
wlog::ProbProgram build_migration_ir(
    const wlog::Program& program, const cloud::Catalog& catalog,
    class MigrationOptimizer& optimizer,
    const std::vector<struct MigrationWorkflowState>& states);

}  // namespace deco::core
