// Use case 3 — follow-the-cost: dynamic workflow migration across clouds
// (Section 3.3).
//
// Multiple workflows run across cloud regions with different prices; at
// runtime, partially executed workflows may migrate to a cheaper region, at
// the price of transferring the intermediate data their unfinished tasks
// need (Eqs. 7-10).  Deadlines use the traditional *static* notion here
// (expected times), since this is an online optimization.
//
// The module provides:
//   * MigrationOptimizer — Deco's generic search over per-workflow target
//     regions, minimizing remaining execution + migration cost subject to
//     each workflow's remaining deadline;
//   * run_followcost_scenario — the runtime driver: executes the workflow
//     set level-by-level on the simulator, invoking a migration policy
//     between periods, and accounting execution + transfer cost.  Policies:
//     Deco (re-optimize each period) or the Heuristic baseline (offline plan
//     + threshold-triggered adjustment, Section 6.1).
#pragma once

#include <functional>
#include <vector>

#include "core/estimator.hpp"
#include "core/search.hpp"
#include "util/rng.hpp"
#include "vgpu/device.hpp"
#include "workflow/dag.hpp"

namespace deco::core {

/// Runtime state of one workflow in the migration scenario.
struct MigrationWorkflowState {
  const workflow::Workflow* wf = nullptr;
  std::vector<bool> finished;     ///< per task
  cloud::RegionId region = 0;     ///< where unfinished tasks currently sit
  cloud::TypeId vm_type = 1;      ///< instance type used by this workflow
  double elapsed_s = 0;           ///< time consumed so far
  double deadline_s = 0;          ///< total deadline

  double remaining_deadline() const { return deadline_s - elapsed_s; }
  /// Bytes that must cross regions if the workflow migrates now: data on
  /// finished->unfinished edges (the frontier's inputs).
  double frontier_bytes() const;
  bool done() const;
};

struct MigrationDecision {
  std::vector<cloud::RegionId> targets;  ///< per workflow
  double expected_cost = 0;              ///< Eq. 7 estimate
  SearchStats stats;
};

/// Search key of a per-workflow target-region vector (the additive key of
/// core/search.hpp over the region ids).
std::uint64_t region_vector_key(const std::vector<cloud::RegionId>& regions);

/// The migration search's transition: each child moves one workflow's target
/// to another region that `feasible[workflow][region]` allows.  Child keys
/// are rekeys of `key`.
void expand_region_flips(const std::vector<cloud::RegionId>& regions,
                         std::uint64_t key,
                         const std::vector<std::vector<bool>>& feasible,
                         Expansion<std::vector<cloud::RegionId>>& out);

class MigrationOptimizer {
 public:
  MigrationOptimizer(const cloud::Catalog& catalog,
                     TaskTimeEstimator& estimator);

  /// Chooses a target region per workflow minimizing remaining execution +
  /// migration cost subject to each workflow's remaining (static) deadline.
  MigrationDecision optimize(const std::vector<MigrationWorkflowState>& states,
                             const SearchOptions& options = {});

  /// Expected remaining execution cost of one workflow in `region` (Eq. 8).
  double execution_cost(const MigrationWorkflowState& s,
                        cloud::RegionId region);
  /// Migration cost if `s` moves to `region` (Eq. 9; zero if staying).
  double migration_cost(const MigrationWorkflowState& s,
                        cloud::RegionId region) const;
  /// Expected remaining makespan in `region`, including migration transfer
  /// time (the left side of Eq. 10).
  double remaining_time(const MigrationWorkflowState& s,
                        cloud::RegionId region);

 private:
  const cloud::Catalog* catalog_;
  TaskTimeEstimator* estimator_;
};

/// Where a storm-driven evacuation should send the residual workflow, and
/// what the move costs (data gravity: the frontier's bytes must follow).
struct EvacuationPlan {
  cloud::RegionId target = 0;   ///< chosen region (== current when staying)
  bool moved = false;           ///< target differs from the current region
  double migration_cost = 0;    ///< Eq. 9 egress cost of the frontier, USD
  double transfer_time_s = 0;   ///< frontier over mean inter-region bandwidth
  double execution_cost = 0;    ///< Eq. 8 remaining execution cost at target
};

/// Picks the failover region for a residual workflow whose current region
/// `storm_region` is under a storm: the cheapest region (remaining
/// execution + data-gravity migration cost, Eqs. 8/9) that still meets the
/// remaining deadline (Eq. 10), storm region excluded.  Falls back to the
/// fastest non-storm region when none is feasible, and stays put when the
/// catalog has nowhere else to go.
EvacuationPlan choose_evacuation_region(const MigrationWorkflowState& state,
                                        const cloud::Catalog& catalog,
                                        TaskTimeEstimator& estimator,
                                        cloud::RegionId storm_region);

/// Migration policy invoked between execution periods.
using MigrationPolicy = std::function<std::vector<cloud::RegionId>(
    const std::vector<MigrationWorkflowState>&)>;

struct FollowCostReport {
  double execution_cost = 0;
  double migration_cost = 0;
  double total_cost = 0;
  std::size_t migrations = 0;
  std::size_t periods = 0;
  std::size_t deadline_violations = 0;
};

/// Runs the online scenario: executes all workflows level-by-level with
/// dynamics sampled from the catalog's ground truth, calling `policy` before
/// each period and accounting costs at the regions then in force.
FollowCostReport run_followcost_scenario(
    std::vector<MigrationWorkflowState> states, const cloud::Catalog& catalog,
    const MigrationPolicy& policy, util::Rng& rng);

}  // namespace deco::core
