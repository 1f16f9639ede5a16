// Use case 2 — workflow ensembles (Section 3.2).
//
// Maximize the total score sum(2^-priority) of completed workflows (Eq. 4)
// subject to an ensemble-wide budget (Eq. 5) and per-workflow probabilistic
// deadlines (Eq. 6).
//
// The paper writes admission as an A* search (Section 6.3.2): "a state in
// the search space is implemented as an array of boolean values, where each
// dimension indicates whether to execute a workflow in the ensemble.  We
// enable the A* search by specifying the g and h score of a search state s
// as the Score metric of s.  Initially, all dimensions are set to false ...
// For state transitions, we consider executing each of the uncompleted
// workflows."  With distinct priorities each member's score exceeds the sum
// of all lower-priority scores, so greedy admission in priority order is
// exactly optimal (the proof is at workflow::Ensemble::admit), and this
// native planner uses it with no search.  The declarative path
// (Deco::solve_ensemble_program over `ensemble.wlog`) keeps the paper's A*
// formulation.  Each admitted workflow runs under its cheapest
// deadline-feasible plan found by the workflow-scheduling solver (which
// applies the transformation operations — the source of Deco's cost
// advantage over SPSS).
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheduling.hpp"
#include "sim/ensemble.hpp"
#include "workflow/ensemble.hpp"

namespace deco::core {

struct EnsemblePlanOptions {
  SchedulingOptions per_workflow;  ///< options for each member's plan search
  /// Sharding for per-member plan scoring — the dominant cost of ensemble
  /// planning is one full scheduling solve per member, and the solves are
  /// independent.  Default (workers 0, no pool) keeps the serial in-place
  /// loop on the planner's shared backend; any sharded configuration fans
  /// the solves over sim::EnsembleRunner, giving each one a *private*
  /// SerialBackend (bit-identical to the shared backend by the vgpu
  /// determinism contract) so concurrent solves never share mutable state.
  /// Sharded and serial scoring choose identical plans, costs and
  /// admissions (tests/sim/ensemble_shard_test.cpp).
  sim::EnsembleOptions exec;
  EnsemblePlanOptions() {
    per_workflow.search.max_states = 64;
    per_workflow.search.stale_wave_limit = 6;
  }
};

struct EnsemblePlanResult {
  std::vector<bool> admitted;        ///< per member
  std::vector<sim::Plan> plans;      ///< per member (empty if not admitted)
  std::vector<double> member_costs;  ///< expected cost of each member's plan
  double total_cost = 0;  ///< expected cost of admitted members, <= budget
  double score = 0;       ///< Eq. 4
};

class EnsemblePlanner {
 public:
  /// Defaults to the billed-hours cost model: the ensemble budget (Eq. 5)
  /// is spent in real instance hours, which is exactly where the workflow
  /// transformations (Merge / Co-Scheduling packing partial hours) create
  /// Deco's advantage over SPSS.
  EnsemblePlanner(const cloud::Catalog& catalog,
                  const cloud::MetadataStore& store,
                  vgpu::ComputeBackend& backend,
                  EvalOptions eval =
                      [] {
                        EvalOptions e;
                        e.cost_model = CostModel::kBilledHours;
                        return e;
                      }(),
                  EstimatorOptions estimator = {});

  /// Each member's cheapest deadline-feasible plan: one scheduling solve
  /// per member, serial on the planner's backend or sharded per
  /// `options.exec`.
  struct MemberPlans {
    std::vector<sim::Plan> plans;  ///< empty where no feasible plan was found
    std::vector<double> costs;     ///< expected cost; 0 where infeasible
    /// Byte-wide so sharded solves each write only their own slot.
    std::vector<std::uint8_t> feasible;
  };
  MemberPlans solve_members(const workflow::Ensemble& ensemble,
                            const EnsemblePlanOptions& options = {});

  /// solve_members, then workflow::Ensemble::admit.
  EnsemblePlanResult plan(const workflow::Ensemble& ensemble,
                          const EnsemblePlanOptions& options = {});

 private:
  const cloud::Catalog* catalog_;
  const cloud::MetadataStore* store_;
  vgpu::ComputeBackend* backend_;
  EvalOptions eval_;
  EstimatorOptions estimator_options_;
};

}  // namespace deco::core
