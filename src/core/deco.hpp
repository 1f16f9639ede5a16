// Deco — the declarative optimization engine (the paper's primary
// contribution, Figure 3).
//
// The engine offers two entry levels:
//   * solve_program(): the declarative path.  A WLog program (goal /
//     constraints / variables + rules) is parsed, translated to the
//     probabilistic IR with facts imported from the engine's workflow and
//     cloud metadata, and solved by the generic/A* search, evaluating every
//     candidate state through Monte Carlo inference over the IR
//     (Algorithms 1 and 2).  This is the faithful pipeline — and, like the
//     paper says, evaluation through the interpreter is the expensive part,
//     which is why the engine batches states onto the parallel backend.
//   * schedule() / plan_ensemble() / optimize_migration(): the native paths
//     for the three use cases, which compile the same optimization to direct
//     evaluation (the moral equivalent of the paper's GPU kernels).  Benches
//     and the WMS integration use these.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/declarative.hpp"
#include "core/ensemble_planner.hpp"
#include "core/followcost.hpp"
#include "core/scheduling.hpp"
#include "core/wlog_bridge.hpp"

namespace deco::core {

struct DecoOptions {
  std::string backend = "vgpu";  ///< "vgpu" | "serial"
  std::size_t backend_workers = 0;
  EvalOptions eval;
  /// Ensembles optimize hour-billed budgets (Eq. 5 spends real instance
  /// hours), so their evaluator defaults to the billed cost model — this is
  /// where the Merge/Co-Scheduling transformations pay off against SPSS.
  EvalOptions ensemble_eval = [] {
    EvalOptions e;
    e.cost_model = CostModel::kBilledHours;
    return e;
  }();
  EstimatorOptions estimator;
  /// Search budget for the declarative path (interpreter evaluation is
  /// costly, so this is much smaller than the native budgets).
  std::size_t wlog_max_states = 48;
  std::size_t wlog_mc_iterations = 48;
  /// WLog engine for the declarative paths: "vm" (default) runs the
  /// compiled bytecode VM, "interp" the tree-walking oracle.
  std::string wlog_exec = "vm";
  /// Direct IR-to-segment translation of recognized totalcost/maxtime
  /// query shapes (falls back to the engine when a shape doesn't match).
  bool wlog_segments = true;
  /// Optional cooperative solve budget for the declarative paths
  /// (solve_program / solve_ensemble_program).  Native paths take the budget
  /// through their per-call options (SearchOptions::budget).
  util::BudgetTracker* budget = nullptr;
};

struct WlogSolveResult {
  bool ok = false;
  std::string error;
  /// The provisioning plan when the var declaration is configs-shaped (one
  /// choice per task among the catalog's types); empty otherwise.
  sim::Plan plan;
  /// The solver's generic answer, always filled on success: entity keys,
  /// choice keys, and per entity the index of its choice.
  std::vector<std::string> entities;
  std::vector<std::string> choices;
  std::vector<int> assignment;
  double goal_value = 0;
  bool feasible = false;
  SearchStats stats;
  /// Budget outcome (all-zero when DecoOptions::budget was null).
  util::SolveReport budget;
};

/// Result of a declarative *ensemble* program (use case 2 in WLog).
struct WlogEnsembleResult {
  bool ok = false;
  std::string error;
  std::vector<bool> admitted;
  std::vector<sim::Plan> plans;  ///< per member; empty when not admitted
  std::vector<double> member_costs;  ///< per member: its wfcost fact
  double goal_value = 0;  ///< the program's goal (e.g. total score)
  bool feasible = false;
  SearchStats stats;
};

class Deco {
 public:
  Deco(const cloud::Catalog& catalog, const cloud::MetadataStore& store,
       DecoOptions options = {});

  /// Declarative path: solve a WLog program against `wf`.
  WlogSolveResult solve_program(const std::string& source,
                                const workflow::Workflow& wf);

  /// Declarative path for workflow ensembles: the program declares
  /// `var execute(W, Run) forall wkf(W).` and optimizes over the
  /// wkf/priority/wfcost/deadline_ok/budget_limit facts the engine derives
  /// from the ensemble (per-member plans come from the scheduling solver).
  WlogEnsembleResult solve_ensemble_program(const std::string& source,
                                            const workflow::Ensemble& ensemble);

  /// Native use-case paths.
  SchedulingResult schedule(const workflow::Workflow& wf,
                            const ProbDeadline& req,
                            const SchedulingOptions& options = {});
  EnsemblePlanResult plan_ensemble(const workflow::Ensemble& ensemble,
                                   const EnsemblePlanOptions& options = {});
  MigrationDecision optimize_migration(
      const std::vector<MigrationWorkflowState>& states,
      const SearchOptions& options = {});

  vgpu::ComputeBackend& backend() { return *backend_; }
  const cloud::Catalog& catalog() const { return *catalog_; }
  const cloud::MetadataStore& store() const { return *store_; }
  const DecoOptions& options() const { return options_; }

 private:
  const cloud::Catalog* catalog_;
  const cloud::MetadataStore* store_;
  DecoOptions options_;
  std::unique_ptr<vgpu::ComputeBackend> backend_;
};

}  // namespace deco::core
