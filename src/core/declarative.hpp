// Generalized declarative solver: executes a WLog program's goal /
// constraints / var declaration against a probabilistic IR, independent of
// the problem the program encodes.
//
// The paper's three use cases declare differently-shaped decision variables:
//   * scheduling:  var configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
//     -> one *choice* (a vm) per *entity* (a task);
//   * ensembles:   var execute(W,Run) forall wkf(W).
//     -> one *boolean* per entity (a workflow);
//   * migration:   var migrate(W,R,G) forall wkf(W) and region(R).
//     -> one choice (a region) per entity.
// The solver derives the shape from the var directive:
//   - two generators: each solution of the first generator is an entity,
//     each solution of the second a choice; a state assigns one choice per
//     entity, and the selected template instances are asserted with their
//     remaining free variable bound to 1;
//   - one generator: boolean per entity; the template is asserted with flag
//     1 for selected entities and 0 otherwise.
// States are explored from the all-first-choice / all-false origin with
// one-entity transitions (the Promote-style lattice of Fig. 5), evaluated by
// Monte Carlo inference over the IR, and searched generically or with A*
// (cal_g_score / est_h_score) when enabled(astar) is present.
//
// A state costs only what its decision facts change.  The facts are
// instantiated once per solve, one per (entity, choice).  The evaluation
// keeps one copy of the IR and layers a state's facts onto it for the
// state's evaluation (Database::mark / undo_to), never copying the program
// per state.  A* scores run over their own modal-world database and one
// wlog::Solver per solve, with the facts layered the same way per call, so
// the solver's compiled clauses stay warm.  A generator with more than 4096
// solutions is an error, not a truncated search space.
#pragma once

#include <string>
#include <vector>

#include "core/search.hpp"
#include "util/rng.hpp"
#include "wlog/problog.hpp"

namespace deco::core {

struct DeclarativeOptions {
  std::size_t max_states = 48;
  std::size_t batch_size = 8;
  std::size_t mc_iterations = 48;
  std::size_t stale_wave_limit = 6;
  std::uint64_t seed = 99;
  /// Optional cooperative solve budget, threaded into the state search, the
  /// Monte Carlo evaluation loops, and the WLog interpreters.  A fired
  /// budget cuts the search anytime-style (the result keeps the incumbent).
  util::BudgetTracker* budget = nullptr;
  /// WLog engine for generator enumeration, A* scores, and per-world Monte
  /// Carlo proofs (kInterp is the differential oracle).
  wlog::ExecMode exec = wlog::ExecMode::kVm;
  /// Translate recognized totalcost/maxtime query shapes into direct
  /// segment evaluators (core/wlog_segments.hpp); unrecognized shapes fall
  /// back to the engine either way.
  bool segments = true;
};

struct DeclarativeResult {
  bool ok = false;
  std::string error;

  /// Entity keys (rendered generator-1 solutions) in enumeration order.
  std::vector<std::string> entities;
  /// Choice keys (rendered generator-2 solutions), or {"0","1"} for the
  /// boolean form.
  std::vector<std::string> choices;
  /// Per entity: index into `choices` (boolean form: 0 or 1).
  std::vector<int> assignment;

  double goal_value = 0;
  bool feasible = false;
  SearchStats stats;
  /// Budget outcome (all-zero when options.budget was null).
  util::SolveReport budget;
};

/// Search key of a decision-variable assignment (the additive key of
/// core/search.hpp over the entities' choice indices).
std::uint64_t assignment_key(const std::vector<int>& assignment);

/// The declarative search's transition: each child advances one entity's
/// choice by one, below `choices`.  Child keys are rekeys of `key`.
void expand_assignment(const std::vector<int>& assignment, std::uint64_t key,
                       std::size_t choices, Expansion<std::vector<int>>& out);

class DeclarativeSolver {
 public:
  explicit DeclarativeSolver(DeclarativeOptions options = {})
      : options_(options) {}

  /// Solves `program` over the IR `ir` (rules + facts + probabilistic
  /// groups; the decision facts are layered per state by the solver).
  DeclarativeResult solve(const wlog::Program& program,
                          const wlog::ProbProgram& ir);

 private:
  DeclarativeOptions options_;
};

}  // namespace deco::core
