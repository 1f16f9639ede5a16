// Probabilistic intermediate representation of WLog programs (Section 5.1)
// and its Monte Carlo evaluation (Section 5.2, Algorithm 1).
//
// Translation: each WLog rule becomes a rule of the IR; cloud dynamics enter
// as *annotated disjunctions* — groups of mutually exclusive facts with bin
// probabilities from the metadata-store histograms, e.g. for every (task,
// vm type) pair the group { p_j : exetime(Tid, Vid, T_j) } over histogram
// bins j.  Deterministic programs are the special case where every group has
// a single alternative with probability 1 (Section 5.1's uniform interface).
//
// Evaluation: ProbLog exact inference is exponential in the number of proofs,
// so, like the paper, we use Monte Carlo approximation: sample a possible
// world (one alternative per group), run the standard WLog interpreter in
// that world, and aggregate — the mean for goal queries, the success
// frequency for constraint queries.  The vgpu backend parallelizes exactly
// this loop (one lane per Monte Carlo iteration).
#pragma once

#include <string>
#include <vector>

#include "util/budget.hpp"
#include "util/rng.hpp"
#include "wlog/database.hpp"
#include "wlog/interp.hpp"
#include "wlog/program.hpp"
#include "wlog/vm.hpp"

namespace deco::wlog {

/// Annotated disjunction: exactly one alternative holds per possible world.
struct ProbGroup {
  std::vector<double> probs;   ///< bin masses, sum to 1
  std::vector<TermPtr> facts;  ///< same-shape facts, one per bin
};

/// Index of the alternative selected by uniform draw `u` (cumulative scan;
/// the last alternative absorbs numeric slack).  Shared by every layer that
/// samples a world — Database copies, VM fact layering, and the segment
/// evaluator — so they consume the RNG identically.
std::size_t pick_alternative(const ProbGroup& group, double u);

class ProbProgram {
 public:
  ProbProgram() = default;

  /// Deterministic layer: rules and plain facts (probability 1).
  Database& base() { return base_; }
  const Database& base() const { return base_; }

  void add_group(ProbGroup group);
  const std::vector<ProbGroup>& groups() const { return groups_; }

  /// Samples one possible world: base plus one alternative per group.
  Database sample_world(util::Rng& rng) const;

  /// The world where every group contributes its *expected value* fact is
  /// not well defined in general; instead the most probable world picks the
  /// modal alternative per group (used by deterministic optimizations).
  Database modal_world() const;

 private:
  Database base_;
  std::vector<ProbGroup> groups_;
};

/// Builds the IR skeleton from a parsed program (rules only; the engine adds
/// workflow/cloud facts and histogram groups from its metadata).
ProbProgram translate_rules(const Program& program);

/// Result of a Monte Carlo query evaluation.
struct McResult {
  double value = 0;        ///< mean goal value over worlds where it resolved
  double probability = 0;  ///< fraction of worlds where the query held
  std::size_t iterations = 0;
};

struct McOptions {
  std::size_t max_iterations = 128;  ///< the paper's Max_iter
  /// Optional cooperative solve budget; when armed, each per-world
  /// interpreter checks it periodically and a fired budget aborts the MC
  /// loop by throwing util::BudgetExhaustedError.
  util::BudgetTracker* budget = nullptr;
  /// Engine for per-world proofs.  kVm keeps one database copy and one
  /// bytecode VM alive across the whole loop (compiled clauses are reused
  /// between iterations); kInterp copies the database per world and runs
  /// the tree-walking interpreter — the differential oracle.
  ExecMode exec = ExecMode::kVm;
};

/// Algorithm 1 for a goal query: per world, proves `query` and reads the
/// numeric binding of `variable`; returns the mean and the success rate.
McResult mc_eval_goal(const ProbProgram& program, const TermPtr& query,
                      const TermPtr& variable, util::Rng& rng,
                      const McOptions& options = {});

/// Algorithm 1 for a constraint query: fraction of worlds in which `query`
/// has a proof (e.g. makespan =< deadline).
McResult mc_eval_constraint(const ProbProgram& program, const TermPtr& query,
                            util::Rng& rng, const McOptions& options = {});

/// Per-world values of `variable` (used for percentile-style constraints:
/// deadline(p, D) holds iff the p-quantile of these values is <= D).
std::vector<double> mc_sample_values(const ProbProgram& program,
                                     const TermPtr& query,
                                     const TermPtr& variable, util::Rng& rng,
                                     const McOptions& options = {});

}  // namespace deco::wlog
