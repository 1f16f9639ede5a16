// Workflow ensembles (Section 3.2, following Malawski et al. SC'12).
//
// An ensemble is a prioritized group of structurally similar workflows with
// per-workflow deadlines and an ensemble-wide budget.  Five ensemble types
// control how workflow sizes relate to priorities: constant (all the same
// size), uniform sorted/unsorted (sizes uniform over the size set, sorted =
// largest first by priority), and Pareto sorted/unsorted (heavy-tailed sizes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "workflow/dag.hpp"
#include "workflow/generators.hpp"

namespace deco::workflow {

enum class EnsembleType {
  kConstant,
  kUniformSorted,
  kUniformUnsorted,
  kParetoSorted,
  kParetoUnsorted,
};

std::string to_string(EnsembleType type);
inline constexpr EnsembleType kAllEnsembleTypes[] = {
    EnsembleType::kConstant,        EnsembleType::kUniformSorted,
    EnsembleType::kUniformUnsorted, EnsembleType::kParetoSorted,
    EnsembleType::kParetoUnsorted,
};

struct EnsembleMember {
  Workflow workflow;
  int priority = 0;        ///< 0 is highest; score contribution is 2^-priority
  double deadline_s = 0;   ///< per-workflow deadline D_w
  double deadline_q = 96;  ///< probabilistic deadline percentile p_w
};

/// Outcome of Ensemble::admit.
struct Admission {
  std::vector<bool> admitted;  ///< per member
  double total_cost = 0;  ///< the running total the budget check used
};

struct Ensemble {
  std::string name;
  EnsembleType type = EnsembleType::kConstant;
  std::vector<EnsembleMember> members;
  double budget = 0;  ///< ensemble-wide budget B

  /// Score of a completed set: sum of 2^-priority over completed members
  /// (Eq. 4 of the paper).
  double score(const std::vector<bool>& completed) const;
  /// Score if every member completes.
  double max_score() const;

  /// The admission optimizer of use case 2: maximizes score() over the
  /// members with `feasible` set whose summed `costs` stay within `budget`
  /// (Eqs. 4-5).  Members are taken in (priority, member index) order, and
  /// a feasible member is admitted when the running total plus its cost is
  /// <= budget.  `total_cost` is that running total, so it is <= budget
  /// exactly.
  ///
  /// Precondition: priorities are distinct (make_ensemble assigns 0..n-1)
  /// and costs are non-negative.  Then the greedy set G is the unique
  /// optimum.  Take any other budget-feasible set S and let m be the
  /// highest-priority member on which G and S differ.  Above m they hold
  /// the same members, so if S held m, S's running total at m would equal
  /// the one greedy rejected m with, and later non-negative costs only
  /// raise it: S would be over budget.  So m is in G and not in S, and
  /// 2^-p(m) exceeds the sum of every lower-priority member's score, hence
  /// score(G) > score(S).
  Admission admit(const std::vector<double>& costs,
                  const std::vector<std::uint8_t>& feasible) const;
};

struct EnsembleOptions {
  AppType app = AppType::kLigo;
  EnsembleType type = EnsembleType::kUniformUnsorted;
  std::size_t num_workflows = 30;             ///< paper: 30-50
  std::vector<std::size_t> sizes = {20, 100, 1000};  ///< candidate task counts
};

/// Generates an ensemble; priorities are 0..n-1.  For "sorted" types the
/// largest workflows receive the highest priorities (smallest priority
/// number); for "unsorted" priorities are assigned randomly.
Ensemble make_ensemble(const EnsembleOptions& options, util::Rng& rng);

}  // namespace deco::workflow
