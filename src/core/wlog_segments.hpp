// Direct IR-to-segment translation for the canonical scheduling queries.
//
// The declarative solver's hot path evaluates totalcost/maxtime-style
// queries over thousands of sampled worlds.  Even with the bytecode VM,
// proving `totalcost(Ct)` re-runs findall/sum over the same join every
// world, and `maxtime(Path,T)` re-enumerates every root-to-tail path.  This
// module recognizes the paper's canonical rule shapes at solve start and
// compiles them into *segments* — straight-line C++ evaluators over fact
// tables — so per-world evaluation never re-enters a logic engine:
//
//   sum shape      f(Ct) :- findall(C, g(Tid,Vid,C), Bag), sum(Bag, Ct).
//                  g(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T),
//                                  configs(Tid,Vid,Con), C is T*Up*Con.
//     -> the price x exetime x configs join, resolved once per state into a
//        flat list of terms (a static time or one group's sampled time,
//        times the Up*Con factor) in the interpreter's enumeration order,
//        so a world only reads the values it chose and the floating-point
//        sum is bit-identical;
//
//   path shape     f(P,T) :- setof([Z,T1], path(src,dst,Z,T1), S),
//                            max(S, [P,T]).
//                  path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,V,T),
//                                    configs(X,V,C), C == 1, Tp is T.
//                  path(X,Y,Z,Tp) :- edge(X,Z), Z \== Y, path(Z,Y,Z2,T1),
//                                    exetime(X,V,T), configs(X,V,C),
//                                    C == 1, Tp is T + T1.
//     -> a longest-path DP over the (acyclic) edge relation, one pass per
//        world over a reverse-topological node order fixed per state; IEEE
//        addition is monotone, so max-then-add equals the interpreter's
//        per-path add-then-max exactly.
//
// Recognition is *structural* (variable-bijection matching against the
// clause bodies), with conservative guards: the fact predicates must be
// fact-only, join keys must be atoms, probabilistic groups must be
// homogeneous exetime alternatives, the edge relation must be acyclic, and
// at most one (vm, sample) source may time each task.  Anything that fails
// a guard falls back to the Monte Carlo engine (problog.hpp), which remains
// the behavioural oracle.  RNG consumption matches sample_world exactly —
// one uniform per non-empty group, in group order — so segment and engine
// paths see the same sampled worlds.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"
#include "wlog/problog.hpp"
#include "wlog/program.hpp"

namespace deco::core {

/// A probabilistic alternative parsed to its join key and value.
struct SegmentAlt {
  std::string task;
  std::string vid;
  std::optional<double> number;  ///< third argument, when it is numeric
};

/// Recognized `findall ... sum` reduce query (totalcost-style).
struct SumShape {
  std::string functor;  ///< query predicate, arity 1
  std::string price_f;  ///< price/2 fact predicate
  std::string exe_f;    ///< exetime/3 fact predicate
  std::string cfg_f;    ///< configs/3 fact predicate
};

/// Recognized `setof ... max` critical-path query (maxtime-style).
struct PathShape {
  std::string functor;  ///< query predicate, arity 2
  std::string edge_f;   ///< edge/2 fact predicate
  std::string exe_f;    ///< exetime/3 fact predicate
  std::string cfg_f;    ///< configs/3 fact predicate
  std::string source;   ///< path start atom (e.g. root)
  std::string target;   ///< path end atom (e.g. tail)
  wlog::TermPtr con_lit;  ///< literal the configs flag is ==-checked against
};

/// Per-solve translation: recognizes the program's goal/constraint queries
/// against the IR's rules.  Immutable once built; shared by every state.
class SegmentPlan {
 public:
  SegmentPlan() = default;

  /// Attempts translation of every query in `program` (goal + constraints)
  /// against the rules and groups in `ir`.  Unrecognized queries are simply
  /// absent from the plan; an empty plan means "always fall back".
  static SegmentPlan translate(const wlog::ProbProgram& ir,
                               const wlog::Program& program);

  bool any() const { return sum_.has_value() || path_.has_value(); }
  const std::optional<SumShape>& sum() const { return sum_; }
  const std::optional<PathShape>& path() const { return path_; }
  /// Parsed group alternatives (one entry per group, same order; empty
  /// groups stay empty and draw no uniform, like sample_world).
  const std::vector<std::vector<SegmentAlt>>& groups() const {
    return groups_;
  }
  /// The raw group (bin masses) backing groups()[g], for pick_alternative.
  const wlog::ProbGroup& prob_group(std::size_t g) const {
    return prob_groups_[g];
  }
  /// Functor shared by every group fact ("" when there are no groups).
  const std::string& group_functor() const { return group_functor_; }
  /// Indices of the non-empty groups keyed by `task`, ascending.
  const std::vector<std::size_t>& groups_of(const std::string& task) const;

 private:
  std::optional<SumShape> sum_;
  std::optional<PathShape> path_;
  std::vector<std::vector<SegmentAlt>> groups_;
  std::vector<wlog::ProbGroup> prob_groups_;
  std::string group_functor_;
  std::unordered_map<std::string, std::vector<std::size_t>> groups_by_task_;
};

/// Per-state evaluators compiled from a bound IR's fact tables.
/// Construction re-checks the guards against the state's facts (the solver
/// asserts decision facts per state) and resolves everything that does not
/// depend on the sampled world: the sum join becomes a flat term list and
/// the path DP a fixed node order, so a world costs one pass over each.  A
/// failed guard marks the affected shape unavailable and the caller falls
/// back to the MC engine.
class SegmentState {
 public:
  SegmentState(const SegmentPlan& plan, const wlog::ProbProgram& bound);

  /// True when `query` (with result binding `variable`, may be null) can be
  /// answered directly by this state.
  bool can_answer(const wlog::TermPtr& query,
                  const wlog::TermPtr& variable) const;

  /// Mirrors wlog::mc_sample_values, including RNG and budget-checkpoint
  /// behaviour; `variable` may be null (values are then all 0).  This and
  /// eval_goal require can_answer(query, variable).
  std::vector<double> sample_values(const wlog::TermPtr& query,
                                    const wlog::TermPtr& variable,
                                    util::Rng& rng,
                                    const wlog::McOptions& options) const;

  /// Mirrors wlog::mc_eval_goal.
  wlog::McResult eval_goal(const wlog::TermPtr& query,
                           const wlog::TermPtr& variable, util::Rng& rng,
                           const wlog::McOptions& options) const;

 private:
  static constexpr std::size_t kStatic = static_cast<std::size_t>(-1);

  /// One solution of the sum join: a static time (group == kStatic) or the
  /// world's alternative of `group`, multiplied by the clause's Up*Con.
  struct SumTerm {
    std::size_t group = kStatic;
    double value = 0;   ///< static time (when group == kStatic)
    double factor = 0;  ///< Up*Con, multiplied as the clause's T*(Up*Con)
  };
  /// How a task's time is produced in the path DP: a static fact or the
  /// world-dependent alternative of one group.
  struct TimeSrc {
    bool from_group = false;
    double value = 0;         ///< static time (when !from_group)
    std::size_t group = 0;    ///< group index (when from_group)
  };

  /// Runs `per_world` once per sampled world (RNG and budget checkpoints as
  /// in the MC engine) with that world's value of `query`, or nullopt when
  /// the query fails there (e.g. no feasible path).
  template <typename PerWorld>
  void for_each_world(const wlog::TermPtr& query, util::Rng& rng,
                      const wlog::McOptions& options,
                      PerWorld&& per_world) const;
  double eval_sum(const std::vector<std::size_t>& chosen) const;
  std::optional<double> eval_path(
      const std::vector<std::size_t>& chosen,
      std::vector<std::optional<double>>& dp) const;
  void build_sum(const wlog::Database& db);
  void build_path(const wlog::Database& db);

  const SegmentPlan* plan_;
  bool sum_ok_ = false;
  bool path_ok_ = false;

  // Sum shape: the join's solutions in interpreter enumeration order.
  std::vector<SumTerm> sum_terms_;
  std::vector<char> sum_reads_;  ///< per group: read by some sum term

  // Path shape, per node id (edge-fact first-appearance order): children
  // in CSR form, target flags and time sources.
  std::vector<std::size_t> child_begin_;  ///< size node count + 1
  std::vector<std::size_t> children_;
  std::vector<char> is_target_;
  std::vector<std::optional<TimeSrc>> times_;
  std::vector<char> path_reads_;  ///< per group: times some node
  /// Nodes reachable from the source without passing the target, children
  /// before parents; empty when the source is not a node.
  std::vector<std::size_t> order_;
  std::optional<std::size_t> source_id_;
};

}  // namespace deco::core
