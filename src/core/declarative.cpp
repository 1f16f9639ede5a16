#include "core/declarative.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>

#include "core/wlog_segments.hpp"
#include "util/stats.hpp"

namespace deco::core {
namespace {

/// One solution of a generator: the substitution for its variables.
struct GeneratorSolution {
  std::string key;  // rendered, e.g. "task(t3)"
  std::unordered_map<std::int64_t, wlog::TermPtr> substitution;
};

/// Most solutions a generator may have; more is reported as an error rather
/// than silently searching over a truncated entity or choice set.
constexpr std::size_t kMaxGeneratorSolutions = 4096;

/// Enumerates the solutions of a generator term against the IR's base; at
/// most kMaxGeneratorSolutions + 1, so callers can tell an overflow.
std::vector<GeneratorSolution> enumerate_generator(
    const wlog::Database& base, const wlog::TermPtr& generator,
    wlog::ExecMode exec, util::BudgetTracker* budget = nullptr) {
  std::vector<GeneratorSolution> out;
  wlog::Solver interp(base, exec);
  interp.set_budget(budget);
  wlog::Bindings bindings;

  // Collect the generator's variable ids.
  std::vector<std::int64_t> var_ids;
  std::function<void(const wlog::TermPtr&)> collect =
      [&](const wlog::TermPtr& t) {
        if (t->kind == wlog::TermKind::kVar) {
          var_ids.push_back(t->ival);
          return;
        }
        for (const auto& a : t->args) collect(a);
      };
  collect(generator);

  interp.solve(generator, bindings, [&](wlog::Bindings& b) {
    GeneratorSolution sol;
    for (std::int64_t id : var_ids) {
      sol.substitution[id] = b.deep_resolve(wlog::make_var(id));
    }
    sol.key = wlog::to_string(b.deep_resolve(generator));
    out.push_back(std::move(sol));
    return out.size() > kMaxGeneratorSolutions;
  });
  return out;
}

/// Substitutes a solution into `term`; remaining free variables become the
/// integer `flag` (the decision marker, e.g. Con = 1).
wlog::TermPtr instantiate(const wlog::TermPtr& term,
                          const std::unordered_map<std::int64_t, wlog::TermPtr>&
                              substitution,
                          std::int64_t flag) {
  switch (term->kind) {
    case wlog::TermKind::kVar: {
      const auto it = substitution.find(term->ival);
      if (it != substitution.end()) return it->second;
      return wlog::make_int(flag);
    }
    case wlog::TermKind::kCompound: {
      std::vector<wlog::TermPtr> args;
      args.reserve(term->args.size());
      for (const auto& a : term->args) {
        args.push_back(instantiate(a, substitution, flag));
      }
      return wlog::make_compound(term->text, std::move(args));
    }
    default:
      return term;
  }
}

/// Layers facts on a database for the lifetime of the scope: everything
/// added after construction is undone on exit, also when a budget exception
/// unwinds through a query.
class FactLayer {
 public:
  explicit FactLayer(wlog::Database& db) : db_(db), mark_(db.mark()) {}
  ~FactLayer() { db_.undo_to(mark_); }
  FactLayer(const FactLayer&) = delete;
  FactLayer& operator=(const FactLayer&) = delete;

 private:
  wlog::Database& db_;
  std::size_t mark_;
};

}  // namespace

std::uint64_t assignment_key(const std::vector<int>& assignment) {
  return sequence_key(assignment, [](int choice) { return choice; });
}

void expand_assignment(const std::vector<int>& assignment, std::uint64_t key,
                       std::size_t choices, Expansion<std::vector<int>>& out) {
  for (std::size_t e = 0; e < assignment.size(); ++e) {
    const int choice = assignment[e];
    if (choice + 1 >= static_cast<int>(choices)) continue;
    const std::uint64_t child_key =
        rekey(key, e, static_cast<std::uint64_t>(choice),
              static_cast<std::uint64_t>(choice + 1));
    if (!out.fresh(child_key)) continue;
    std::vector<int> child = assignment;
    ++child[e];
    out.push(std::move(child), child_key);
  }
}

DeclarativeResult DeclarativeSolver::solve(const wlog::Program& program,
                                           const wlog::ProbProgram& ir) {
  DeclarativeResult result;
  if (!program.goal) {
    result.error = "program has no goal directive";
    return result;
  }
  if (program.vars.empty()) {
    result.error = "program has no var directive";
    return result;
  }
  const wlog::VarDecl& decl = program.vars.front();
  if (decl.generators.empty() || decl.generators.size() > 2) {
    result.error = "var directive must have one or two generators";
    return result;
  }

  // Enumerate entities (generator 1) and choices (generator 2 / boolean).
  // These run before the search proper, so a budget fired this early has no
  // incumbent to fall back on — surface it as a clean error result.
  std::vector<GeneratorSolution> entities;
  const bool boolean_form = decl.generators.size() == 1;
  std::vector<GeneratorSolution> choices;
  try {
    entities = enumerate_generator(ir.base(), decl.generators[0],
                                   options_.exec, options_.budget);
    if (!boolean_form) {
      choices = enumerate_generator(ir.base(), decl.generators[1],
                                    options_.exec, options_.budget);
    }
  } catch (const util::BudgetExhaustedError& e) {
    result.error = std::string("solve budget exhausted (") +
                   util::to_string(e.trigger()) +
                   ") before the search started";
    result.budget = options_.budget->report(0);
    return result;
  }
  for (const auto* solutions : {&entities, &choices}) {
    if (solutions->size() > kMaxGeneratorSolutions) {
      result.error = std::string(solutions == &entities ? "the first"
                                                        : "the second") +
                     " generator has more than " +
                     std::to_string(kMaxGeneratorSolutions) + " solutions";
      return result;
    }
  }
  if (entities.empty()) {
    result.error = "the first generator has no solutions (missing facts?)";
    return result;
  }
  if (!boolean_form && choices.empty()) {
    result.error = "the second generator has no solutions (missing facts?)";
    return result;
  }
  for (const auto& e : entities) result.entities.push_back(e.key);
  if (boolean_form) {
    result.choices = {"0", "1"};
  } else {
    for (const auto& c : choices) result.choices.push_back(c.key);
  }

  const std::size_t n = entities.size();
  const std::size_t k = boolean_form ? 2 : choices.size();

  // The decision facts, instantiated once per solve: decision[e][c] is the
  // fact asserted when entity e takes choice c (boolean form: the flag,
  // asserted both ways so rules can test 1 or 0).  A state is the base IR
  // plus one fact per entity, layered on and peeled off again per state.
  std::vector<std::vector<wlog::TermPtr>> decision(n);
  for (std::size_t e = 0; e < n; ++e) {
    decision[e].reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
      if (boolean_form) {
        decision[e].push_back(instantiate(
            decl.template_term, entities[e].substitution,
            static_cast<std::int64_t>(c)));
        continue;
      }
      auto substitution = entities[e].substitution;
      for (const auto& [id, term] : choices[c].substitution) {
        substitution[id] = term;
      }
      decision[e].push_back(instantiate(decl.template_term, substitution, 1));
    }
  }
  auto assert_state = [&](wlog::Database& db,
                          const std::vector<int>& assignment) {
    for (std::size_t e = 0; e < n; ++e) {
      db.add_fact(decision[e][static_cast<std::size_t>(assignment[e])]);
    }
  };

  wlog::McOptions mc;
  mc.max_iterations = options_.mc_iterations;
  mc.budget = options_.budget;
  mc.exec = options_.exec;
  util::Rng rng(options_.seed);

  // One structural translation per solve: recognized totalcost/maxtime
  // query shapes evaluate as straight-line segments (no logic engine in the
  // per-world loop); everything else falls back to the MC engine below.
  const SegmentPlan seg_plan = options_.segments
                                   ? SegmentPlan::translate(ir, program)
                                   : SegmentPlan{};

  // The evaluation's own copy of the IR, which the f-scoring below does not
  // touch.
  wlog::ProbProgram bound = ir;
  auto evaluate_state = [&](const std::vector<int>& assignment) -> Scored {
    const FactLayer layer(bound.base());
    assert_state(bound.base(), assignment);
    std::optional<SegmentState> seg;
    if (seg_plan.any()) seg.emplace(seg_plan, bound);
    const auto sample_values = [&](const wlog::TermPtr& query,
                                   const wlog::TermPtr& variable) {
      if (seg && seg->can_answer(query, variable)) {
        return seg->sample_values(query, variable, rng, mc);
      }
      return wlog::mc_sample_values(bound, query, variable, rng, mc);
    };
    const auto eval_goal = [&](const wlog::TermPtr& query,
                               const wlog::TermPtr& variable) {
      if (seg && seg->can_answer(query, variable)) {
        return seg->eval_goal(query, variable, rng, mc);
      }
      return wlog::mc_eval_goal(bound, query, variable, rng, mc);
    };
    Scored scored;
    scored.feasible = true;
    for (const wlog::ConstraintSpec& cons : program.constraints) {
      switch (cons.kind) {
        case wlog::ConstraintSpec::Kind::kDeadline:
        case wlog::ConstraintSpec::Kind::kBudget: {
          const auto values = sample_values(cons.query, cons.variable);
          if (values.empty()) {
            scored.feasible = false;
            break;
          }
          scored.feasible = util::percentile(values, cons.quantile * 100.0) <=
                            cons.bound;
          break;
        }
        case wlog::ConstraintSpec::Kind::kCompare: {
          const auto values = sample_values(cons.query, cons.variable);
          if (values.empty()) {
            scored.feasible = false;
            break;
          }
          const double mean = util::mean(values);
          double rhs = 0;
          {
            const wlog::Database modal = bound.modal_world();
            wlog::Solver solver(modal, options_.exec);
            wlog::Bindings bindings;
            if (!solver.eval_arith(cons.cmp_rhs, bindings, rhs)) {
              scored.feasible = false;
              break;
            }
          }
          bool ok = true;
          if (cons.cmp_op == "=<") ok = mean <= rhs;
          if (cons.cmp_op == "<") ok = mean < rhs;
          if (cons.cmp_op == ">=") ok = mean >= rhs;
          if (cons.cmp_op == ">") ok = mean > rhs;
          scored.feasible = ok;
          break;
        }
        case wlog::ConstraintSpec::Kind::kHolds: {
          const auto mcres = eval_goal(cons.query, nullptr);
          scored.feasible = mcres.probability >= 0.5;
          break;
        }
      }
      if (!scored.feasible) break;
    }
    const auto goal = eval_goal(program.goal->query, program.goal->variable);
    scored.feasible = scored.feasible && goal.probability > 0;
    scored.objective = goal.value;
    return scored;
  };

  SearchCallbacks<std::vector<int>> cb;
  cb.hash = assignment_key;
  cb.expand = [k](const std::vector<int>& assignment, std::uint64_t key,
                  Expansion<std::vector<int>>& out) {
    expand_assignment(assignment, key, k, out);
  };
  cb.evaluate = [&](std::span<const std::vector<int>> states) {
    std::vector<Scored> out(states.size());
    for (std::size_t i = 0; i < states.size(); ++i) {
      out[i] = evaluate_state(states[i]);
    }
    return out;
  };

  SearchOptions sopt;
  sopt.max_states = options_.max_states;
  sopt.batch_size = options_.batch_size;
  sopt.minimize = program.goal->minimize;
  sopt.stale_wave_limit = options_.stale_wave_limit;
  sopt.budget = options_.budget;

  const std::vector<int> initial(n, 0);
  SearchResult<std::vector<int>> found;
  if (program.astar_enabled) {
    // f-scores run over their own database: the modal world, with the
    // state's decision facts layered per call.  One solver serves the whole search, so its compiled-clause
    // cache stays warm and only the decision predicate recompiles.  Clause
    // order matters only within a predicate; when the decision facts share
    // the group facts' predicate, the modal facts are layered after them on
    // every call, as in a modal world built from the bound IR.
    std::vector<wlog::TermPtr> modal_facts;
    bool shared_predicate = false;
    for (const wlog::ProbGroup& group : ir.groups()) {
      if (group.facts.empty()) continue;
      const auto modal = static_cast<std::size_t>(
          std::max_element(group.probs.begin(), group.probs.end()) -
          group.probs.begin());
      modal_facts.push_back(group.facts[modal]);
      shared_predicate =
          shared_predicate ||
          wlog::indicator(*modal_facts.back()) ==
              wlog::indicator(*decl.template_term);
    }
    wlog::Database scorer_db = ir.base();
    if (!shared_predicate) {
      for (const wlog::TermPtr& fact : modal_facts) scorer_db.add_fact(fact);
    }
    wlog::Solver scorer(scorer_db, options_.exec);
    scorer.set_budget(options_.budget);
    auto score_via = [&](const char* predicate,
                         const std::vector<int>& assignment) {
      const FactLayer layer(scorer_db);
      assert_state(scorer_db, assignment);
      if (shared_predicate) {
        for (const wlog::TermPtr& fact : modal_facts) {
          scorer_db.add_fact(fact);
        }
      }
      const auto solutions =
          scorer.query(std::string(predicate) + "(Score)", 1);
      if (solutions.empty()) return 0.0;
      return solutions[0].number("Score");
    };
    cb.g_score = [&](const std::vector<int>& a) {
      return score_via("cal_g_score", a);
    };
    cb.h_score = [&](const std::vector<int>& a) {
      return score_via("est_h_score", a);
    };
    sopt.monotone_objective = sopt.minimize;
    found = astar_search(initial, cb, sopt);
  } else {
    found = generic_search(initial, cb, sopt);
  }

  result.stats = found.stats;
  result.budget = found.budget;
  if (!found.best) {
    result.error = "no feasible solution found within the search budget";
    return result;
  }
  result.ok = true;
  result.assignment = *found.best;
  result.goal_value = found.best_score.objective;
  result.feasible = found.best_score.feasible;
  return result;
}

}  // namespace deco::core
