// Reference check for the per-state compilation of the segment evaluators.
// SegmentState resolves the sum join into a flat term list and the path DP
// into a fixed node order once per state; the reference below keeps the
// per-world evaluators those replaced — the sum re-runs the price x exetime
// x configs join by name in every world, the DP walks the edge relation by
// name — and both must agree bit for bit over random IRs and random worlds,
// including static exetime facts, non-numeric alternatives, tasks without a
// time source and configs flags other than 1.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/wlog_segments.hpp"
#include "wlog/problog.hpp"
#include "wlog/program.hpp"

namespace deco::core {
namespace {

using wlog::TermKind;
using wlog::TermPtr;

bool numeric(const TermPtr& t) {
  return t->kind == TermKind::kInt || t->kind == TermKind::kFloat;
}

std::vector<TermPtr> facts_of(const wlog::Database& db, const std::string& f,
                              std::size_t arity) {
  std::vector<TermPtr> out;
  for (const wlog::Clause& c : db.clauses_for(f, arity)) out.push_back(c.head);
  return out;
}

const wlog::Bindings kNoBindings;

/// The per-world evaluators as they were before the per-state compilation.
class ReferenceState {
 public:
  ReferenceState(const SegmentPlan& plan, const wlog::Database& db)
      : plan_(plan) {
    const SumShape& sum = *plan.sum();
    prices_ = facts_of(db, sum.price_f, 2);
    exe_static_ = facts_of(db, sum.exe_f, 3);
    cfgs_ = facts_of(db, sum.cfg_f, 3);

    const PathShape& path = *plan.path();
    for (const TermPtr& e : facts_of(db, path.edge_f, 2)) {
      const std::size_t from = node_id(e->args[0]->text);
      const std::size_t to = node_id(e->args[1]->text);
      children_[from].push_back(to);
    }
    times_.assign(nodes_.size(), std::nullopt);
    for (std::size_t x = 0; x < nodes_.size(); ++x) {
      std::size_t candidates = 0;
      std::optional<Time> src;
      for (const TermPtr& cf : cfgs_) {
        if (cf->args[0]->text != nodes_[x] ||
            !wlog::term_equal(cf->args[2], path.con_lit, kNoBindings)) {
          continue;
        }
        const std::string& vid = cf->args[1]->text;
        for (const TermPtr& ef : exe_static_) {
          if (ef->args[0]->text != nodes_[x] || ef->args[1]->text != vid) {
            continue;
          }
          ++candidates;
          if (numeric(ef->args[2])) src = Time{false, ef->args[2]->number(), 0};
        }
        const auto& groups = plan.groups();
        for (std::size_t g = 0; g < groups.size(); ++g) {
          if (groups[g].empty() || groups[g][0].task != nodes_[x] ||
              groups[g][0].vid != vid) {
            continue;
          }
          ++candidates;
          src = Time{true, 0, g};
        }
      }
      EXPECT_LE(candidates, 1u) << "the test IR must time each task once";
      if (candidates == 1) times_[x] = src;
    }
    const auto it = node_ids_.find(path.source);
    if (it != node_ids_.end()) source_id_ = it->second;
  }

  double sum(const std::vector<std::size_t>& chosen) const {
    const auto& groups = plan_.groups();
    double acc = 0;
    auto add_exe = [&](const TermPtr& p, const std::string& task,
                       const std::string& vid, std::optional<double> value) {
      if (vid != p->args[0]->text) return;
      for (const TermPtr& c : cfgs_) {
        if (c->args[0]->text != task || c->args[1]->text != vid) continue;
        if (!numeric(p->args[1]) || !value || !numeric(c->args[2])) {
          continue;
        }
        acc += *value * (p->args[1]->number() * c->args[2]->number());
      }
    };
    for (const TermPtr& p : prices_) {
      for (const TermPtr& e : exe_static_) {
        add_exe(p, e->args[0]->text, e->args[1]->text,
                numeric(e->args[2]) ? std::optional<double>(
                                          e->args[2]->number())
                                    : std::nullopt);
      }
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].empty()) continue;
        const SegmentAlt& alt = groups[g][chosen[g]];
        add_exe(p, alt.task, alt.vid, alt.number);
      }
    }
    return acc;
  }

  std::optional<double> path(const std::vector<std::size_t>& chosen) const {
    if (!source_id_) return std::nullopt;
    const std::string& target = plan_.path()->target;
    const auto& groups = plan_.groups();
    auto world_time = [&](std::size_t x) -> std::optional<double> {
      const std::optional<Time>& src = times_[x];
      if (!src) return std::nullopt;
      if (!src->from_group) return src->value;
      return groups[src->group][chosen[src->group]].number;
    };
    std::vector<std::optional<double>> dp(nodes_.size());
    std::vector<char> state(nodes_.size(), 0);
    std::vector<std::size_t> stack{*source_id_};
    while (!stack.empty()) {
      const std::size_t x = stack.back();
      if (state[x] == 0) {
        state[x] = 1;
        for (const std::size_t c : children_[x]) {
          if (nodes_[c] != target && state[c] == 0) stack.push_back(c);
        }
        continue;
      }
      stack.pop_back();
      if (state[x] == 2) continue;
      state[x] = 2;
      const std::optional<double> t = world_time(x);
      if (!t) continue;
      bool has = false;
      double best = 0;
      for (const std::size_t c : children_[x]) {
        double cand = 0;
        if (nodes_[c] == target) {
          cand = 0;
        } else if (dp[c]) {
          cand = *dp[c];
        } else {
          continue;
        }
        if (!has || cand > best) {
          has = true;
          best = cand;
        }
      }
      if (has) dp[x] = *t + best;
    }
    return dp[*source_id_];
  }

 private:
  struct Time {
    bool from_group = false;
    double value = 0;
    std::size_t group = 0;
  };

  std::size_t node_id(const std::string& name) {
    const auto [it, inserted] = node_ids_.try_emplace(name, nodes_.size());
    if (inserted) {
      nodes_.push_back(name);
      children_.emplace_back();
    }
    return it->second;
  }

  const SegmentPlan& plan_;
  std::vector<TermPtr> prices_;
  std::vector<TermPtr> exe_static_;
  std::vector<TermPtr> cfgs_;
  std::vector<std::string> nodes_;
  std::unordered_map<std::string, std::size_t> node_ids_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<std::optional<Time>> times_;
  std::optional<std::size_t> source_id_;
};

constexpr const char* kProgram = R"(
  goal minimize Ct in totalcost(Ct).
  cons T in maxtime(Path,T) satisfies deadline(90%, 100).
  var configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
  path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T),
      configs(X,Vid,Con), Con == 1, Tp is T.
  path(X,Y,Z,Tp) :- edge(X,Z), Z \== Y, path(Z,Y,Z2,T1),
      exetime(X,Vid,T), configs(X,Vid,Con), Con == 1, Tp is T+T1.
  maxtime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set),
      max(Set, [Path,T]).
  cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T),
      configs(Tid,Vid,Con), C is T*Up*Con.
  totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
)";

TermPtr atom(const std::string& name) { return wlog::make_atom(name); }

TermPtr fact3(const std::string& f, const std::string& a, const std::string& b,
              TermPtr v) {
  return wlog::make_compound(f, {atom(a), atom(b), std::move(v)});
}

/// A random DAG between root and tail, three priced vm types, and per
/// (task, vm) either a static exetime fact, a probabilistic group (some of
/// whose alternatives are not numbers), or no time at all.  The binding
/// configures one vm per task, with the flag sometimes other than 1, and
/// occasionally adds a second configs fact with flag 0 (counted by the sum,
/// ignored by the path).
wlog::ProbProgram random_bound_ir(const wlog::Program& program,
                                  util::Rng& rng) {
  wlog::ProbProgram ir = wlog::translate_rules(program);
  wlog::Database& base = ir.base();
  const std::size_t tasks = 4 + rng.below(9);
  const char* vms[] = {"v0", "v1", "v2"};
  auto task = [](std::size_t t) { return "t" + std::to_string(t); };
  for (std::size_t t = 0; t < tasks; ++t) {
    bool has_parent = false;
    for (std::size_t p = 0; p < t; ++p) {
      if (rng.uniform() < 0.3) {
        base.add_fact(wlog::make_compound("edge", {atom(task(p)),
                                                   atom(task(t))}));
        has_parent = true;
      }
    }
    if (!has_parent) {
      base.add_fact(wlog::make_compound("edge", {atom("root"), atom(task(t))}));
    }
    if (t + 1 == tasks || rng.uniform() < 0.3) {
      base.add_fact(wlog::make_compound("edge", {atom(task(t)), atom("tail")}));
    }
  }
  base.add_fact(wlog::make_compound("price", {atom("v0"), wlog::make_int(2)}));
  base.add_fact(
      wlog::make_compound("price", {atom("v1"), wlog::make_float(0.37)}));
  base.add_fact(
      wlog::make_compound("price", {atom("v2"), wlog::make_float(1.91)}));
  for (const char* vm : vms) {
    base.add_fact(fact3("exetime", "root", vm, wlog::make_int(0)));
    base.add_fact(fact3("exetime", "tail", vm, wlog::make_int(0)));
  }
  base.add_fact(fact3("configs", "root", "v0", wlog::make_int(1)));
  base.add_fact(fact3("configs", "tail", "v0", wlog::make_int(1)));
  for (std::size_t t = 0; t < tasks; ++t) {
    for (const char* vm : vms) {
      const double kind = rng.uniform();
      if (kind < 0.2) {
        base.add_fact(fact3("exetime", task(t), vm,
                            wlog::make_float(1 + 99 * rng.uniform())));
      } else if (kind < 0.95) {
        wlog::ProbGroup group;
        const std::size_t alts = 1 + rng.below(4);
        for (std::size_t a = 0; a < alts; ++a) {
          group.probs.push_back(1.0 / static_cast<double>(alts));
          group.facts.push_back(fact3(
              "exetime", task(t), vm,
              rng.uniform() < 0.1 ? atom("slow")
                                  : wlog::make_float(1 + 99 * rng.uniform())));
        }
        ir.add_group(std::move(group));
      }
    }
  }
  wlog::ProbProgram bound = ir;
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t vm = rng.below(3);
    const std::int64_t flag = rng.uniform() < 0.85 ? 1 : 3;
    bound.base().add_fact(fact3("configs", task(t), vms[vm],
                                wlog::make_int(flag)));
    if (rng.uniform() < 0.15) {
      bound.base().add_fact(
          fact3("configs", task(t), vms[(vm + 1) % 3], wlog::make_int(0)));
    }
  }
  return bound;
}

TEST(WlogSegmentsReferenceTest, CompiledSumAndPathMatchPerWorldJoinAndDp) {
  const auto parsed = wlog::parse_program(kProgram);
  ASSERT_TRUE(parsed.ok());
  const wlog::TermPtr& sum_q = parsed.program.goal->query;
  const wlog::TermPtr& sum_v = parsed.program.goal->variable;
  const wlog::ConstraintSpec& cons = parsed.program.constraints.at(0);
  std::size_t path_failures = 0;
  std::size_t path_values = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng gen(seed);
    const wlog::ProbProgram bound = random_bound_ir(parsed.program, gen);
    const SegmentPlan plan = SegmentPlan::translate(bound, parsed.program);
    ASSERT_TRUE(plan.sum() && plan.path());
    const SegmentState state(plan, bound);
    ASSERT_TRUE(state.can_answer(sum_q, sum_v)) << "seed " << seed;
    ASSERT_TRUE(state.can_answer(cons.query, cons.variable))
        << "seed " << seed;
    const ReferenceState ref(plan, bound.base());

    wlog::McOptions mc;
    mc.max_iterations = 64;
    util::Rng draw(seed * 7919);
    std::vector<double> want_sum;
    std::vector<double> want_path;
    std::vector<std::size_t> chosen(plan.groups().size(), 0);
    for (std::size_t world = 0; world < 2 * mc.max_iterations; ++world) {
      for (std::size_t g = 0; g < plan.groups().size(); ++g) {
        if (plan.groups()[g].empty()) continue;
        chosen[g] = wlog::pick_alternative(plan.prob_group(g), draw.uniform());
      }
      if (world < mc.max_iterations) {
        want_sum.push_back(ref.sum(chosen));
      } else if (const auto v = ref.path(chosen)) {
        want_path.push_back(*v);
      } else {
        ++path_failures;
      }
    }
    path_values += want_path.size();
    util::Rng rng(seed * 7919);
    EXPECT_EQ(state.sample_values(sum_q, sum_v, rng, mc), want_sum)
        << "seed " << seed;
    EXPECT_EQ(state.sample_values(cons.query, cons.variable, rng, mc),
              want_path)
        << "seed " << seed;
  }
  // The random IRs exercise both defined and undefined critical paths.
  EXPECT_GT(path_failures, 0u);
  EXPECT_GT(path_values, 0u);
}

}  // namespace
}  // namespace deco::core
