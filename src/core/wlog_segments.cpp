#include "core/wlog_segments.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/budget.hpp"

namespace deco::core {
namespace {

using wlog::Term;
using wlog::TermKind;
using wlog::TermPtr;

bool is_ground(const TermPtr& t) {
  if (t->kind == TermKind::kVar) return false;
  for (const TermPtr& a : t->args) {
    if (!is_ground(a)) return false;
  }
  return true;
}

bool ground_equal(const TermPtr& a, const TermPtr& b) {
  static const wlog::Bindings kNoBindings;
  return wlog::term_equal(a, b, kNoBindings);
}

bool call_shape(const TermPtr& t, std::string_view functor, std::size_t n) {
  return t && t->kind == TermKind::kCompound && t->text == functor &&
         t->args.size() == n;
}

bool numeric(const TermPtr& t) {
  return t->kind == TermKind::kInt || t->kind == TermKind::kFloat;
}

/// Pattern-variable environment enforcing a bijection: each role names
/// exactly one clause variable and vice versa (so e.g. the Vid read from
/// price/2 is provably the Vid joined into exetime/3).
struct Roles {
  std::unordered_map<std::string, std::int64_t> by_role;
  std::unordered_map<std::int64_t, std::string> by_id;

  bool var(const TermPtr& t, const std::string& role) {
    if (!t || t->kind != TermKind::kVar) return false;
    const auto r = by_role.find(role);
    const auto i = by_id.find(t->ival);
    if (r == by_role.end() && i == by_id.end()) {
      by_role.emplace(role, t->ival);
      by_id.emplace(t->ival, role);
      return true;
    }
    return r != by_role.end() && i != by_id.end() && r->second == t->ival &&
           i->second == role;
  }
};

/// Matches `f(Ct) :- findall(C, g(Tid,Vid,C), Bag), sum(Bag, Ct).` plus the
/// inner `g(Tid,Vid,C) :- price(Vid,Up), exe(Tid,Vid,T), cfg(Tid,Vid,Con),
/// C is T*Up*Con.`
std::optional<SumShape> match_sum_shape(const wlog::Database& db,
                                        const std::string& functor) {
  const auto& clauses = db.clauses_for(functor, 1);
  if (clauses.size() != 1) return std::nullopt;
  const wlog::Clause& c = clauses[0];
  if (!call_shape(c.head, functor, 1) || c.body.size() != 2) {
    return std::nullopt;
  }
  Roles r;
  if (!r.var(c.head->args[0], "Ct")) return std::nullopt;
  const TermPtr& fa = c.body[0];
  if (!call_shape(fa, "findall", 3)) return std::nullopt;
  if (!r.var(fa->args[0], "C")) return std::nullopt;
  const TermPtr& inner = fa->args[1];
  if (!inner || inner->kind != TermKind::kCompound ||
      inner->args.size() != 3) {
    return std::nullopt;
  }
  if (!r.var(inner->args[0], "Tid") || !r.var(inner->args[1], "Vid") ||
      !r.var(inner->args[2], "C")) {
    return std::nullopt;
  }
  if (!r.var(fa->args[2], "Bag")) return std::nullopt;
  const TermPtr& s = c.body[1];
  if (!call_shape(s, "sum", 2) || !r.var(s->args[0], "Bag") ||
      !r.var(s->args[1], "Ct")) {
    return std::nullopt;
  }

  const auto& inner_clauses = db.clauses_for(inner->text, 3);
  if (inner_clauses.size() != 1) return std::nullopt;
  const wlog::Clause& ic = inner_clauses[0];
  if (!call_shape(ic.head, inner->text, 3) || ic.body.size() != 4) {
    return std::nullopt;
  }
  Roles ir;
  if (!ir.var(ic.head->args[0], "Tid") || !ir.var(ic.head->args[1], "Vid") ||
      !ir.var(ic.head->args[2], "C")) {
    return std::nullopt;
  }
  const TermPtr& price = ic.body[0];
  if (!price || price->kind != TermKind::kCompound ||
      price->args.size() != 2 || !ir.var(price->args[0], "Vid") ||
      !ir.var(price->args[1], "Up")) {
    return std::nullopt;
  }
  const TermPtr& exe = ic.body[1];
  if (!exe || exe->kind != TermKind::kCompound || exe->args.size() != 3 ||
      !ir.var(exe->args[0], "Tid") || !ir.var(exe->args[1], "Vid") ||
      !ir.var(exe->args[2], "T")) {
    return std::nullopt;
  }
  const TermPtr& cfg = ic.body[2];
  if (!cfg || cfg->kind != TermKind::kCompound || cfg->args.size() != 3 ||
      !ir.var(cfg->args[0], "Tid") || !ir.var(cfg->args[1], "Vid") ||
      !ir.var(cfg->args[2], "Con")) {
    return std::nullopt;
  }
  // The parser's 400-level `*` is right-associative, so `C is T*Up*Con`
  // parses as *(T, *(Up, Con)) — the evaluator must multiply in exactly
  // that order to stay bit-identical with the interpreter.
  const TermPtr& is_goal = ic.body[3];
  if (!call_shape(is_goal, "is", 2) || !ir.var(is_goal->args[0], "C")) {
    return std::nullopt;
  }
  const TermPtr& outer_mul = is_goal->args[1];
  if (!call_shape(outer_mul, "*", 2) || !ir.var(outer_mul->args[0], "T")) {
    return std::nullopt;
  }
  const TermPtr& inner_mul = outer_mul->args[1];
  if (!call_shape(inner_mul, "*", 2) || !ir.var(inner_mul->args[0], "Up") ||
      !ir.var(inner_mul->args[1], "Con")) {
    return std::nullopt;
  }
  return SumShape{functor, price->text, exe->text, cfg->text};
}

/// Matches the non-recursive path clause
/// `path(X,Y,Y,Tp) :- edge(X,Y), exe(X,V,T), cfg(X,V,C), C == lit, Tp is T.`
/// Fills `shape`'s edge/exe/cfg functors and con literal.
bool match_path_base(const wlog::Clause& c, const std::string& path_f,
                     PathShape& shape) {
  if (!call_shape(c.head, path_f, 4) || c.body.size() != 5) return false;
  Roles r;
  if (!r.var(c.head->args[0], "X") || !r.var(c.head->args[1], "Y") ||
      !r.var(c.head->args[2], "Y") || !r.var(c.head->args[3], "Tp")) {
    return false;
  }
  const TermPtr& edge = c.body[0];
  if (!edge || edge->kind != TermKind::kCompound || edge->args.size() != 2 ||
      !r.var(edge->args[0], "X") || !r.var(edge->args[1], "Y")) {
    return false;
  }
  const TermPtr& exe = c.body[1];
  if (!exe || exe->kind != TermKind::kCompound || exe->args.size() != 3 ||
      !r.var(exe->args[0], "X") || !r.var(exe->args[1], "V") ||
      !r.var(exe->args[2], "T")) {
    return false;
  }
  const TermPtr& cfg = c.body[2];
  if (!cfg || cfg->kind != TermKind::kCompound || cfg->args.size() != 3 ||
      !r.var(cfg->args[0], "X") || !r.var(cfg->args[1], "V") ||
      !r.var(cfg->args[2], "Con")) {
    return false;
  }
  const TermPtr& eq = c.body[3];
  if (!call_shape(eq, "==", 2) || !r.var(eq->args[0], "Con") ||
      !is_ground(eq->args[1])) {
    return false;
  }
  const TermPtr& is_goal = c.body[4];
  if (!call_shape(is_goal, "is", 2) || !r.var(is_goal->args[0], "Tp") ||
      !r.var(is_goal->args[1], "T")) {
    return false;
  }
  shape.edge_f = edge->text;
  shape.exe_f = exe->text;
  shape.cfg_f = cfg->text;
  shape.con_lit = eq->args[1];
  return true;
}

/// Matches the recursive path clause `path(X,Y,Z,Tp) :- edge(X,Z), Z \== Y,
/// path(Z,Y,Z2,T1), exe(X,V,T), cfg(X,V,C), C == lit, Tp is T + T1.`
/// Functors and literal must agree with what the base clause captured.
bool match_path_step(const wlog::Clause& c, const std::string& path_f,
                     const PathShape& shape) {
  if (!call_shape(c.head, path_f, 4) || c.body.size() != 7) return false;
  Roles r;
  if (!r.var(c.head->args[0], "X") || !r.var(c.head->args[1], "Y") ||
      !r.var(c.head->args[2], "Z") || !r.var(c.head->args[3], "Tp")) {
    return false;
  }
  const TermPtr& edge = c.body[0];
  if (!call_shape(edge, shape.edge_f, 2) || !r.var(edge->args[0], "X") ||
      !r.var(edge->args[1], "Z")) {
    return false;
  }
  const TermPtr& neq = c.body[1];
  if (!call_shape(neq, "\\==", 2) || !r.var(neq->args[0], "Z") ||
      !r.var(neq->args[1], "Y")) {
    return false;
  }
  const TermPtr& rec = c.body[2];
  if (!call_shape(rec, path_f, 4) || !r.var(rec->args[0], "Z") ||
      !r.var(rec->args[1], "Y") || !r.var(rec->args[2], "Z2") ||
      !r.var(rec->args[3], "T1")) {
    return false;
  }
  const TermPtr& exe = c.body[3];
  if (!call_shape(exe, shape.exe_f, 3) || !r.var(exe->args[0], "X") ||
      !r.var(exe->args[1], "V") || !r.var(exe->args[2], "T")) {
    return false;
  }
  const TermPtr& cfg = c.body[4];
  if (!call_shape(cfg, shape.cfg_f, 3) || !r.var(cfg->args[0], "X") ||
      !r.var(cfg->args[1], "V") || !r.var(cfg->args[2], "Con")) {
    return false;
  }
  const TermPtr& eq = c.body[5];
  if (!call_shape(eq, "==", 2) || !r.var(eq->args[0], "Con") ||
      !eq->args[1] || !ground_equal(eq->args[1], shape.con_lit)) {
    return false;
  }
  const TermPtr& is_goal = c.body[6];
  if (!call_shape(is_goal, "is", 2) || !r.var(is_goal->args[0], "Tp")) {
    return false;
  }
  const TermPtr& add = is_goal->args[1];
  return call_shape(add, "+", 2) && r.var(add->args[0], "T") &&
         r.var(add->args[1], "T1");
}

/// Matches `f(P,T) :- setof([Z,T1], path(src,dst,Z,T1), S), max(S, [P,T]).`
std::optional<PathShape> match_path_shape(const wlog::Database& db,
                                          const std::string& functor) {
  const auto& clauses = db.clauses_for(functor, 2);
  if (clauses.size() != 1) return std::nullopt;
  const wlog::Clause& c = clauses[0];
  if (!call_shape(c.head, functor, 2) || c.body.size() != 2) {
    return std::nullopt;
  }
  Roles r;
  if (!r.var(c.head->args[0], "P") || !r.var(c.head->args[1], "T")) {
    return std::nullopt;
  }
  const TermPtr& so = c.body[0];
  if (!call_shape(so, "setof", 3)) return std::nullopt;
  const TermPtr& tmpl = so->args[0];  // [Z, T1]
  if (!tmpl || !tmpl->is_cons() || !r.var(tmpl->args[0], "Z") ||
      !tmpl->args[1]->is_cons() || !r.var(tmpl->args[1]->args[0], "T1") ||
      !tmpl->args[1]->args[1]->is_nil()) {
    return std::nullopt;
  }
  const TermPtr& goal = so->args[1];  // path(src, dst, Z, T1)
  if (!goal || goal->kind != TermKind::kCompound || goal->args.size() != 4 ||
      goal->args[0]->kind != TermKind::kAtom ||
      goal->args[1]->kind != TermKind::kAtom ||
      !r.var(goal->args[2], "Z") || !r.var(goal->args[3], "T1")) {
    return std::nullopt;
  }
  if (!r.var(so->args[2], "S")) return std::nullopt;
  const TermPtr& mx = c.body[1];  // max(S, [P, T])
  if (!call_shape(mx, "max", 2) || !r.var(mx->args[0], "S")) {
    return std::nullopt;
  }
  const TermPtr& pair = mx->args[1];
  if (!pair || !pair->is_cons() || !r.var(pair->args[0], "P") ||
      !pair->args[1]->is_cons() || !r.var(pair->args[1]->args[0], "T") ||
      !pair->args[1]->args[1]->is_nil()) {
    return std::nullopt;
  }

  PathShape shape;
  shape.functor = functor;
  shape.source = goal->args[0]->text;
  shape.target = goal->args[1]->text;
  const auto& path_clauses = db.clauses_for(goal->text, 4);
  if (path_clauses.size() != 2) return std::nullopt;
  // The base/step clauses may appear in either order; solution order does
  // not matter because setof sorts.
  if (match_path_base(path_clauses[0], goal->text, shape) &&
      match_path_step(path_clauses[1], goal->text, shape)) {
    return shape;
  }
  if (match_path_base(path_clauses[1], goal->text, shape) &&
      match_path_step(path_clauses[0], goal->text, shape)) {
    return shape;
  }
  return std::nullopt;
}

/// Parses one group's facts to homogeneous (task, vid, value) alternatives;
/// nullopt when the group cannot be represented (mixed keys, non-atoms).
std::optional<std::vector<SegmentAlt>> parse_group(
    const wlog::ProbGroup& group, std::string& functor) {
  std::vector<SegmentAlt> alts;
  alts.reserve(group.facts.size());
  for (const TermPtr& fact : group.facts) {
    if (!fact || fact->kind != TermKind::kCompound ||
        fact->args.size() != 3 || !is_ground(fact)) {
      return std::nullopt;
    }
    if (fact->args[0]->kind != TermKind::kAtom ||
        fact->args[1]->kind != TermKind::kAtom) {
      return std::nullopt;
    }
    if (functor.empty()) {
      functor = fact->text;
    } else if (functor != fact->text) {
      return std::nullopt;
    }
    if (!alts.empty() && (alts[0].task != fact->args[0]->text ||
                          alts[0].vid != fact->args[1]->text)) {
      return std::nullopt;  // alternatives must share one (task, vid) key
    }
    const TermPtr& value = fact->args[2];
    alts.push_back(SegmentAlt{
        fact->args[0]->text, fact->args[1]->text,
        numeric(value) ? std::optional<double>(value->number())
                       : std::nullopt});
  }
  return alts;
}

}  // namespace

SegmentPlan SegmentPlan::translate(const wlog::ProbProgram& ir,
                                   const wlog::Program& program) {
  SegmentPlan plan;

  // All probabilistic alternatives must be representable, or worlds cannot
  // be replayed outside the engine at all.
  std::string group_functor;
  std::vector<std::vector<SegmentAlt>> groups;
  groups.reserve(ir.groups().size());
  for (const wlog::ProbGroup& group : ir.groups()) {
    auto alts = parse_group(group, group_functor);
    if (!alts) return plan;
    groups.push_back(std::move(*alts));
  }

  // Candidate queries: the goal plus every constraint.
  std::vector<TermPtr> queries;
  if (program.goal) queries.push_back(program.goal->query);
  for (const wlog::ConstraintSpec& cons : program.constraints) {
    queries.push_back(cons.query);
  }
  for (const TermPtr& q : queries) {
    if (!q || q->kind != TermKind::kCompound) continue;
    if (q->args.size() == 1 && !plan.sum_) {
      plan.sum_ = match_sum_shape(ir.base(), q->text);
    } else if (q->args.size() == 2 && !plan.path_) {
      plan.path_ = match_path_shape(ir.base(), q->text);
    }
  }
  if (!plan.any()) return plan;
  plan.groups_ = std::move(groups);
  plan.prob_groups_ = ir.groups();
  plan.group_functor_ = group_functor;
  for (std::size_t g = 0; g < plan.groups_.size(); ++g) {
    if (!plan.groups_[g].empty()) {
      plan.groups_by_task_[plan.groups_[g][0].task].push_back(g);
    }
  }
  DECO_OBS_COUNTER_ADD("wlog.vm.segment_translations",
                       (plan.sum_ ? 1 : 0) + (plan.path_ ? 1 : 0));
  return plan;
}

const std::vector<std::size_t>& SegmentPlan::groups_of(
    const std::string& task) const {
  static const std::vector<std::size_t> kNone;
  const auto it = groups_by_task_.find(task);
  return it == groups_by_task_.end() ? kNone : it->second;
}

namespace {

/// Reads a fact-only predicate: every clause must be a bodiless compound of
/// the given arity.  Returns false (and the shape must be disabled) when
/// the predicate has rules.
bool read_facts(const wlog::Database& db, const std::string& functor,
                std::size_t arity, std::vector<TermPtr>& out) {
  for (const wlog::Clause& c : db.clauses_for(functor, arity)) {
    if (!c.body.empty() || !c.head ||
        c.head->kind != TermKind::kCompound || c.head->args.size() != arity) {
      return false;
    }
    out.push_back(c.head);
  }
  return true;
}

bool atom_args(const TermPtr& fact, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (fact->args[i]->kind != TermKind::kAtom) return false;
  }
  return true;
}

}  // namespace

SegmentState::SegmentState(const SegmentPlan& plan,
                           const wlog::ProbProgram& bound)
    : plan_(&plan) {
  if (plan.sum()) build_sum(bound.base());
  if (plan.path()) build_path(bound.base());
}

void SegmentState::build_sum(const wlog::Database& db) {
  const SumShape& shape = *plan_->sum();
  const std::string& group_f = plan_->group_functor();
  // A world-varying configs or price table cannot be replayed from the
  // static snapshot below (only the exetime table is layered per world).
  if (!group_f.empty() &&
      (group_f == shape.cfg_f || group_f == shape.price_f)) {
    return;
  }
  std::vector<TermPtr> prices;
  std::vector<TermPtr> exes;
  std::vector<TermPtr> cfgs;
  if (!read_facts(db, shape.price_f, 2, prices) ||
      !read_facts(db, shape.exe_f, 3, exes) ||
      !read_facts(db, shape.cfg_f, 3, cfgs)) {
    return;
  }
  for (const TermPtr& p : prices) {
    if (p->args[0]->kind != TermKind::kAtom) return;
  }
  for (const TermPtr& e : exes) {
    if (!atom_args(e, 2)) return;
  }
  std::unordered_map<std::string, std::vector<const Term*>> cfg_by_task;
  for (const TermPtr& c : cfgs) {
    if (!atom_args(c, 2)) return;
    cfg_by_task[c->args[0]->text].push_back(c.get());
  }

  // The interpreter enumerates cost/3 solutions as price x exetime x configs
  // in clause order, with the world's sampled facts appended after the
  // static ones.  Resolving the join here in that order leaves each world a
  // running sum over its chosen values, so the accumulated double is
  // bit-identical.
  const auto& groups = plan_->groups();
  auto add = [&](const TermPtr& price, const std::string& task,
                 const std::string& vid, std::size_t group,
                 const TermPtr& value) {
    if (vid != price->args[0]->text) return;
    const auto it = cfg_by_task.find(task);
    if (it == cfg_by_task.end()) return;
    for (const Term* c : it->second) {
      if (c->args[1]->text != vid) continue;
      const TermPtr& up = price->args[1];
      const TermPtr& con = c->args[2];
      if (!numeric(up) || !numeric(con)) continue;
      if (group == kStatic && !numeric(value)) continue;
      sum_terms_.push_back(
          SumTerm{group, group == kStatic ? value->number() : 0,
                  up->number() * con->number()});
      if (group != kStatic) sum_reads_[group] = 1;
    }
  };
  const bool layered = group_f == shape.exe_f;
  sum_reads_.assign(groups.size(), 0);
  for (const TermPtr& p : prices) {
    for (const TermPtr& e : exes) {
      add(p, e->args[0]->text, e->args[1]->text, kStatic, e->args[2]);
    }
    if (layered) {
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (!groups[g].empty()) {
          add(p, groups[g][0].task, groups[g][0].vid, g, nullptr);
        }
      }
    }
  }
  sum_ok_ = true;
}

void SegmentState::build_path(const wlog::Database& db) {
  const PathShape& shape = *plan_->path();
  const std::string& group_f = plan_->group_functor();
  if (!group_f.empty() && group_f == shape.cfg_f) return;

  std::vector<std::string> nodes;  // first-appearance order
  std::unordered_map<std::string, std::size_t> node_ids;
  std::vector<std::vector<std::size_t>> children;
  auto node_id = [&](const std::string& name) {
    const auto [it, inserted] = node_ids.try_emplace(name, nodes.size());
    if (inserted) {
      nodes.push_back(name);
      children.emplace_back();
    }
    return it->second;
  };
  std::vector<TermPtr> edges;
  if (!read_facts(db, shape.edge_f, 2, edges)) return;
  for (const TermPtr& f : edges) {
    if (!atom_args(f, 2)) return;
    const std::size_t from = node_id(f->args[0]->text);
    const std::size_t to = node_id(f->args[1]->text);
    children[from].push_back(to);
  }
  const std::size_t n = nodes.size();

  // The DP needs an acyclic edge relation (the interpreter would diverge
  // on a cyclic one anyway; refuse rather than guess).
  {
    std::vector<char> color(n, 0);  // 0 new, 1 open, 2 done
    for (std::size_t root = 0; root < n; ++root) {
      if (color[root] != 0) continue;
      std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
      color[root] = 1;
      while (!stack.empty()) {
        auto& [x, next] = stack.back();
        if (next < children[x].size()) {
          const std::size_t c = children[x][next++];
          if (color[c] == 1) return;  // cycle
          if (color[c] == 0) {
            color[c] = 1;
            stack.emplace_back(c, 0);
          }
        } else {
          color[x] = 2;
          stack.pop_back();
        }
      }
    }
  }

  // Resolve each node's time source: exactly one (vm, sample) pair may
  // time a task, or the first-proof value would depend on enumeration
  // order in ways the DP does not model.
  std::vector<TermPtr> cfg_facts;
  std::vector<TermPtr> exe_facts;
  if (!read_facts(db, shape.cfg_f, 3, cfg_facts) ||
      !read_facts(db, shape.exe_f, 3, exe_facts)) {
    return;
  }
  std::vector<std::vector<const std::string*>> vids(n);  // configured vms
  bool any_configured = false;
  if (n > 0) {
    for (const TermPtr& cf : cfg_facts) {
      if (!atom_args(cf, 2)) return;
      if (!ground_equal(cf->args[2], shape.con_lit)) continue;
      const auto it = node_ids.find(cf->args[0]->text);
      if (it == node_ids.end()) continue;
      vids[it->second].push_back(&cf->args[1]->text);
      any_configured = true;
    }
  }
  std::unordered_map<std::string, std::vector<const Term*>> exe_by_task;
  if (any_configured) {
    for (const TermPtr& ef : exe_facts) {
      if (!atom_args(ef, 2)) return;
      exe_by_task[ef->args[0]->text].push_back(ef.get());
    }
  }
  const auto& groups = plan_->groups();
  const bool layered = group_f == shape.exe_f;
  times_.assign(n, std::nullopt);
  for (std::size_t x = 0; x < n; ++x) {
    std::size_t candidates = 0;
    std::optional<TimeSrc> src;
    const auto exe_it = exe_by_task.find(nodes[x]);
    for (const std::string* vid : vids[x]) {
      if (exe_it != exe_by_task.end()) {
        for (const Term* ef : exe_it->second) {
          if (ef->args[1]->text != *vid) continue;
          ++candidates;
          if (numeric(ef->args[2])) {
            src = TimeSrc{false, ef->args[2]->number(), 0};
          }
        }
      }
      if (layered) {
        for (const std::size_t g : plan_->groups_of(nodes[x])) {
          if (groups[g][0].vid != *vid) continue;
          ++candidates;
          src = TimeSrc{true, 0, g};
        }
      }
    }
    if (candidates > 1) return;
    if (candidates == 1) times_[x] = src;
  }
  path_reads_.assign(groups.size(), 0);
  for (const std::optional<TimeSrc>& src : times_) {
    if (src && src->from_group) path_reads_[src->group] = 1;
  }

  is_target_.assign(n, 0);
  for (std::size_t x = 0; x < n; ++x) {
    is_target_[x] = nodes[x] == shape.target ? 1 : 0;
  }
  child_begin_.assign(n + 1, 0);
  for (std::size_t x = 0; x < n; ++x) {
    child_begin_[x + 1] = child_begin_[x] + children[x].size();
    children_.insert(children_.end(), children[x].begin(), children[x].end());
  }

  // Post-order from the source, never entering the target: every node is
  // placed after all of its non-target children.
  const auto src_it = node_ids.find(shape.source);
  if (src_it != node_ids.end()) {
    source_id_ = src_it->second;
    std::vector<char> state(n, 0);  // 0 new, 1 expanded, 2 placed
    std::vector<std::size_t> stack{*source_id_};
    while (!stack.empty()) {
      const std::size_t x = stack.back();
      if (state[x] == 0) {
        state[x] = 1;
        for (const std::size_t c : children[x]) {
          if (is_target_[c] == 0 && state[c] == 0) stack.push_back(c);
        }
        continue;
      }
      stack.pop_back();
      if (state[x] == 2) continue;
      state[x] = 2;
      order_.push_back(x);
    }
  }
  path_ok_ = true;
}

bool SegmentState::can_answer(const wlog::TermPtr& query,
                              const wlog::TermPtr& variable) const {
  if (!query || query->kind != TermKind::kCompound) return false;
  for (const TermPtr& a : query->args) {
    if (a->kind != TermKind::kVar) return false;
  }
  if (sum_ok_ && plan_->sum() && query->text == plan_->sum()->functor &&
      query->args.size() == 1) {
    return variable == nullptr ||
           (variable->kind == TermKind::kVar &&
            variable->ival == query->args[0]->ival);
  }
  if (path_ok_ && plan_->path() && query->text == plan_->path()->functor &&
      query->args.size() == 2 &&
      query->args[0]->ival != query->args[1]->ival) {
    return variable == nullptr ||
           (variable->kind == TermKind::kVar &&
            variable->ival == query->args[1]->ival);
  }
  return false;
}

double SegmentState::eval_sum(const std::vector<std::size_t>& chosen) const {
  const auto& groups = plan_->groups();
  double acc = 0;
  for (const SumTerm& term : sum_terms_) {
    double v = term.value;
    if (term.group != kStatic) {
      const std::optional<double>& alt =
          groups[term.group][chosen[term.group]].number;
      if (!alt) continue;
      v = *alt;
    }
    // Matches the clause's right-associated `T*(Up*Con)` exactly.
    acc += v * term.factor;
  }
  return acc;  // findall + sum always succeed (empty bag sums to 0)
}

std::optional<double> SegmentState::eval_path(
    const std::vector<std::size_t>& chosen,
    std::vector<std::optional<double>>& dp) const {
  if (!source_id_) return std::nullopt;
  const auto& groups = plan_->groups();
  // Longest source->target distance.  IEEE addition is monotone, so taking
  // the max over children before adding this node's time yields exactly the
  // per-path right-associated sums the interpreter computes.
  for (const std::size_t x : order_) {
    std::optional<double>& out = dp[x];
    out.reset();  // undefined unless this world times x and a child path
    const std::optional<TimeSrc>& src = times_[x];
    if (!src) continue;
    double t = src->value;
    if (src->from_group) {
      const std::optional<double>& alt =
          groups[src->group][chosen[src->group]].number;
      if (!alt) continue;
      t = *alt;
    }
    bool has = false;
    double best = 0;
    for (std::size_t i = child_begin_[x]; i < child_begin_[x + 1]; ++i) {
      const std::size_t c = children_[i];
      double cand = 0;  // direct edge: the base clause contributes time(x)
      if (is_target_[c] == 0) {
        if (!dp[c]) continue;
        cand = *dp[c];
      }
      if (!has || cand > best) {
        has = true;
        best = cand;
      }
    }
    if (has) out = t + best;
  }
  return dp[*source_id_];
}

template <typename PerWorld>
void SegmentState::for_each_world(const wlog::TermPtr& query, util::Rng& rng,
                                  const wlog::McOptions& options,
                                  PerWorld&& per_world) const {
  const auto& groups = plan_->groups();
  std::vector<std::size_t> chosen(groups.size(), 0);
  const bool sum = plan_->sum() && query->text == plan_->sum()->functor;
  const std::vector<char>& reads = sum ? sum_reads_ : path_reads_;
  std::vector<std::optional<double>> dp(sum ? 0 : times_.size());
  for (std::size_t i = 0; i < options.max_iterations; ++i) {
    if (options.budget != nullptr) options.budget->checkpoint();
    // Every non-empty group draws its uniform, as in the engine's worlds;
    // only the groups this query reads resolve it to an alternative.
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].empty()) continue;
      const double u = rng.uniform();
      if (reads[g] != 0) {
        chosen[g] = wlog::pick_alternative(plan_->prob_group(g), u);
      }
    }
    per_world(sum ? std::optional<double>(eval_sum(chosen))
                  : eval_path(chosen, dp));
  }
  DECO_OBS_COUNTER_ADD("wlog.vm.segment_worlds", options.max_iterations);
}

std::vector<double> SegmentState::sample_values(
    const wlog::TermPtr& query, const wlog::TermPtr& variable, util::Rng& rng,
    const wlog::McOptions& options) const {
  std::vector<double> values;
  values.reserve(options.max_iterations);
  for_each_world(query, rng, options, [&](std::optional<double> value) {
    if (value) values.push_back(variable != nullptr ? *value : 0);
  });
  return values;
}

wlog::McResult SegmentState::eval_goal(const wlog::TermPtr& query,
                                       const wlog::TermPtr& variable,
                                       util::Rng& rng,
                                       const wlog::McOptions& options) const {
  wlog::McResult result;
  result.iterations = options.max_iterations;
  double sum = 0;
  std::size_t proven = 0;
  for_each_world(query, rng, options, [&](std::optional<double> value) {
    if (!value) return;
    ++proven;
    sum += variable != nullptr ? *value : 0;
  });
  result.probability =
      static_cast<double>(proven) /
      static_cast<double>(std::max<std::size_t>(1, options.max_iterations));
  result.value = proven > 0 ? sum / static_cast<double>(proven) : 0;
  return result;
}

}  // namespace deco::core
