// Differential tests for the IR-to-segment translation: the segment
// evaluators must reproduce the Monte Carlo engines (interpreter oracle and
// bytecode VM) bit-for-bit — same RNG consumption, same per-world values,
// same failure worlds.
#include "core/wlog_segments.hpp"

#include <gtest/gtest.h>

#include "core/deco.hpp"
#include "core/wlog_bridge.hpp"
#include "tests/core/test_fixtures.hpp"
#include "wlog/problog.hpp"
#include "wlog/program.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::store;
using wlog::TermPtr;

std::string canonical_rules() {
  return R"(
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
}

std::string canonical_program() {
  return R"(
    goal minimize Ct in totalcost(Ct).
    cons T in maxtime(Path,T) satisfies deadline(90%, 100).
    var configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
  )" + canonical_rules();
}

TermPtr atom(const std::string& name) { return wlog::make_atom(name); }

TermPtr fact2(const std::string& f, const std::string& a, double v) {
  return wlog::make_compound(f, {atom(a), wlog::make_number(v)});
}

TermPtr fact3(const std::string& f, const std::string& a,
              const std::string& b, double v) {
  return wlog::make_compound(f, {atom(a), atom(b), wlog::make_number(v)});
}

/// Diamond workflow root -> t1 -> {t2, t3} -> tail with per-(task, vm)
/// exetime histograms as probabilistic groups.
wlog::ProbProgram diamond_ir(const wlog::Program& program) {
  wlog::ProbProgram ir = wlog::translate_rules(program);
  wlog::Database& base = ir.base();
  base.add_fact(wlog::make_compound("edge", {atom("root"), atom("t1")}));
  base.add_fact(wlog::make_compound("edge", {atom("t1"), atom("t2")}));
  base.add_fact(wlog::make_compound("edge", {atom("t1"), atom("t3")}));
  base.add_fact(wlog::make_compound("edge", {atom("t2"), atom("tail")}));
  base.add_fact(wlog::make_compound("edge", {atom("t3"), atom("tail")}));
  base.add_fact(fact2("price", "v0", 1.5));
  base.add_fact(fact2("price", "v1", 3.25));
  for (const char* vm : {"v0", "v1"}) {
    base.add_fact(fact3("exetime", "root", vm, 0));
    base.add_fact(fact3("exetime", "tail", vm, 0));
  }
  base.add_fact(fact3("configs", "root", "v0", 1));
  base.add_fact(fact3("configs", "tail", "v0", 1));
  double scale = 1.0;
  for (const char* task : {"t1", "t2", "t3"}) {
    for (const char* vm : {"v0", "v1"}) {
      wlog::ProbGroup group;
      group.probs = {0.25, 0.5, 0.25};
      group.facts = {fact3("exetime", task, vm, 8.5 * scale),
                     fact3("exetime", task, vm, 11.0 * scale),
                     fact3("exetime", task, vm, 17.25 * scale)};
      ir.add_group(std::move(group));
      scale *= 0.75;  // distinct, non-integral values per (task, vm)
    }
  }
  return ir;
}

/// The solver's two-generator binding: one configs fact per task.
wlog::ProbProgram bind_diamond(const wlog::ProbProgram& ir) {
  wlog::ProbProgram bound = ir;
  bound.base().add_fact(fact3("configs", "t1", "v0", 1));
  bound.base().add_fact(fact3("configs", "t2", "v1", 1));
  bound.base().add_fact(fact3("configs", "t3", "v0", 1));
  return bound;
}

TEST(WlogSegmentsTest, TranslationRecognizesCanonicalShapes) {
  const auto parsed = wlog::parse_program(canonical_program());
  ASSERT_TRUE(parsed.ok());
  const wlog::ProbProgram ir = diamond_ir(parsed.program);
  const SegmentPlan plan = SegmentPlan::translate(ir, parsed.program);
  ASSERT_TRUE(plan.any());
  ASSERT_TRUE(plan.sum().has_value());
  EXPECT_EQ(plan.sum()->functor, "totalcost");
  EXPECT_EQ(plan.sum()->price_f, "price");
  EXPECT_EQ(plan.sum()->exe_f, "exetime");
  EXPECT_EQ(plan.sum()->cfg_f, "configs");
  ASSERT_TRUE(plan.path().has_value());
  EXPECT_EQ(plan.path()->functor, "maxtime");
  EXPECT_EQ(plan.path()->source, "root");
  EXPECT_EQ(plan.path()->target, "tail");
  EXPECT_EQ(plan.group_functor(), "exetime");
}

TEST(WlogSegmentsTest, SampleValuesMatchBothEnginesBitForBit) {
  const auto parsed = wlog::parse_program(canonical_program());
  ASSERT_TRUE(parsed.ok());
  const wlog::ProbProgram ir = diamond_ir(parsed.program);
  const SegmentPlan plan = SegmentPlan::translate(ir, parsed.program);
  ASSERT_TRUE(plan.any());
  const wlog::ProbProgram bound = bind_diamond(ir);
  const SegmentState state(plan, bound);

  const wlog::ConstraintSpec& cons = parsed.program.constraints.at(0);
  ASSERT_TRUE(state.can_answer(cons.query, cons.variable));

  wlog::McOptions interp_mc;
  interp_mc.max_iterations = 40;
  interp_mc.exec = wlog::ExecMode::kInterp;
  wlog::McOptions vm_mc = interp_mc;
  vm_mc.exec = wlog::ExecMode::kVm;

  util::Rng r1(2026), r2(2026), r3(2026);
  const auto oracle =
      wlog::mc_sample_values(bound, cons.query, cons.variable, r1, interp_mc);
  const auto vm =
      wlog::mc_sample_values(bound, cons.query, cons.variable, r2, vm_mc);
  const auto segment = state.sample_values(cons.query, cons.variable, r3,
                                           vm_mc);
  ASSERT_EQ(oracle.size(), interp_mc.max_iterations);  // maxtime never fails
  EXPECT_EQ(oracle, vm);
  EXPECT_EQ(oracle, segment);  // bitwise: same worlds, same float order
}

TEST(WlogSegmentsTest, GoalEvalMatchesBothEnginesBitForBit) {
  const auto parsed = wlog::parse_program(canonical_program());
  ASSERT_TRUE(parsed.ok());
  const wlog::ProbProgram ir = diamond_ir(parsed.program);
  const SegmentPlan plan = SegmentPlan::translate(ir, parsed.program);
  ASSERT_TRUE(plan.any());
  const wlog::ProbProgram bound = bind_diamond(ir);
  const SegmentState state(plan, bound);

  const TermPtr query = parsed.program.goal->query;
  const TermPtr variable = parsed.program.goal->variable;
  ASSERT_TRUE(state.can_answer(query, variable));

  wlog::McOptions interp_mc;
  interp_mc.max_iterations = 40;
  interp_mc.exec = wlog::ExecMode::kInterp;
  wlog::McOptions vm_mc = interp_mc;
  vm_mc.exec = wlog::ExecMode::kVm;

  util::Rng r1(7), r2(7), r3(7);
  const auto oracle =
      wlog::mc_eval_goal(bound, query, variable, r1, interp_mc);
  const auto vm = wlog::mc_eval_goal(bound, query, variable, r2, vm_mc);
  const auto segment = state.eval_goal(query, variable, r3, vm_mc);
  EXPECT_EQ(oracle.probability, 1.0);
  EXPECT_EQ(oracle.value, vm.value);
  EXPECT_EQ(oracle.value, segment.value);
  EXPECT_EQ(oracle.probability, segment.probability);
}

TEST(WlogSegmentsTest, InfeasibleWorldsFailInBothPaths) {
  const auto parsed = wlog::parse_program(canonical_program());
  ASSERT_TRUE(parsed.ok());
  const wlog::ProbProgram ir = diamond_ir(parsed.program);
  const SegmentPlan plan = SegmentPlan::translate(ir, parsed.program);
  ASSERT_TRUE(plan.any());
  // t1 gets no configs fact: every root->tail path is blocked, so maxtime
  // has no proof in any world.
  wlog::ProbProgram bound = ir;
  bound.base().add_fact(fact3("configs", "t2", "v0", 1));
  bound.base().add_fact(fact3("configs", "t3", "v0", 1));
  const SegmentState state(plan, bound);

  const wlog::ConstraintSpec& cons = parsed.program.constraints.at(0);
  ASSERT_TRUE(state.can_answer(cons.query, cons.variable));
  wlog::McOptions mc;
  mc.max_iterations = 8;
  mc.exec = wlog::ExecMode::kInterp;
  util::Rng r1(5), r2(5);
  const auto oracle =
      wlog::mc_sample_values(bound, cons.query, cons.variable, r1, mc);
  const auto segment = state.sample_values(cons.query, cons.variable, r2, mc);
  EXPECT_TRUE(oracle.empty());
  EXPECT_TRUE(segment.empty());
}

TEST(WlogSegmentsTest, NonCanonicalShapesAreNotTranslated) {
  // A second totalcost clause breaks the single-clause shape; a cyclic
  // edge relation disables the path DP at state construction.
  const auto parsed = wlog::parse_program(canonical_program() +
                                          "\ntotalcost(0).\n");
  ASSERT_TRUE(parsed.ok());
  const wlog::ProbProgram ir = diamond_ir(parsed.program);
  const SegmentPlan plan = SegmentPlan::translate(ir, parsed.program);
  EXPECT_FALSE(plan.sum().has_value());
  ASSERT_TRUE(plan.path().has_value());

  wlog::ProbProgram cyclic = ir;
  cyclic.base().add_fact(
      wlog::make_compound("edge", {atom("t2"), atom("t1")}));
  const SegmentState state(plan, bind_diamond(cyclic));
  const wlog::ConstraintSpec& cons = parsed.program.constraints.at(0);
  EXPECT_FALSE(state.can_answer(cons.query, cons.variable));
}

TEST(WlogSegmentsTest, AmbiguousTimeSourceFallsBack) {
  const auto parsed = wlog::parse_program(canonical_program());
  ASSERT_TRUE(parsed.ok());
  const wlog::ProbProgram ir = diamond_ir(parsed.program);
  const SegmentPlan plan = SegmentPlan::translate(ir, parsed.program);
  ASSERT_TRUE(plan.any());
  // Two configured vms for t1: first-proof semantics would depend on
  // enumeration order, which the DP does not model — must refuse.
  wlog::ProbProgram bound = bind_diamond(ir);
  bound.base().add_fact(fact3("configs", "t1", "v1", 1));
  const SegmentState state(plan, bound);
  const wlog::ConstraintSpec& cons = parsed.program.constraints.at(0);
  EXPECT_FALSE(state.can_answer(cons.query, cons.variable));
  // The sum shape does not need the uniqueness guard and stays available.
  EXPECT_TRUE(
      state.can_answer(parsed.program.goal->query,
                       parsed.program.goal->variable));
}

/// The default engine (vm + segments) and the pre-VM pipeline (interpreter,
/// no segments) on the same program: same plan, same goal, same search.
void expect_engines_agree(const std::string& program) {
  util::Rng rng(3);
  const auto wf = workflow::make_pipeline(3, rng);
  DecoOptions oracle_opt;
  oracle_opt.backend = "serial";
  oracle_opt.wlog_max_states = 48;
  oracle_opt.wlog_mc_iterations = 16;
  oracle_opt.wlog_exec = "interp";
  oracle_opt.wlog_segments = false;
  DecoOptions fast_opt = oracle_opt;
  fast_opt.wlog_exec = "vm";
  fast_opt.wlog_segments = true;

  Deco oracle_engine(ec2(), store(), oracle_opt);
  Deco fast_engine(ec2(), store(), fast_opt);
  const auto oracle = oracle_engine.solve_program(program, wf);
  const auto fast = fast_engine.solve_program(program, wf);
  ASSERT_TRUE(oracle.ok) << oracle.error;
  ASSERT_TRUE(fast.ok) << fast.error;
  EXPECT_EQ(oracle.plan, fast.plan);
  EXPECT_EQ(oracle.goal_value, fast.goal_value);
  EXPECT_EQ(oracle.feasible, fast.feasible);
  EXPECT_EQ(oracle.stats.states_evaluated, fast.stats.states_evaluated);
  EXPECT_EQ(oracle.stats.states_pruned, fast.stats.states_pruned);
}

const char* kSchedulingHeader = R"(
    import(amazonec2).
    import(workflow).
    goal minimize Ct in totalcost(Ct).
    cons T in maxtime(Path,T) satisfies deadline(99%, 1000h).
    var configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
  )";

TEST(WlogSegmentsTest, DecoSolveMatchesInterpreterOracleExactly) {
  expect_engines_agree(kSchedulingHeader + canonical_rules());
}

TEST(WlogSegmentsTest, DecoAstarSolveMatchesInterpreterOracleExactly) {
  // The A* program's f-scores run in the engine on the modal world (one
  // scorer per solve) while the evaluation runs through the segments.
  expect_engines_agree(std::string(kSchedulingHeader) + R"(
    enabled(astar).
    cal_g_score(C) :- totalcost(C).
    est_h_score(0).
  )" + canonical_rules());
}

TEST(WlogSegmentsTest, LigoTotalCostSamplesMatchEngineBitForBit) {
  // A real-sized sum: LIGO-40 through the bridge, one mixed-type state, 48
  // worlds.  Every world's totalcost must round each T*(Up*Con) product
  // before adding it, as the engine does, never fusing the two.
  const auto parsed = wlog::parse_program(kSchedulingHeader + canonical_rules());
  ASSERT_TRUE(parsed.ok());
  util::Rng rng(40);
  const auto wf = workflow::make_workflow(workflow::AppType::kLigo, 40, rng);
  TaskTimeEstimator estimator(ec2(), store());
  WlogBridge bridge(wf, estimator);
  const wlog::ProbProgram ir = bridge.build_ir(parsed.program);
  const SegmentPlan plan = SegmentPlan::translate(ir, parsed.program);
  ASSERT_TRUE(plan.sum().has_value());
  sim::Plan placement = sim::Plan::uniform(wf.task_count(), 0);
  for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
    placement[t].vm_type = static_cast<cloud::TypeId>(t % ec2().type_count());
  }
  const wlog::ProbProgram bound = bridge.bind_plan(ir, placement);
  const SegmentState state(plan, bound);
  const TermPtr query = parsed.program.goal->query;
  const TermPtr variable = parsed.program.goal->variable;
  ASSERT_TRUE(state.can_answer(query, variable));

  wlog::McOptions mc;
  mc.max_iterations = 48;
  mc.exec = wlog::ExecMode::kVm;
  util::Rng r1(11), r2(11);
  const auto engine = wlog::mc_sample_values(bound, query, variable, r1, mc);
  const auto segment = state.sample_values(query, variable, r2, mc);
  ASSERT_EQ(engine.size(), mc.max_iterations);
  EXPECT_EQ(engine, segment);
}

}  // namespace
}  // namespace deco::core
