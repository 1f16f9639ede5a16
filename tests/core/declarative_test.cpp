// Tests for the generalized declarative solver and the WLog ensemble path.
#include "core/declarative.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/deco.hpp"
#include "tests/core/test_fixtures.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::store;

// A self-contained knapsack-ish program: 3 items with values and weights,
// boolean decision per item, weight budget.
constexpr const char* kKnapsack = R"(
  item(a). item(b). item(c).
  value(a, 10). value(b, 6). value(c, 5).
  weight(a, 8). weight(b, 5). weight(c, 4).

  goal maximize V in totalvalue(V).
  cons W in totalweight(W) satisfies W =< 9.
  var take(I, Flag) forall item(I).

  totalvalue(V) :- findall(X, (take(I,1), value(I,X)), Bag), sum(Bag, V).
  totalweight(W) :- findall(X, (take(I,1), weight(I,X)), Bag), sum(Bag, W).
)";

DeclarativeResult solve_text(const char* text, std::size_t max_states = 64) {
  const auto parsed = wlog::parse_program(text);
  EXPECT_TRUE(parsed.ok()) << (parsed.error ? parsed.error->message : "");
  const wlog::ProbProgram ir = wlog::translate_rules(parsed.program);
  DeclarativeOptions opt;
  opt.max_states = max_states;
  opt.mc_iterations = 8;  // deterministic program: 1 iteration would do
  DeclarativeSolver solver(opt);
  return solver.solve(parsed.program, ir);
}

TEST(DeclarativeSolverTest, SolvesBooleanKnapsack) {
  const auto r = solve_text(kKnapsack);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.feasible);
  // Optimum under weight 9: {b, c} with value 11 (a alone is 10).
  EXPECT_DOUBLE_EQ(r.goal_value, 11.0);
  ASSERT_EQ(r.assignment.size(), 3u);
  EXPECT_EQ(r.assignment[0], 0);  // a
  EXPECT_EQ(r.assignment[1], 1);  // b
  EXPECT_EQ(r.assignment[2], 1);  // c
  EXPECT_EQ(r.choices, (std::vector<std::string>{"0", "1"}));
}

TEST(DeclarativeSolverTest, EntitiesReportGeneratorKeys) {
  const auto r = solve_text(kKnapsack);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.entities.size(), 3u);
  EXPECT_EQ(r.entities[0], "item(a)");
}

TEST(DeclarativeSolverTest, TwoGeneratorChoiceForm) {
  // Assign each job one machine minimizing total cost; machine m2 is
  // cheaper for j1, m1 for j2.
  const char* text = R"(
    job(j1). job(j2). machine(m1). machine(m2).
    rate(j1, m1, 10). rate(j1, m2, 3).
    rate(j2, m1, 2). rate(j2, m2, 9).
    goal minimize C in totalcost(C).
    var assign(J, M, Flag) forall job(J) and machine(M).
    totalcost(C) :- findall(X, (assign(J,M,1), rate(J,M,X)), Bag),
        sum(Bag, C).
  )";
  const auto r = solve_text(text);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.goal_value, 5.0);
  ASSERT_EQ(r.assignment.size(), 2u);
  EXPECT_EQ(r.assignment[0], 1);  // j1 -> m2
  EXPECT_EQ(r.assignment[1], 0);  // j2 -> m1
}

TEST(DeclarativeSolverTest, HoldsConstraintFiltersStates) {
  const char* text = R"(
    item(a). item(b).
    value(a, 5). value(b, 3).
    forbidden(a).
    goal maximize V in totalvalue(V).
    cons forall(take(I,1), \+ forbidden(I)).
    var take(I, Flag) forall item(I).
    totalvalue(V) :- findall(X, (take(I,1), value(I,X)), Bag), sum(Bag, V).
  )";
  const auto r = solve_text(text);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.goal_value, 3.0);  // only b is allowed
  EXPECT_EQ(r.assignment[0], 0);
  EXPECT_EQ(r.assignment[1], 1);
}

TEST(DeclarativeSolverTest, MissingGeneratorFactsIsError) {
  const char* text = R"(
    goal maximize V in v(V).
    var take(I, F) forall item(I).
    v(0).
  )";
  const auto r = solve_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("generator"), std::string::npos);
}

TEST(DeclarativeSolverTest, ThreeGeneratorsRejected) {
  const char* text = R"(
    a(x). b(y). c(z).
    goal maximize V in v(V).
    var t(A,B,C,F) forall a(A) and b(B) and c(C).
    v(0).
  )";
  const auto r = solve_text(text);
  EXPECT_FALSE(r.ok);
}

TEST(DeclarativeSolverTest, OversizedGeneratorIsErrorNotTruncation) {
  // More than 4096 solutions used to be cut off silently, so the search ran
  // over a truncated entity or choice set.
  std::string items;
  for (int i = 0; i <= 4096; ++i) items += "item(i" + std::to_string(i) + "). ";
  const std::string entities = items + R"(
    goal maximize V in v(V).
    var take(I, F) forall item(I).
    v(0).
  )";
  const auto r = solve_text(entities.c_str());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("first generator has more than 4096 solutions"),
            std::string::npos)
      << r.error;

  const std::string choices = items + R"(
    job(j).
    goal maximize V in v(V).
    var assign(J, I, F) forall job(J) and item(I).
    v(0).
  )";
  const auto c = solve_text(choices.c_str(), 4);
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.error.find("second generator has more than 4096 solutions"),
            std::string::npos)
      << c.error;

  // Exactly the cap is still accepted.
  std::string capped;
  for (int i = 0; i < 4096; ++i) capped += "item(i" + std::to_string(i) + "). ";
  capped += R"(
    job(j).
    goal maximize V in v(V).
    var assign(J, I, F) forall job(J) and item(I).
    v(0).
  )";
  const auto ok = solve_text(capped.c_str(), 4);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.choices.size(), 4096u);
}

// A* f-scores run over the modal world with the state's decision facts
// layered per call.  When the decision facts share the group facts'
// predicate, clause order inside that predicate decides what the scores
// see: the decision facts must come first, then the modal alternatives, as
// in a modal world built from the state's bound IR.
TEST(DeclarativeSolverTest, AstarScoresSeeDecisionFactsBeforeSharedModalFacts) {
  const char* text = R"(
    item(a). item(b).
    weight(a, 1). weight(b, 2). weight(z, 0).
    goal minimize C in total(C).
    cons some_taken.
    var on(I, Flag) forall item(I).
    enabled(astar).
    cal_g_score(G) :- on(I, 1), weight(I, G).
    est_h_score(0).
    some_taken :- on(a, 1).
    some_taken :- on(b, 1).
    total(C) :- findall(W, (on(I, 1), weight(I, W)), L), sum(L, C).
  )";
  const auto parsed = wlog::parse_program(text);
  ASSERT_TRUE(parsed.ok()) << (parsed.error ? parsed.error->message : "");
  wlog::ProbProgram ir = wlog::translate_rules(parsed.program);
  // z is not a decision entity: its on/2 fact is probabilistic, modal on.
  wlog::ProbGroup group;
  group.probs = {0.8, 0.2};
  group.facts = {
      wlog::make_compound("on", {wlog::make_atom("z"), wlog::make_int(1)}),
      wlog::make_compound("on", {wlog::make_atom("z"), wlog::make_int(0)})};
  ir.add_group(std::move(group));

  DeclarativeOptions opt;
  opt.mc_iterations = 8;
  opt.batch_size = 1;
  for (const wlog::ExecMode exec : {wlog::ExecMode::kVm,
                                    wlog::ExecMode::kInterp}) {
    opt.exec = exec;
    const DeclarativeResult r = DeclarativeSolver(opt).solve(parsed.program,
                                                             ir);
    ASSERT_TRUE(r.ok) << r.error;
    // g(a taken) = 1 and g(b taken) = 2 come from the decision facts; had
    // the modal on(z, 1) come first, every g would read weight(z) = 0 and
    // nothing would be pruned (four states evaluated instead of two).
    EXPECT_EQ(r.assignment, (std::vector<int>{1, 0}));
    EXPECT_DOUBLE_EQ(r.goal_value, 1.0);
    EXPECT_EQ(r.stats.states_evaluated, 2u);
    EXPECT_EQ(r.stats.states_pruned, 2u);
  }
}

constexpr const char* kAstarKnapsack = R"(
  item(a). item(b). item(c).
  value(a, 10). value(b, 6). value(c, 5).
  weight(a, 8). weight(b, 5). weight(c, 4).
  goal maximize V in totalvalue(V).
  cons W in totalweight(W) satisfies W =< 9.
  var take(I, Flag) forall item(I).
  enabled(astar).
  cal_g_score(G) :- totalvalue(G).
  est_h_score(H) :- findall(X, (take(I,0), value(I,X)), Bag), sum(Bag, H).
  totalvalue(V) :- findall(X, (take(I,1), value(I,X)), Bag), sum(Bag, V).
  totalweight(W) :- findall(X, (take(I,1), weight(I,X)), Bag), sum(Bag, W).
)";

TEST(DeclarativeSolverTest, PipelinedAstarSolveIsRepeatable) {
  // The f-scores layer decision facts on their own database and solver,
  // separate from the evaluation's IR copy, and both persist across the
  // search; repeated solves must agree exactly.
  const auto first = solve_text(kAstarKnapsack);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_DOUBLE_EQ(first.goal_value, 11.0);
  EXPECT_EQ(first.assignment, (std::vector<int>{0, 1, 1}));
  for (int i = 0; i < 3; ++i) {
    const auto again = solve_text(kAstarKnapsack);
    EXPECT_EQ(again.assignment, first.assignment);
    EXPECT_EQ(again.goal_value, first.goal_value);
    EXPECT_EQ(again.stats.states_evaluated, first.stats.states_evaluated);
    EXPECT_EQ(again.stats.states_pruned, first.stats.states_pruned);
  }
}

TEST(DeclarativeSolverTest, BudgetCutDuringScoringKeepsIncumbent) {
  // States with two or more items spin in est_h_score until the wall-clock
  // budget fires inside the scoring query; the solve must come back as an
  // anytime result with the incumbent of the waves already committed.
  const char* text = R"(
    item(a). item(b). item(c).
    value(a, 10). value(b, 6). value(c, 5).
    goal maximize V in totalvalue(V).
    var take(I, Flag) forall item(I).
    enabled(astar).
    cal_g_score(100).
    est_h_score(0) :- findall(F, take(I, F), L), sum(L, S), S < 2.
    est_h_score(0) :- spin.
    spin :- spin.
    totalvalue(V) :- findall(X, (take(I,1), value(I,X)), Bag), sum(Bag, V).
  )";
  const auto parsed = wlog::parse_program(text);
  ASSERT_TRUE(parsed.ok()) << (parsed.error ? parsed.error->message : "");
  const wlog::ProbProgram ir = wlog::translate_rules(parsed.program);
  util::SolveBudget spec;
  spec.wall_ms = 100;
  util::BudgetTracker tracker(spec);
  DeclarativeOptions opt;
  opt.mc_iterations = 8;
  opt.budget = &tracker;
  DeclarativeResult r;
  ASSERT_NO_THROW(r = DeclarativeSolver(opt).solve(parsed.program, ir));
  EXPECT_TRUE(r.budget.budget_exhausted);
  EXPECT_EQ(r.budget.trigger, util::BudgetTrigger::kWallClock);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(r.stats.states_evaluated, 1u);
  // Only states with fewer than two items are ever scored to completion.
  int taken = 0;
  for (const int a : r.assignment) taken += a;
  EXPECT_LT(taken, 2);
}

// --- the WLog ensemble path through the engine -----------------------------

workflow::Ensemble tiny_ensemble() {
  util::Rng rng(17);
  workflow::EnsembleOptions opt;
  opt.app = workflow::AppType::kLigo;
  opt.type = workflow::EnsembleType::kConstant;
  opt.num_workflows = 4;
  opt.sizes = {20};
  workflow::Ensemble e = workflow::make_ensemble(opt, rng);
  for (auto& m : e.members) {
    m.deadline_s = 3 * 3600;
    m.deadline_q = 90;
  }
  return e;
}

std::string ensemble_program(double budget) {
  return R"(
    import(amazonec2).
    import(ensemble).
    goal maximize S in totalscore(S).
    cons C in totalcost(C) satisfies budget(100%, )" +
         std::to_string(budget) + R"().
    cons forall(execute(W,1), deadline_ok(W)).
    var execute(W, Run) forall wkf(W).

    score(W, V) :- priority(W, P), V is pow(2, -P).
    totalscore(S) :- findall(V, (execute(W,1), score(W,V)), Bag),
        sum(Bag, S).
    totalcost(C) :- findall(V, (execute(W,1), wfcost(W,V)), Bag),
        sum(Bag, C).
  )";
}

TEST(WlogEnsembleTest, GenerousBudgetAdmitsEverything) {
  auto e = tiny_ensemble();
  e.budget = 1e9;
  core::DecoOptions opt;
  opt.backend = "serial";
  opt.wlog_max_states = 64;
  Deco engine(ec2(), store(), opt);
  const auto r = engine.solve_ensemble_program(ensemble_program(1e9), e);
  ASSERT_TRUE(r.ok) << r.error;
  for (bool a : r.admitted) EXPECT_TRUE(a);
  EXPECT_NEAR(r.goal_value, e.max_score(), 1e-9);
}

TEST(WlogEnsembleTest, ZeroBudgetAdmitsNothing) {
  auto e = tiny_ensemble();
  e.budget = 0;
  core::DecoOptions opt;
  opt.backend = "serial";
  Deco engine(ec2(), store(), opt);
  const auto r = engine.solve_ensemble_program(ensemble_program(0), e);
  ASSERT_TRUE(r.ok) << r.error;
  for (bool a : r.admitted) EXPECT_FALSE(a);
  EXPECT_DOUBLE_EQ(r.goal_value, 0.0);
}

TEST(WlogEnsembleTest, MatchesNativePlannerScore) {
  auto e = tiny_ensemble();
  core::DecoOptions opt;
  opt.backend = "serial";
  opt.wlog_max_states = 64;
  Deco engine(ec2(), store(), opt);

  // Probe: per-member cost from the native planner.
  auto probe = e;
  probe.budget = 1e9;
  EnsemblePlanOptions popt;
  const auto full = engine.plan_ensemble(probe, popt);
  double budget = 0;
  for (double c : full.member_costs) budget += c;
  budget *= 0.6;
  e.budget = budget;

  const auto declarative =
      engine.solve_ensemble_program(ensemble_program(budget), e);
  ASSERT_TRUE(declarative.ok) << declarative.error;
  const auto native = engine.plan_ensemble(e, popt);
  EXPECT_NEAR(declarative.goal_value, native.score, 0.26);
}

TEST(WlogEnsembleTest, MemberPlansMatchNativePlanner) {
  // Both paths take their per-member plans from one solve loop, so with a
  // budget that admits everyone the plans and costs agree bit for bit.
  auto e = tiny_ensemble();
  e.budget = 1e9;
  core::DecoOptions opt;
  opt.backend = "serial";
  opt.wlog_max_states = 64;
  Deco engine(ec2(), store(), opt);
  const auto declarative =
      engine.solve_ensemble_program(ensemble_program(1e9), e);
  ASSERT_TRUE(declarative.ok) << declarative.error;
  const auto native = engine.plan_ensemble(e);
  const auto hex = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return std::string(buf);
  };
  ASSERT_EQ(declarative.plans.size(), e.members.size());
  ASSERT_EQ(declarative.member_costs.size(), e.members.size());
  for (std::size_t i = 0; i < e.members.size(); ++i) {
    ASSERT_TRUE(native.admitted[i]) << "member " << i;
    EXPECT_GT(native.plans[i].size(), 0u) << "member " << i;
    EXPECT_EQ(declarative.plans[i], native.plans[i]) << "member " << i;
    EXPECT_EQ(hex(declarative.member_costs[i]), hex(native.member_costs[i]))
        << "member " << i;
  }
}

// --- use case 3 declaratively: follow-the-cost over migration facts -------

TEST(WlogMigrationTest, ChoosesCheapestFeasibleRegions) {
  util::Rng rng(31);
  const auto wf = workflow::make_pipeline(8, rng);
  TaskTimeEstimator estimator(ec2(), store());
  MigrationOptimizer optimizer(ec2(), estimator);

  // One workflow in the pricey region (free to move), one pinned by a huge
  // frontier payload.
  std::vector<MigrationWorkflowState> states;
  for (int i = 0; i < 2; ++i) {
    MigrationWorkflowState s;
    s.wf = &wf;
    s.finished.assign(wf.task_count(), false);
    s.region = 1;
    s.vm_type = 1;
    s.deadline_s = 1e7;
    states.push_back(std::move(s));
  }
  states[1].finished[0] = true;  // its frontier edge must cross regions

  const char* text = R"(
    goal minimize C in totalcost(C).
    cons forall(migrate(W,R,1), region_ok(W,R)).
    var migrate(W, R, Go) forall wkf(W) and region(R).
    cost(W, R, C) :- exec_cost(W,R,E), migr_cost(W,R,M), C is E+M.
    totalcost(C) :- findall(X, (migrate(W,R,1), cost(W,R,X)), Bag),
        sum(Bag, C).
  )";
  const auto parsed = wlog::parse_program(text);
  ASSERT_TRUE(parsed.ok());
  const auto ir =
      build_migration_ir(parsed.program, ec2(), optimizer, states);

  DeclarativeOptions opt;
  opt.max_states = 32;
  opt.mc_iterations = 4;
  DeclarativeSolver solver(opt);
  const auto r = solver.solve(parsed.program, ir);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.assignment.size(), 2u);
  // Workflow 0 moves to the cheap region (index 0 = r0).
  EXPECT_EQ(r.choices[static_cast<std::size_t>(r.assignment[0])], "region(r0)");
  // The declarative answer matches the native optimizer.
  const auto native = optimizer.optimize(states);
  EXPECT_EQ(static_cast<std::size_t>(r.assignment[0]), native.targets[0]);
  EXPECT_EQ(static_cast<std::size_t>(r.assignment[1]), native.targets[1]);
}

TEST(WlogEnsembleTest, ParseErrorReported) {
  auto e = tiny_ensemble();
  core::DecoOptions opt;
  opt.backend = "serial";
  Deco engine(ec2(), store(), opt);
  const auto r = engine.solve_ensemble_program("goal maximize", e);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("parse error"), std::string::npos);
}

}  // namespace
}  // namespace deco::core
