// Anytime solves of the scheduling problem under wall-clock and memory
// budgets: a generous budget changes nothing; an exhausted budget still
// returns a full-size plan with a valid evaluation on every paper workflow.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/scheduling.hpp"
#include "tests/core/test_fixtures.hpp"
#include "util/budget.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::store;

struct SchedEnv {
  workflow::Workflow wf;
  TaskTimeEstimator estimator;
  vgpu::VirtualGpuBackend backend;
  SchedulingProblem problem;

  explicit SchedEnv(workflow::Workflow w, EvalOptions eval = {})
      : wf(std::move(w)),
        estimator(ec2(), store()),
        backend(2),
        problem(wf, estimator, backend, eval) {}
};

std::vector<workflow::Workflow> paper_workflows() {
  util::Rng rng(2015);
  return {workflow::make_montage(1, rng), workflow::make_ligo(40, rng),
          workflow::make_epigenomics(40, rng),
          workflow::make_cybershake(40, rng)};
}

void expect_same_plan(const SchedulingResult& a, const SchedulingResult& b) {
  ASSERT_EQ(a.plan.size(), b.plan.size());
  for (std::size_t t = 0; t < a.plan.size(); ++t) {
    EXPECT_EQ(a.plan[t].vm_type, b.plan[t].vm_type) << "task " << t;
    EXPECT_EQ(a.plan[t].region, b.plan[t].region) << "task " << t;
  }
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.stats.states_evaluated, b.stats.states_evaluated);
  EXPECT_EQ(a.evaluation.mean_cost, b.evaluation.mean_cost);
}

TEST(SchedulingBudgetTest, GenerousBudgetIsBitIdentical) {
  util::Rng rng(7);
  SchedEnv plain_env(workflow::make_montage(1, rng));
  const ProbDeadline req{0.9, 1e7};
  const auto plain = plain_env.problem.solve(req);

  util::Rng rng2(7);
  SchedEnv budget_env(workflow::make_montage(1, rng2));
  util::SolveBudget spec;
  spec.wall_ms = 1e9;
  spec.max_bytes = std::size_t{1} << 40;
  util::BudgetTracker tracker(spec);
  SchedulingOptions options;
  options.search.budget = &tracker;
  const auto budgeted = budget_env.problem.solve(req, options);

  expect_same_plan(plain, budgeted);
  EXPECT_FALSE(budgeted.budget.budget_exhausted);
  EXPECT_EQ(budgeted.budget.trigger, util::BudgetTrigger::kNone);
}

TEST(SchedulingBudgetTest, PreFiredBudgetStillYieldsFullSizeValidPlan) {
  // The harshest cut: the budget is exhausted before the solve starts.  On
  // every paper workflow the result must still be a full-size plan with a
  // valid (unbudgeted) final evaluation — the all-cheapest/greedy anytime
  // floor — and the report must say the budget fired.
  for (auto& wf : paper_workflows()) {
    SchedEnv env(std::move(wf));
    util::SolveBudget spec;
    spec.wall_ms = 1e9;
    util::BudgetTracker tracker(spec);
    tracker.fire(util::BudgetTrigger::kCancel);
    SchedulingOptions options;
    options.search.budget = &tracker;
    const ProbDeadline req{0.9, 1e7};
    SchedulingResult r;
    ASSERT_NO_THROW(r = env.problem.solve(req, options)) << env.wf.name();
    EXPECT_EQ(r.plan.size(), env.wf.task_count()) << env.wf.name();
    EXPECT_TRUE(r.budget.budget_exhausted) << env.wf.name();
    EXPECT_GT(r.evaluation.mean_cost, 0.0) << env.wf.name();
    EXPECT_GT(r.evaluation.mean_makespan, 0.0) << env.wf.name();
  }
}

TEST(SchedulingBudgetTest, TinyWallBudgetYieldsAnytimePlanOnPaperWorkflows) {
  for (auto& wf : paper_workflows()) {
    SchedEnv env(std::move(wf));
    util::SolveBudget spec;
    spec.wall_ms = 0.5;  // fires almost immediately, mid-solve
    util::BudgetTracker tracker(spec);
    // Make sure the deadline has passed even on a machine fast enough to
    // finish the whole solve in under half a millisecond.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    SchedulingOptions options;
    options.search.budget = &tracker;
    const ProbDeadline req{0.9, 1e7};
    SchedulingResult r;
    ASSERT_NO_THROW(r = env.problem.solve(req, options)) << env.wf.name();
    EXPECT_EQ(r.plan.size(), env.wf.task_count()) << env.wf.name();
    EXPECT_TRUE(r.budget.budget_exhausted) << env.wf.name();
    EXPECT_NE(r.budget.trigger, util::BudgetTrigger::kNone) << env.wf.name();
    // The final single-plan evaluation always runs detached from the
    // budget, so the anytime plan carries real numbers.
    EXPECT_GT(r.evaluation.mean_cost, 0.0) << env.wf.name();
    EXPECT_GT(r.budget.elapsed_ms, 0.0) << env.wf.name();
  }
}

TEST(SchedulingBudgetTest, MemoryBudgetDegradesBeforeCutting) {
  // A small-but-livable memory cap: the evaluator's ladder (drop segments,
  // shrink visited) must keep the solve going — the solve completes and the
  // plan is full size whether or not the cap eventually fired.
  util::Rng rng(11);
  SchedEnv env(workflow::make_montage(1, rng));
  util::SolveBudget spec;
  spec.max_bytes = 256 * 1024;  // tight: forces evictions on montage
  util::BudgetTracker tracker(spec);
  SchedulingOptions options;
  options.search.budget = &tracker;
  const ProbDeadline req{0.9, 1e7};
  SchedulingResult r;
  ASSERT_NO_THROW(r = env.problem.solve(req, options));
  EXPECT_EQ(r.plan.size(), env.wf.task_count());
  EXPECT_GT(r.evaluation.mean_cost, 0.0);
}

TEST(SchedulingBudgetTest, SolveBudgetArmingIsScopedToTheCall) {
  // The evaluator borrows the budget only for the duration of solve(); a
  // later direct evaluation must run unbudgeted.
  util::Rng rng(13);
  SchedEnv env(workflow::make_montage(1, rng));
  util::SolveBudget spec;
  spec.wall_ms = 0.5;
  util::BudgetTracker tracker(spec);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  SchedulingOptions options;
  options.search.budget = &tracker;
  const ProbDeadline req{0.9, 1e7};
  const auto r = env.problem.solve(req, options);
  EXPECT_TRUE(r.budget.budget_exhausted);
  EXPECT_EQ(env.problem.evaluator().budget(), nullptr);
  ASSERT_NO_THROW(env.problem.evaluator().evaluate(r.plan, req));
}

}  // namespace
}  // namespace deco::core
