// Budget chaos pass: hammer the solver stack with randomized tiny
// wall-clock and memory budgets and assert the anytime contract holds at
// every point — no hang, no crash, no leak (the CI chaos job runs this
// under ASan with DECO_CHAOS=1), and always a full-size plan with a valid
// final evaluation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/scheduling.hpp"
#include "tests/core/test_fixtures.hpp"
#include "util/budget.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::store;

/// DECO_CHAOS=1 (the CI chaos job) runs the full randomized sweep; the
/// default developer run keeps a quick smoke-sized subset.
std::size_t chaos_points() {
  if (const char* env = std::getenv("DECO_CHAOS")) {
    if (std::string(env) != "0" && !std::string(env).empty()) return 120;
  }
  return 20;
}

workflow::Workflow random_small_workflow(util::Rng& rng) {
  switch (static_cast<int>(rng.uniform() * 4)) {
    case 0: {
      return workflow::make_montage(1, rng);
    }
    case 1: {
      return workflow::make_ligo(12 + static_cast<std::size_t>(
                                          rng.uniform() * 20),
                                 rng);
    }
    case 2: {
      return workflow::make_cybershake(12 + static_cast<std::size_t>(
                                                rng.uniform() * 20),
                                       rng);
    }
    default: {
      return workflow::make_pipeline(3 + static_cast<std::size_t>(
                                             rng.uniform() * 6),
                                     rng);
    }
  }
}

TEST(BudgetChaosTest, RandomTinyBudgetsNeverHangOrCrash) {
  util::Rng rng(20260808);
  const std::size_t points = chaos_points();
  std::size_t cut = 0;
  for (std::size_t i = 0; i < points; ++i) {
    workflow::Workflow wf = random_small_workflow(rng);
    TaskTimeEstimator estimator(ec2(), store());
    vgpu::VirtualGpuBackend backend(2);
    SchedulingProblem problem(wf, estimator, backend);

    util::SolveBudget spec;
    // Random point in the nasty corner: sub-5ms wall budgets, sometimes a
    // tiny memory cap, sometimes both, sometimes already expired.
    if (rng.uniform() < 0.8) spec.wall_ms = rng.uniform() * 5.0;
    if (rng.uniform() < 0.4) {
      spec.max_bytes = 1024 + static_cast<std::size_t>(
                                  rng.uniform() * 512.0 * 1024.0);
    }
    util::BudgetTracker tracker(spec);
    if (rng.uniform() < 0.2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SchedulingOptions options;
    options.search.budget = &tracker;
    options.use_astar = rng.uniform() < 0.3;
    const ProbDeadline req{0.9, 1e6 + rng.uniform() * 1e7};

    SchedulingResult r;
    ASSERT_NO_THROW(r = problem.solve(req, options))
        << "point " << i << " wf=" << wf.name();
    ASSERT_EQ(r.plan.size(), wf.task_count())
        << "point " << i << " wf=" << wf.name();
    EXPECT_GT(r.evaluation.mean_cost, 0.0)
        << "point " << i << " wf=" << wf.name();
    if (r.budget.budget_exhausted) {
      ++cut;
      EXPECT_NE(r.budget.trigger, util::BudgetTrigger::kNone) << "point " << i;
    }
  }
  // The sweep is only meaningful if a healthy share of points actually hit
  // their budget; with sub-5ms wall budgets on real solves that is a given.
  EXPECT_GT(cut, points / 4) << "chaos budgets were not tight enough";
}

TEST(BudgetChaosTest, RepeatedCancellationKeepsBackendReusable) {
  // One shared backend across many cancelled solves: the worker pool and
  // evaluator caches must come back clean every time.
  util::Rng rng(77);
  workflow::Workflow wf = workflow::make_montage(1, rng);
  TaskTimeEstimator estimator(ec2(), store());
  vgpu::VirtualGpuBackend backend(2);
  SchedulingProblem problem(wf, estimator, backend);
  const ProbDeadline req{0.9, 1e7};
  for (int i = 0; i < 8; ++i) {
    util::SolveBudget spec;
    spec.wall_ms = 1e9;
    util::BudgetTracker tracker(spec);
    tracker.fire(util::BudgetTrigger::kCancel);
    SchedulingOptions options;
    options.search.budget = &tracker;
    SchedulingResult r;
    ASSERT_NO_THROW(r = problem.solve(req, options)) << "iteration " << i;
    ASSERT_EQ(r.plan.size(), wf.task_count()) << "iteration " << i;
  }
  // And a final unbudgeted solve works exactly as if nothing happened.
  const auto clean = problem.solve(req);
  EXPECT_TRUE(clean.found);
}

}  // namespace
}  // namespace deco::core
