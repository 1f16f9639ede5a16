// Screened solves score the greedy chain's end (every task on the top type)
// first.  When even that plan fails the screen, the solve skips the screened
// pass and returns the full-MC solve's answer bit for bit; when it passes,
// the solve runs as before.  A budget that fires inside that first screen
// leaves the solve on the screened path, cut the usual way, and an exception
// escaping the full-MC re-solve leaves the evaluator in its own mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/scheduling.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "tests/core/test_fixtures.hpp"
#include "util/budget.hpp"
#include "vgpu/device.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::medium_deadline;
using testing::store;

/// The workflows of the evaluator fingerprint test, generated in its order.
struct PaperWorkflows {
  workflow::Workflow montage;
  workflow::Workflow cybershake;
};

PaperWorkflows paper_workflows() {
  util::Rng rng(2015);
  workflow::Workflow montage = workflow::make_montage_by_width(8, rng);
  workflow::Workflow cybershake = workflow::make_cybershake(40, rng);
  return {std::move(montage), std::move(cybershake)};
}

/// One solve with the fingerprint test's options, and the search counters
/// it left in the metrics registry.
struct Solve {
  SchedulingResult result;
  std::uint64_t skips = 0;
  std::uint64_t fallbacks = 0;
};

Solve solve(const workflow::Workflow& wf, EstimatorMode mode,
            vgpu::ComputeBackend& backend,
            util::BudgetTracker* budget = nullptr) {
  TaskTimeEstimator estimator(ec2(), store());
  EvalOptions opt;
  opt.mc_iterations = 400;
  opt.estimator = mode;
  SchedulingProblem problem(wf, estimator, backend, opt);
  SchedulingOptions sopt;
  sopt.search.max_states = 64;
  sopt.search.budget = budget;

  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.set_enabled(true);
  Solve out;
  out.result = problem.solve({0.9, medium_deadline(wf)}, sopt);
  const auto counters = registry.snapshot().counters;
  registry.set_enabled(false);
  registry.reset();
  const auto count = [&counters](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  out.skips = count("search.screen_skips");
  out.fallbacks = count("search.screen_fallbacks");
  // The mode switch around the re-solve is scoped.
  EXPECT_EQ(problem.evaluator().options().estimator, mode);
  return out;
}

void expect_same_answer(const SchedulingResult& a, const SchedulingResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.plan, b.plan) << what;
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.evaluation.mean_cost, b.evaluation.mean_cost) << what;
  EXPECT_EQ(a.evaluation.mean_makespan, b.evaluation.mean_makespan) << what;
  EXPECT_EQ(a.evaluation.makespan_quantile, b.evaluation.makespan_quantile)
      << what;
  EXPECT_EQ(a.evaluation.deadline_prob, b.evaluation.deadline_prob) << what;
  EXPECT_EQ(a.evaluation.feasible, b.evaluation.feasible) << what;
}

TEST(ChainEndScreenTest, FailedChainEndReturnsTheMcSolve) {
  const workflow::Workflow wf = paper_workflows().cybershake;
  vgpu::SerialBackend serial;
  const Solve mc = solve(wf, EstimatorMode::kMc, serial);
  ASSERT_TRUE(mc.result.found);
  EXPECT_EQ(mc.skips, 0u);
  EXPECT_EQ(mc.fallbacks, 0u);
  for (const EstimatorMode mode :
       {EstimatorMode::kAuto, EstimatorMode::kAnalytic}) {
    const std::string what = to_string(mode);
    const Solve screened = solve(wf, mode, serial);
    expect_same_answer(screened.result, mc.result, what);
    // The chain end is one state on top of the mc solve's.
    EXPECT_EQ(screened.result.stats.states_evaluated,
              mc.result.stats.states_evaluated + 1)
        << what;
    EXPECT_EQ(screened.result.stats.states_pruned,
              mc.result.stats.states_pruned)
        << what;
    if (obs::kCompiledIn) {
      EXPECT_EQ(screened.skips, 1u) << what;
      EXPECT_EQ(screened.fallbacks, 1u) << what;
    }
  }
}

TEST(ChainEndScreenTest, PassingChainEndRunsTheScreenedSearch) {
  const workflow::Workflow wf = paper_workflows().montage;
  vgpu::SerialBackend serial;
  const Solve screened = solve(wf, EstimatorMode::kAuto, serial);
  EXPECT_TRUE(screened.result.found);
  EXPECT_GT(screened.result.stats.states_pruned, 0u);  // screened search ran
  if (obs::kCompiledIn) {
    EXPECT_EQ(screened.skips, 0u);
    EXPECT_EQ(screened.fallbacks, 0u);
  }
}

/// A serial backend that calls `hook` as each launch starts.
class HookedBackend final : public vgpu::ComputeBackend {
 public:
  explicit HookedBackend(std::function<void(const vgpu::LaunchConfig&)> hook)
      : hook_(std::move(hook)) {}
  std::string name() const override { return "hooked"; }
  void launch(const vgpu::LaunchConfig& config,
              const vgpu::Kernel& kernel) override {
    hook_(config);
    inner_.launch(config, kernel);
  }

 private:
  vgpu::SerialBackend inner_;
  std::function<void(const vgpu::LaunchConfig&)> hook_;
};

TEST(ChainEndScreenTest, BudgetFiringInTheChainEndScreenDoesNotReSolve) {
  const workflow::Workflow wf = paper_workflows().cybershake;
  util::CancelToken token;
  // A screened solve's first launch is the chain-end screen: one plan, one
  // lane (the screen draws nothing).  The cut lands inside it.
  std::size_t launches = 0;
  HookedBackend backend([&](const vgpu::LaunchConfig& config) {
    if (launches++ != 0) return;
    EXPECT_EQ(config.blocks, 1u);
    EXPECT_EQ(config.lanes_per_block, 1u);
    token.cancel();
  });
  util::SolveBudget spec;
  spec.cancel = &token;
  util::BudgetTracker tracker(spec);
  const Solve cut = solve(wf, EstimatorMode::kAuto, backend, &tracker);
  EXPECT_TRUE(cut.result.budget.budget_exhausted);
  EXPECT_EQ(cut.result.budget.trigger, util::BudgetTrigger::kCancel);
  EXPECT_FALSE(cut.result.found);
  EXPECT_EQ(cut.result.plan.size(), wf.task_count());
  EXPECT_GT(cut.result.evaluation.mean_cost, 0.0);
  if (obs::kCompiledIn) {
    EXPECT_EQ(cut.skips, 0u);
    EXPECT_EQ(cut.fallbacks, 0u);
  }
}

TEST(ChainEndScreenTest, ThrowingReSolveRestoresTheEstimatorMode) {
  const workflow::Workflow wf = paper_workflows().cybershake;
  TaskTimeEstimator estimator(ec2(), store());
  const PlanEvaluator* evaluator = nullptr;
  HookedBackend backend([&](const vgpu::LaunchConfig&) {
    if (evaluator->options().estimator == EstimatorMode::kMc) {
      throw std::runtime_error("launch failed in the full-MC re-solve");
    }
  });
  EvalOptions opt;
  opt.estimator = EstimatorMode::kAuto;
  SchedulingProblem problem(wf, estimator, backend, opt);
  evaluator = &problem.evaluator();
  EXPECT_THROW(problem.solve({0.9, medium_deadline(wf)}),
               std::runtime_error);
  EXPECT_EQ(problem.evaluator().options().estimator, EstimatorMode::kAuto);
}

TEST(ChainEndScreenTest, SerialAndVgpuBackendsAgree) {
  const PaperWorkflows wfs = paper_workflows();
  for (const workflow::Workflow* wf : {&wfs.montage, &wfs.cybershake}) {
    for (const EstimatorMode mode :
         {EstimatorMode::kMc, EstimatorMode::kAnalytic,
          EstimatorMode::kAuto}) {
      const std::string what = wf->name() + " " + to_string(mode);
      vgpu::SerialBackend serial;
      vgpu::VirtualGpuBackend vgpu3(3);
      const Solve a = solve(*wf, mode, serial);
      const Solve b = solve(*wf, mode, vgpu3);
      expect_same_answer(a.result, b.result, what);
      EXPECT_EQ(a.result.stats.states_evaluated,
                b.result.stats.states_evaluated)
          << what;
      EXPECT_EQ(a.result.stats.states_pruned, b.result.stats.states_pruned)
          << what;
      EXPECT_EQ(a.skips, b.skips) << what;
      EXPECT_EQ(a.fallbacks, b.fallbacks) << what;
    }
  }
}

}  // namespace
}  // namespace deco::core
