// The greedy promotion chain scored in waves returns exactly what a chain
// scored one plan at a time returns.  The one-plan-at-a-time chain is kept
// here as the reference: same promotion rule, same per-plan screen and
// verification, same states_evaluated count (every scored chain plan).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scheduling.hpp"
#include "tests/core/test_fixtures.hpp"
#include "util/budget.hpp"
#include "vgpu/device.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::store;

struct Chain {
  SchedulingResult result;
  std::vector<sim::Plan> plans;             ///< every resolved chain plan
  std::vector<PlanEvaluation> evaluations;  ///< and its resolved evaluation
};

/// The serial greedy chain: promote, score one plan, verify it in full MC
/// if a screened score says feasible, repeat.
Chain serial_chain(SchedulingProblem& problem, const workflow::Workflow& wf,
                   TaskTimeEstimator& estimator, const ProbDeadline& req) {
  PlanEvaluator& evaluator = problem.evaluator();
  const cloud::Catalog& catalog = estimator.catalog();
  const bool screened = evaluator.options().estimator != EstimatorMode::kMc;
  auto resolve = [&](const sim::Plan& p) {
    PlanEvaluation eval =
        evaluator.evaluate_batch_screened(std::span<const sim::Plan>(&p, 1),
                                          req)[0]
            .eval;
    if (screened && eval.feasible) eval = evaluator.verify_full_mc(p, req);
    return eval;
  };
  Chain chain;
  sim::Plan plan = problem.initial_plan();
  PlanEvaluation eval = resolve(plan);
  chain.plans.push_back(plan);
  chain.evaluations.push_back(eval);
  std::size_t iterations = 0;
  const std::size_t max_iterations = wf.task_count() * catalog.type_count();
  while (!eval.feasible && iterations++ < max_iterations) {
    workflow::TaskId best = workflow::kInvalidTask;
    double best_time = -1;
    for (workflow::TaskId t : problem.critical_tasks(plan)) {
      if (plan[t].vm_type + 1 >= catalog.type_count()) continue;
      const double mt = estimator.mean_time(wf, t, plan[t].vm_type);
      if (mt > best_time) {
        best_time = mt;
        best = t;
      }
    }
    if (best == workflow::kInvalidTask) {
      for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
        if (plan[t].vm_type + 1 >= catalog.type_count()) continue;
        const double mt = estimator.mean_time(wf, t, plan[t].vm_type);
        if (mt > best_time) {
          best_time = mt;
          best = t;
        }
      }
    }
    if (best == workflow::kInvalidTask) break;
    ++plan[best].vm_type;
    eval = resolve(plan);
    chain.plans.push_back(plan);
    chain.evaluations.push_back(eval);
  }
  chain.result.plan = plan;
  chain.result.evaluation = eval;
  chain.result.found = eval.feasible;
  chain.result.stats.states_evaluated = chain.plans.size();
  return chain;
}

void expect_same_evaluation(const PlanEvaluation& a, const PlanEvaluation& b,
                            const std::string& what) {
  EXPECT_EQ(a.mean_cost, b.mean_cost) << what;
  EXPECT_EQ(a.mean_makespan, b.mean_makespan) << what;
  EXPECT_EQ(a.makespan_quantile, b.makespan_quantile) << what;
  EXPECT_EQ(a.deadline_prob, b.deadline_prob) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
}

std::vector<workflow::Workflow> paper_workflows() {
  util::Rng rng(2015);
  return {workflow::make_montage(1, rng), workflow::make_ligo(40, rng),
          workflow::make_epigenomics(40, rng),
          workflow::make_cybershake(40, rng)};
}

TEST(GreedyChainTest, WavesMatchTheSerialChain) {
  std::size_t exhausted = 0;
  std::size_t found = 0;
  for (const workflow::Workflow& wf : paper_workflows()) {
    for (EstimatorMode mode : {EstimatorMode::kMc, EstimatorMode::kAuto}) {
      TaskTimeEstimator estimator(ec2(), store());
      vgpu::VirtualGpuBackend backend(2);
      EvalOptions eval;
      eval.estimator = mode;
      SchedulingProblem problem(wf, estimator, backend, eval);
      const double cheap_makespan =
          problem.evaluator()
              .evaluate(problem.initial_plan(), ProbDeadline{0.9, 1e7})
              .mean_makespan;
      // Loose (the root is feasible), medium, tight, and impossible (the
      // chain runs out of promotions).
      for (double factor : {1.5, 0.85, 0.65, 0.05}) {
        const ProbDeadline req{0.9, factor * cheap_makespan};
        const std::string what = wf.name() + " " + to_string(mode) + " x" +
                                 std::to_string(factor);
        const Chain reference = serial_chain(problem, wf, estimator, req);
        const SchedulingResult waves = problem.greedy_feasible(req);
        EXPECT_EQ(waves.plan, reference.result.plan) << what;
        expect_same_evaluation(waves.evaluation, reference.result.evaluation,
                               what);
        EXPECT_EQ(waves.found, reference.result.found) << what;
        EXPECT_EQ(waves.stats.states_evaluated,
                  reference.result.stats.states_evaluated)
            << what;
        if (reference.result.found) ++found;
        if (!reference.result.found) ++exhausted;
      }
    }
  }
  // The matrix covers both outcomes.
  EXPECT_GT(found, 0u);
  EXPECT_GT(exhausted, 0u);
}

TEST(GreedyChainTest, WaveWidthDoesNotChangeTheAnswer) {
  util::Rng rng(7);
  const workflow::Workflow wf = workflow::make_cybershake(30, rng);
  TaskTimeEstimator estimator(ec2(), store());
  vgpu::SerialBackend backend;
  EvalOptions eval;
  eval.estimator = EstimatorMode::kAuto;
  SchedulingProblem problem(wf, estimator, backend, eval);
  const double cheap_makespan =
      problem.evaluator()
          .evaluate(problem.initial_plan(), ProbDeadline{0.9, 1e7})
          .mean_makespan;
  const ProbDeadline req{0.9, 0.9 * cheap_makespan};
  const SchedulingResult one = problem.greedy_feasible(req, 0, 1);
  ASSERT_TRUE(one.found);
  ASSERT_GT(one.stats.states_evaluated, 8u);  // several waves at width 2..32
  for (std::size_t width : {2u, 5u, 32u, 1000u}) {
    const SchedulingResult wide = problem.greedy_feasible(req, 0, width);
    EXPECT_EQ(wide.plan, one.plan) << width;
    expect_same_evaluation(wide.evaluation, one.evaluation,
                           std::to_string(width));
    EXPECT_EQ(wide.found, one.found) << width;
    EXPECT_EQ(wide.stats.states_evaluated, one.stats.states_evaluated)
        << width;
  }
}

/// A serial backend that cancels `token` as launch number `fire_at` starts,
/// so the cut lands inside that launch.
class CancelOnLaunch final : public vgpu::ComputeBackend {
 public:
  CancelOnLaunch(util::CancelToken* token, std::size_t fire_at)
      : token_(token), fire_at_(fire_at) {}
  std::string name() const override { return "cancel-on-launch"; }
  void launch(const vgpu::LaunchConfig& config,
              const vgpu::Kernel& kernel) override {
    if (++launches_ == fire_at_ && token_ != nullptr) {
      token_->cancel();
      blocks_at_fire_ = config.blocks;
    }
    inner_.launch(config, kernel);
  }
  std::size_t launches() const { return launches_; }
  std::size_t blocks_at_fire() const { return blocks_at_fire_; }

 private:
  vgpu::SerialBackend inner_;
  util::CancelToken* token_;
  std::size_t fire_at_;
  std::size_t launches_ = 0;
  std::size_t blocks_at_fire_ = 0;
};

TEST(GreedyChainTest, CancelMidWaveKeepsTheLastResolvedPlan) {
  util::Rng rng(2015);
  const workflow::Workflow wf = workflow::make_cybershake(40, rng);
  const ProbDeadline impossible{0.9, 1.0};
  // Under kMc each wave is one launch: waves of 1, 2 and 4 plans resolve
  // chain plans 0..6, and the cancel lands in the fourth, 8-plan wave.
  TaskTimeEstimator estimator(ec2(), store());
  util::CancelToken token;
  CancelOnLaunch backend(&token, 4);
  SchedulingProblem problem(wf, estimator, backend);
  util::SolveBudget spec;
  spec.cancel = &token;
  util::BudgetTracker tracker(spec);
  problem.evaluator().set_budget(&tracker);
  const SchedulingResult cut = problem.greedy_feasible(impossible);
  problem.evaluator().set_budget(nullptr);
  ASSERT_EQ(backend.blocks_at_fire(), 8u);
  EXPECT_TRUE(tracker.exhausted());
  EXPECT_FALSE(cut.found);
  EXPECT_EQ(cut.stats.states_evaluated, 7u);
  ASSERT_EQ(cut.plan.size(), wf.task_count());

  TaskTimeEstimator ref_estimator(ec2(), store());
  vgpu::SerialBackend ref_backend;
  SchedulingProblem reference(wf, ref_estimator, ref_backend);
  const Chain chain = serial_chain(reference, wf, ref_estimator, impossible);
  ASSERT_GT(chain.plans.size(), 7u);
  EXPECT_EQ(cut.plan, chain.plans[6]);
  expect_same_evaluation(cut.evaluation, chain.evaluations[6], "cut");
}

TEST(GreedyChainTest, SolveCutMidChainWaveReturnsARealEvaluation) {
  util::Rng rng(2015);
  const workflow::Workflow wf = workflow::make_cybershake(40, rng);
  const ProbDeadline impossible{0.9, 1.0};
  // Count the launches of the uncut solve: the last is the final
  // evaluation, the one before it the chain's last wave.
  std::size_t launches = 0;
  {
    TaskTimeEstimator estimator(ec2(), store());
    CancelOnLaunch counter(nullptr, 0);
    SchedulingProblem problem(wf, estimator, counter);
    const SchedulingResult uncut = problem.solve(impossible);
    EXPECT_FALSE(uncut.found);
    launches = counter.launches();
  }
  ASSERT_GT(launches, 3u);
  TaskTimeEstimator estimator(ec2(), store());
  util::CancelToken token;
  CancelOnLaunch backend(&token, launches - 2);
  SchedulingProblem problem(wf, estimator, backend);
  util::SolveBudget spec;
  spec.cancel = &token;
  util::BudgetTracker tracker(spec);
  SchedulingOptions options;
  options.search.budget = &tracker;
  const SchedulingResult r = problem.solve(impossible, options);
  EXPECT_GE(backend.blocks_at_fire(), 2u);  // a wave, not a single plan
  EXPECT_TRUE(r.budget.budget_exhausted);
  EXPECT_EQ(r.budget.trigger, util::BudgetTrigger::kCancel);
  EXPECT_FALSE(r.found);
  ASSERT_EQ(r.plan.size(), wf.task_count());
  // The final evaluation runs detached from the budget: it is the plan's
  // real full-MC score.
  TaskTimeEstimator ref_estimator(ec2(), store());
  vgpu::SerialBackend ref_backend;
  PlanEvaluator ref(wf, ref_estimator, ref_backend);
  expect_same_evaluation(r.evaluation, ref.evaluate(r.plan, impossible),
                         "final");
  EXPECT_GT(r.evaluation.mean_cost, 0.0);
}

}  // namespace
}  // namespace deco::core
