// Tier 0 as a launch: the analytic screen runs one block per run of
// consecutive plans on the compute backend, over the evaluator's one flat
// segment table (incremental_screen_test.cpp checks the reuse within a run).
//   * a wave screened on a 3-worker vgpu backend matches the serial backend
//     and one-plan-at-a-time screening bit for bit (hex floats), under both
//     kAuto and kAnalytic and both cost models;
//   * a pre-fired budget and a budget that fires mid-launch abort the
//     screen launch with BudgetExhaustedError, and an unbudgeted rerun on
//     the same evaluator still gives the same bits;
//   * each staged segment's moments equal the per-column loop the screen
//     used to run over the alias columns, for every (task, type) of the
//     four paper workflows, with and without failure inflation;
//   * clearing the staging cache clears the screen's inputs too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/evaluator.hpp"
#include "sim/failure_model.hpp"
#include "tests/core/test_fixtures.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::store;

/// Exact bit pattern of a double (C99 hex float).
std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Every field of a screened result, doubles as hex floats.
std::string fingerprint(const ScreenedEvaluation& s) {
  return hex(s.eval.mean_cost) + " " + hex(s.eval.mean_makespan) + " " +
         hex(s.eval.makespan_quantile) + " " + hex(s.eval.deadline_prob) +
         " " + std::to_string(s.eval.feasible) + " " +
         std::to_string(static_cast<int>(s.verdict)) + " " +
         std::to_string(s.mc_iterations_used) + " " +
         std::to_string(s.qmc_early_stop);
}

void expect_same_bits(const std::vector<ScreenedEvaluation>& got,
                      const std::vector<ScreenedEvaluation>& want,
                      const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(fingerprint(got[i]), fingerprint(want[i]))
        << label << " plan " << i;
  }
}

/// A wave of mutated uniform plans over every vm type, so it spans fast and
/// slow plans, with co-scheduling groups so the screen's group billing and
/// serialization paths run too.
std::vector<sim::Plan> make_wave(const workflow::Workflow& wf,
                                 std::size_t count, util::Rng& rng) {
  std::vector<sim::Plan> plans;
  const std::size_t types = ec2().type_count();
  for (std::size_t i = 0; i < count; ++i) {
    sim::Plan p = sim::Plan::uniform(wf.task_count(),
                                     static_cast<cloud::TypeId>(i % types));
    for (std::size_t t = 0; t < wf.task_count(); t += 7) {
      p[t].group = static_cast<std::int32_t>(t % 5);
    }
    const std::size_t mutations = 1 + rng.below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      p[rng.below(wf.task_count())].vm_type =
          static_cast<cloud::TypeId>(rng.below(types));
    }
    plans.push_back(std::move(p));
  }
  return plans;
}

/// A deadline at the wave's median analytic makespan quantile (de-rated
/// like the evaluator's check), so the wave straddles the feasibility
/// frontier and the screen decides plans both ways.
double median_deadline(const workflow::Workflow& wf,
                       const std::vector<sim::Plan>& wave) {
  TaskTimeEstimator estimator(ec2(), store());
  vgpu::SerialBackend backend;
  EvalOptions opt;
  opt.estimator = EstimatorMode::kAnalytic;
  PlanEvaluator evaluator(wf, estimator, backend, opt);
  std::vector<double> quantiles;
  for (const auto& s : evaluator.evaluate_batch_screened(wave, {0.9, 1e12})) {
    quantiles.push_back(s.eval.makespan_quantile);
  }
  std::nth_element(quantiles.begin(),
                   quantiles.begin() + quantiles.size() / 2, quantiles.end());
  return quantiles[quantiles.size() / 2] * opt.quantile_safety;
}

struct Fixture {
  workflow::Workflow wf;
  std::vector<sim::Plan> wave;
  ProbDeadline req;
};

Fixture cybershake_wave(std::size_t count) {
  util::Rng rng(2024);
  Fixture f{workflow::make_cybershake(40, rng), {}, {}};
  f.wave = make_wave(f.wf, count, rng);
  f.req = ProbDeadline{0.9, median_deadline(f.wf, f.wave)};
  return f;
}

EvalOptions screened_options(EstimatorMode mode, CostModel cost) {
  EvalOptions opt;
  opt.mc_iterations = 256;
  opt.cost_model = cost;
  opt.estimator = mode;
  return opt;
}

class ScreenLaunchTest
    : public ::testing::TestWithParam<std::tuple<EstimatorMode, CostModel>> {
};

TEST_P(ScreenLaunchTest, WaveMatchesSerialAndOnePlanAtATime) {
  const auto [mode, cost] = GetParam();
  const Fixture f = cybershake_wave(72);
  const EvalOptions opt = screened_options(mode, cost);
  TaskTimeEstimator estimator(ec2(), store());

  vgpu::SerialBackend serial;
  PlanEvaluator serial_eval(f.wf, estimator, serial, opt);
  const auto want = serial_eval.evaluate_batch_screened(f.wave, f.req);

  // Three workers plus the launching thread screen the wave concurrently.
  vgpu::VirtualGpuBackend parallel(3);
  PlanEvaluator parallel_eval(f.wf, estimator, parallel, opt);
  expect_same_bits(parallel_eval.evaluate_batch_screened(f.wave, f.req), want,
                   "vgpu-3");
  // Warm table, second launch: same bits again.
  expect_same_bits(parallel_eval.evaluate_batch_screened(f.wave, f.req), want,
                   "vgpu-3 warm");

  // One plan per launch through a single evaluator.
  PlanEvaluator solo_eval(f.wf, estimator, serial, opt);
  std::vector<ScreenedEvaluation> solo;
  for (const sim::Plan& plan : f.wave) {
    solo.push_back(solo_eval.evaluate_batch_screened({&plan, 1}, f.req)[0]);
  }
  expect_same_bits(solo, want, "one at a time");

  // The wave must straddle the frontier, or the comparison is trivial: some
  // plans are rejected and the rest are accepted or (under kAuto) escalated
  // to Tier 1, so the sampled path is compared too.
  const auto rejected = std::count_if(
      want.begin(), want.end(), [](const ScreenedEvaluation& s) {
        return s.verdict == ScreenVerdict::kReject;
      });
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, static_cast<std::ptrdiff_t>(want.size()));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndCostModels, ScreenLaunchTest,
    ::testing::Combine(::testing::Values(EstimatorMode::kAuto,
                                         EstimatorMode::kAnalytic),
                       ::testing::Values(CostModel::kProrated,
                                         CostModel::kBilledHours)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) == CostModel::kProrated ? "_prorated"
                                                              : "_billed");
    });

/// Forwards to an inner backend and fires a budget as block `fire_block` of
/// the first launch starts, before the kernel runs — a deterministic
/// "budget fires mid-launch".
class FiringBackend final : public vgpu::ComputeBackend {
 public:
  FiringBackend(vgpu::ComputeBackend& inner, util::BudgetTracker& tracker,
                std::size_t fire_block)
      : inner_(inner), tracker_(tracker), fire_block_(fire_block) {}
  std::string name() const override { return "firing"; }
  void launch(const vgpu::LaunchConfig& config,
              const vgpu::Kernel& kernel) override {
    const bool first = launches_++ == 0;
    inner_.launch(config, [&](vgpu::BlockContext& ctx) {
      entered_.fetch_add(1, std::memory_order_relaxed);
      if (first && ctx.block_index() == fire_block_) {
        tracker_.fire(util::BudgetTrigger::kCancel);
      }
      kernel(ctx);
    });
  }
  std::size_t entered() const { return entered_.load(); }

 private:
  vgpu::ComputeBackend& inner_;
  util::BudgetTracker& tracker_;
  std::size_t fire_block_;
  std::size_t launches_ = 0;
  std::atomic<std::size_t> entered_{0};
};

class ScreenBudgetTest : public ::testing::TestWithParam<EstimatorMode> {};

TEST_P(ScreenBudgetTest, PreFiredBudgetAbortsScreenAndRerunKeepsBits) {
  const Fixture f = cybershake_wave(64);
  const EvalOptions opt = screened_options(GetParam(), CostModel::kProrated);
  TaskTimeEstimator estimator(ec2(), store());
  vgpu::VirtualGpuBackend backend(3);
  PlanEvaluator reference(f.wf, estimator, backend, opt);
  const auto want = reference.evaluate_batch_screened(f.wave, f.req);

  util::CancelToken token;
  util::SolveBudget spec;
  spec.cancel = &token;
  util::BudgetTracker tracker(spec);
  tracker.fire(util::BudgetTrigger::kCancel);
  PlanEvaluator eval(f.wf, estimator, backend, opt);
  eval.set_budget(&tracker);
  EXPECT_THROW(eval.evaluate_batch_screened(f.wave, f.req),
               util::BudgetExhaustedError);
  EXPECT_EQ(eval.screen_stats().screened, 0u);

  eval.set_budget(nullptr);
  expect_same_bits(eval.evaluate_batch_screened(f.wave, f.req), want,
                   "rerun after pre-fired budget");
}

TEST_P(ScreenBudgetTest, BudgetFiringMidLaunchAbortsScreenAndRerunKeepsBits) {
  const Fixture f = cybershake_wave(64);
  const EvalOptions opt = screened_options(GetParam(), CostModel::kProrated);
  TaskTimeEstimator estimator(ec2(), store());
  vgpu::SerialBackend serial;
  PlanEvaluator reference(f.wf, estimator, serial, opt);
  const auto want = reference.evaluate_batch_screened(f.wave, f.req);

  vgpu::VirtualGpuBackend parallel(3);
  for (vgpu::ComputeBackend* inner :
       {static_cast<vgpu::ComputeBackend*>(&serial),
        static_cast<vgpu::ComputeBackend*>(&parallel)}) {
    util::CancelToken token;
    util::SolveBudget spec;
    spec.cancel = &token;
    util::BudgetTracker tracker(spec);
    FiringBackend firing(*inner, tracker, 5);
    PlanEvaluator eval(f.wf, estimator, firing, opt);
    eval.set_budget(&tracker);
    EXPECT_THROW(eval.evaluate_batch_screened(f.wave, f.req),
                 util::BudgetExhaustedError)
        << inner->name();
    EXPECT_TRUE(tracker.exhausted());
    EXPECT_EQ(eval.screen_stats().screened, 0u);
    // Serially, the firing block's own checkpoint stops the launch.
    if (inner == &serial) {
      EXPECT_EQ(firing.entered(), 6u);
    }

    eval.set_budget(nullptr);
    expect_same_bits(eval.evaluate_batch_screened(f.wave, f.req), want,
                     inner->name().c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ScreenBudgetTest,
                         ::testing::Values(EstimatorMode::kAuto,
                                           EstimatorMode::kAnalytic),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

std::vector<workflow::Workflow> paper_workflows() {
  std::vector<workflow::Workflow> out;
  util::Rng rng(2015);
  out.push_back(workflow::make_montage(1, rng));
  out.push_back(workflow::make_cybershake(100, rng));
  out.push_back(workflow::make_ligo(100, rng));
  out.push_back(workflow::make_epigenomics(100, rng));
  return out;
}

/// The moments loop the analytic screen ran over a segment's alias columns
/// before the moments moved into the segment: a uniform column pick, then
/// the stay/alias branch.
void reference_moments(const PlanEvaluator::TaskSegment& seg, double& mean,
                       double& var) {
  mean = 0;
  var = 0;
  const std::size_t bins = seg.columns.size();
  if (bins == 0) return;
  double m1 = 0;
  double m2 = 0;
  for (const auto& col : seg.columns) {
    m1 += col.prob * col.stay_center + (1.0 - col.prob) * col.alias_center;
    m2 += col.prob * col.stay_center * col.stay_center +
          (1.0 - col.prob) * col.alias_center * col.alias_center;
  }
  const double inv = 1.0 / static_cast<double>(bins);
  mean = m1 * inv;
  var = std::max(m2 * inv - mean * mean, 0.0);
}

TEST(TaskSegmentMomentsTest, MatchTheColumnLoopOnPaperWorkflows) {
  sim::FailureModelOptions fm;
  fm.crash_mtbf_s = 3600;
  fm.task_failure_prob = 0.1;
  fm.straggler_prob = 0.1;
  const sim::FailureModel failures(fm);
  ASSERT_TRUE(failures.enabled());

  TaskTimeEstimator estimator(ec2(), store());
  vgpu::SerialBackend backend;
  for (const sim::FailureModel* model : {static_cast<const sim::FailureModel*>(
                                             nullptr),
                                         &failures}) {
    EvalOptions opt;
    opt.failure_model = model;
    for (const workflow::Workflow& wf : paper_workflows()) {
      PlanEvaluator eval(wf, estimator, backend, opt);
      std::size_t with_bins = 0;
      for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
        for (cloud::TypeId type = 0; type < ec2().type_count(); ++type) {
          const auto& seg = eval.segment(t, type);
          ASSERT_TRUE(seg.staged);
          double mean = 0;
          double var = 0;
          reference_moments(seg, mean, var);
          EXPECT_EQ(hex(seg.dyn_mean), hex(mean))
              << wf.name() << " task " << t << " type " << type
              << (model ? " failures" : "");
          EXPECT_EQ(hex(seg.dyn_var), hex(var))
              << wf.name() << " task " << t << " type " << type
              << (model ? " failures" : "");
          with_bins += seg.columns.empty() ? 0 : 1;
        }
      }
      EXPECT_GT(with_bins, 0u) << wf.name();
      EXPECT_EQ(eval.cache_stats().segment_misses,
                wf.task_count() * ec2().type_count());
    }
  }
}

// The screen's moments live in the segment table, so clearing the staging
// cache clears them too: the next screen restages every segment it reads
// and reproduces the same bits.
TEST(ScreenSegmentTableTest, ClearStagingCacheAlsoClearsScreenInputs) {
  const Fixture f = cybershake_wave(16);
  const EvalOptions opt =
      screened_options(EstimatorMode::kAnalytic, CostModel::kProrated);
  TaskTimeEstimator estimator(ec2(), store());
  vgpu::SerialBackend backend;
  PlanEvaluator eval(f.wf, estimator, backend, opt);
  const auto first = eval.evaluate_batch_screened(f.wave, f.req);
  const std::size_t misses = eval.cache_stats().segment_misses;
  ASSERT_GT(misses, 0u);
  ASSERT_GT(eval.cache_bytes(), 0u);

  eval.clear_staging_cache();
  EXPECT_EQ(eval.cache_bytes(), 0u);
  expect_same_bits(eval.evaluate_batch_screened(f.wave, f.req), first,
                   "after clear");
  EXPECT_EQ(eval.cache_stats().segment_misses, 2 * misses);
}

}  // namespace
}  // namespace deco::core
