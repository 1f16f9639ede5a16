// Incremental Tier 0: a screen launch cuts its wave into runs of consecutive
// plans and, within a run, redoes a position's moment fold only when it is
// dirty against the previous plan (type changed, a parent redone, or the
// group predecessor changed or redone).  Reuse must be invisible:
//   * search-like waves — random walks of one-placement moves from the
//     all-cheapest plan (type changes, region changes, tasks joining or
//     leaving co-scheduling groups), interleaved with unrelated and heavily
//     grouped plans — screened in one batch give, field for field as hex
//     floats, what one-plan batches give, for the four paper workflows,
//     both cost models, kAuto and kAnalytic, serial and a 3-worker vgpu;
//   * the same holds when the wave is cut into runs at other boundaries;
//   * the eval.screen.positions* tallies count every screened position and
//     fewer recomputed ones on a walk, all of them on one-plan batches, and
//     reach the obs counters once per batch without changing any result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/evaluator.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "tests/core/test_fixtures.hpp"
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
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(fingerprint(got[i]), fingerprint(want[i]))
        << label << " plan " << i;
  }
}

constexpr std::int32_t kGroups = 4;

/// A plan unrelated to the walk: every placement drawn at random, a third
/// of the tasks on shared instances.
sim::Plan random_plan(std::size_t n, util::Rng& rng) {
  sim::Plan p = sim::Plan::uniform(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    p[t].vm_type = static_cast<cloud::TypeId>(rng.below(ec2().type_count()));
    p[t].region = static_cast<cloud::RegionId>(rng.below(ec2().region_count()));
    p[t].group = rng.below(3) == 0
                     ? static_cast<std::int32_t>(rng.below(kGroups))
                     : -1;
  }
  return p;
}

/// A search-like wave: a random walk of one-placement moves from the
/// all-cheapest plan, so consecutive plans mostly differ in one task, with
/// an unrelated plan or a heavily grouped copy of the walk's current plan
/// in about one slot in five.
std::vector<sim::Plan> make_walk(std::size_t n, std::size_t count,
                                 util::Rng& rng) {
  std::vector<sim::Plan> wave;
  sim::Plan cur = sim::Plan::uniform(n, 0);
  while (wave.size() < count) {
    const std::size_t kind = rng.below(10);
    if (kind == 0) {
      wave.push_back(random_plan(n, rng));
      continue;
    }
    if (kind == 1) {
      sim::Plan grouped = cur;
      for (std::size_t t = 0; t < n; t += 2) {
        grouped[t].group = static_cast<std::int32_t>(t % kGroups);
      }
      wave.push_back(std::move(grouped));
      continue;
    }
    const std::size_t t = rng.below(n);
    switch (rng.below(4)) {
      case 0:
      case 1:  // retype: the search's promotion move
        cur[t].vm_type =
            static_cast<cloud::TypeId>(rng.below(ec2().type_count()));
        break;
      case 2:  // move to another region: reprices, keeps the fold
        cur[t].region =
            static_cast<cloud::RegionId>(rng.below(ec2().region_count()));
        break;
      default:  // join or leave a shared instance
        cur[t].group = cur[t].group >= 0
                           ? -1
                           : static_cast<std::int32_t>(rng.below(kGroups));
        break;
    }
    wave.push_back(cur);
  }
  return wave;
}

workflow::Workflow make_workflow(const std::string& name, util::Rng& rng) {
  if (name == "Montage") return workflow::make_montage_by_width(10, rng);
  if (name == "Ligo") return workflow::make_ligo(40, rng);
  if (name == "Epigenomics") return workflow::make_epigenomics(40, rng);
  return workflow::make_cybershake(40, rng);
}

/// A deadline at the wave's median analytic makespan quantile, so the wave
/// straddles the feasibility frontier and every verdict occurs.
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

std::unique_ptr<vgpu::ComputeBackend> make_backend(bool parallel) {
  if (parallel) return std::make_unique<vgpu::VirtualGpuBackend>(3);
  return std::make_unique<vgpu::SerialBackend>();
}

using Param = std::tuple<std::string, CostModel, EstimatorMode, bool>;

class IncrementalScreenTest : public ::testing::TestWithParam<Param> {};

TEST_P(IncrementalScreenTest, WaveMatchesOnePlanScreens) {
  const auto [name, cost, mode, parallel] = GetParam();
  util::Rng rng(4242);
  const workflow::Workflow wf = make_workflow(name, rng);
  const std::size_t n = wf.task_count();
  const std::vector<sim::Plan> wave = make_walk(n, 70, rng);
  const ProbDeadline req{0.9, median_deadline(wf, wave)};
  EvalOptions opt;
  opt.mc_iterations = 256;
  opt.cost_model = cost;
  opt.estimator = mode;
  TaskTimeEstimator estimator(ec2(), store());
  const auto backend = make_backend(parallel);

  PlanEvaluator solo_eval(wf, estimator, *backend, opt);
  std::vector<ScreenedEvaluation> want;
  for (const sim::Plan& plan : wave) {
    want.push_back(solo_eval.evaluate_batch_screened({&plan, 1}, req)[0]);
  }
  // A plan screened alone is a run of one: every position is recomputed.
  EXPECT_EQ(solo_eval.screen_stats().positions, n * wave.size());
  EXPECT_EQ(solo_eval.screen_stats().positions_recomputed, n * wave.size());

  PlanEvaluator wave_eval(wf, estimator, *backend, opt);
  expect_same_bits(wave_eval.evaluate_batch_screened(wave, req), want,
                   "one batch");
  const ScreenStats& stats = wave_eval.screen_stats();
  EXPECT_EQ(stats.positions, n * wave.size());
  // Each run's first plan is screened in full, the rest reuse something.
  EXPECT_GT(stats.positions_recomputed, 0u);
  EXPECT_LT(stats.positions_recomputed, stats.positions);

  // Other run boundaries: drop the first plan, and screen in odd slices.
  const std::vector<sim::Plan> shifted(wave.begin() + 1, wave.end());
  expect_same_bits(wave_eval.evaluate_batch_screened(shifted, req),
                   {want.begin() + 1, want.end()}, "shifted by one");
  std::vector<ScreenedEvaluation> sliced;
  for (std::size_t first = 0; first < wave.size(); first += 13) {
    const std::size_t count = std::min<std::size_t>(13, wave.size() - first);
    const auto part = wave_eval.evaluate_batch_screened(
        std::span<const sim::Plan>(wave).subspan(first, count), req);
    sliced.insert(sliced.end(), part.begin(), part.end());
  }
  expect_same_bits(sliced, want, "slices of 13");

  // The walk must straddle the frontier, or the comparison is trivial.
  const auto rejected = std::count_if(
      want.begin(), want.end(), [](const ScreenedEvaluation& s) {
        return s.verdict == ScreenVerdict::kReject;
      });
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, static_cast<std::ptrdiff_t>(want.size()));
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorkflows, IncrementalScreenTest,
    ::testing::Combine(::testing::Values("Montage", "Ligo", "Epigenomics",
                                         "CyberShake"),
                       ::testing::Values(CostModel::kProrated,
                                         CostModel::kBilledHours),
                       ::testing::Values(EstimatorMode::kAuto,
                                         EstimatorMode::kAnalytic),
                       ::testing::Values(false, true)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == CostModel::kProrated ? "_prorated"
                                                              : "_billed") +
             "_" + to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_vgpu3" : "_serial");
    });

TEST(IncrementalScreenCountersTest, PublishedOncePerBatchWithoutSideEffects) {
  util::Rng rng(99);
  const workflow::Workflow wf = workflow::make_montage_by_width(10, rng);
  const std::vector<sim::Plan> wave = make_walk(wf.task_count(), 40, rng);
  const ProbDeadline req{0.9, median_deadline(wf, wave)};
  EvalOptions opt;
  opt.cost_model = CostModel::kBilledHours;
  opt.estimator = EstimatorMode::kAuto;
  TaskTimeEstimator estimator(ec2(), store());
  vgpu::SerialBackend serial;
  vgpu::VirtualGpuBackend sharded(3);

  PlanEvaluator quiet(wf, estimator, serial, opt);
  const auto want = quiet.evaluate_batch_screened(wave, req);

  obs::Registry::instance().reset();
  obs::Registry::instance().set_enabled(true);
  PlanEvaluator traced(wf, estimator, sharded, opt);
  const auto got = traced.evaluate_batch_screened(wave, req);
  const auto counters = obs::Registry::instance().snapshot().counters;
  obs::Registry::instance().set_enabled(false);
  obs::Registry::instance().reset();

  expect_same_bits(got, want, "obs on, vgpu-3");
  EXPECT_EQ(traced.screen_stats().positions, quiet.screen_stats().positions);
  EXPECT_EQ(traced.screen_stats().positions_recomputed,
            quiet.screen_stats().positions_recomputed);
  if (obs::kCompiledIn) {
    EXPECT_EQ(counters.at("eval.screen.positions"),
              traced.screen_stats().positions);
    EXPECT_EQ(counters.at("eval.screen.positions_recomputed"),
              traced.screen_stats().positions_recomputed);
  }
}

}  // namespace
}  // namespace deco::core
