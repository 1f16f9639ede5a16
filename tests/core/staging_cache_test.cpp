// Regression tests for the evaluator's segment staging cache, its memory
// degradation ladder, and the alias-method sampling path:
//   * a plan's PlanEvaluation must be bit-identical whether it is evaluated
//     solo, inside a batch, or again through the fully cached staging path,
//     on both the serial and the vgpu backend;
//   * a memory budget below one batch's segment bytes evicts the segments
//     and asks the search driver to shrink, without changing any score;
//   * the alias-table sampler must draw from the same distribution as the
//     histogram's inverse-CDF search (two-sample Kolmogorov-Smirnov test on
//     calibration histograms).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/evaluator.hpp"
#include "obs/obs.hpp"
#include "tests/core/test_fixtures.hpp"
#include "util/alias_table.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::store;

workflow::Workflow small_montage() {
  util::Rng rng(17);
  return workflow::make_montage_by_width(6, rng);
}

// A plan exercising every kernel path: mixed vm types, co-scheduling groups
// (shared-instance serialization + shared billing) and ungrouped tasks.
sim::Plan mixed_plan(std::size_t tasks) {
  sim::Plan plan = sim::Plan::uniform(tasks, 1);
  for (std::size_t t = 0; t < tasks; t += 3) plan[t].vm_type = 2;
  for (std::size_t t = 1; t < tasks; t += 4) plan[t].vm_type = 0;
  for (std::size_t t = 0; t < tasks; t += 5) {
    plan[t].group = static_cast<std::int32_t>(t % 3);
  }
  return plan;
}

void expect_bitwise_equal(const PlanEvaluation& a, const PlanEvaluation& b) {
  EXPECT_EQ(a.mean_cost, b.mean_cost);
  EXPECT_EQ(a.mean_makespan, b.mean_makespan);
  EXPECT_EQ(a.makespan_quantile, b.makespan_quantile);
  EXPECT_EQ(a.deadline_prob, b.deadline_prob);
  EXPECT_EQ(a.feasible, b.feasible);
}

class StagingCacheTest : public ::testing::TestWithParam<CostModel> {};

TEST_P(StagingCacheTest, SoloBatchedAndCachedAreBitIdenticalOnBothBackends) {
  const auto wf = small_montage();
  const std::size_t n = wf.task_count();
  const sim::Plan plan = mixed_plan(n);
  sim::Plan other = sim::Plan::uniform(n, 3);
  const ProbDeadline req{0.95, 3000};

  EvalOptions opt;
  opt.mc_iterations = 200;
  opt.cost_model = GetParam();

  TaskTimeEstimator est(ec2(), store());
  vgpu::SerialBackend serial;
  PlanEvaluator eval(wf, est, serial, opt);

  // Solo evaluation (cold caches).
  const PlanEvaluation solo = eval.evaluate(plan, req);
  EXPECT_GT(eval.cache_stats().segment_misses, 0u);

  // Batched together with unrelated plans: block seeds derive from the plan
  // payload, so batch position must not matter.
  const std::vector<sim::Plan> batch{other, plan, sim::Plan::uniform(n, 2)};
  const auto batched = eval.evaluate_batch(batch, req);
  expect_bitwise_equal(batched[1], solo);

  // Fully cached staging path: every segment is served from the cache.
  const StagingCacheStats before = eval.cache_stats();
  const PlanEvaluation cached = eval.evaluate(plan, req);
  EXPECT_GT(eval.cache_stats().segment_hits, before.segment_hits);
  EXPECT_EQ(eval.cache_stats().segment_misses, before.segment_misses);
  expect_bitwise_equal(cached, solo);

  // Dropping the caches and re-staging must reproduce the same image.
  eval.clear_staging_cache();
  expect_bitwise_equal(eval.evaluate(plan, req), solo);

  // The vgpu backend runs the identical kernel over a worker pool; lane
  // streams are payload-derived, so the bits must match the serial backend.
  vgpu::VirtualGpuBackend parallel(4);
  PlanEvaluator veval(wf, est, parallel, opt);
  expect_bitwise_equal(veval.evaluate(plan, req), solo);
  const auto vbatched = veval.evaluate_batch(batch, req);
  expect_bitwise_equal(vbatched[1], solo);
}

INSTANTIATE_TEST_SUITE_P(CostModels, StagingCacheTest,
                         ::testing::Values(CostModel::kProrated,
                                           CostModel::kBilledHours));

TEST(StagingCacheStatsTest, HitMissArithmeticHoldsAcrossInterleavedClears) {
  const auto wf = small_montage();
  const std::size_t n = wf.task_count();
  TaskTimeEstimator est(ec2(), store());
  vgpu::SerialBackend backend;
  PlanEvaluator eval(wf, est, backend);
  const ProbDeadline req{0.95, 3000};
  const sim::Plan plan = mixed_plan(n);

  // Cold evaluate: staging looks up every position's segment once (the
  // image references the segment's columns), so n misses and no hits.
  eval.evaluate(plan, req);
  auto s = eval.cache_stats();
  EXPECT_EQ(s.segment_misses, n);
  EXPECT_EQ(s.segment_hits, 0u);

  // Warm evaluate: every lookup hits, no segment is staged again.
  eval.evaluate(plan, req);
  s = eval.cache_stats();
  EXPECT_EQ(s.segment_misses, n);
  EXPECT_EQ(s.segment_hits, n);

  // clear_staging_cache() drops the cache but never rewinds the stats.
  eval.clear_staging_cache();
  EXPECT_EQ(eval.cache_stats().segment_misses, n);
  EXPECT_EQ(eval.cache_stats().segment_hits, n);

  // Post-clear evaluate restages from scratch: the deltas repeat the cold
  // pattern exactly, on top of the preserved totals.
  eval.evaluate(plan, req);
  s = eval.cache_stats();
  EXPECT_EQ(s.segment_misses, 2 * n);
  EXPECT_EQ(s.segment_hits, n);

  // A second clear between two evaluates: hits continue to accumulate
  // monotonically — stats are an append-only ledger, not cache state.
  eval.evaluate(plan, req);
  eval.clear_staging_cache();
  eval.evaluate(plan, req);
  s = eval.cache_stats();
  EXPECT_EQ(s.segment_misses, 3 * n);
  EXPECT_EQ(s.segment_hits, 2 * n);
}

TEST(StagingCacheStatsTest, MemoryBudgetEvictsSegmentsThenRequestsShrink) {
  const auto wf = small_montage();
  const std::size_t n = wf.task_count();
  TaskTimeEstimator est(ec2(), store());
  vgpu::SerialBackend backend;
  const ProbDeadline req{0.95, 3000};
  const std::vector<sim::Plan> batch{mixed_plan(n), sim::Plan::uniform(n, 3)};

  PlanEvaluator plain(wf, est, backend);
  const auto expected = plain.evaluate_batch(batch, req);
  const std::size_t batch_segment_bytes = plain.cache_bytes();
  const std::size_t batch_segment_misses = plain.cache_stats().segment_misses;
  ASSERT_GT(batch_segment_bytes, 0u);

  obs::Registry::instance().reset();
  obs::Registry::instance().set_enabled(true);
  util::SolveBudget spec;
  spec.max_bytes = batch_segment_bytes / 2;
  util::BudgetTracker tracker(spec);
  PlanEvaluator eval(wf, est, backend);
  eval.set_budget(&tracker);

  // The cap only binds at the next batch entry; the first batch stages
  // every segment and grows past it.
  const auto first = eval.evaluate_batch(batch, req);
  EXPECT_GT(eval.cache_bytes(), spec.max_bytes);

  // A visited set larger than the cap stays over budget after the segments
  // go, so the ladder's last rung asks the driver to shrink it.
  tracker.set_bytes(util::BudgetTracker::Component::kVisited,
                    spec.max_bytes + 1);
  const auto second = eval.evaluate_batch(batch, req);
  const auto counters = obs::Registry::instance().snapshot().counters;
  obs::Registry::instance().set_enabled(false);
  obs::Registry::instance().reset();

  if (obs::kCompiledIn) {
    EXPECT_EQ(counters.at("budget.evictions.segments"), batch_segment_misses);
  }
  // Evicted segments are staged again: the second batch misses as often as
  // the first.
  EXPECT_EQ(eval.cache_stats().segment_misses, 2 * batch_segment_misses);
  EXPECT_TRUE(tracker.consume_visited_shrink_request());
  EXPECT_FALSE(tracker.exhausted());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_bitwise_equal(first[i], expected[i]);
    expect_bitwise_equal(second[i], expected[i]);
  }
}

// Two-sample Kolmogorov-Smirnov test: bins drawn through the alias table and
// bins drawn through the histogram's inverse-CDF search are samples from the
// same calibration distribution.
TEST(AliasSamplingKsTest, AliasDrawsMatchInverseCdfDraws) {
  const auto wf = small_montage();
  TaskTimeEstimator est(ec2(), store());

  const std::size_t draws = 100000;
  // D crit for alpha = 0.001 with n = m: 1.949 * sqrt((n + m) / (n * m)).
  const double d_crit =
      1.949 * std::sqrt(2.0 / static_cast<double>(draws));

  for (const cloud::TypeId type : {0u, 2u}) {
    for (const workflow::TaskId task :
         {workflow::TaskId{0}, workflow::TaskId{5}}) {
      const util::Histogram& hist = est.dynamic_distribution(wf, task, type);
      ASSERT_FALSE(hist.empty());
      const std::size_t bins = hist.bin_count();
      const auto cdf = hist.cdf();

      const util::AliasTable table(hist.masses());
      std::vector<std::size_t> alias_count(bins, 0);
      std::vector<std::size_t> cdf_count(bins, 0);
      util::Rng alias_rng(41);
      util::Rng cdf_rng(42);
      for (std::size_t i = 0; i < draws; ++i) {
        ++alias_count[table.sample(alias_rng)];
        const double u = cdf_rng.uniform();
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        ++cdf_count[std::min(static_cast<std::size_t>(it - cdf.begin()),
                             bins - 1)];
      }

      // Empirical CDFs over the (ascending) bin centers.
      double d_max = 0, cum_a = 0, cum_c = 0;
      for (std::size_t k = 0; k < bins; ++k) {
        cum_a += static_cast<double>(alias_count[k]) / draws;
        cum_c += static_cast<double>(cdf_count[k]) / draws;
        d_max = std::max(d_max, std::abs(cum_a - cum_c));
      }
      EXPECT_LT(d_max, d_crit) << "task " << task << " type " << type;
    }
  }
}

}  // namespace
}  // namespace deco::core
