// Pins the native scheduling search end to end, best-first (use_astar) and
// breadth-first alike: the bench/ablation_search solves (Montage-1 and
// Montage-4, medium deadline, q = 0.96, the bench's calibrated store) plus a
// LIGO case.  Each row records the search counters, the plan key and the
// plan's mean cost as a hex float, so any change to the wave loop's frontier
// order, pruning or expansion shows up here.  No golden covers the native
// best-first path; this test does.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "cloud/instance_type.hpp"
#include "core/scheduling.hpp"
#include "core/transform_ops.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

// The bench environment: its own store, sampled as bench/bench_common.hpp
// samples it.
const cloud::Catalog& catalog() {
  static const cloud::Catalog c = cloud::make_ec2_catalog();
  return c;
}

const cloud::MetadataStore& bench_store() {
  static const cloud::MetadataStore s =
      make_store_from_catalog(catalog(), "ec2", 6000, 24, 7);
  return s;
}

// bench::deadline_bounds(wf).medium(): halfway between the all-fastest and
// the all-cheapest plans' expected makespans.
double medium_deadline(const workflow::Workflow& wf) {
  TaskTimeEstimator estimator(catalog(), bench_store());
  vgpu::VirtualGpuBackend backend;
  PlanEvaluator evaluator(wf, estimator, backend);
  const auto top = static_cast<cloud::TypeId>(catalog().type_count() - 1);
  const double fast =
      evaluator.evaluate(sim::Plan::uniform(wf.task_count(), top), {0.5, 1e12})
          .mean_makespan;
  const double slow =
      evaluator.evaluate(sim::Plan::uniform(wf.task_count(), 0), {0.5, 1e12})
          .mean_makespan;
  return 0.5 * (fast + slow);
}

struct Pin {
  std::size_t states_evaluated;
  std::size_t states_pruned;
  std::size_t states_expanded;
  std::size_t duplicate_hits;
  std::size_t waves;
  std::uint64_t plan_key;
  double mean_cost;
};

SchedulingResult solve(const workflow::Workflow& wf, bool astar) {
  TaskTimeEstimator estimator(catalog(), bench_store());
  vgpu::VirtualGpuBackend backend;
  SchedulingProblem problem(wf, estimator, backend);
  SchedulingOptions options;
  options.use_astar = astar;
  return problem.solve({0.96, medium_deadline(wf)}, options);
}

std::string describe(const SchedulingResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{%zu, %zu, %zu, %zu, %zu, 0x%016llxULL, %a}",
                r.stats.states_evaluated, r.stats.states_pruned,
                r.stats.states_expanded, r.stats.duplicate_hits,
                r.stats.waves,
                static_cast<unsigned long long>(plan_hash(r.plan)),
                r.evaluation.mean_cost);
  return buf;
}

void expect_pinned(const SchedulingResult& r, const Pin& pin) {
  SCOPED_TRACE("actual " + describe(r));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.stats.states_evaluated, pin.states_evaluated);
  EXPECT_EQ(r.stats.states_pruned, pin.states_pruned);
  EXPECT_EQ(r.stats.states_expanded, pin.states_expanded);
  EXPECT_EQ(r.stats.duplicate_hits, pin.duplicate_hits);
  EXPECT_EQ(r.stats.waves, pin.waves);
  EXPECT_EQ(plan_hash(r.plan), pin.plan_key);
  EXPECT_EQ(r.evaluation.mean_cost, pin.mean_cost);
}

// bench/ablation_search seeds Montage-k with Rng(7 + k).
workflow::Workflow montage(int degree) {
  util::Rng rng(7 + static_cast<std::uint64_t>(degree));
  return workflow::make_montage(degree, rng);
}

workflow::Workflow ligo() {
  util::Rng rng(11);
  return workflow::make_ligo(30, rng);
}

TEST(SearchPinTest, AstarMontage1) {
  expect_pinned(solve(montage(1), true),
                {813, 2398, 810, 1780, 27, 0xc62b84a53ee02fa5ULL,
                 0x1.abe3336e06542p-7});
}

TEST(SearchPinTest, AstarMontage4) {
  expect_pinned(solve(montage(4), true),
                {813, 3193, 810, 1875, 27, 0xef81ffc03a45faf1ULL,
                 0x1.2437b57cff2d7p-6});
}

TEST(SearchPinTest, AstarLigo) {
  expect_pinned(solve(ligo(), true),
                {169, 564, 164, 257, 10, 0xac650253d6590e36ULL,
                 0x1.c77be5704fd17p-5});
}

TEST(SearchPinTest, GenericMontage1) {
  expect_pinned(solve(montage(1), false),
                {973, 0, 970, 5765, 32, 0x8d896da66faf1426ULL,
                 0x1.ac24537d6156dp-7});
}

TEST(SearchPinTest, GenericMontage4) {
  expect_pinned(solve(montage(4), false),
                {1133, 0, 1130, 6688, 37, 0xe393671a3353c176ULL,
                 0x1.22e6d184685b4p-6});
}

TEST(SearchPinTest, GenericLigo) {
  expect_pinned(solve(ligo(), false),
                {1734, 0, 1729, 5093, 56, 0xac650253d6590e36ULL,
                 0x1.c77be5704fd17p-5});
}

}  // namespace
}  // namespace deco::core
