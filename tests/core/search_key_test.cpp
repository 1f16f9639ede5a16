// Parent-relative child keys: for each of the three search users, every key
// its transition derives in O(1) from the parent's key equals the
// from-scratch key of the child it pushed, along random child walks (the
// walk keeps the derived keys, so an error would compound step by step).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/declarative.hpp"
#include "core/followcost.hpp"
#include "core/scheduling.hpp"
#include "core/search.hpp"
#include "tests/core/test_fixtures.hpp"
#include "util/rng.hpp"
#include "vgpu/device.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::store;

/// Walks `steps` random children from `root`.  Each step expands the current
/// state against an empty visited set, checks every pushed child's key
/// against `scratch_key`, and moves to a random child with the key the
/// transition derived.  Returns the number of children checked.
template <typename State, typename Expand, typename ScratchKey>
std::size_t walk(State root, std::size_t steps, std::uint64_t seed,
                 Expand expand, ScratchKey scratch_key) {
  util::Rng rng(seed);
  State state = std::move(root);
  std::uint64_t key = scratch_key(state);
  std::size_t checked = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    std::vector<std::pair<State, std::uint64_t>> children;
    detail::VisitedSet visited;
    visited.insert(key);
    std::size_t duplicates = 0;
    Expansion<State> out(visited, duplicates,
                         [&children](State&& child, std::uint64_t k) {
                           children.emplace_back(std::move(child), k);
                         });
    expand(state, key, out);
    for (const auto& [child, child_key] : children) {
      EXPECT_EQ(child_key, scratch_key(child)) << "step " << step;
      ++checked;
    }
    if (children.empty()) break;
    auto& next = children[rng.below(children.size())];
    state = std::move(next.first);
    key = next.second;
  }
  return checked;
}

TEST(SearchKeyTest, SchedulingPromotionKeysMatchPlanHash) {
  util::Rng gen(3);
  const std::vector<workflow::Workflow> workflows = {
      workflow::make_montage(1, gen), workflow::make_ligo(40, gen),
      workflow::make_epigenomics(40, gen), workflow::make_cybershake(40, gen)};
  for (std::size_t w = 0; w < workflows.size(); ++w) {
    TaskTimeEstimator estimator(ec2(), store());
    vgpu::SerialBackend backend;
    SchedulingProblem problem(workflows[w], estimator, backend);
    for (cloud::RegionId region : {cloud::RegionId{0}, cloud::RegionId{1}}) {
      const std::size_t checked = walk(
          problem.initial_plan(region), 200, 11 + w,
          [&problem](const sim::Plan& plan, std::uint64_t key,
                     Expansion<sim::Plan>& out) {
            problem.expand(plan, key, out);
          },
          plan_hash);
      EXPECT_GT(checked, 0u) << workflows[w].name();
    }
  }
}

TEST(SearchKeyTest, PlanRekeyCoversRegionsAndGroups) {
  // The scheduling search only promotes, but the plan key covers every
  // placement field: a random one-field move anywhere rekeys exactly.
  util::Rng rng(5);
  sim::Plan plan = sim::Plan::uniform(64, 0);
  std::uint64_t key = plan_hash(plan);
  for (int step = 0; step < 2000; ++step) {
    const std::size_t t = rng.below(plan.size());
    const sim::TaskPlacement from = plan[t];
    sim::TaskPlacement to = from;
    switch (rng.below(3)) {
      case 0: to.vm_type = static_cast<cloud::TypeId>(rng.below(8)); break;
      case 1: to.region = static_cast<cloud::RegionId>(rng.below(4)); break;
      default:
        to.group = static_cast<std::int32_t>(rng.below(40)) - 1;
    }
    key = rekey(key, t, placement_value(from), placement_value(to));
    plan[t] = to;
    ASSERT_EQ(key, plan_hash(plan)) << "step " << step;
  }
}

TEST(SearchKeyTest, DeclarativeAssignmentKeysMatchScratchKey) {
  for (std::size_t choices : {2u, 3u, 7u}) {
    const std::size_t checked = walk(
        std::vector<int>(25, 0), 200, choices,
        [choices](const std::vector<int>& a, std::uint64_t key,
                  Expansion<std::vector<int>>& out) {
          expand_assignment(a, key, choices, out);
        },
        assignment_key);
    EXPECT_GT(checked, 0u);
  }
}

TEST(SearchKeyTest, FollowCostRegionKeysMatchScratchKey) {
  util::Rng rng(29);
  const std::size_t n = 12;
  const std::size_t regions = 5;
  std::vector<std::vector<bool>> feasible(n, std::vector<bool>(regions));
  for (auto& row : feasible) {
    for (std::size_t r = 0; r < regions; ++r) row[r] = rng.uniform() < 0.7;
  }
  std::vector<cloud::RegionId> root(n);
  for (auto& r : root) r = static_cast<cloud::RegionId>(rng.below(regions));
  const std::size_t checked = walk(
      root, 300, 31,
      [&feasible](const std::vector<cloud::RegionId>& state, std::uint64_t key,
                  Expansion<std::vector<cloud::RegionId>>& out) {
        expand_region_flips(state, key, feasible, out);
      },
      region_vector_key);
  EXPECT_GT(checked, 0u);
}

TEST(SearchKeyTest, DuplicateKeysAreRejectedBeforeTheChildIsBuilt) {
  // Two parents sharing a child: the second expansion finds the shared key
  // taken, counts a duplicate and pushes nothing for it.
  detail::VisitedSet visited;
  std::size_t duplicates = 0;
  std::vector<std::vector<int>> pushed;
  Expansion<std::vector<int>> out(
      visited, duplicates,
      [&pushed](std::vector<int>&& child, std::uint64_t) {
        pushed.push_back(std::move(child));
      });
  const std::vector<int> a = {1, 0};
  const std::vector<int> b = {0, 1};
  expand_assignment(a, assignment_key(a), 2, out);  // -> {1, 1}
  expand_assignment(b, assignment_key(b), 2, out);  // -> {1, 1} again
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0], (std::vector<int>{1, 1}));
  EXPECT_EQ(duplicates, 1u);
}

}  // namespace
}  // namespace deco::core
