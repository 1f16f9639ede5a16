#include "workflow/ensemble.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

namespace deco::workflow {
namespace {

EnsembleOptions options(EnsembleType type, std::size_t n = 30) {
  EnsembleOptions opt;
  opt.app = AppType::kLigo;
  opt.type = type;
  opt.num_workflows = n;
  opt.sizes = {20, 100, 1000};
  return opt;
}

TEST(EnsembleTest, MemberCountMatches) {
  util::Rng rng(1);
  const Ensemble e = make_ensemble(options(EnsembleType::kConstant, 40), rng);
  EXPECT_EQ(e.members.size(), 40u);
}

TEST(EnsembleTest, ConstantAllSameSize) {
  util::Rng rng(2);
  const Ensemble e = make_ensemble(options(EnsembleType::kConstant), rng);
  std::set<std::size_t> sizes;
  for (const auto& m : e.members) sizes.insert(m.workflow.task_count());
  // Jitter never changes the task count for a fixed requested size.
  EXPECT_EQ(sizes.size(), 1u);
}

TEST(EnsembleTest, UniformUsesMultipleSizes) {
  util::Rng rng(3);
  const Ensemble e = make_ensemble(options(EnsembleType::kUniformUnsorted), rng);
  std::set<std::size_t> sizes;
  for (const auto& m : e.members) sizes.insert(m.workflow.task_count());
  EXPECT_GT(sizes.size(), 1u);
}

TEST(EnsembleTest, SortedPutsLargestFirst) {
  util::Rng rng(4);
  const Ensemble e = make_ensemble(options(EnsembleType::kUniformSorted), rng);
  for (std::size_t i = 0; i + 1 < e.members.size(); ++i) {
    EXPECT_GE(e.members[i].workflow.task_count(),
              e.members[i + 1].workflow.task_count());
    EXPECT_LT(e.members[i].priority, e.members[i + 1].priority);
  }
}

TEST(EnsembleTest, PrioritiesAreAPermutation) {
  for (const EnsembleType type : kAllEnsembleTypes) {
    util::Rng rng(5);
    const Ensemble e = make_ensemble(options(type), rng);
    std::set<int> priorities;
    for (const auto& m : e.members) priorities.insert(m.priority);
    EXPECT_EQ(priorities.size(), e.members.size()) << to_string(type);
    EXPECT_EQ(*priorities.begin(), 0) << to_string(type);
  }
}

TEST(EnsembleTest, ParetoIsSkewedTowardSmall) {
  util::Rng rng(6);
  const Ensemble e =
      make_ensemble(options(EnsembleType::kParetoUnsorted, 50), rng);
  int small = 0;
  for (const auto& m : e.members) {
    if (m.workflow.task_count() < 60) ++small;
  }
  EXPECT_GT(small, 25);  // the tail is heavy but most draws are small
}

TEST(EnsembleTest, ScoreWeightsByPriority) {
  Ensemble e;
  for (int p = 0; p < 3; ++p) {
    EnsembleMember m;
    m.priority = p;
    e.members.push_back(std::move(m));
  }
  EXPECT_DOUBLE_EQ(e.score({true, false, false}), 1.0);
  EXPECT_DOUBLE_EQ(e.score({false, true, false}), 0.5);
  EXPECT_DOUBLE_EQ(e.score({true, true, true}), 1.75);
  EXPECT_DOUBLE_EQ(e.max_score(), 1.75);
}

TEST(EnsembleTest, ScoreHandlesShortCompletionVector) {
  Ensemble e;
  EnsembleMember m;
  m.priority = 0;
  e.members.push_back(std::move(m));
  e.members.push_back(EnsembleMember{});
  EXPECT_DOUBLE_EQ(e.score({true}), 1.0);
}

TEST(EnsembleTest, AdmitMatchesBruteForceOptimum) {
  // Every subset of up to 16 members, against the greedy admission.  Costs
  // are multiples of 1/4 and priorities stay below 48, so every cost sum and
  // every score sum is exact and the brute force may sum in any order.
  util::Rng rng(2015);
  for (std::size_t n = 1; n <= 16; ++n) {
    const int reps = n <= 12 ? 6 : 2;
    for (int rep = 0; rep < reps; ++rep) {
      // Distinct priorities with gaps, shuffled across members.
      std::vector<int> pool(3 * n);
      std::iota(pool.begin(), pool.end(), 0);
      for (std::size_t i = pool.size(); i > 1; --i) {
        std::swap(pool[i - 1], pool[rng.below(i)]);
      }
      Ensemble e;
      std::vector<double> costs(n);
      std::vector<std::uint8_t> feasible(n);
      double total = 0;
      for (std::size_t i = 0; i < n; ++i) {
        EnsembleMember m;
        m.priority = pool[i];
        e.members.push_back(std::move(m));
        costs[i] = static_cast<double>(rng.below(400)) / 4;
        feasible[i] = rng.uniform() >= 0.1 ? 1 : 0;
        total += costs[i];
      }

      // Cost and score of every subset, built from the subset without its
      // lowest-index member.
      const std::size_t subsets = std::size_t{1} << n;
      std::vector<double> cost(subsets, 0);
      std::vector<double> score(subsets, 0);
      std::vector<std::uint8_t> allowed(subsets, 1);
      for (std::size_t mask = 1; mask < subsets; ++mask) {
        const auto low = static_cast<std::size_t>(std::countr_zero(mask));
        const std::size_t rest = mask & (mask - 1);
        cost[mask] = cost[rest] + costs[low];
        score[mask] = score[rest] + std::ldexp(1.0, -e.members[low].priority);
        allowed[mask] = allowed[rest] && feasible[low];
      }

      std::vector<double> budgets = {0, total, total + 1};
      for (int k = 1; k < 8; ++k) budgets.push_back(total * k / 8);
      for (int k = 0; k < 4; ++k) {  // exactly on a subset's cost
        budgets.push_back(cost[rng.below(subsets)]);
      }
      for (const double budget : budgets) {
        e.budget = budget;
        std::size_t best = 0;
        for (std::size_t mask = 1; mask < subsets; ++mask) {
          if (allowed[mask] && cost[mask] <= budget &&
              score[mask] > score[best]) {
            best = mask;
          }
        }
        const Admission got = e.admit(costs, feasible);
        std::size_t got_mask = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (got.admitted[i]) got_mask |= std::size_t{1} << i;
        }
        ASSERT_EQ(got_mask, best) << "n " << n << " rep " << rep
                                  << " budget " << budget;
        EXPECT_EQ(e.score(got.admitted), score[best]);
        EXPECT_EQ(got.total_cost, cost[best]);
        EXPECT_LE(got.total_cost, budget);
      }
    }
  }
}

TEST(EnsembleTest, AllMembersAcyclic) {
  for (const EnsembleType type : kAllEnsembleTypes) {
    util::Rng rng(7);
    const Ensemble e = make_ensemble(options(type, 10), rng);
    for (const auto& m : e.members) {
      EXPECT_TRUE(m.workflow.is_acyclic());
    }
  }
}

}  // namespace
}  // namespace deco::workflow
