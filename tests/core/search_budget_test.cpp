// Solve-budget behavior of the search drivers: generous budgets are
// bit-identical to unbudgeted runs, tiny budgets yield anytime incumbents,
// and the memory-degradation ladder shrinks the visited set before cutting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/search.hpp"
#include "util/budget.hpp"

namespace deco::core {
namespace {

// Same toy state as search_test.cpp: a binary tree over integers.
SearchCallbacks<int> tree_callbacks(int feasible_from, int max_value) {
  SearchCallbacks<int> cb;
  cb.expand = [max_value](const int& n, std::uint64_t, Expansion<int>& out) {
    for (const int child : {2 * n + 1, 2 * n + 2}) {
      const auto key = static_cast<std::uint64_t>(child);
      if (child <= max_value && out.fresh(key)) out.push(int{child}, key);
    }
  };
  cb.hash = [](const int& n) { return static_cast<std::uint64_t>(n); };
  cb.evaluate = [feasible_from](std::span<const int> batch) {
    std::vector<Scored> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i] = Scored{batch[i] >= feasible_from, static_cast<double>(batch[i])};
    }
    return out;
  };
  return cb;
}

void expect_identical(const SearchResult<int>& a, const SearchResult<int>& b) {
  EXPECT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best && b.best) {
    EXPECT_EQ(*a.best, *b.best);
    EXPECT_EQ(a.best_score.objective, b.best_score.objective);
  }
  EXPECT_EQ(a.stats.states_evaluated, b.stats.states_evaluated);
  EXPECT_EQ(a.stats.states_expanded, b.stats.states_expanded);
  EXPECT_EQ(a.stats.states_pruned, b.stats.states_pruned);
  EXPECT_EQ(a.stats.duplicate_hits, b.stats.duplicate_hits);
  EXPECT_EQ(a.stats.visited_evicted, b.stats.visited_evicted);
  EXPECT_EQ(a.stats.waves, b.stats.waves);
}

TEST(SearchBudgetTest, GenerousBudgetIsBitIdenticalToUnbudgeted) {
  SearchOptions opt;
  opt.max_states = 3000;
  const auto plain = search(0, tree_callbacks(10, 2000), opt);

  util::SolveBudget spec;
  spec.wall_ms = 1e9;
  spec.max_bytes = std::size_t{1} << 40;
  util::BudgetTracker tracker(spec);
  SearchOptions budgeted = opt;
  budgeted.budget = &tracker;
  const auto under = search(0, tree_callbacks(10, 2000), budgeted);

  expect_identical(plain, under);
  EXPECT_FALSE(under.budget.budget_exhausted);
  EXPECT_EQ(under.budget.trigger, util::BudgetTrigger::kNone);
  EXPECT_EQ(under.budget.states_at_cutoff, under.stats.states_evaluated);
}

TEST(SearchBudgetTest, GenerousBudgetIsBitIdenticalForAstar) {
  auto make = [] {
    auto cb = tree_callbacks(900, 4000);
    cb.g_score = [](const int& n) { return static_cast<double>(n); };
    cb.h_score = [](const int&) { return 0.0; };
    return cb;
  };
  SearchOptions opt;
  opt.max_states = 4000;
  const auto plain = search(0, make(), opt);

  util::SolveBudget spec;
  spec.wall_ms = 1e9;
  util::BudgetTracker tracker(spec);
  SearchOptions budgeted = opt;
  budgeted.budget = &tracker;
  const auto under = search(0, make(), budgeted);
  expect_identical(plain, under);
  EXPECT_FALSE(under.budget.budget_exhausted);
}

TEST(SearchBudgetTest, TinyWallBudgetReturnsAnytimeIncumbent) {
  auto cb = tree_callbacks(0, 1 << 20);  // everything feasible
  cb.evaluate = [inner = cb.evaluate](std::span<const int> batch) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner(batch);
  };
  util::SolveBudget spec;
  spec.wall_ms = 10;
  util::BudgetTracker tracker(spec);
  SearchOptions opt;
  opt.max_states = 1 << 20;  // far beyond what 10 ms allows
  opt.batch_size = 4;
  opt.stale_wave_limit = 0;
  opt.budget = &tracker;
  const auto r = search(0, cb, opt);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_TRUE(r.budget.budget_exhausted);
  EXPECT_EQ(r.budget.trigger, util::BudgetTrigger::kWallClock);
  EXPECT_LT(r.stats.states_evaluated, opt.max_states);
  EXPECT_EQ(r.budget.states_at_cutoff, r.stats.states_evaluated);
  EXPECT_GT(r.budget.elapsed_ms, 0.0);
}

TEST(SearchBudgetTest, CancelTokenCutsSearchMidway) {
  util::CancelToken token;
  util::SolveBudget spec;
  spec.cancel = &token;
  util::BudgetTracker tracker(spec);

  std::atomic<std::size_t> evaluated{0};
  auto cb = tree_callbacks(0, 1 << 20);
  cb.evaluate = [&, inner = cb.evaluate](std::span<const int> batch) {
    if (evaluated.fetch_add(batch.size()) >= 64) token.cancel();
    return inner(batch);
  };
  SearchOptions opt;
  opt.max_states = 1 << 20;
  opt.batch_size = 8;
  opt.stale_wave_limit = 0;
  opt.budget = &tracker;
  const auto r = search(0, cb, opt);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_TRUE(r.budget.budget_exhausted);
  EXPECT_EQ(r.budget.trigger, util::BudgetTrigger::kCancel);
  EXPECT_LT(r.stats.states_evaluated, std::size_t{1} << 20);
}

TEST(SearchBudgetTest, KernelBudgetExceptionBecomesAnytimeResult) {
  // Simulates the evaluator-kernel path: the evaluation itself observes the
  // fired budget and throws; the driver keeps its incumbent.
  util::SolveBudget spec;
  spec.wall_ms = 1e9;
  util::BudgetTracker tracker(spec);
  std::atomic<std::size_t> waves{0};
  auto cb = tree_callbacks(0, 1 << 20);
  cb.evaluate = [&, inner = cb.evaluate](std::span<const int> batch) {
    if (waves.fetch_add(1) >= 4) {
      tracker.fire(util::BudgetTrigger::kMemory);
      tracker.checkpoint();  // throws BudgetExhaustedError
    }
    return inner(batch);
  };
  SearchOptions opt;
  opt.max_states = 1 << 20;
  opt.batch_size = 8;
  opt.stale_wave_limit = 0;
  opt.budget = &tracker;
  const auto r = search(0, cb, opt);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_TRUE(r.budget.budget_exhausted);
  EXPECT_EQ(r.budget.trigger, util::BudgetTrigger::kMemory);
}

TEST(SearchBudgetTest, ShrinkRequestEvictsOldestVisitedEntries) {
  // The evaluator's degradation ladder requests a visited shrink; the driver
  // services it at the next wave boundary — evictions appear in the stats
  // and the search keeps going (no cutoff while shrinking still helps).
  util::SolveBudget spec;
  spec.max_bytes = std::size_t{1} << 40;  // memory budget armed, never over
  util::BudgetTracker tracker(spec);
  std::atomic<bool> requested{false};
  auto cb = tree_callbacks(10, 4000);
  cb.evaluate = [&, inner = cb.evaluate](std::span<const int> batch) {
    auto out = inner(batch);
    // One request once the set is big enough that halving beats the floor.
    if (!requested.load() && batch.front() > 600) {
      requested.store(true);
      tracker.request_visited_shrink();
    }
    return out;
  };
  SearchOptions opt;
  opt.max_states = 4000;
  opt.batch_size = 16;
  opt.stale_wave_limit = 0;
  opt.budget = &tracker;
  const auto r = search(0, cb, opt);
  EXPECT_TRUE(requested.load());
  EXPECT_GT(r.stats.visited_evicted, 0u);
  EXPECT_FALSE(r.budget.budget_exhausted);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(*r.best, 10);
}

TEST(SearchBudgetTest, ShrinkingPastTheFloorFiresMemoryCutoff) {
  // A shrink request every wave drives the set to its floor; once nothing is
  // left to evict the ladder's last rung fires kMemory and the search ends
  // with its incumbent.
  util::SolveBudget spec;
  spec.max_bytes = 1;  // over budget from the first wave on
  util::BudgetTracker tracker(spec);
  auto cb = tree_callbacks(0, 1 << 20);
  cb.evaluate = [&, inner = cb.evaluate](std::span<const int> batch) {
    tracker.request_visited_shrink();
    return inner(batch);
  };
  SearchOptions opt;
  opt.max_states = 1 << 20;
  opt.batch_size = 8;
  opt.stale_wave_limit = 0;
  opt.budget = &tracker;
  const auto r = search(0, cb, opt);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_TRUE(r.budget.budget_exhausted);
  EXPECT_EQ(r.budget.trigger, util::BudgetTrigger::kMemory);
  EXPECT_LT(r.stats.states_evaluated, std::size_t{1} << 20);
}

TEST(VisitedShrinkTest, ShrinkToDropsOldestAndCapsCapacity) {
  detail::VisitedSet set(/*track_order=*/true);
  for (std::uint64_t h = 0; h < 100; ++h) EXPECT_TRUE(set.insert(h));
  EXPECT_EQ(set.size(), 100u);
  set.shrink_to(10);
  EXPECT_EQ(set.size(), 10u);
  EXPECT_EQ(set.evicted(), 90u);
  EXPECT_EQ(set.capacity(), 10u);
  // The oldest hashes were dropped (re-inserting one succeeds)...
  EXPECT_TRUE(set.insert(0));
  // ...while the newest survived (re-inserting is a duplicate hit).
  EXPECT_FALSE(set.insert(99));
}

TEST(VisitedShrinkTest, WrappedBoundedRingShrinksOldestFirst) {
  detail::VisitedSet set(/*track_order=*/true);
  for (std::uint64_t h = 0; h < 8; ++h) set.insert(h);
  set.shrink_to(8);  // caps the set at 8 without evicting
  EXPECT_EQ(set.evicted(), 0u);
  for (std::uint64_t h = 8; h < 12; ++h) set.insert(h);  // ring wrapped
  EXPECT_EQ(set.evicted(), 4u);  // 0..3 FIFO-evicted by capacity
  EXPECT_TRUE(set.insert(0));    // evicts 4: 0 is new again
  EXPECT_EQ(set.evicted(), 5u);
  set.shrink_to(2);
  EXPECT_EQ(set.size(), 2u);
  // Only the two newest (11, 0) remain.
  EXPECT_FALSE(set.insert(11));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.insert(10));
}

TEST(VisitedShrinkTest, UntrackedUnboundedSetCannotShrink) {
  detail::VisitedSet set(/*track_order=*/false);
  for (std::uint64_t h = 0; h < 50; ++h) set.insert(h);
  set.shrink_to(5);  // no insertion order recorded: a documented no-op
  EXPECT_EQ(set.size(), 50u);
  EXPECT_EQ(set.evicted(), 0u);
}

}  // namespace
}  // namespace deco::core
