#include "core/search.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

namespace deco::core {
namespace {

// Toy state: an integer; children are 2n+1 and 2n+2 (a binary tree);
// objective is the value itself; feasible above a threshold.
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

TEST(GenericSearchTest, FindsMinimumFeasible) {
  SearchOptions opt;
  opt.max_states = 1000;
  opt.minimize = true;
  const auto r = search(0, tree_callbacks(10, 100), opt);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(*r.best, 10);
  EXPECT_DOUBLE_EQ(r.best_score.objective, 10.0);
}

TEST(GenericSearchTest, FindsMaximumWhenMaximizing) {
  SearchOptions opt;
  opt.max_states = 1000;
  opt.minimize = false;
  const auto r = search(0, tree_callbacks(0, 63), opt);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(*r.best, 63);
}

TEST(GenericSearchTest, RespectsStateBudget) {
  SearchOptions opt;
  opt.max_states = 17;
  const auto r = search(0, tree_callbacks(1 << 20, 1 << 22), opt);
  EXPECT_FALSE(r.best.has_value());  // feasible region unreachable in budget
  EXPECT_LE(r.stats.states_evaluated, 17u);
}

TEST(GenericSearchTest, NoFeasibleStates) {
  SearchOptions opt;
  opt.max_states = 200;
  const auto r = search(0, tree_callbacks(1000, 100), opt);
  EXPECT_FALSE(r.best.has_value());
  EXPECT_GT(r.stats.states_evaluated, 0u);
}

TEST(GenericSearchTest, StaleWaveLimitStopsEarly) {
  SearchOptions opt;
  opt.max_states = 1 << 20;
  opt.batch_size = 4;
  opt.stale_wave_limit = 3;
  const auto r = search(0, tree_callbacks(0, 1 << 18), opt);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_LT(r.stats.states_evaluated, static_cast<std::size_t>(1) << 18);
}

TEST(GenericSearchTest, VisitedStatesNotReexpanded) {
  // A graph where children collide heavily: children(n) = {n+1, n+2}.
  SearchCallbacks<int> cb;
  cb.expand = [](const int& n, std::uint64_t, Expansion<int>& out) {
    if (n >= 50) return;
    for (const int child : {n + 1, n + 2}) {
      const auto key = static_cast<std::uint64_t>(child);
      if (out.fresh(key)) out.push(int{child}, key);
    }
  };
  cb.hash = [](const int& n) { return static_cast<std::uint64_t>(n); };
  std::size_t evaluations = 0;
  cb.evaluate = [&evaluations](std::span<const int> batch) {
    evaluations += batch.size();
    std::vector<Scored> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i] = Scored{true, static_cast<double>(batch[i])};
    }
    return out;
  };
  SearchOptions opt;
  opt.max_states = 10000;
  search(0, cb, opt);
  EXPECT_LE(evaluations, 53u);  // each state evaluated at most once
}

TEST(GenericSearchTest, ChildrenPastTheBudgetAreNotBuilt) {
  // The FIFO frontier can only pop max_states - 1 states after the root, so
  // the breadth-first driver admits no more children than that; the rest
  // are recorded as seen but never built.
  auto cb = tree_callbacks(1 << 20, 1 << 20);
  std::size_t built = 0;
  cb.expand = [&built](const int& n, std::uint64_t, Expansion<int>& out) {
    for (const int child : {2 * n + 1, 2 * n + 2}) {
      const auto key = static_cast<std::uint64_t>(child);
      if (!out.fresh(key)) continue;
      ++built;
      out.push(int{child}, key);
    }
  };
  SearchOptions opt;
  opt.max_states = 40;
  opt.batch_size = 8;
  const auto r = search(0, cb, opt);
  EXPECT_EQ(r.stats.states_evaluated, 40u);
  EXPECT_EQ(r.stats.states_expanded, 40u);
  EXPECT_EQ(built, 39u);
  EXPECT_EQ(r.stats.duplicate_hits, 0u);
}

TEST(AstarSearchTest, FindsOptimumWithAdmissibleHeuristic) {
  auto cb = tree_callbacks(10, 1000);
  cb.g_score = [](const int& n) { return static_cast<double>(n); };
  cb.h_score = [](const int&) { return 0.0; };
  SearchOptions opt;
  opt.max_states = 5000;
  opt.minimize = true;
  const auto r = search(0, cb, opt);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(*r.best, 10);
}

TEST(AstarSearchTest, ExpandsFewerStatesThanGeneric) {
  SearchOptions opt;
  opt.max_states = 100000;
  opt.batch_size = 8;
  const auto generic = search(0, tree_callbacks(900, 4000), opt);

  auto cb = tree_callbacks(900, 4000);
  cb.g_score = [](const int& n) { return static_cast<double>(n); };
  cb.h_score = [](const int&) { return 0.0; };
  const auto astar = search(0, cb, opt);

  ASSERT_TRUE(generic.best.has_value());
  ASSERT_TRUE(astar.best.has_value());
  EXPECT_DOUBLE_EQ(generic.best_score.objective, astar.best_score.objective);
  EXPECT_LT(astar.stats.states_evaluated, generic.stats.states_evaluated);
}

TEST(AstarSearchTest, MaximizeOrdersByHighestScore) {
  auto cb = tree_callbacks(0, 255);
  // Admissible for maximization: f = g + h must upper-bound any descendant's
  // objective, otherwise incumbent pruning can cut off the optimum.
  cb.g_score = [](const int& n) { return static_cast<double>(n); };
  cb.h_score = [](const int& n) { return static_cast<double>(255 - n); };
  SearchOptions opt;
  opt.max_states = 10000;
  opt.minimize = false;
  const auto r = search(0, cb, opt);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(*r.best, 255);
}

TEST(SearchStatsTest, TimingPopulated) {
  SearchOptions opt;
  opt.max_states = 100;
  const auto r = search(0, tree_callbacks(5, 50), opt);
  EXPECT_GE(r.stats.elapsed_ms, 0.0);
  EXPECT_GT(r.stats.waves, 0u);
}

// A diamond-heavy graph (children n+1 and n+2 collide constantly) that both
// search variants can walk with identical callbacks.
SearchCallbacks<int> collide_callbacks(int limit) {
  SearchCallbacks<int> cb;
  cb.expand = [limit](const int& n, std::uint64_t, Expansion<int>& out) {
    if (n >= limit) return;
    for (const int child : {n + 1, n + 2}) {
      const auto key = static_cast<std::uint64_t>(child);
      if (out.fresh(key)) out.push(int{child}, key);
    }
  };
  cb.hash = [](const int& n) { return static_cast<std::uint64_t>(n); };
  cb.evaluate = [](std::span<const int> batch) {
    std::vector<Scored> out(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i] = Scored{true, static_cast<double>(batch[i])};
    }
    return out;
  };
  return cb;
}

TEST(SearchStatsTest, GenericFillsExpansionAndDuplicateCounters) {
  SearchOptions opt;
  opt.max_states = 10000;
  // Exhausted tree walk: every evaluated state is expanded, a binary tree
  // has no duplicate children, and the FIFO order never prunes.
  const auto tree = search(0, tree_callbacks(10, 100), opt);
  EXPECT_EQ(tree.stats.states_expanded, tree.stats.states_evaluated);
  EXPECT_EQ(tree.stats.duplicate_hits, 0u);
  EXPECT_EQ(tree.stats.states_pruned, 0u);

  // The collide graph visits 0..51 once each; every other generated child
  // is rejected by the visited set.
  const auto diamond = search(0, collide_callbacks(50), opt);
  EXPECT_EQ(diamond.stats.states_expanded, diamond.stats.states_evaluated);
  EXPECT_GT(diamond.stats.duplicate_hits, 0u);
}

TEST(SearchStatsTest, AstarFillsExpansionAndDuplicateCounters) {
  auto cb = collide_callbacks(50);
  cb.g_score = [](const int& n) { return static_cast<double>(n); };
  cb.h_score = [](const int&) { return 0.0; };
  SearchOptions opt;
  opt.max_states = 10000;
  // Maximize so the incumbent keeps improving and the frontier keeps
  // advancing (minimizing would prune everything after the root, which is
  // the optimum of this graph).
  opt.minimize = false;
  const auto r = search(0, cb, opt);
  // A* expands every state it evaluates (its pruning happens pre-batch /
  // pre-push, never between evaluation and expansion).
  EXPECT_GT(r.stats.states_expanded, 0u);
  EXPECT_EQ(r.stats.states_expanded, r.stats.states_evaluated);
  EXPECT_GT(r.stats.duplicate_hits, 0u);

  // Incumbent pruning on the tree shows up in states_pruned while the
  // expansion accounting stays consistent.
  auto tree = tree_callbacks(10, 1000);
  tree.g_score = [](const int& n) { return static_cast<double>(n); };
  tree.h_score = [](const int&) { return 0.0; };
  const auto pruned = search(0, tree, opt);
  ASSERT_TRUE(pruned.best.has_value());
  EXPECT_GT(pruned.stats.states_pruned, 0u);
  EXPECT_EQ(pruned.stats.states_expanded, pruned.stats.states_evaluated);
}

// Exact counters of both frontier orders on the toy graphs.  The
// inequality checks above say what each counter means; these pin the
// values, so a change to the wave loop that reorders, prunes or expands
// differently fails here.
struct ToyCounts {
  std::size_t evaluated;
  std::size_t expanded;
  std::size_t pruned;
  std::size_t duplicate_hits;
  std::size_t waves;
  int best;
};

void expect_counts(const SearchResult<int>& r, const ToyCounts& want) {
  SCOPED_TRACE(::testing::Message()
               << "actual {" << r.stats.states_evaluated << ", "
               << r.stats.states_expanded << ", " << r.stats.states_pruned
               << ", " << r.stats.duplicate_hits << ", " << r.stats.waves
               << ", " << (r.best ? *r.best : -1) << "}");
  EXPECT_EQ(r.stats.states_evaluated, want.evaluated);
  EXPECT_EQ(r.stats.states_expanded, want.expanded);
  EXPECT_EQ(r.stats.states_pruned, want.pruned);
  EXPECT_EQ(r.stats.duplicate_hits, want.duplicate_hits);
  EXPECT_EQ(r.stats.waves, want.waves);
  EXPECT_EQ(r.best ? *r.best : -1, want.best);
}

SearchCallbacks<int> best_first(SearchCallbacks<int> cb) {
  cb.g_score = [](const int& n) { return static_cast<double>(n); };
  cb.h_score = [](const int&) { return 0.0; };
  return cb;
}

TEST(SearchStatsTest, FifoOrderExactCounts) {
  SearchOptions opt;
  opt.max_states = 10000;
  opt.batch_size = 8;
  expect_counts(search(0, tree_callbacks(10, 100), opt),
                {101, 101, 0, 0, 15, 10});
  expect_counts(search(0, collide_callbacks(50), opt),
                {52, 52, 0, 49, 27, 0});
  SearchOptions maximize = opt;
  maximize.minimize = false;
  expect_counts(search(0, collide_callbacks(50), maximize),
                {52, 52, 0, 49, 27, 51});
  SearchOptions capped = opt;
  capped.max_states = 300;
  capped.stale_wave_limit = 3;
  expect_counts(search(0, tree_callbacks(40, 4000), capped),
                {71, 71, 0, 0, 11, 40});
}

TEST(SearchStatsTest, BestFirstOrderExactCounts) {
  SearchOptions opt;
  opt.max_states = 10000;
  opt.batch_size = 8;
  expect_counts(search(0, best_first(tree_callbacks(10, 100)), opt),
                {15, 15, 16, 0, 4, 10});
  expect_counts(search(0, best_first(tree_callbacks(900, 4000)), opt),
                {903, 903, 904, 0, 115, 900});
  expect_counts(search(0, best_first(collide_callbacks(50)), opt),
                {1, 1, 2, 0, 1, 0});
  SearchOptions maximize = opt;
  maximize.minimize = false;
  expect_counts(search(0, best_first(collide_callbacks(50)), maximize),
                {52, 52, 0, 49, 27, 51});
  auto bounded = tree_callbacks(0, 255);
  bounded.g_score = [](const int& n) { return static_cast<double>(n); };
  bounded.h_score = [](const int& n) { return static_cast<double>(255 - n); };
  expect_counts(search(0, bounded, maximize), {159, 159, 19, 0, 22, 255});
}

// eval_stall_ms is the time spent inside cb.evaluate: at least the 2 ms each
// wave sleeps there, and part of elapsed_ms.
TEST(PipelinedSearchTest, EvalStallIsRecorded) {
  auto cb = tree_callbacks(10, 500);
  cb.evaluate = [inner = cb.evaluate](std::span<const int> batch) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner(batch);
  };
  SearchOptions opt;
  opt.max_states = 100;
  const auto r = search(0, cb, opt);
  EXPECT_GE(r.stats.eval_stall_ms, 2.0 * static_cast<double>(r.stats.waves));
  EXPECT_LE(r.stats.eval_stall_ms, r.stats.elapsed_ms);
}

// A failure in child generation other than a budget cut escapes the search.
TEST(PipelinedSearchTest, SpeculationExceptionPropagates) {
  auto cb = tree_callbacks(10, 500);
  cb.expand = [](const int&, std::uint64_t, Expansion<int>&) {
    throw std::runtime_error("children failed");
  };
  SearchOptions opt;
  opt.max_states = 100;
  EXPECT_THROW(search(0, cb, opt), std::runtime_error);
}

}  // namespace
}  // namespace deco::core
