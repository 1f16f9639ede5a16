#include "util/budget.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace deco::util {
namespace {

TEST(CancelTokenTest, CancelIsSticky) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(SolveBudgetTest, DefaultIsUnlimited) {
  SolveBudget budget;
  EXPECT_TRUE(budget.unlimited());
  budget.wall_ms = 5;
  EXPECT_FALSE(budget.unlimited());
}

TEST(BudgetTrackerTest, InertTrackerNeverFires) {
  BudgetTracker tracker;
  EXPECT_FALSE(tracker.active());
  EXPECT_FALSE(tracker.should_stop());
  EXPECT_FALSE(tracker.exhausted());
  EXPECT_NO_THROW(tracker.checkpoint());
  EXPECT_EQ(tracker.trigger(), BudgetTrigger::kNone);
}

TEST(BudgetTrackerTest, UnlimitedArmedTrackerNeverFires) {
  // An armed tracker with no limits behaves exactly like an inert one at
  // the checkpoint level (the generous-budget bit-identity property rests
  // on this).
  BudgetTracker tracker{SolveBudget{}};
  EXPECT_TRUE(tracker.active());
  EXPECT_FALSE(tracker.should_stop());
  EXPECT_NO_THROW(tracker.checkpoint());
}

TEST(BudgetTrackerTest, WallClockFires) {
  SolveBudget budget;
  budget.wall_ms = 1;
  BudgetTracker tracker(budget);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(tracker.should_stop());
  EXPECT_TRUE(tracker.exhausted());
  EXPECT_EQ(tracker.trigger(), BudgetTrigger::kWallClock);
  EXPECT_THROW(tracker.checkpoint(), BudgetExhaustedError);
}

TEST(BudgetTrackerTest, CancelTokenFires) {
  CancelToken token;
  SolveBudget budget;
  budget.cancel = &token;
  BudgetTracker tracker(budget);
  EXPECT_FALSE(tracker.should_stop());
  token.cancel();
  EXPECT_TRUE(tracker.should_stop());
  EXPECT_EQ(tracker.trigger(), BudgetTrigger::kCancel);
}

TEST(BudgetTrackerTest, FirstTriggerWins) {
  SolveBudget budget;
  budget.wall_ms = 60'000;
  BudgetTracker tracker(budget);
  tracker.fire(BudgetTrigger::kMemory);
  tracker.fire(BudgetTrigger::kCancel);
  EXPECT_EQ(tracker.trigger(), BudgetTrigger::kMemory);
}

TEST(BudgetTrackerTest, FiringCancelsLaunches) {
  BudgetTracker tracker{SolveBudget{}};
  EXPECT_FALSE(tracker.launch_cancel()->cancelled());
  tracker.fire(BudgetTrigger::kWallClock);
  EXPECT_TRUE(tracker.launch_cancel()->cancelled());
}

TEST(BudgetTrackerTest, ExceptionCarriesTrigger) {
  const BudgetExhaustedError error(BudgetTrigger::kMemory);
  EXPECT_EQ(error.trigger(), BudgetTrigger::kMemory);
  EXPECT_NE(std::string(error.what()).find(to_string(BudgetTrigger::kMemory)),
            std::string::npos);
}

TEST(BudgetTrackerTest, MemoryAccountingSumsComponents) {
  SolveBudget budget;
  budget.max_bytes = 1000;
  BudgetTracker tracker(budget);
  EXPECT_FALSE(tracker.over_memory_budget());
  tracker.set_bytes(BudgetTracker::Component::kSegmentCache, 600);
  tracker.set_bytes(BudgetTracker::Component::kVisited, 300);
  EXPECT_EQ(tracker.total_bytes(), 900u);
  EXPECT_FALSE(tracker.over_memory_budget());
  tracker.set_bytes(BudgetTracker::Component::kVisited, 500);
  EXPECT_TRUE(tracker.over_memory_budget());
  tracker.set_bytes(BudgetTracker::Component::kSegmentCache, 0);
  EXPECT_FALSE(tracker.over_memory_budget());
}

TEST(BudgetTrackerTest, ShrinkRequestIsConsumedOnce) {
  BudgetTracker tracker{SolveBudget{}};
  EXPECT_FALSE(tracker.consume_visited_shrink_request());
  tracker.request_visited_shrink();
  EXPECT_TRUE(tracker.consume_visited_shrink_request());
  EXPECT_FALSE(tracker.consume_visited_shrink_request());
}

TEST(BudgetTrackerTest, ReportSnapshotsOutcome) {
  SolveBudget budget;
  budget.wall_ms = 60'000;
  BudgetTracker tracker(budget);
  tracker.set_bytes(BudgetTracker::Component::kSegmentCache, 123);
  SolveReport clean = tracker.report(42);
  EXPECT_FALSE(clean.budget_exhausted);
  EXPECT_EQ(clean.trigger, BudgetTrigger::kNone);
  EXPECT_EQ(clean.states_at_cutoff, 42u);
  EXPECT_EQ(clean.bytes_at_cutoff, 123u);
  EXPECT_GE(clean.elapsed_ms, 0.0);

  tracker.fire(BudgetTrigger::kWallClock);
  SolveReport cut = tracker.report(99);
  EXPECT_TRUE(cut.budget_exhausted);
  EXPECT_EQ(cut.trigger, BudgetTrigger::kWallClock);
  EXPECT_EQ(cut.states_at_cutoff, 99u);
}

TEST(BudgetTrackerTest, TriggerNamesAreDistinct) {
  EXPECT_STRNE(to_string(BudgetTrigger::kNone),
               to_string(BudgetTrigger::kCancel));
  EXPECT_STRNE(to_string(BudgetTrigger::kCancel),
               to_string(BudgetTrigger::kWallClock));
  EXPECT_STRNE(to_string(BudgetTrigger::kWallClock),
               to_string(BudgetTrigger::kMemory));
}

}  // namespace
}  // namespace deco::util
