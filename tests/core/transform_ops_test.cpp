#include "core/transform_ops.hpp"

#include <gtest/gtest.h>

#include "tests/core/test_fixtures.hpp"

namespace deco::core {
namespace {

using testing::ec2;

workflow::Workflow diamond() {
  workflow::Workflow wf("diamond");
  wf.add_task({"a", "p", 1, 0, 0});
  wf.add_task({"b", "p", 1, 0, 0});
  wf.add_task({"c", "p", 1, 0, 0});
  wf.add_task({"d", "p", 1, 0, 0});
  wf.add_edge(0, 1, 1);
  wf.add_edge(0, 2, 1);
  wf.add_edge(1, 3, 1);
  wf.add_edge(2, 3, 1);
  return wf;
}

TEST(TransformTest, PromoteBumpsOneTask) {
  const auto wf = diamond();
  const sim::Plan plan = sim::Plan::uniform(4, 0);
  const auto children = apply_op(TransformOp::kPromote, plan, wf, ec2());
  ASSERT_EQ(children.size(), 4u);  // one per task
  for (std::size_t i = 0; i < children.size(); ++i) {
    std::size_t changed = 0;
    for (workflow::TaskId t = 0; t < 4; ++t) {
      if (children[i][t].vm_type != plan[t].vm_type) {
        ++changed;
        EXPECT_EQ(children[i][t].vm_type, plan[t].vm_type + 1);
      }
    }
    EXPECT_EQ(changed, 1u);
  }
}

TEST(TransformTest, PromoteRespectsTypeCeiling) {
  const auto wf = diamond();
  const sim::Plan plan =
      sim::Plan::uniform(4, static_cast<cloud::TypeId>(ec2().type_count() - 1));
  EXPECT_TRUE(apply_op(TransformOp::kPromote, plan, wf, ec2()).empty());
}

TEST(TransformTest, DemoteRespectsFloor) {
  const auto wf = diamond();
  const sim::Plan plan = sim::Plan::uniform(4, 0);
  EXPECT_TRUE(apply_op(TransformOp::kDemote, plan, wf, ec2()).empty());
  const sim::Plan upper = sim::Plan::uniform(4, 2);
  EXPECT_EQ(apply_op(TransformOp::kDemote, upper, wf, ec2()).size(), 4u);
}

TEST(TransformTest, FocusLimitsPromotion) {
  const auto wf = diamond();
  const sim::Plan plan = sim::Plan::uniform(4, 0);
  TransformOptions opt;
  opt.focus_tasks = {1, 3};
  const auto children = apply_op(TransformOp::kPromote, plan, wf, ec2(), opt);
  EXPECT_EQ(children.size(), 2u);
}

TEST(TransformTest, MergeGroupsParentChildPairs) {
  const auto wf = diamond();
  const sim::Plan plan = sim::Plan::uniform(4, 1);
  const auto children = apply_op(TransformOp::kMerge, plan, wf, ec2());
  EXPECT_EQ(children.size(), 4u);  // one per edge (all same type)
  for (const auto& child : children) {
    std::size_t grouped = 0;
    for (workflow::TaskId t = 0; t < 4; ++t) {
      if (child[t].group >= 0) ++grouped;
    }
    EXPECT_EQ(grouped, 2u);
  }
}

TEST(TransformTest, MergeSkipsMixedTypePairs) {
  const auto wf = diamond();
  sim::Plan plan = sim::Plan::uniform(4, 1);
  plan[0].vm_type = 2;  // parent differs from every child
  const auto children = apply_op(TransformOp::kMerge, plan, wf, ec2());
  EXPECT_EQ(children.size(), 2u);  // only edges b->d and c->d remain
}

TEST(TransformTest, CoScheduleGroupsIndependentTasks) {
  const auto wf = diamond();
  const sim::Plan plan = sim::Plan::uniform(4, 0);
  TransformOptions opt;
  opt.focus_tasks = {1, 2};  // the two parallel middle tasks
  const auto children =
      apply_op(TransformOp::kCoSchedule, plan, wf, ec2(), opt);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0][1].group, children[0][2].group);
  EXPECT_GE(children[0][1].group, 0);
}

TEST(TransformTest, SplitUndoesGrouping) {
  const auto wf = diamond();
  sim::Plan plan = sim::Plan::uniform(4, 0);
  plan[1].group = 3;
  plan[2].group = 3;
  const auto children = apply_op(TransformOp::kSplit, plan, wf, ec2());
  EXPECT_EQ(children.size(), 2u);
  for (const auto& child : children) {
    int grouped = 0;
    for (workflow::TaskId t = 0; t < 4; ++t) {
      if (child[t].group >= 0) ++grouped;
    }
    EXPECT_EQ(grouped, 1);
  }
}

TEST(TransformTest, MoveJoinsExistingGroup) {
  const auto wf = diamond();
  sim::Plan plan = sim::Plan::uniform(4, 0);
  plan[1].group = 5;
  const auto children = apply_op(TransformOp::kMove, plan, wf, ec2());
  // Tasks 0, 2, 3 can move into group 5 (same type/region).
  EXPECT_EQ(children.size(), 3u);
  for (const auto& child : children) {
    int in_group = 0;
    for (workflow::TaskId t = 0; t < 4; ++t) {
      if (child[t].group == 5) ++in_group;
    }
    EXPECT_EQ(in_group, 2);
  }
}

TEST(TransformTest, HashDistinguishesPlans) {
  sim::Plan a = sim::Plan::uniform(4, 0);
  sim::Plan b = a;
  EXPECT_EQ(plan_hash(a), plan_hash(b));
  b[2].vm_type = 1;
  EXPECT_NE(plan_hash(a), plan_hash(b));
  b = a;
  b[2].group = 0;
  EXPECT_NE(plan_hash(a), plan_hash(b));
  b = a;
  b[2].region = 1;
  EXPECT_NE(plan_hash(a), plan_hash(b));
}

TEST(TransformTest, OpNames) {
  EXPECT_EQ(to_string(TransformOp::kPromote), "Promote");
  EXPECT_EQ(to_string(TransformOp::kSplit), "Split");
}

}  // namespace
}  // namespace deco::core
