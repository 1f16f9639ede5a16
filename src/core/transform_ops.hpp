// Workflow transformation operations (Section 5.3, citing the authors' TCC
// paper "Transformation-based Monetary Cost Optimizations for Workflows in
// the Cloud").  The paper generates the generic search's state transitions
// with six operations; in the plan representation of this repository they
// act as:
//
//   Promote(t)      — move task t to the next more powerful instance type.
//   Demote(t)       — move task t to the next cheaper instance type.
//   Merge(p, c)     — put a parent/child pair with equal type on the same
//                     instance (shares the partial hour, drops the transfer).
//   CoSchedule(a,b) — put two independent same-type tasks on one instance.
//   Move(t)         — move task t into an existing instance group of its type
//                     (delaying it behind that instance's queue).
//   Split(t)        — take task t out of its instance group (undoes
//                     Merge/CoSchedule/Move for t).
//
// Each generator returns the child states produced by one operation class.
// The scheduling search does not call them: SchedulingProblem::expand
// promotes along the critical path directly, with parent-relative keys, and
// apply_op runs only in transform_ops_test.  Bringing the other five
// operations into the search is ROADMAP item 8.
#pragma once

#include <string>
#include <vector>

#include "cloud/instance_type.hpp"
#include "core/search.hpp"
#include "sim/plan.hpp"
#include "workflow/dag.hpp"

namespace deco::core {

enum class TransformOp { kPromote, kDemote, kMerge, kCoSchedule, kMove, kSplit };

std::string to_string(TransformOp op);

struct TransformOptions {
  /// Restrict Promote/Demote generation to these tasks (empty = all tasks),
  /// e.g. the current critical path, so the branching factor stays
  /// proportional to the path, not the workflow.  (The scheduling search
  /// restricts its own promotions to the critical path in
  /// SchedulingProblem::expand and does not go through this option.)
  std::vector<workflow::TaskId> focus_tasks;
};

/// All children of `plan` under one operation.
std::vector<sim::Plan> apply_op(TransformOp op, const sim::Plan& plan,
                                const workflow::Workflow& wf,
                                const cloud::Catalog& catalog,
                                const TransformOptions& options = {});

/// The integer one task's placement contributes to its plan's key: type in
/// the low 32 bits, region in the next 16, group + 1 in the top 16.
inline std::uint64_t placement_value(const sim::TaskPlacement& p) {
  return static_cast<std::uint64_t>(p.vm_type) |
         (static_cast<std::uint64_t>(p.region) << 32) |
         (static_cast<std::uint64_t>(p.group + 1) << 48);
}

/// Stable 64-bit key of a plan: the search's additive key over placements
/// (core/search.hpp), so a move on one task rekeys the plan in O(1) with
/// rekey(key, task, placement_value(old), placement_value(new)).
std::uint64_t plan_hash(const sim::Plan& plan);

}  // namespace deco::core
