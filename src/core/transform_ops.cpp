#include "core/transform_ops.hpp"

#include <algorithm>
#include <unordered_set>

namespace deco::core {
namespace {

std::vector<workflow::TaskId> all_tasks(const workflow::Workflow& wf) {
  std::vector<workflow::TaskId> ids(wf.task_count());
  for (workflow::TaskId t = 0; t < wf.task_count(); ++t) ids[t] = t;
  return ids;
}

std::int32_t next_free_group(const sim::Plan& plan) {
  std::int32_t next = 0;
  for (const auto& p : plan.placements) next = std::max(next, p.group + 1);
  return next;
}

}  // namespace

std::string to_string(TransformOp op) {
  switch (op) {
    case TransformOp::kPromote: return "Promote";
    case TransformOp::kDemote: return "Demote";
    case TransformOp::kMerge: return "Merge";
    case TransformOp::kCoSchedule: return "CoSchedule";
    case TransformOp::kMove: return "Move";
    case TransformOp::kSplit: return "Split";
  }
  return "Unknown";
}

std::vector<sim::Plan> apply_op(TransformOp op, const sim::Plan& plan,
                                const workflow::Workflow& wf,
                                const cloud::Catalog& catalog,
                                const TransformOptions& options) {
  std::vector<sim::Plan> children;
  const auto focus =
      options.focus_tasks.empty() ? all_tasks(wf) : options.focus_tasks;

  switch (op) {
    case TransformOp::kPromote: {
      for (workflow::TaskId t : focus) {
        if (plan[t].vm_type + 1 < catalog.type_count()) {
          sim::Plan child = plan;
          ++child[t].vm_type;
          children.push_back(std::move(child));
        }
      }
      break;
    }
    case TransformOp::kDemote: {
      for (workflow::TaskId t : focus) {
        if (plan[t].vm_type > 0) {
          sim::Plan child = plan;
          --child[t].vm_type;
          children.push_back(std::move(child));
        }
      }
      break;
    }
    case TransformOp::kMerge: {
      // Parent/child pairs with the same type+region and no current groups.
      std::int32_t fresh = next_free_group(plan);
      for (const workflow::Edge& e : wf.edges()) {
        const auto& pp = plan[e.parent];
        const auto& pc = plan[e.child];
        if (pp.vm_type != pc.vm_type || pp.region != pc.region) continue;
        if (pp.group >= 0 && pp.group == pc.group) continue;  // already merged
        sim::Plan child = plan;
        const std::int32_t g = pp.group >= 0 ? pp.group : fresh;
        child[e.parent].group = g;
        child[e.child].group = g;
        children.push_back(std::move(child));
      }
      break;
    }
    case TransformOp::kCoSchedule: {
      // Independent same-type task pairs among the focus tasks.
      std::int32_t fresh = next_free_group(plan);
      for (std::size_t i = 0; i < focus.size(); ++i) {
        for (std::size_t j = i + 1; j < focus.size(); ++j) {
          const workflow::TaskId a = focus[i];
          const workflow::TaskId b = focus[j];
          if (plan[a].vm_type != plan[b].vm_type ||
              plan[a].region != plan[b].region) {
            continue;
          }
          if (plan[a].group >= 0 && plan[a].group == plan[b].group) continue;
          sim::Plan child = plan;
          const std::int32_t g = plan[a].group >= 0 ? plan[a].group : fresh;
          child[a].group = g;
          child[b].group = g;
          children.push_back(std::move(child));
        }
      }
      break;
    }
    case TransformOp::kMove: {
      // Move an ungrouped task into an existing group of matching type.
      std::unordered_set<std::int32_t> groups;
      for (workflow::TaskId t = 0; t < plan.size(); ++t) {
        if (plan[t].group >= 0) groups.insert(plan[t].group);
      }
      for (workflow::TaskId t : focus) {
        if (plan[t].group >= 0) continue;
        for (std::int32_t g : groups) {
          // Find the group's type via any member.
          for (workflow::TaskId m = 0; m < plan.size(); ++m) {
            if (plan[m].group == g && plan[m].vm_type == plan[t].vm_type &&
                plan[m].region == plan[t].region) {
              sim::Plan child = plan;
              child[t].group = g;
              children.push_back(std::move(child));
              break;
            }
          }
        }
      }
      break;
    }
    case TransformOp::kSplit: {
      for (workflow::TaskId t : focus) {
        if (plan[t].group >= 0) {
          sim::Plan child = plan;
          child[t].group = sim::kNoGroup;
          children.push_back(std::move(child));
        }
      }
      break;
    }
  }
  return children;
}

std::uint64_t plan_hash(const sim::Plan& plan) {
  return sequence_key(plan.placements, placement_value);
}

}  // namespace deco::core
