// Workflow DAG model.
//
// A Workflow is a directed acyclic graph of Tasks.  Each task carries the
// runtime profile that the paper's execution-time estimator consumes (Section
// 5.1, citing Yu et al.): reference CPU seconds on a 1-compute-unit machine,
// plus input and output data volumes.  Edges carry the number of bytes the
// child reads from the parent (used for migration cost in follow-the-cost).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace deco::workflow {

using TaskId = std::uint32_t;
inline constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);

struct Task {
  std::string name;        ///< e.g. "ID01"
  std::string executable;  ///< e.g. "mProjectPP"
  double cpu_seconds = 0;  ///< CPU time on a 1-ECU reference instance
  double input_bytes = 0;  ///< total bytes read (local I/O)
  double output_bytes = 0; ///< total bytes written (local I/O)
};

struct Edge {
  TaskId parent = kInvalidTask;
  TaskId child = kInvalidTask;
  double bytes = 0;  ///< data transferred parent -> child
};

class Workflow {
 public:
  Workflow() = default;
  explicit Workflow(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  TaskId add_task(Task task);
  /// Adds a dependency edge; duplicate edges are merged (bytes accumulate).
  void add_edge(TaskId parent, TaskId child, double bytes = 0);

  /// Process-unique identity of this workflow's content, for caches keyed
  /// by workflow: fresh for every constructed workflow and after every call
  /// of a mutating member (add_task, add_edge, non-const task()).  A copy
  /// shares its source's uid until either side is mutated.
  std::uint64_t uid() const { return uid_; }

  std::size_t task_count() const { return tasks_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  const Task& task(TaskId id) const { return tasks_[id]; }
  Task& task(TaskId id) {
    uid_ = next_uid();
    return tasks_[id];
  }
  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<Edge>& edges() const { return edges_; }

  const std::vector<TaskId>& children(TaskId id) const { return children_[id]; }
  const std::vector<TaskId>& parents(TaskId id) const { return parents_[id]; }

  /// Tasks with no parents / no children.
  std::vector<TaskId> roots() const;
  std::vector<TaskId> leaves() const;

  /// Kahn topological order; std::nullopt if the graph has a cycle.
  std::optional<std::vector<TaskId>> topological_order() const;

  bool is_acyclic() const { return topological_order().has_value(); }

  /// Sum of cpu_seconds over all tasks.
  double total_cpu_seconds() const;

  /// Looks up a task by name (linear scan; used by the DAX reader/tests).
  std::optional<TaskId> find_task(const std::string& name) const;

 private:
  static std::uint64_t next_uid();

  std::uint64_t uid_ = next_uid();
  std::string name_;
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<TaskId>> children_;
  std::vector<std::vector<TaskId>> parents_;
};

}  // namespace deco::workflow
