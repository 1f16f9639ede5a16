#include "workflow/dag.hpp"

#include <algorithm>
#include <atomic>
#include <queue>

namespace deco::workflow {

std::uint64_t Workflow::next_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

TaskId Workflow::add_task(Task task) {
  uid_ = next_uid();
  const auto id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(std::move(task));
  children_.emplace_back();
  parents_.emplace_back();
  return id;
}

void Workflow::add_edge(TaskId parent, TaskId child, double bytes) {
  uid_ = next_uid();
  for (auto& e : edges_) {
    if (e.parent == parent && e.child == child) {
      e.bytes += bytes;
      return;
    }
  }
  edges_.push_back(Edge{parent, child, bytes});
  children_[parent].push_back(child);
  parents_[child].push_back(parent);
}

std::vector<TaskId> Workflow::roots() const {
  std::vector<TaskId> out;
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    if (parents_[i].empty()) out.push_back(i);
  }
  return out;
}

std::vector<TaskId> Workflow::leaves() const {
  std::vector<TaskId> out;
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    if (children_[i].empty()) out.push_back(i);
  }
  return out;
}

std::optional<std::vector<TaskId>> Workflow::topological_order() const {
  std::vector<std::size_t> indegree(tasks_.size(), 0);
  for (TaskId i = 0; i < tasks_.size(); ++i) indegree[i] = parents_[i].size();
  std::queue<TaskId> ready;
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  while (!ready.empty()) {
    const TaskId id = ready.front();
    ready.pop();
    order.push_back(id);
    for (TaskId c : children_[id]) {
      if (--indegree[c] == 0) ready.push(c);
    }
  }
  if (order.size() != tasks_.size()) return std::nullopt;
  return order;
}

double Workflow::total_cpu_seconds() const {
  double acc = 0;
  for (const auto& t : tasks_) acc += t.cpu_seconds;
  return acc;
}

std::optional<TaskId> Workflow::find_task(const std::string& name) const {
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].name == name) return i;
  }
  return std::nullopt;
}

}  // namespace deco::workflow
