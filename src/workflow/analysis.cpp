#include "workflow/analysis.hpp"

#include <algorithm>

namespace deco::workflow {

CriticalPath critical_path(const Workflow& wf,
                           std::span<const double> weights) {
  const auto topo = wf.topological_order();
  if (!topo) return {};
  return critical_path(wf, weights, *topo);
}

CriticalPath critical_path(const Workflow& wf, std::span<const double> weights,
                           std::span<const TaskId> topo_order) {
  CriticalPath cp;
  if (wf.task_count() == 0) return cp;

  std::vector<double> dist(wf.task_count(), 0);
  std::vector<TaskId> pred(wf.task_count(), kInvalidTask);
  for (TaskId id : topo_order) {
    dist[id] = weights[id];
    for (TaskId p : wf.parents(id)) {
      if (dist[p] + weights[id] > dist[id]) {
        dist[id] = dist[p] + weights[id];
        pred[id] = p;
      }
    }
  }
  TaskId tail = 0;
  for (TaskId i = 1; i < wf.task_count(); ++i) {
    if (dist[i] > dist[tail]) tail = i;
  }
  cp.length = dist[tail];
  for (TaskId at = tail; at != kInvalidTask; at = pred[at]) {
    cp.tasks.push_back(at);
  }
  std::reverse(cp.tasks.begin(), cp.tasks.end());
  return cp;
}

double longest_path_length(const Workflow& wf, std::span<const double> weights,
                           std::span<const TaskId> topo_order) {
  if (wf.task_count() == 0) return 0;
  std::vector<double> dist(wf.task_count(), 0);
  double best = 0;
  for (TaskId id : topo_order) {
    double d = weights[id];
    for (TaskId p : wf.parents(id)) d = std::max(d, dist[p] + weights[id]);
    dist[id] = d;
    best = std::max(best, d);
  }
  return best;
}

std::vector<int> levels(const Workflow& wf) {
  std::vector<int> lv(wf.task_count(), 0);
  const auto topo = wf.topological_order();
  if (!topo) return lv;
  for (TaskId id : *topo) {
    for (TaskId p : wf.parents(id)) lv[id] = std::max(lv[id], lv[p] + 1);
  }
  return lv;
}

std::vector<std::size_t> width_profile(const Workflow& wf) {
  const auto lv = levels(wf);
  std::vector<std::size_t> widths;
  for (int l : lv) {
    const auto idx = static_cast<std::size_t>(l);
    if (idx >= widths.size()) widths.resize(idx + 1, 0);
    ++widths[idx];
  }
  return widths;
}

}  // namespace deco::workflow
