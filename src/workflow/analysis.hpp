// Structural analysis over workflow DAGs: critical paths, levels, longest
// paths under arbitrary task weights.  The critical path drives the paper's
// makespan formulation (Eq. 3) and the Monte Carlo evaluator takes the
// longest path per sampled realization.
#pragma once

#include <span>
#include <vector>

#include "workflow/dag.hpp"

namespace deco::workflow {

struct CriticalPath {
  std::vector<TaskId> tasks;  ///< in execution order
  double length = 0;          ///< sum of weights along the path
};

/// Longest path through the DAG where task i costs weights[i].
/// weights.size() must equal wf.task_count().
CriticalPath critical_path(const Workflow& wf, std::span<const double> weights);

/// The same path over a precomputed topological order (for callers that
/// recompute it under changing weights).
CriticalPath critical_path(const Workflow& wf, std::span<const double> weights,
                           std::span<const TaskId> topo_order);

/// Longest-path *length* only; the hot path used inside Monte Carlo kernels.
double longest_path_length(const Workflow& wf, std::span<const double> weights,
                           std::span<const TaskId> topo_order);

/// Level of each task: roots are level 0, child level = 1 + max parent level.
std::vector<int> levels(const Workflow& wf);

/// Number of tasks at each level; the workflow's parallelism profile.
std::vector<std::size_t> width_profile(const Workflow& wf);

}  // namespace deco::workflow
