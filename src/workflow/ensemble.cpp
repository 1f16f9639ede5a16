#include "workflow/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/distributions.hpp"

namespace deco::workflow {

std::string to_string(EnsembleType type) {
  switch (type) {
    case EnsembleType::kConstant: return "Constant";
    case EnsembleType::kUniformSorted: return "UniformSorted";
    case EnsembleType::kUniformUnsorted: return "UniformUnsorted";
    case EnsembleType::kParetoSorted: return "ParetoSorted";
    case EnsembleType::kParetoUnsorted: return "ParetoUnsorted";
  }
  return "Unknown";
}

double Ensemble::score(const std::vector<bool>& completed) const {
  double acc = 0;
  for (std::size_t i = 0; i < members.size() && i < completed.size(); ++i) {
    if (completed[i]) acc += std::pow(2.0, -members[i].priority);
  }
  return acc;
}

double Ensemble::max_score() const {
  double acc = 0;
  for (const auto& m : members) acc += std::pow(2.0, -m.priority);
  return acc;
}

Admission Ensemble::admit(const std::vector<double>& costs,
                          const std::vector<std::uint8_t>& feasible) const {
  std::vector<std::size_t> order(members.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::pair(members[a].priority, a) <
           std::pair(members[b].priority, b);
  });
  Admission admission;
  admission.admitted.assign(members.size(), false);
  for (std::size_t i : order) {
    if (!feasible[i] || admission.total_cost + costs[i] > budget) continue;
    admission.total_cost += costs[i];
    admission.admitted[i] = true;
  }
  return admission;
}

Ensemble make_ensemble(const EnsembleOptions& options, util::Rng& rng) {
  Ensemble ensemble;
  ensemble.type = options.type;
  ensemble.name = to_string(options.app) + "-" + to_string(options.type);

  const auto& sizes = options.sizes;
  std::vector<std::size_t> chosen(options.num_workflows);
  switch (options.type) {
    case EnsembleType::kConstant:
      // All workflows share the middle size.
      std::fill(chosen.begin(), chosen.end(), sizes[sizes.size() / 2]);
      break;
    case EnsembleType::kUniformSorted:
    case EnsembleType::kUniformUnsorted:
      for (auto& s : chosen) s = sizes[rng.below(sizes.size())];
      break;
    case EnsembleType::kParetoSorted:
    case EnsembleType::kParetoUnsorted: {
      // Heavy-tailed: mostly small workflows, occasionally the largest.
      const util::Pareto pareto{1.0, 1.16};  // 80/20-style tail
      const double max_size = static_cast<double>(sizes.back());
      for (auto& s : chosen) {
        const double draw = pareto.sample(rng) * static_cast<double>(sizes.front());
        const double clamped = std::min(draw, max_size);
        // Snap to the nearest configured size.
        std::size_t best = sizes.front();
        double best_gap = std::abs(clamped - static_cast<double>(best));
        for (std::size_t candidate : sizes) {
          const double gap = std::abs(clamped - static_cast<double>(candidate));
          if (gap < best_gap) {
            best = candidate;
            best_gap = gap;
          }
        }
        s = best;
      }
      break;
    }
  }

  const bool sorted = options.type == EnsembleType::kUniformSorted ||
                      options.type == EnsembleType::kParetoSorted;
  if (sorted) {
    // Highest priority (0) goes to the largest workflow.
    std::sort(chosen.begin(), chosen.end(), std::greater<>());
  }

  ensemble.members.reserve(options.num_workflows);
  for (std::size_t i = 0; i < options.num_workflows; ++i) {
    EnsembleMember member;
    member.workflow = make_workflow(options.app, chosen[i], rng);
    member.workflow.set_name(ensemble.name + "-w" + std::to_string(i));
    member.priority = static_cast<int>(i);
    ensemble.members.push_back(std::move(member));
  }

  if (!sorted && options.type != EnsembleType::kConstant) {
    // Random priority assignment: shuffle priorities across members.
    for (std::size_t i = ensemble.members.size(); i > 1; --i) {
      const std::size_t j = rng.below(i);
      std::swap(ensemble.members[i - 1].priority, ensemble.members[j].priority);
    }
  }
  return ensemble;
}

}  // namespace deco::workflow
