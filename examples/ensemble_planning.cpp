// Use case 2 (Section 3.2): planning a workflow ensemble under a budget and
// per-workflow probabilistic deadlines — Deco's priority-order admission vs
// the SPSS baseline.
//
// Build & run:  ./examples/ensemble_planning
#include <cstdio>

#include "baselines/spss.hpp"
#include "core/deco.hpp"
#include "workflow/ensemble.hpp"

int main() {
  using namespace deco;

  const cloud::Catalog catalog = cloud::make_ec2_catalog();
  const cloud::MetadataStore store =
      core::make_store_from_catalog(catalog, "ec2", 4000, 24, 7);

  // A LIGO ensemble (uniform unsorted, 12 members, 20-100 task workflows).
  util::Rng rng(21);
  workflow::EnsembleOptions eopt;
  eopt.app = workflow::AppType::kLigo;
  eopt.type = workflow::EnsembleType::kUniformUnsorted;
  eopt.num_workflows = 12;
  eopt.sizes = {20, 100};
  workflow::Ensemble ensemble = workflow::make_ensemble(eopt, rng);
  for (auto& member : ensemble.members) {
    member.deadline_s = 4 * 3600;  // 4 hours each
    member.deadline_q = 96;
  }

  // Size the budget between MinBudget and MaxBudget (Section 6.1): first ask
  // SPSS what everything would cost, then grant 40% of that.
  vgpu::VirtualGpuBackend backend;
  baselines::Spss spss(catalog, store, backend);
  auto probe = ensemble;
  probe.budget = 1e9;
  const auto everything = spss.plan(probe);
  ensemble.budget = 0.4 * everything.total_cost;
  std::printf("Ensemble: %zu LIGO workflows, budget $%.3f (40%% of the "
              "admit-everything cost), per-workflow deadline 4 h @ 96%%\n\n",
              ensemble.members.size(), ensemble.budget);

  const auto spss_result = spss.plan(ensemble);

  core::Deco engine(catalog, store);
  const auto deco_result = engine.plan_ensemble(ensemble);

  auto show = [&](const char* name, const std::vector<bool>& admitted,
                  double score, double cost) {
    std::printf("%-6s admitted:", name);
    for (bool a : admitted) std::printf(" %c", a ? 'Y' : '.');
    std::printf("\n%-6s score = %.3f / %.3f, cost = $%.3f\n\n", name, score,
                ensemble.max_score(), cost);
  };
  show("SPSS", spss_result.admitted, spss_result.score,
       spss_result.total_cost);
  show("Deco", deco_result.admitted, deco_result.score,
       deco_result.total_cost);

  std::printf("Deco / SPSS score ratio: %.2f\n",
              spss_result.score > 0 ? deco_result.score / spss_result.score
                                    : deco_result.score);
  return 0;
}
