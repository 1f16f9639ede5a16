#include "core/analytic_estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/evaluator.hpp"
#include "sim/interference.hpp"
#include "util/qmc.hpp"

namespace deco::core {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;
constexpr double kInvSqrt2Pi = 0.39894228040143267794;

double norm_cdf(double x) { return 0.5 * std::erfc(-x * kInvSqrt2); }
double norm_pdf(double x) { return kInvSqrt2Pi * std::exp(-0.5 * x * x); }

/// Clark's approximation for max(X, Y) of independent normals: matches the
/// exact first two moments of the max, then treats the result as normal again
/// for the next join.  When the combined spread is negligible the max is
/// effectively deterministic and we keep the dominant branch's moments (this
/// also covers the exact zero-variance DAG-longest-path case).
void clark_max(double mu1, double var1, double mu2, double var2,
               double& out_mu, double& out_var) {
  const double a2 = var1 + var2;
  if (a2 <= 1e-18) {
    out_mu = std::max(mu1, mu2);
    out_var = mu1 >= mu2 ? var1 : var2;
    return;
  }
  const double a = std::sqrt(a2);
  const double alpha = (mu1 - mu2) / a;
  const double cdf = norm_cdf(alpha);
  const double cdf_neg = 1.0 - cdf;
  const double pdf = norm_pdf(alpha);
  const double m1 = mu1 * cdf + mu2 * cdf_neg + a * pdf;
  const double m2 = (mu1 * mu1 + var1) * cdf + (mu2 * mu2 + var2) * cdf_neg +
                    (mu1 + mu2) * a * pdf;
  out_mu = m1;
  out_var = std::max(m2 - m1 * m1, 0.0);
}

// 3-node Gauss-Hermite quadrature over the interference factor I ~ N(1, cv):
// nodes at z = 0 and z = +-sqrt(3) with weights 2/3 and 1/6, truncated by
// the same helper as the sampler's draws so the screen models the same
// factor.
const std::array<double, 3> kInterferenceNodes = {
    sim::interference_factor(0.0), sim::interference_factor(-std::sqrt(3.0)),
    sim::interference_factor(std::sqrt(3.0))};
constexpr std::array<double, 3> kNodeWeights = {2.0 / 3.0, 1.0 / 6.0,
                                                1.0 / 6.0};

}  // namespace

AnalyticEstimator::AnalyticEstimator(const PlanEvaluator& owner)
    : owner_(&owner) {}

double AnalyticEstimator::expected_billed_hours(double mean, double var) {
  // ceil(max(X, 1s)/3600) >= 1 always, and exceeds k iff X > 3600 k, so the
  // expectation is 1 + sum_{k>=1} P(X > 3600 k) under the normal fit.
  if (var <= 1e-18) {
    return std::ceil(std::max(mean, 1.0) / 3600.0);
  }
  const double sigma = std::sqrt(var);
  const auto cap = static_cast<std::size_t>(
      std::min(std::max((mean + 8.0 * sigma) / 3600.0, 0.0), 1.0e4));
  double hours = 1.0;
  for (std::size_t k = 1; k <= cap; ++k) {
    hours += norm_cdf((mean - 3600.0 * static_cast<double>(k)) / sigma);
  }
  return hours;
}

AnalyticScreen AnalyticEstimator::screen(const sim::Plan& plan,
                                         const ProbDeadline& req,
                                         vgpu::BlockContext& ctx) const {
  AnalyticScreen out;
  const EvalOptions& opt = owner_->options();
  const double required = std::min(req.quantile + opt.feasibility_margin, 1.0);
  const double z_required =
      util::normal_quantile(std::clamp(required, 1e-12, 1.0 - 1e-12));
  const std::size_t n = owner_->wf_->task_count();
  if (n == 0) {
    out.deadline_prob = 1.0;
    out.z_margin = std::numeric_limits<double>::infinity();
    return out;
  }
  if (owner_->topo_.size() != n) {
    // Cyclic workflow: no finite makespan, mirror the MC path's zeroed,
    // infeasible result.
    out.z_margin = -std::numeric_limits<double>::infinity();
    return out;
  }

  const bool billed = opt.cost_model == CostModel::kBilledHours;
  const double derated = req.deadline_s / std::max(opt.quantile_safety, 1.0);

  // Prep pass: per-position duration moments and prices, per-slot group
  // billing constants.  The moments were computed once, when the segment
  // was staged, so this is one table read per position.
  std::size_t slots = 0;
  for (const auto& placement : plan.placements) {
    slots = std::max(slots, static_cast<std::size_t>(placement.group + 1));
  }
  const auto fin_mu = ctx.scratch_doubles(n);   // finish-time mean
  const auto fin_var = ctx.scratch_doubles(n);  // finish-time variance
  const auto dyn_mu = ctx.scratch_doubles(n);   // dynamic-time mean
  const auto dyn_var = ctx.scratch_doubles(n);  // dynamic-time variance
  const auto cpu = ctx.scratch_doubles(n);      // CPU seconds
  const auto price_hour = ctx.scratch_doubles(n);  // unit price, USD/h
  // Per group slot: instance-avail and summed-duration moments, price and
  // member count.
  const auto avail_mu = ctx.scratch_doubles(slots);
  const auto avail_var = ctx.scratch_doubles(slots);
  const auto gtime_mu = ctx.scratch_doubles(slots);
  const auto gtime_var = ctx.scratch_doubles(slots);
  const auto group_price = ctx.scratch_doubles(slots);
  const auto group_count = ctx.scratch_doubles(slots);
  const auto& catalog = owner_->estimator_->catalog();
  for (std::size_t p = 0; p < n; ++p) {
    const workflow::TaskId t = owner_->topo_[p];
    const auto& seg =
        owner_->segment_cache_[owner_->segment_slot(t, plan[t].vm_type)];
    dyn_mu[p] = seg.dyn_mean;
    dyn_var[p] = seg.dyn_var;
    cpu[p] = seg.cpu;
    price_hour[p] = catalog.price(plan[t].vm_type, plan[t].region);
  }
  std::fill(group_price.begin(), group_price.end(), 0.0);
  std::fill(group_count.begin(), group_count.end(), 0.0);
  for (workflow::TaskId t = 0; t < n; ++t) {
    if (plan[t].group >= 0) {
      const auto g = static_cast<std::size_t>(plan[t].group);
      group_price[g] = catalog.price(plan[t].vm_type, plan[t].region);
      group_count[g] += 1.0;
    }
  }

  // Propagate once per interference node, then mix.  Conditioning on I is
  // what captures the correlation a single global factor induces: within a
  // node every duration scales by the same s = 1/I, so the node's makespan
  // shifts coherently instead of averaging out.
  std::array<double, 3> node_mu{};
  std::array<double, 3> node_var{};
  std::array<double, 3> node_cost{};
  for (std::size_t k = 0; k < kInterferenceNodes.size(); ++k) {
    const double s = 1.0 / kInterferenceNodes[k];
    const double s2 = s * s;
    std::fill(avail_mu.begin(), avail_mu.end(), 0.0);
    std::fill(avail_var.begin(), avail_var.end(), 0.0);
    std::fill(gtime_mu.begin(), gtime_mu.end(), 0.0);
    std::fill(gtime_var.begin(), gtime_var.end(), 0.0);
    double cost = 0;
    double mk_mu = 0;
    double mk_var = 0;
    bool mk_set = false;
    for (std::size_t p = 0; p < n; ++p) {
      const double d_mu = cpu[p] + dyn_mu[p] * s;
      const double d_var = dyn_var[p] * s2;
      // start = max over parents' finish (Clark fold over the same
      // position-space CSR the kernel walks).
      double s_mu = 0;
      double s_var = 0;
      const std::size_t pb = owner_->parent_offsets_[p];
      const std::size_t pe = owner_->parent_offsets_[p + 1];
      if (pb != pe) {
        s_mu = fin_mu[owner_->parents_[pb]];
        s_var = fin_var[owner_->parents_[pb]];
        for (std::size_t e = pb + 1; e < pe; ++e) {
          clark_max(s_mu, s_var, fin_mu[owner_->parents_[e]],
                    fin_var[owner_->parents_[e]], s_mu, s_var);
        }
      }
      const std::int32_t g = plan[owner_->topo_[p]].group;
      if (g >= 0) {
        // Grouped tasks serialize on their shared instance:
        // finish = max(start, avail) + d.
        clark_max(s_mu, s_var, avail_mu[static_cast<std::size_t>(g)],
                  avail_var[static_cast<std::size_t>(g)], s_mu, s_var);
      }
      const double f_mu = s_mu + d_mu;
      const double f_var = s_var + d_var;
      fin_mu[p] = f_mu;
      fin_var[p] = f_var;
      if (g >= 0) {
        avail_mu[static_cast<std::size_t>(g)] = f_mu;
        avail_var[static_cast<std::size_t>(g)] = f_var;
      }
      if (!billed) {
        cost += d_mu * price_hour[p] / 3600.0;
      } else if (g >= 0) {
        gtime_mu[static_cast<std::size_t>(g)] += d_mu;
        gtime_var[static_cast<std::size_t>(g)] += d_var;
      } else {
        cost += expected_billed_hours(d_mu, d_var) * price_hour[p];
      }
      if (owner_->sink_[p]) {
        if (!mk_set) {
          mk_mu = f_mu;
          mk_var = f_var;
          mk_set = true;
        } else {
          clark_max(mk_mu, mk_var, f_mu, f_var, mk_mu, mk_var);
        }
      }
    }
    if (billed) {
      for (std::size_t g = 0; g < slots; ++g) {
        if (group_count[g] == 0.0) continue;
        cost += expected_billed_hours(gtime_mu[g], gtime_var[g]) *
                group_price[g];
      }
    }
    node_mu[k] = mk_mu;
    node_var[k] = mk_var;
    node_cost[k] = cost;
  }

  // Mix the conditional normals: exact mixture mean/variance and the exact
  // mixture deadline probability; the requirement quantile uses the moment-
  // matched normal fit (a screen-grade approximation).
  double mix_mu = 0;
  double mix_m2 = 0;
  double prob = 0;
  for (std::size_t k = 0; k < kInterferenceNodes.size(); ++k) {
    const double w = kNodeWeights[k];
    mix_mu += w * node_mu[k];
    mix_m2 += w * (node_var[k] + node_mu[k] * node_mu[k]);
    out.mean_cost += w * node_cost[k];
    if (node_var[k] <= 1e-18) {
      prob += w * (node_mu[k] <= derated ? 1.0 : 0.0);
    } else {
      prob += w * norm_cdf((derated - node_mu[k]) / std::sqrt(node_var[k]));
    }
  }
  const double mix_var = std::max(mix_m2 - mix_mu * mix_mu, 0.0);
  out.mean_makespan = mix_mu;
  out.makespan_quantile =
      mix_mu + util::normal_quantile(std::clamp(req.quantile, 1e-12,
                                                1.0 - 1e-12)) *
                   std::sqrt(mix_var);
  out.deadline_prob = prob;
  out.z_margin =
      util::normal_quantile(std::clamp(prob, 1e-12, 1.0 - 1e-12)) - z_required;
  return out;
}

}  // namespace deco::core
