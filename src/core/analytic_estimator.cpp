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

ScreenRunCounts AnalyticEstimator::screen(std::span<const sim::Plan> run,
                                          const ProbDeadline& req,
                                          vgpu::BlockContext& ctx,
                                          std::span<AnalyticScreen> out) const {
  ScreenRunCounts counts;
  const EvalOptions& opt = owner_->options();
  const double required = std::min(req.quantile + opt.feasibility_margin, 1.0);
  const double z_required =
      util::normal_quantile(std::clamp(required, 1e-12, 1.0 - 1e-12));
  const std::size_t n = owner_->wf_->task_count();
  if (n == 0 || owner_->topo_.size() != n) {
    // An empty workflow meets any deadline; a cyclic one has no finite
    // makespan, mirroring the MC path's zeroed, infeasible result.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    AnalyticScreen trivial;
    trivial.deadline_prob = n == 0 ? 1.0 : 0.0;
    trivial.z_margin = n == 0 ? kInf : -kInf;
    std::fill(out.begin(), out.end(), trivial);
    return counts;
  }

  const bool billed = opt.cost_model == CostModel::kBilledHours;
  const double derated = req.deadline_s / std::max(opt.quantile_safety, 1.0);
  const auto& catalog = owner_->estimator_->catalog();
  const std::vector<workflow::TaskId>& topo = owner_->topo_;
  const std::size_t* const parent_offsets = owner_->parent_offsets_.data();
  const std::uint32_t* const parents = owner_->parents_.data();
  // Conditioning on the interference factor I is what captures the
  // correlation a single global factor induces: within a quadrature node
  // every duration scales by the same s = 1/I, so the node's makespan shifts
  // coherently instead of averaging out.  Each node propagates its own
  // moments; the nodes are mixed at the end.
  constexpr std::size_t kNodes = kInterferenceNodes.size();
  std::array<double, kNodes> speed{};
  std::array<double, kNodes> speed2{};
  for (std::size_t k = 0; k < kNodes; ++k) {
    speed[k] = 1.0 / kInterferenceNodes[k];
    speed2[k] = speed[k] * speed[k];
  }

  std::size_t run_slots = 0;
  for (const sim::Plan& plan : run) {
    for (const auto& placement : plan.placements) {
      run_slots =
          std::max(run_slots, static_cast<std::size_t>(placement.group + 1));
    }
  }
  // Per position, carried from one plan of the run to the next: the placed
  // type's duration moments (computed once, when the segment was staged)
  // and unit price, the group predecessor (-2 ungrouped, -1 first on its
  // instance, else its position) and whether this plan redid its fold.
  const auto dyn_mu = ctx.scratch_doubles(n);      // dynamic-time mean
  const auto dyn_var = ctx.scratch_doubles(n);     // dynamic-time variance
  const auto cpu = ctx.scratch_doubles(n);         // CPU seconds
  const auto price_hour = ctx.scratch_doubles(n);  // unit price, USD/h
  const auto group_pred = ctx.scratch_ints(n);
  const auto redone = ctx.scratch_ints(n);
  const auto dirty = ctx.scratch_ints(n);  // this plan's redone positions
  // Per position and node (index kNodes * p + k): finish-time mean and
  // variance, and the position's term of the node's cost sum.
  const auto fin_mu = ctx.scratch_doubles(kNodes * n);
  const auto fin_var = ctx.scratch_doubles(kNodes * n);
  const auto cost_term = ctx.scratch_doubles(kNodes * n);
  // Per parent edge and node (index kNodes * e + k): the running Clark fold
  // of the position's start time after parent e, so a redone fold restarts
  // at its first redone parent.
  const std::size_t edges = parent_offsets[n];
  const auto fold_mu = ctx.scratch_doubles(kNodes * edges);
  const auto fold_var = ctx.scratch_doubles(kNodes * edges);
  // Per group slot: the last position placed on it so far, price, member
  // count and (per node) summed-duration moments.
  const auto last_member = ctx.scratch_ints(run_slots);
  const auto group_price = ctx.scratch_doubles(run_slots);
  const auto group_count = ctx.scratch_doubles(run_slots);
  const auto gtime_mu = ctx.scratch_doubles(kNodes * run_slots);
  const auto gtime_var = ctx.scratch_doubles(kNodes * run_slots);
  // Finish times are monotone along DAG edges, so the makespan is the max
  // over sinks alone.
  const auto sinks = ctx.scratch_ints(n);
  std::size_t sink_count = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (owner_->sink_[p]) sinks[sink_count++] = static_cast<std::int32_t>(p);
  }

  for (std::size_t i = 0; i < run.size(); ++i) {
    const sim::Plan& plan = run[i];
    const sim::Plan* const prev = i == 0 ? nullptr : &run[i - 1];
    std::size_t slots = 0;
    for (const auto& placement : plan.placements) {
      slots = std::max(slots, static_cast<std::size_t>(placement.group + 1));
    }

    // Dirty pass.  A position's fold reads only its duration moments, its
    // parents' finishes and its group predecessor's finish, so it is redone
    // when its type changed, a parent was redone, or its predecessor changed
    // or was redone; positions come in topological order, so parents and
    // predecessors are decided first.  A cost term reads the duration
    // moments, the price and (billed) whether the position bills alone, and
    // is recomputed when one of those changed.
    std::fill(last_member.begin(), last_member.begin() + slots, -1);
    std::size_t dirty_count = 0;
    for (std::size_t p = 0; p < n; ++p) {
      const workflow::TaskId t = topo[p];
      const sim::TaskPlacement& place = plan[t];
      const bool retyped =
          prev == nullptr || (*prev)[t].vm_type != place.vm_type;
      std::int32_t pred = -2;
      if (place.group >= 0) {
        const auto g = static_cast<std::size_t>(place.group);
        pred = last_member[g];
        last_member[g] = static_cast<std::int32_t>(p);
      }
      bool redo = retyped || pred != group_pred[p] ||
                  (pred >= 0 && redone[static_cast<std::size_t>(pred)] != 0);
      for (std::size_t e = parent_offsets[p];
           !redo && e < parent_offsets[p + 1]; ++e) {
        redo = redone[parents[e]] != 0;
      }
      group_pred[p] = pred;
      redone[p] = redo ? 1 : 0;
      if (redo) dirty[dirty_count++] = static_cast<std::int32_t>(p);
      if (retyped) {
        const auto& seg =
            owner_->segment_cache_[owner_->segment_slot(t, place.vm_type)];
        dyn_mu[p] = seg.dyn_mean;
        dyn_var[p] = seg.dyn_var;
        cpu[p] = seg.cpu;
      }
      const bool repriced = retyped || (*prev)[t].region != place.region ||
                            ((*prev)[t].group < 0) != (place.group < 0);
      if (!repriced) continue;
      price_hour[p] = catalog.price(place.vm_type, place.region);
      for (std::size_t k = 0; k < kNodes; ++k) {
        const double d_mu = cpu[p] + dyn_mu[p] * speed[k];
        const double d_var = dyn_var[p] * speed2[k];
        if (!billed) {
          cost_term[kNodes * p + k] = d_mu * price_hour[p] / 3600.0;
        } else if (place.group < 0) {
          cost_term[kNodes * p + k] =
              expected_billed_hours(d_mu, d_var) * price_hour[p];
        }
      }
    }
    counts.positions += n;
    counts.positions_recomputed += dirty_count;

    // Redo the dirty folds: start = max over parents' finish (a Clark fold
    // over the same position-space CSR the kernel walks), then, on a shared
    // instance, max with the group predecessor's finish; finish = start plus
    // the duration.  The fold's prefix before the first redone parent read
    // unchanged finishes, so it resumes from the stored running fold there
    // (on a retyped position with clean parents, the whole fold is reused).
    for (std::size_t j = 0; j < dirty_count; ++j) {
      const auto p = static_cast<std::size_t>(dirty[j]);
      const std::size_t pb = parent_offsets[p];
      const std::size_t pe = parent_offsets[p + 1];
      std::size_t resume = pb;
      while (resume < pe && redone[parents[resume]] == 0) ++resume;
      const std::int32_t pred = group_pred[p];
      for (std::size_t k = 0; k < kNodes; ++k) {
        const double d_mu = cpu[p] + dyn_mu[p] * speed[k];
        const double d_var = dyn_var[p] * speed2[k];
        double s_mu = 0;
        double s_var = 0;
        if (pb != pe) {
          std::size_t e = resume;
          if (e == pb) {
            s_mu = fin_mu[kNodes * parents[pb] + k];
            s_var = fin_var[kNodes * parents[pb] + k];
            fold_mu[kNodes * pb + k] = s_mu;
            fold_var[kNodes * pb + k] = s_var;
            ++e;
          } else {
            s_mu = fold_mu[kNodes * (e - 1) + k];
            s_var = fold_var[kNodes * (e - 1) + k];
          }
          for (; e < pe; ++e) {
            clark_max(s_mu, s_var, fin_mu[kNodes * parents[e] + k],
                      fin_var[kNodes * parents[e] + k], s_mu, s_var);
            fold_mu[kNodes * e + k] = s_mu;
            fold_var[kNodes * e + k] = s_var;
          }
        }
        if (pred != -2) {
          const std::size_t q = kNodes * static_cast<std::size_t>(pred) + k;
          clark_max(s_mu, s_var, pred >= 0 ? fin_mu[q] : 0.0,
                    pred >= 0 ? fin_var[q] : 0.0, s_mu, s_var);
        }
        fin_mu[kNodes * p + k] = s_mu + d_mu;
        fin_var[kNodes * p + k] = s_var + d_var;
      }
    }

    // Cost and makespan per node.  The cost sum and the sink fold run over
    // every position in order, so each node's result comes from the same
    // expression in the same order as a fresh propagation's.
    std::array<double, kNodes> node_cost{};
    if (!billed) {
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t k = 0; k < kNodes; ++k) {
          node_cost[k] += cost_term[kNodes * p + k];
        }
      }
    } else {
      std::fill(gtime_mu.begin(), gtime_mu.begin() + kNodes * slots, 0.0);
      std::fill(gtime_var.begin(), gtime_var.begin() + kNodes * slots, 0.0);
      for (std::size_t p = 0; p < n; ++p) {
        const std::int32_t g = plan[topo[p]].group;
        for (std::size_t k = 0; k < kNodes; ++k) {
          if (g < 0) {
            node_cost[k] += cost_term[kNodes * p + k];
            continue;
          }
          // Grouped tasks share an instance: its billed hours cover the
          // members' summed durations.
          const std::size_t slot = kNodes * static_cast<std::size_t>(g) + k;
          gtime_mu[slot] += cpu[p] + dyn_mu[p] * speed[k];
          gtime_var[slot] += dyn_var[p] * speed2[k];
        }
      }
      std::fill(group_price.begin(), group_price.begin() + slots, 0.0);
      std::fill(group_count.begin(), group_count.begin() + slots, 0.0);
      for (workflow::TaskId t = 0; t < n; ++t) {
        if (plan[t].group >= 0) {
          const auto g = static_cast<std::size_t>(plan[t].group);
          group_price[g] = catalog.price(plan[t].vm_type, plan[t].region);
          group_count[g] += 1.0;
        }
      }
      for (std::size_t g = 0; g < slots; ++g) {
        if (group_count[g] == 0.0) continue;
        for (std::size_t k = 0; k < kNodes; ++k) {
          node_cost[k] += expected_billed_hours(gtime_mu[kNodes * g + k],
                                                gtime_var[kNodes * g + k]) *
                          group_price[g];
        }
      }
    }
    std::array<double, kNodes> node_mu{};
    std::array<double, kNodes> node_var{};
    for (std::size_t k = 0; k < kNodes; ++k) {
      const std::size_t first = kNodes * static_cast<std::size_t>(sinks[0]) + k;
      node_mu[k] = fin_mu[first];
      node_var[k] = fin_var[first];
      for (std::size_t j = 1; j < sink_count; ++j) {
        const std::size_t q = kNodes * static_cast<std::size_t>(sinks[j]) + k;
        clark_max(node_mu[k], node_var[k], fin_mu[q], fin_var[q], node_mu[k],
                  node_var[k]);
      }
    }

    // Mix the conditional normals: exact mixture mean/variance and the exact
    // mixture deadline probability; the requirement quantile uses the
    // moment-matched normal fit (a screen-grade approximation).
    AnalyticScreen& result = out[i];
    result = AnalyticScreen{};
    double mix_mu = 0;
    double mix_m2 = 0;
    double prob = 0;
    for (std::size_t k = 0; k < kNodes; ++k) {
      const double w = kNodeWeights[k];
      mix_mu += w * node_mu[k];
      mix_m2 += w * (node_var[k] + node_mu[k] * node_mu[k]);
      result.mean_cost += w * node_cost[k];
      if (node_var[k] <= 1e-18) {
        prob += w * (node_mu[k] <= derated ? 1.0 : 0.0);
      } else {
        prob += w * norm_cdf((derated - node_mu[k]) / std::sqrt(node_var[k]));
      }
    }
    const double mix_var = std::max(mix_m2 - mix_mu * mix_mu, 0.0);
    result.mean_makespan = mix_mu;
    result.makespan_quantile =
        mix_mu + util::normal_quantile(std::clamp(req.quantile, 1e-12,
                                                  1.0 - 1e-12)) *
                     std::sqrt(mix_var);
    result.deadline_prob = prob;
    result.z_margin =
        util::normal_quantile(std::clamp(prob, 1e-12, 1.0 - 1e-12)) -
        z_required;
  }
  return counts;
}

}  // namespace deco::core
