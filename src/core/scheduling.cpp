#include "core/scheduling.hpp"

#include <algorithm>
#include <map>

#include "obs/obs.hpp"
#include "workflow/analysis.hpp"

namespace deco::core {
namespace {

/// Screened modes only: how many of the best screen-feasible states the
/// Tier 2 full-MC verifier may try when the search winner fails verification
/// (the screen's answer on frontier plans is an estimate; the runner-up
/// often verifies where the winner does not).
constexpr std::size_t kVerifyTopK = 8;

}  // namespace

SchedulingProblem::SchedulingProblem(const workflow::Workflow& wf,
                                     TaskTimeEstimator& estimator,
                                     vgpu::ComputeBackend& backend,
                                     EvalOptions eval)
    : wf_(&wf),
      estimator_(&estimator),
      evaluator_(wf, estimator, backend, eval),
      topo_(wf.topological_order()),
      mean_(wf.task_count() * estimator.catalog().type_count(), -1.0) {}

double SchedulingProblem::mean_time(workflow::TaskId t, cloud::TypeId v) {
  double& m = mean_[t * estimator_->catalog().type_count() + v];
  if (m < 0) m = estimator_->mean_time(*wf_, t, v);
  return m;
}

sim::Plan SchedulingProblem::initial_plan(cloud::RegionId region) const {
  return sim::Plan::uniform(wf_->task_count(), 0, region);
}

std::vector<workflow::TaskId> SchedulingProblem::critical_tasks(
    const sim::Plan& plan) {
  if (!topo_) return {};
  std::vector<double> weights(wf_->task_count());
  for (workflow::TaskId t = 0; t < wf_->task_count(); ++t) {
    weights[t] = mean_time(t, plan[t].vm_type);
  }
  return workflow::critical_path(*wf_, weights, *topo_).tasks;
}

void SchedulingProblem::expand(const sim::Plan& plan, std::uint64_t key,
                               Expansion<sim::Plan>& out) {
  const cloud::TypeId types = estimator_->catalog().type_count();
  for (const workflow::TaskId t : critical_tasks(plan)) {
    const sim::TaskPlacement& from = plan[t];
    if (from.vm_type + 1 >= types) continue;
    sim::TaskPlacement to = from;
    ++to.vm_type;
    const std::uint64_t child_key =
        rekey(key, t, placement_value(from), placement_value(to));
    if (!out.fresh(child_key)) continue;
    sim::Plan child = plan;
    child[t] = to;
    out.push(std::move(child), child_key);
  }
}

sim::Plan SchedulingProblem::polish(sim::Plan plan, const ProbDeadline& req) {
  const cloud::Catalog& catalog = estimator_->catalog();
  const std::size_t n = wf_->task_count();
  if (n == 0) return plan;

  auto task_cost = [&](workflow::TaskId t, cloud::TypeId v,
                       cloud::RegionId region) {
    return mean_time(t, v) * catalog.price(v, region) / 3600.0;
  };

  // Pass 1 — cheapest type that is not slower: never hurts the makespan.
  for (workflow::TaskId t = 0; t < n; ++t) {
    const double cur_time = mean_time(t, plan[t].vm_type);
    cloud::TypeId best = plan[t].vm_type;
    double best_cost = task_cost(t, best, plan[t].region);
    for (cloud::TypeId v = 0; v < catalog.type_count(); ++v) {
      if (mean_time(t, v) > cur_time) continue;
      const double cost = task_cost(t, v, plan[t].region);
      if (cost < best_cost) {
        best = v;
        best_cost = cost;
      }
    }
    plan[t].vm_type = best;
  }

  // Pass 2 — slower-but-cheaper switches, largest savings first, each
  // verified against the probabilistic deadline (bounded number of evals).
  struct Candidate {
    workflow::TaskId task;
    cloud::TypeId type;
    double saving;
  };
  std::vector<Candidate> candidates;
  for (workflow::TaskId t = 0; t < n; ++t) {
    const double cur_cost = task_cost(t, plan[t].vm_type, plan[t].region);
    cloud::TypeId best = plan[t].vm_type;
    double best_cost = cur_cost;
    for (cloud::TypeId v = 0; v < catalog.type_count(); ++v) {
      const double cost = task_cost(t, v, plan[t].region);
      if (cost < best_cost) {
        best = v;
        best_cost = cost;
      }
    }
    if (best != plan[t].vm_type) {
      candidates.push_back(Candidate{t, best, cur_cost - best_cost});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.saving > b.saving;
            });
  // Try accepting all, then halve the accepted prefix until feasible.
  std::size_t accept = candidates.size();
  constexpr int kMaxEvals = 8;
  for (int evals = 0; accept > 0 && evals < kMaxEvals; ++evals) {
    sim::Plan trial = plan;
    for (std::size_t i = 0; i < accept; ++i) {
      trial[candidates[i].task].vm_type = candidates[i].type;
    }
    if (evaluator_.evaluate(trial, req).feasible) {
      plan = std::move(trial);
      break;
    }
    accept /= 2;
  }
  return plan;
}

sim::Plan SchedulingProblem::consolidate(sim::Plan plan,
                                         const ProbDeadline& req) {
  const std::size_t n = wf_->task_count();
  if (n == 0) return plan;
  const auto topo = wf_->topological_order();
  if (!topo) return plan;

  // Bucket tasks by (type, region) in topological order.
  std::map<std::pair<cloud::TypeId, cloud::RegionId>,
           std::vector<workflow::TaskId>>
      buckets;
  for (workflow::TaskId t : *topo) {
    buckets[{plan[t].vm_type, plan[t].region}].push_back(t);
  }
  std::size_t largest = 0;
  for (const auto& [key, tasks] : buckets) {
    largest = std::max(largest, tasks.size());
  }

  const double unpacked_cost = evaluator_.evaluate(plan, req).mean_cost;
  for (std::size_t instances = 1; instances <= largest; instances *= 2) {
    sim::Plan trial = plan;
    std::int32_t next_group = 0;
    for (const auto& [key, tasks] : buckets) {
      const auto k = std::min(instances, tasks.size());
      const std::int32_t base = next_group;
      next_group += static_cast<std::int32_t>(k);
      // Round-robin so parallel stages spread across the k instances.
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        trial[tasks[i]].group = base + static_cast<std::int32_t>(i % k);
      }
    }
    const PlanEvaluation eval = evaluator_.evaluate(trial, req);
    if (eval.feasible) {
      return eval.mean_cost < unpacked_cost ? trial : plan;
    }
  }
  return plan;
}

bool SchedulingProblem::promote_next(sim::Plan& plan) {
  const cloud::TypeId types = estimator_->catalog().type_count();
  // The critical-path task with the largest mean time that still has
  // headroom.
  workflow::TaskId best = workflow::kInvalidTask;
  double best_time = -1;
  for (workflow::TaskId t : critical_tasks(plan)) {
    if (plan[t].vm_type + 1 >= types) continue;
    const double mt = mean_time(t, plan[t].vm_type);
    if (mt > best_time) {
      best_time = mt;
      best = t;
    }
  }
  if (best == workflow::kInvalidTask) {
    // The mean critical path is maxed but the quantile still violates the
    // deadline: promote the slowest promotable task anywhere.
    for (workflow::TaskId t = 0; t < wf_->task_count(); ++t) {
      if (plan[t].vm_type + 1 >= types) continue;
      const double mt = mean_time(t, plan[t].vm_type);
      if (mt > best_time) {
        best_time = mt;
        best = t;
      }
    }
  }
  if (best == workflow::kInvalidTask) return false;  // everything is maxed
  ++plan[best].vm_type;
  return true;
}

SchedulingResult SchedulingProblem::greedy_feasible(const ProbDeadline& req,
                                                    cloud::RegionId region,
                                                    std::size_t max_wave) {
  SchedulingResult result;
  // Screened modes score the chain on the cheap estimator tiers and confirm
  // every screen-feasible plan with the Tier 2 verifier before trusting it
  // (a failed confirmation moves on down the chain); under kMc the score
  // already is full MC.
  const bool screened = evaluator_.options().estimator != EstimatorMode::kMc;
  // The chain's order reads only mean times, never a score, so its plans are
  // generated ahead of their scores and scored in waves of 1, 2, 4, ... up
  // to max_wave.  Every score is the one a one-plan batch would give (Tier 2
  // seeds come from the plan, Tier 1 shares its points across plans), so
  // the first plan that resolves feasible in chain order is the serial
  // chain's answer.  Plans scored past it are counted as speculative.
  const std::size_t width_cap = std::max<std::size_t>(max_wave, 1);
  result.plan = initial_plan(region);  // the last resolved chain plan
  sim::Plan tip = result.plan;         // the last generated chain plan
  std::vector<sim::Plan> wave{tip};
  std::size_t width = 1;
  std::size_t resolved = 0;
  // The whole chain is one budget scope: a budget firing mid-wave keeps the
  // last plan resolved before the cut (always full-size; found stays false
  // because the chain stops at its first feasible plan).
  try {
    while (!wave.empty()) {
      const auto evals = evaluator_.evaluate_batch_screened(wave, req);
      for (std::size_t j = 0; j < wave.size(); ++j) {
        PlanEvaluation eval = evals[j].eval;
        if (screened && eval.feasible) {
          eval = evaluator_.verify_full_mc(wave[j], req);
        }
        result.plan = std::move(wave[j]);
        result.evaluation = eval;
        ++resolved;
        if (eval.feasible) {
          result.found = true;
          DECO_OBS_COUNTER_ADD("search.greedy_speculative",
                               wave.size() - j - 1);
          break;
        }
      }
      if (result.found) break;
      width = std::min(2 * width, width_cap);
      wave.clear();
      while (wave.size() < width && promote_next(tip)) wave.push_back(tip);
    }
  } catch (const util::BudgetExhaustedError&) {
    // Anytime cut: the plan and evaluation of the last resolved chain plan
    // stand.
  }
  result.stats.states_evaluated = resolved;
  return result;
}

bool SchedulingProblem::chain_end_fails_screen(const ProbDeadline& req,
                                               cloud::RegionId region) {
  const auto top =
      static_cast<cloud::TypeId>(estimator_->catalog().type_count() - 1);
  const sim::Plan end = sim::Plan::uniform(wf_->task_count(), top, region);
  bool fails = false;
  try {
    fails = !evaluator_
                 .evaluate_batch_screened(std::span<const sim::Plan>(&end, 1),
                                          req)[0]
                 .eval.feasible;
  } catch (const util::BudgetExhaustedError&) {
  }
  // A fired budget leaves the verdict undecided: the solve carries on as if
  // the screen had passed, and the budget cuts it the usual way.
  const util::BudgetTracker* const budget = evaluator_.budget();
  return fails && (budget == nullptr || !budget->exhausted());
}

SchedulingResult SchedulingProblem::solve_full_mc(
    const ProbDeadline& req, const SchedulingOptions& options,
    const SearchStats& screened_work) {
  DECO_OBS_COUNTER_ADD("search.screen_fallbacks", 1);
  // The mode comes back even when the re-solve throws, as BudgetScope does
  // for the budget.
  struct ModeScope {
    PlanEvaluator& evaluator;
    EstimatorMode prev;
    ~ModeScope() { evaluator.set_estimator_mode(prev); }
  } mode_scope{evaluator_, evaluator_.options().estimator};
  evaluator_.set_estimator_mode(EstimatorMode::kMc);
  SchedulingResult fallback = solve(req, options);
  fallback.stats.states_evaluated += screened_work.states_evaluated;
  fallback.stats.states_pruned += screened_work.states_pruned;
  if (options.search.budget != nullptr) {
    fallback.budget =
        options.search.budget->report(fallback.stats.states_evaluated);
  }
  return fallback;
}

SchedulingResult SchedulingProblem::solve(const ProbDeadline& req,
                                          const SchedulingOptions& options) {
  SchedulingResult result;
  if (wf_->task_count() == 0) {
    result.found = true;
    result.evaluation.feasible = true;
    return result;
  }

  // Arm the evaluator with this solve's budget for the duration of the call
  // (exception-safe; the recursive screened fallback re-arms identically).
  util::BudgetTracker* const budget = options.search.budget;
  struct BudgetScope {
    PlanEvaluator& evaluator;
    util::BudgetTracker* prev;
    ~BudgetScope() { evaluator.set_budget(prev); }
  } budget_scope{evaluator_, evaluator_.budget()};
  evaluator_.set_budget(budget);

  const bool screened = evaluator_.options().estimator != EstimatorMode::kMc;
  // Screened modes score the greedy chain's end first.  When even the
  // all-fastest plan fails the screen, the screened pass (whose chain ends
  // on that plan) has not been seen to find a verified plan, and its
  // fallback would return the `mc` answer anyway: go straight to that
  // re-solve.  The chain end counts as one state.
  if (screened && chain_end_fails_screen(req, options.region)) {
    DECO_OBS_COUNTER_ADD("search.screen_skips", 1);
    SearchStats screened_work;
    screened_work.states_evaluated = 1;
    return solve_full_mc(req, options, screened_work);
  }

  SearchCallbacks<sim::Plan> cb;
  cb.hash = plan_hash;
  cb.expand = [this](const sim::Plan& plan, std::uint64_t key,
                     Expansion<sim::Plan>& out) { expand(plan, key, out); };
  // In screened modes the search wave is scored by the estimator hierarchy:
  // analytic accepts/rejects cost zero sampled worlds, the guard band runs
  // adaptive QMC, and each analytic rejection is a pruned state (the math
  // discarded it before any sampling — the counter the `search.states_pruned`
  // metric reports).  Under kMc the wave is plain full MC.
  std::size_t screen_rejections = 0;
  // Screen-feasible states, kept so Tier 2 can fall back to the runner-ups
  // if the search winner fails full-MC verification.
  struct Candidate {
    double objective;
    std::uint64_t hash;
    sim::Plan plan;
  };
  std::vector<Candidate> candidates;
  cb.evaluate = [this, &req, screened, &screen_rejections,
                 &candidates](std::span<const sim::Plan> plans) {
    std::vector<Scored> scores(plans.size());
    const auto evals = evaluator_.evaluate_batch_screened(plans, req);
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < evals.size(); ++i) {
      scores[i] = Scored{evals[i].eval.feasible, evals[i].eval.mean_cost};
      if (evals[i].verdict == ScreenVerdict::kReject) ++rejected;
    }
    if (screened) {
      for (std::size_t i = 0; i < evals.size(); ++i) {
        if (!evals[i].eval.feasible) continue;
        candidates.push_back(Candidate{evals[i].eval.mean_cost,
                                       plan_hash(plans[i]), plans[i]});
      }
      // Keep the list bounded: cheapest-first, with a hash tie-break so
      // equal costs (and therefore the fallback choice) sort deterministically.
      if (candidates.size() > 4 * kVerifyTopK) {
        std::sort(candidates.begin(), candidates.end(),
                  [](const Candidate& a, const Candidate& b) {
                    return a.objective != b.objective
                               ? a.objective < b.objective
                               : a.hash < b.hash;
                  });
        candidates.resize(kVerifyTopK);
      }
    }
    if (rejected != 0) {
      screen_rejections += rejected;
      DECO_OBS_COUNTER_ADD("search.states_pruned", rejected);
    }
    return scores;
  };

  SearchOptions sopt = options.search;
  sopt.minimize = true;
  if (options.use_astar) {
    // g = h = estimated monetary cost of the state (Section 5.3's example).
    auto cost_estimate = [this](const sim::Plan& plan) {
      double cost = 0;
      for (workflow::TaskId t = 0; t < wf_->task_count(); ++t) {
        cost += mean_time(t, plan[t].vm_type) *
                estimator_->catalog().price(plan[t].vm_type, plan[t].region) /
                3600.0;
      }
      return cost;
    };
    cb.g_score = cost_estimate;
    cb.h_score = [](const sim::Plan&) { return 0.0; };
  }
  SearchResult<sim::Plan> found =
      search(initial_plan(options.region), cb, sopt);

  result.stats = found.stats;
  result.stats.states_pruned += screen_rejections;
  result.budget = found.budget;
  // Tier 2 on the search outcome: the search ran on screened scores, so the
  // candidate must survive the full-MC verifier before it competes with the
  // greedy incumbent (and competes on its verified, not screened, cost).
  // If the winner fails, try the top-K screen-feasible runner-ups in
  // cheapest-first order — screened scores on frontier plans are estimates,
  // and the next-best state often verifies where the winner does not.
  if (screened && found.best) {
    try {
    const PlanEvaluation verified = evaluator_.verify_full_mc(*found.best, req);
    if (verified.feasible) {
      found.best_score.objective = verified.mean_cost;
    } else {
      found.best.reset();
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.objective != b.objective ? a.objective < b.objective
                                                    : a.hash < b.hash;
                });
      // The top-K distinct runner-ups are verified as one wave; the
      // cheapest that verifies wins.
      std::vector<sim::Plan> runner_ups;
      std::uint64_t last_hash = 0;
      for (Candidate& c : candidates) {
        if (runner_ups.size() >= kVerifyTopK) break;
        if (!runner_ups.empty() && c.hash == last_hash) continue;  // re-visit
        last_hash = c.hash;
        runner_ups.push_back(std::move(c.plan));
      }
      const auto verified_ups = evaluator_.verify_full_mc(runner_ups, req);
      for (std::size_t i = 0; i < runner_ups.size(); ++i) {
        if (verified_ups[i].feasible) {
          found.best = std::move(runner_ups[i]);
          found.best_score = Scored{true, verified_ups[i].mean_cost};
          break;
        }
      }
    }
    } catch (const util::BudgetExhaustedError&) {
      // Budget fired mid-verification: whatever survives in found.best (the
      // screened winner, or nothing if it already failed full MC) carries on
      // as the anytime candidate — the exhausted-solve contract is feasible-
      // or-best-screened, not fully verified.
    }
  }
  // The search competes with the greedy incumbent; take the cheaper feasible.
  SchedulingResult greedy =
      greedy_feasible(req, options.region, options.search.batch_size);
  result.stats.states_evaluated += greedy.stats.states_evaluated;
  if (found.best &&
      (!greedy.found || found.best_score.objective <=
                            greedy.evaluation.mean_cost)) {
    result.found = true;
    result.plan = *found.best;
  } else {
    result.found = greedy.found;
    result.plan = std::move(greedy.plan);
  }
  // Correctness net: when the screened pipeline finds nothing feasible, rerun
  // the reference full-MC solve before giving up.  Near-frontier instances
  // can have every candidate sit where the cheap tiers' verdicts flip
  // against full MC; the fallback makes `auto` return exactly what `mc`
  // would (bit-identical — same seed, same kernel), at worst doubling the
  // cost of the rare solve that was about to fail anyway.
  const bool exhausted = budget != nullptr && budget->exhausted();
  if (screened && !result.found && !exhausted) {
    return solve_full_mc(req, options, result.stats);
  }
  if (result.found && !exhausted) {
    // Polish and consolidation refine an already-valid plan; under an
    // exhausted budget they are skipped (their evaluations would abort
    // immediately anyway), and a budget firing inside them keeps the
    // pre-refinement plan.
    try {
      sim::Plan refined = polish(result.plan, req);
      if (evaluator_.options().cost_model == CostModel::kBilledHours) {
        refined = consolidate(std::move(refined), req);
      }
      result.plan = std::move(refined);
    } catch (const util::BudgetExhaustedError&) {
    }
  }
  // The final evaluation always completes — one plan, bounded work — so even
  // an anytime result reports a real score; the budget is detached for it.
  evaluator_.set_budget(nullptr);
  result.evaluation = evaluator_.evaluate(result.plan, req);
  if (budget != nullptr) {
    result.budget = budget->report(result.stats.states_evaluated);
  }
  return result;
}

}  // namespace deco::core
