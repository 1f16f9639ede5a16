#include "wms/reactive.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "baselines/autoscaling.hpp"
#include "core/estimator.hpp"
#include "core/followcost.hpp"
#include "obs/obs.hpp"
#include "util/budget.hpp"

namespace deco::wms {
namespace {

/// Region every run starts in; plans stay pinned to it until a regional
/// evacuation moves them.
constexpr cloud::RegionId kHomeRegion = 0;
/// How far ahead of a forecast storm the evacuation cut lands, seconds.
constexpr double kStormLeadS = 120;

/// The not-yet-completed slice of a workflow, with the mapping back to the
/// original task ids.  Edges from completed parents are dropped (their data
/// is already on shared storage), so residual roots are exactly the tasks
/// whose dependencies are all satisfied.
struct Residual {
  workflow::Workflow wf;
  std::vector<workflow::TaskId> to_original;
};

Residual make_residual(const workflow::Workflow& wf,
                       const std::vector<std::uint8_t>& done) {
  Residual res;
  res.wf = workflow::Workflow(wf.name());
  std::vector<workflow::TaskId> to_residual(wf.task_count(),
                                            workflow::kInvalidTask);
  for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
    if (done[t]) continue;
    to_residual[t] = res.wf.add_task(wf.task(t));
    res.to_original.push_back(t);
  }
  for (const workflow::Edge& e : wf.edges()) {
    if (to_residual[e.parent] == workflow::kInvalidTask ||
        to_residual[e.child] == workflow::kInvalidTask) {
      continue;
    }
    res.wf.add_edge(to_residual[e.parent], to_residual[e.child], e.bytes);
  }
  return res;
}

/// Mixes a segment index into the base seed (splitmix64 finalizer) so each
/// execution segment owns an independent, reproducible stream.
std::uint64_t segment_seed(std::uint64_t base, std::size_t segment) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL *
                               (static_cast<std::uint64_t>(segment) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void accumulate(sim::FailureStats& into, const sim::FailureStats& from) {
  into.instance_crashes += from.instance_crashes;
  into.boot_failures += from.boot_failures;
  into.task_failures += from.task_failures;
  into.stragglers += from.stragglers;
  into.retries += from.retries;
  into.spot_interruptions += from.spot_interruptions;
}

void accumulate(cloud::ApiStats& into, const cloud::ApiStats& from) {
  into.calls += from.calls;
  into.throttled += from.throttled;
  into.capacity_denials += from.capacity_denials;
  into.transient_errors += from.transient_errors;
  into.retries += from.retries;
  into.fallbacks += from.fallbacks;
  into.exhausted += from.exhausted;
  into.breaker_opens += from.breaker_opens;
  into.breaker_waits += from.breaker_waits;
  into.spot_interruptions += from.spot_interruptions;
  into.storm_denials += from.storm_denials;
  into.storm_reclaims += from.storm_reclaims;
}

/// The instance type most of `plan` runs on — the representative hardware
/// for the follow-cost evacuation estimate.
cloud::TypeId dominant_type(const sim::Plan& plan) {
  std::vector<std::size_t> counts;
  for (const sim::TaskPlacement& p : plan.placements) {
    if (p.vm_type >= counts.size()) counts.resize(p.vm_type + 1, 0);
    ++counts[p.vm_type];
  }
  cloud::TypeId best = 0;
  for (cloud::TypeId t = 0; t < counts.size(); ++t) {
    if (counts[t] > counts[best]) best = t;
  }
  return best;
}

}  // namespace

ReactiveEngine::ReactiveEngine(const cloud::Catalog& catalog,
                               const cloud::MetadataStore& store,
                               Scheduler& primary, ReactiveOptions options)
    : catalog_(&catalog),
      store_(&store),
      primary_(&primary),
      options_(options) {
  options_.reaction_s = std::max(options_.reaction_s, 1.0);
}

sim::Plan ReactiveEngine::plan_or_fallback(const workflow::Workflow& wf,
                                           const core::ProbDeadline& req,
                                           util::Rng& rng,
                                           ReactiveReport& report,
                                           cloud::RegionId region) {
  // Every returned plan is pinned to `region` (the current home, or the
  // evacuation target): schedulers honour ctx.region, and the pin below
  // keeps the invariant across fallback paths too.
  const auto pinned = [region](sim::Plan plan) {
    for (sim::TaskPlacement& p : plan.placements) p.region = region;
    return plan;
  };
  SchedulerContext ctx;
  ctx.catalog = catalog_;
  ctx.store = store_;
  ctx.requirement = req;
  ctx.rng = &rng;
  ctx.region = region;

  DECO_OBS_SPAN_TIMED("wms", "plan_or_fallback", "wms.reactive.plan_ms");
  // A non-positive timeout leaves no budget any scheduler could meet, so
  // the primary is skipped outright rather than invoked and discarded.
  if (options_.solver_timeout_ms > 0) {
    // The timeout is enforced as a real cooperative budget: a budget-aware
    // primary observes the cutoff mid-solve and returns its best incumbent,
    // which is accepted as an anytime plan.  The post-hoc wall-clock check
    // remains the backstop for schedulers that ignore the budget.
    util::SolveBudget budget;
    budget.wall_ms = options_.solver_timeout_ms;
    util::BudgetTracker tracker(budget);
    ctx.budget = &tracker;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      sim::Plan plan = primary_->schedule(wf, ctx);
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      const bool on_time = elapsed_ms <= options_.solver_timeout_ms;
      if (plan.size() == wf.task_count() &&
          (on_time || tracker.exhausted())) {
        if (tracker.exhausted()) {
          ++report.solver_budget_cutoffs;
          DECO_OBS_COUNTER_ADD("wms.reactive.solver_budget_cutoffs", 1);
        }
        report.last_scheduler = primary_->name();
        return pinned(std::move(plan));
      }
    } catch (...) {
      // Fall through to the baseline: a solver crash must not kill the run.
    }
  }
  ++report.solver_fallbacks;
  DECO_OBS_COUNTER_ADD("wms.reactive.solver_fallbacks", 1);
  try {
    core::TaskTimeEstimator estimator(*catalog_, *store_);
    baselines::Autoscaling autoscaling(wf, estimator);
    sim::Plan plan = autoscaling.solve(req.deadline_s).plan;
    if (plan.size() == wf.task_count()) {
      report.last_scheduler = "Autoscaling(fallback)";
      return pinned(std::move(plan));
    }
  } catch (...) {
  }
  report.last_scheduler = "Uniform(fallback)";
  return sim::Plan::uniform(wf.task_count(), 0, region);
}

ReactiveReport ReactiveEngine::run(const workflow::Workflow& wf,
                                   const core::ProbDeadline& req) {
  DECO_OBS_SPAN_TIMED("wms", "reactive_run", "wms.reactive.run_ms");
  DECO_OBS_COUNTER_ADD("wms.reactive.runs", 1);
  ReactiveReport report;
  if (wf.task_count() == 0) {
    report.completed = true;
    report.met_deadline = true;
    return report;
  }

  std::vector<std::uint8_t> done(wf.task_count(), 0);
  double clock = 0;        // global virtual time at the residual's start
  double last_finish = 0;  // global finish time of the latest completed task
  cloud::RegionId home = kHomeRegion;  // moves on evacuation
  util::Rng plan_rng(options_.seed);

  Residual residual;
  residual.wf = wf;
  residual.to_original.resize(wf.task_count());
  for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
    residual.to_original[t] = t;
  }
  sim::Plan plan = plan_or_fallback(residual.wf, req, plan_rng, report, home);

  for (std::size_t segment = 0;; ++segment) {
    ++report.segments;
    DECO_OBS_COUNTER_ADD("wms.reactive.segments", 1);
    const std::uint64_t seed = segment_seed(options_.seed, segment);

    // Probe: simulate the residual under the current plan to completion.
    // The probe is what the monitor "would observe"; rerunning the same
    // seed with a horizon reproduces its prefix bit for bit.  The control
    // plane is stateful (token bucket, breakers, outage windows), so each
    // simulation pass gets a *fresh* instance seeded identically — the cut
    // replay below then observes the exact same API faults as the probe.
    auto make_control = [&]() -> std::optional<cloud::ControlPlane> {
      if (!options_.control) return std::nullopt;
      cloud::ControlPlaneOptions cp_options = *options_.control;
      cp_options.seed = seed;
      return std::make_optional<cloud::ControlPlane>(*catalog_, cp_options);
    };
    util::Rng probe_rng(seed);
    std::optional<cloud::ControlPlane> probe_cp = make_control();
    sim::ExecutorOptions probe_options = options_.executor;
    probe_options.control = probe_cp ? &*probe_cp : nullptr;
    probe_options.horizon_s = std::numeric_limits<double>::infinity();
    const sim::ExecutionResult probe = sim::simulate_execution(
        residual.wf, plan, *catalog_, probe_rng, probe_options);

    // Replan on deadline risk, not on every disruption: the probe's
    // projected finish already includes every failure its stream will
    // inject, so a disrupted-but-on-time trajectory is left to the
    // executor's retry machinery.  Cutting eagerly on any failure loses
    // the work in flight at the cut and re-bills instance hours, which at
    // high failure rates costs more than the failures themselves.
    const bool disrupted = std::isfinite(probe.first_failure_s);
    const bool at_risk = clock + probe.makespan > req.deadline_s;
    // A spot-interruption notice inside the run is an advance warning: the
    // engine replans *proactively* at the notice (work checkpoints there
    // and moves under the new plan) even when the trajectory would still
    // meet the deadline — riding it out donates the noticed instance's
    // in-flight work to the reclamation.
    const bool notice_pending = std::isfinite(probe.first_notice_s) &&
                                probe.first_notice_s < probe.makespan;
    // A regional storm forecast is the strongest advance warning of all:
    // capacity in the region will vanish for every type at once.  With
    // evacuation on (and somewhere to go), the engine cuts ahead of the
    // storm and fails the residual over to another region.
    const bool storm_pending = options_.evacuate_on_storm &&
                               catalog_->region_count() > 1 &&
                               std::isfinite(probe.first_storm_s) &&
                               probe.first_storm_s < probe.makespan;
    if ((!at_risk && !notice_pending && !storm_pending) ||
        report.replans >= options_.max_replans) {
      // Accept the whole trajectory: clean and on time, or out of replans.
      report.total_cost += probe.total_cost;
      accumulate(report.failures, probe.failures);
      if (probe_cp) accumulate(report.api, probe_cp->stats());
      last_finish = std::max(last_finish, clock + probe.makespan);
      for (workflow::TaskId t = 0; t < residual.wf.task_count(); ++t) {
        done[residual.to_original[t]] = 1;
      }
      break;
    }

    // Materialize the prefix up to the replanning cut: the first failure
    // plus the monitor's reaction lag when a failure caused the risk, one
    // reaction interval when the plan was simply too slow — or, earliest of
    // all, the first interruption notice (no reaction lag: the notice IS
    // the monitor's signal).
    const double reactive_cut =
        at_risk ? (disrupted ? probe.first_failure_s + options_.reaction_s
                             : options_.reaction_s)
                : std::numeric_limits<double>::infinity();
    const double proactive_cut =
        notice_pending ? std::max(probe.first_notice_s, 1.0)
                       : std::numeric_limits<double>::infinity();
    // Evacuation cuts kStormLeadS ahead of the forecast storm so the
    // frontier data can move before the region goes dark.
    const double evacuation_cut =
        storm_pending ? std::max(probe.first_storm_s - kStormLeadS, 1.0)
                      : std::numeric_limits<double>::infinity();
    const bool proactive =
        proactive_cut < reactive_cut && proactive_cut <= evacuation_cut;
    const bool evacuating =
        storm_pending && evacuation_cut < reactive_cut &&
        evacuation_cut < proactive_cut;
    const double cut = std::min({reactive_cut, proactive_cut, evacuation_cut});
    util::Rng segment_rng(seed);
    std::optional<cloud::ControlPlane> cut_cp = make_control();
    sim::ExecutorOptions cut_options = options_.executor;
    cut_options.control = cut_cp ? &*cut_cp : nullptr;
    cut_options.horizon_s = cut;
    const sim::ExecutionResult prefix = sim::simulate_execution(
        residual.wf, plan, *catalog_, segment_rng, cut_options);
    report.total_cost += prefix.total_cost;
    accumulate(report.failures, prefix.failures);
    if (cut_cp) accumulate(report.api, cut_cp->stats());
    if (proactive) {
      ++report.proactive_replans;
      DECO_OBS_COUNTER_ADD("cloud.reconcile.proactive_replans", 1);
    }
    for (workflow::TaskId t = 0; t < residual.wf.task_count(); ++t) {
      if (!prefix.completed[t]) continue;
      done[residual.to_original[t]] = 1;
      last_finish = std::max(last_finish, clock + prefix.tasks[t].finish);
    }
    clock += cut;

    residual = make_residual(wf, done);
    if (residual.wf.task_count() == 0) break;

    if (evacuating) {
      // Pick the failover region with data-gravity costs: the frontier's
      // bytes (outputs of finished parents feeding unfinished tasks) must
      // cross regions, billed at the stormy region's egress price and
      // delayed by the inter-region link (follow-cost Eqs. 8/9).
      core::TaskTimeEstimator estimator(*catalog_, *store_);
      core::MigrationWorkflowState state;
      state.wf = &wf;
      state.finished.assign(done.begin(), done.end());
      state.region = home;
      state.vm_type = dominant_type(plan);
      state.elapsed_s = clock;
      state.deadline_s = req.deadline_s;
      const core::EvacuationPlan evac = core::choose_evacuation_region(
          state, *catalog_, estimator, probe.storm_region);
      if (evac.moved) {
        ++report.regional_evacuations;
        DECO_OBS_COUNTER_ADD("wms.reactive.evacuations", 1);
        report.evacuation_transfer_cost += evac.migration_cost;
        report.total_cost += evac.migration_cost;
        // The frontier lands in the new region before the residual starts.
        clock += evac.transfer_time_s;
        home = evac.target;
      }
    }

    // Replan the residual DAG against what remains of the deadline.  Work
    // in flight at the cut is rescheduled by the new plan.
    core::ProbDeadline residual_req = req;
    residual_req.deadline_s = std::max(req.deadline_s - clock, 1.0);
    plan = plan_or_fallback(residual.wf, residual_req, plan_rng, report, home);
    ++report.replans;
    DECO_OBS_COUNTER_ADD("wms.reactive.replans", 1);
    DECO_OBS_INSTANT("wms", "replan");
  }

  report.completed =
      std::all_of(done.begin(), done.end(), [](std::uint8_t d) { return d; });
  report.makespan = last_finish;
  report.met_deadline = report.completed && last_finish <= req.deadline_s;
  return report;
}

namespace {

/// DecoScheduler plus the engine it borrows, owned as one run-private unit.
class OwningDecoScheduler final : public Scheduler {
 public:
  OwningDecoScheduler(const cloud::Catalog& catalog,
                      const cloud::MetadataStore& store,
                      const core::SchedulingOptions& scheduling,
                      const core::DecoOptions& engine_options)
      : engine_(catalog, store, engine_options),
        inner_(engine_, scheduling) {}

  std::string name() const override { return inner_.name(); }
  sim::Plan schedule(const workflow::Workflow& wf,
                     const SchedulerContext& ctx) override {
    return inner_.schedule(wf, ctx);
  }

 private:
  core::Deco engine_;
  DecoScheduler inner_;
};

}  // namespace

SchedulerFactory make_deco_scheduler_factory(
    const cloud::Catalog& catalog, const cloud::MetadataStore& store,
    core::SchedulingOptions scheduling, core::DecoOptions engine) {
  engine.backend = "serial";
  return [&catalog, &store, scheduling,
          engine](std::size_t /*run*/) -> std::unique_ptr<Scheduler> {
    return std::make_unique<OwningDecoScheduler>(catalog, store, scheduling,
                                                 engine);
  };
}

ReactiveEnsembleResult run_reactive_ensemble(
    const cloud::Catalog& catalog, const cloud::MetadataStore& store,
    const workflow::Workflow& wf, const core::ProbDeadline& requirement,
    std::size_t runs, const SchedulerFactory& make_scheduler,
    const ReactiveEnsembleOptions& options) {
  ReactiveEnsembleResult result;
  result.reports.resize(runs);
  sim::EnsembleRunner runner(options.exec);
  result.exec = runner.run(
      runs, options.base.seed, [&](const sim::RunContext& ctx) {
        const std::unique_ptr<Scheduler> primary = make_scheduler(ctx.index);
        ReactiveOptions run_options = options.base;
        run_options.seed = ctx.seed;
        ReactiveEngine engine(catalog, store, *primary, run_options);
        result.reports[ctx.index] = engine.run(wf, requirement);
      });
  return result;
}

}  // namespace deco::wms
