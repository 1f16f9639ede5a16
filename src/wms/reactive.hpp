// Reactive, fault-tolerant execution loop on top of the WMS (Figure 3
// extended with a monitor).
//
// A static plan is only as good as the cloud it assumed: once instances
// crash or attempts fail, the residual workflow may no longer meet the
// probabilistic deadline.  ReactiveEngine closes the loop — it monitors a
// simulated run and, when the projected finish (failures included) slips
// past the deadline, prunes the completed tasks, decrements the deadline
// to what remains, and re-invokes the scheduler on the *residual* DAG;
// the first failure's time anchors where the old plan is cut.  Disrupted
// but still-on-time runs are left to the executor's retry machinery —
// replanning costs lost in-flight work and re-billed instance hours, so
// it is reserved for runs that would otherwise miss.  Replanning degrades
// gracefully: if the primary scheduler (typically Deco) throws, returns a
// malformed plan, or exceeds a wall-clock timeout, the engine falls back
// to the Autoscaling baseline (and, as a last resort, to an all-cheapest
// plan) instead of aborting the workflow.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/control_plane.hpp"
#include "sim/ensemble.hpp"
#include "sim/executor.hpp"
#include "wms/scheduler.hpp"

namespace deco::wms {

struct ReactiveOptions {
  /// Simulator configuration, including the failure model to inject.
  /// `executor.control` is ignored here — set `control` below instead: the
  /// engine's probe/cut replay needs a *fresh* control plane per simulation
  /// (the plane is stateful), which it constructs from these options with
  /// the segment seed so both passes observe identical API faults.
  sim::ExecutorOptions executor;
  /// Control-plane fault/resilience configuration (nullopt = the seed
  /// simulator's infallible API).  The `seed` field is overridden per
  /// segment.  A spot-interruption *notice* observed by the probe triggers
  /// a proactive replan cut at the notice — checkpoint, then move the work
  /// — instead of waiting for the reclamation to hurt.
  std::optional<cloud::ControlPlaneOptions> control;
  /// Lag between a detected failure and the replanning cut: the monitor
  /// lets the run continue this long before the new plan takes over.
  double reaction_s = 60;
  /// Replans allowed per run; past the cap the engine rides the current
  /// plan to completion (bounds both simulation and solver work).
  std::size_t max_replans = 6;
  /// React to a regional storm forecast by evacuating: cut a fixed 120 s
  /// ahead of the storm (the regional analogue of the spot notice lead),
  /// pick a failover region with data-gravity costs (follow-cost Eqs. 8/9),
  /// and replan the residual there.  Every run starts in region 0 and
  /// changes region only through an evacuation.  Off = ride the storm out
  /// with the executor's retry/fallback machinery alone.  No effect without
  /// weather in `control` — traces stay bit-identical.
  bool evacuate_on_storm = true;
  /// Wall-clock budget for one primary-scheduler invocation, enforced as a
  /// real cooperative budget (SchedulerContext::budget): budget-aware
  /// schedulers return their best incumbent at the cutoff and that anytime
  /// plan is *accepted*.  Non-cooperative schedulers that overrun the
  /// budget are still judged post-hoc by the wall clock and fall back to
  /// the Autoscaling baseline.  A non-positive value disables the primary
  /// scheduler outright (no budget could be met) and goes straight to the
  /// fallback.
  double solver_timeout_ms = 30000;
  /// Base seed for per-segment simulation streams.
  std::uint64_t seed = 2015;
};

struct ReactiveReport {
  bool completed = false;      ///< every task ran to completion
  double makespan = 0;         ///< global finish time, seconds
  double total_cost = 0;       ///< summed over all execution segments
  bool met_deadline = false;
  std::size_t segments = 0;    ///< execution segments simulated
  std::size_t replans = 0;     ///< scheduler re-invocations after t=0
  /// Replans triggered by a spot-interruption notice (a subset of replans):
  /// the engine cut at the advance warning rather than at a failure.
  std::size_t proactive_replans = 0;
  /// Regional evacuations: storm-triggered replans that moved the residual
  /// workflow (and its frontier data) to a failover region.
  std::size_t regional_evacuations = 0;
  /// Egress cost of the evacuated frontiers (already inside total_cost).
  double evacuation_transfer_cost = 0;
  std::size_t solver_fallbacks = 0;  ///< times the fallback plan was used
  /// Primary-scheduler invocations whose solve budget fired but still
  /// produced a valid anytime plan (accepted, not a fallback).
  std::size_t solver_budget_cutoffs = 0;
  sim::FailureStats failures;  ///< aggregated over accepted segments
  cloud::ApiStats api;         ///< control-plane stats, accepted segments
  std::string last_scheduler;  ///< who produced the final plan
};

class ReactiveEngine {
 public:
  /// The engine borrows the catalog, store and primary scheduler; they must
  /// outlive it.
  ReactiveEngine(const cloud::Catalog& catalog,
                 const cloud::MetadataStore& store, Scheduler& primary,
                 ReactiveOptions options = {});

  /// Plans and executes `wf` against the probabilistic deadline, replanning
  /// reactively on failures and deadline risk.
  ReactiveReport run(const workflow::Workflow& wf,
                     const core::ProbDeadline& requirement);

  const ReactiveOptions& options() const { return options_; }

 private:
  sim::Plan plan_or_fallback(const workflow::Workflow& wf,
                             const core::ProbDeadline& requirement,
                             util::Rng& rng, ReactiveReport& report,
                             cloud::RegionId region);

  const cloud::Catalog* catalog_;
  const cloud::MetadataStore* store_;
  Scheduler* primary_;
  ReactiveOptions options_;
};

// ---------------------------------------------------------------------------
// Sharded reactive ensembles: N independent closed-loop executions of the
// same workflow (the Monte-Carlo-over-futures question "how does this plan
// survive N possible worlds?"), fanned over sim::EnsembleRunner.  Each run
// owns a private ReactiveEngine seeded with substream_seed(base.seed, run)
// and a private primary scheduler from the factory — engines and their
// backends are stateful, so sharing one across concurrent runs is a race.
// The determinism contract is EnsembleRunner's: reports (and merged
// wms.reactive.* metrics) are bit-identical serial vs sharded at any worker
// count (tests/sim/ensemble_shard_test.cpp).

/// Builds run-private primary schedulers.  The factory itself must be safe
/// to call concurrently (typically it only constructs fresh objects from
/// const inputs); everything it returns is used by a single run.
using SchedulerFactory =
    std::function<std::unique_ptr<Scheduler>(std::size_t run)>;

struct ReactiveEnsembleOptions {
  /// Per-run engine options; `base.seed` is the ensemble base seed, replaced
  /// per run by its substream.
  ReactiveOptions base;
  /// Sharding configuration (workers/pool/budget); see sim::EnsembleOptions.
  sim::EnsembleOptions exec;
};

struct ReactiveEnsembleResult {
  /// One report per run, in run-index order.  Runs skipped by a fired
  /// budget keep a default-constructed report (completed == false).
  std::vector<ReactiveReport> reports;
  sim::EnsembleReport exec;
};

ReactiveEnsembleResult run_reactive_ensemble(
    const cloud::Catalog& catalog, const cloud::MetadataStore& store,
    const workflow::Workflow& wf, const core::ProbDeadline& requirement,
    std::size_t runs, const SchedulerFactory& make_scheduler,
    const ReactiveEnsembleOptions& options = {});

/// Factory producing, per run, a private core::Deco engine (forced onto the
/// serial compute backend — engines must not share the launch path with
/// concurrent runs; serial evaluation is bit-identical to vgpu by the
/// backend determinism contract) wrapped in a DecoScheduler.  The returned
/// factory borrows nothing: catalog/store/options are copied or captured by
/// reference to caller-owned objects that must outlive the ensemble call.
SchedulerFactory make_deco_scheduler_factory(
    const cloud::Catalog& catalog, const cloud::MetadataStore& store,
    core::SchedulingOptions scheduling = {}, core::DecoOptions engine = {});

}  // namespace deco::wms
