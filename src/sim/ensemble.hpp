// Sharded ensemble simulation: fan independent simulator runs across the
// work-stealing pool with a hard determinism contract.
//
// Every ensemble-shaped workload in the repository — robustness/weather grid
// cells, reactive same-seed probes, Monte-Carlo-over-futures sweeps, member
// scoring in core::EnsemblePlanner — is a loop of runs that are independent
// by construction: run i's entire behaviour derives from (base_seed, i) and
// shared *const* inputs.  sim.execute_ms shows a single run costs well under
// a millisecond, so throughput questions (10k-instance fleets,
// thousand-workflow ensembles) are limited purely by the serial loop.
// EnsembleRunner is that loop, parallelised without giving up reproducibility:
//
//   * per-run RNG substreams: run i receives substream_seed(base_seed, i)
//     (a splitmix64 finalizer mix, the same scheme the reactive engine uses
//     for segment streams), so no run's stream depends on any other run
//     having executed;
//   * per-run obs shards: while a run body executes, Registry::instance()
//     resolves to a private per-run registry (obs::ScopedRegistry); after
//     the sweep the per-run snapshots are absorbed into the parent registry
//     in run-index order.  Counters/histograms sum run by run in index
//     order and gauges resolve last-run-wins — byte-identical registry
//     state whether the bodies ran serially or on N workers;
//   * cooperative budgets: an optional util::BudgetTracker is polled
//     between runs.  Runs that would start after the budget fired are
//     skipped (never half-executed), completed runs keep their results —
//     the anytime contract of the solver stack extended to sweeps;
//   * deterministic failure handling: a throwing run is recorded, the
//     remaining runs still execute, and the lowest-index exception is
//     rethrown after the sweep (after metrics merge) — the same exception
//     the serial loop would surface, at any worker count.
//
// The determinism contract — the reason this layer exists — is
// *sharded == serial bit-identical*: identical per-run results, identical
// merged metrics, identical plan choices at every worker count, enforced by
// tests/sim/ensemble_shard_test.cpp.  The only exempt outputs are the
// runner's own wall-clock gauges (sim.ensemble.last_sweep_ms,
// sim.ensemble.workers), which describe the execution rather than the
// simulated system; latency histogram *values* recorded by run bodies are
// wall-clock too and therefore compared by observation count, not by sum
// (see docs/performance.md, "Ensemble sharding").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "util/budget.hpp"
#include "util/worksteal.hpp"

namespace deco::sim {

/// Deterministic per-run substream seed: splitmix64-finalizer mix of
/// (base_seed, run_index).  Adjacent indices give statistically independent
/// xoshiro seeds, and the mapping is pure — a run's stream never depends on
/// which other runs executed or where.
std::uint64_t substream_seed(std::uint64_t base_seed, std::uint64_t run_index);

struct EnsembleOptions {
  /// Worker threads to spin up for the sweep.  0 = the serial reference
  /// mode: a plain in-order loop on the calling thread (still with per-run
  /// seeds, obs shards and budget checkpoints, so it is the bit-identity
  /// baseline for any sharded configuration, not legacy behaviour).
  std::size_t workers = 0;
  /// Borrowed pool to shard on (overrides `workers` when non-null).  Reuse
  /// one pool across sweeps to amortize thread start-up.
  util::WorkStealingPool* pool = nullptr;
  /// Optional cooperative budget, polled before each run starts: once it
  /// fires, not-yet-started runs are skipped and counted, completed runs
  /// keep their results (anytime sweeps).
  util::BudgetTracker* budget = nullptr;
};

/// Handed to the run body: everything a run may derive state from.
struct RunContext {
  std::size_t index = 0;        ///< run index in [0, n)
  std::uint64_t seed = 0;       ///< substream_seed(base_seed, index)
  std::size_t participant = 0;  ///< stable executing-thread id (scratch key)
};

/// What one sweep did.
struct EnsembleReport {
  std::size_t runs = 0;       ///< n requested
  std::size_t completed = 0;  ///< bodies that ran to completion
  std::size_t skipped = 0;    ///< runs never started (budget fired first)
  std::size_t failed = 0;     ///< bodies that threw (exception rethrown)
  bool budget_exhausted = false;
  double wall_ms = 0;             ///< sweep wall clock (not part of contract)
  std::size_t workers = 0;        ///< worker threads used (0 = serial mode)
  std::size_t chunks = 0;         ///< work-stealing chunk claims
  std::size_t steals = 0;         ///< successful range steals
  std::size_t participants = 0;   ///< threads that executed >= 1 run
};

class EnsembleRunner {
 public:
  explicit EnsembleRunner(EnsembleOptions options = {});
  ~EnsembleRunner();

  EnsembleRunner(const EnsembleRunner&) = delete;
  EnsembleRunner& operator=(const EnsembleRunner&) = delete;

  /// Executes body(ctx) once per run index in [0, n).  The body must derive
  /// all stochastic state from ctx.seed and may not mutate shared state
  /// (shared inputs are const; per-run outputs go to distinct slots, e.g.
  /// results[ctx.index]).  Blocks until every non-skipped run finished;
  /// rethrows the lowest-index body exception after merging metrics.
  EnsembleReport run(std::size_t n, std::uint64_t base_seed,
                     const std::function<void(const RunContext&)>& body);

  const EnsembleOptions& options() const { return options_; }
  /// Worker threads a sweep will use (0 = serial mode).
  std::size_t worker_count() const;

 private:
  EnsembleOptions options_;
  std::unique_ptr<util::WorkStealingPool> owned_pool_;
};

}  // namespace deco::sim
