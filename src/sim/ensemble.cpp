#include "sim/ensemble.hpp"

#include <chrono>
#include <exception>
#include <limits>
#include <mutex>
#include <vector>

#include "obs/obs.hpp"

namespace deco::sim {

namespace {

/// Runs claimed per deque access when sharding: 1 maximizes stealing
/// granularity.
constexpr std::size_t kRunChunk = 1;

}  // namespace

std::uint64_t substream_seed(std::uint64_t base_seed,
                             std::uint64_t run_index) {
  // splitmix64 finalizer over base + golden-ratio-stepped index (the scheme
  // wms::ReactiveEngine uses for segment streams): full 64-bit avalanche, so
  // neighbouring indices share no statistical structure.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (run_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

EnsembleRunner::EnsembleRunner(EnsembleOptions options) : options_(options) {
  if (options_.pool == nullptr && options_.workers > 0) {
    owned_pool_ = std::make_unique<util::WorkStealingPool>(options_.workers);
  }
}

EnsembleRunner::~EnsembleRunner() = default;

std::size_t EnsembleRunner::worker_count() const {
  if (options_.pool != nullptr) return options_.pool->size();
  return owned_pool_ ? owned_pool_->size() : 0;
}

EnsembleReport EnsembleRunner::run(
    std::size_t n, std::uint64_t base_seed,
    const std::function<void(const RunContext&)>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  // The registry the sweep reports into: whatever this thread resolves now
  // (usually the process-wide one; under nesting, the enclosing run's
  // shard).  Each run's metrics go to a private registry shard, merged
  // into it in index order.
  obs::Registry& parent = obs::Registry::instance();
  const bool capture = parent.enabled();

  EnsembleReport report;
  report.runs = n;
  report.workers = worker_count();

  std::vector<std::unique_ptr<obs::Registry>> run_registries(capture ? n : 0);
  // Per-run outcome: 0 = completed, 1 = skipped (budget), 2 = failed.  Each
  // slot is written by exactly one run; the pool join publishes them.
  std::vector<std::uint8_t> outcome(n, 0);

  // Lowest-index body exception, rethrown after the sweep.  The serial loop
  // visits indices in order so its first throw is already the lowest; the
  // sharded path keeps the minimum under a mutex.
  std::mutex error_mutex;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  const auto run_one = [&](std::size_t index, std::size_t participant) {
    if (options_.budget != nullptr && options_.budget->should_stop()) {
      outcome[index] = 1;
      return;
    }
    RunContext ctx;
    ctx.index = index;
    ctx.seed = substream_seed(base_seed, index);
    ctx.participant = participant;
    obs::Registry* run_registry = nullptr;
    if (capture) {
      run_registries[index] = std::make_unique<obs::Registry>();
      run_registry = run_registries[index].get();
      run_registry->set_enabled(true);
    }
    try {
      const obs::ScopedRegistry scope(run_registry);
      body(ctx);
    } catch (...) {
      outcome[index] = 2;
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (index < error_index) {
        error_index = index;
        error = std::current_exception();
      }
    }
  };

  util::WorkStealingPool* pool =
      options_.pool != nullptr ? options_.pool : owned_pool_.get();
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) run_one(i, 0);
  } else {
    const auto stats = pool->run(
        n, kRunChunk,
        [&](std::size_t begin, std::size_t end, std::size_t participant) {
          for (std::size_t i = begin; i < end; ++i) run_one(i, participant);
        });
    report.chunks = stats.chunks;
    report.steals = stats.steals;
    report.participants = stats.participants;
  }

  // Deterministic shard merge: absorb per-run snapshots in run-index order
  // on this thread (the pool join above is the happens-before edge), so the
  // parent registry ends bit-identical to a serial sweep.  Failed runs
  // still merge what they recorded before throwing — the serial loop would
  // have recorded exactly the same prefix.
  if (capture) {
    for (std::size_t i = 0; i < n; ++i) {
      if (run_registries[i] == nullptr) continue;
      parent.absorb(run_registries[i]->snapshot());
      run_registries[i].reset();
    }
  }

  for (const std::uint8_t o : outcome) {
    if (o == 0) ++report.completed;
    else if (o == 1) ++report.skipped;
    else ++report.failed;
  }
  report.budget_exhausted =
      options_.budget != nullptr && options_.budget->exhausted();
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  // Deterministic sweep counters (part of the bit-identity contract) …
  DECO_OBS_COUNTER_ADD("sim.ensemble.sweeps", 1);
  DECO_OBS_COUNTER_ADD("sim.ensemble.runs", report.completed);
  if (report.skipped > 0) {
    DECO_OBS_COUNTER_ADD("sim.ensemble.skipped", report.skipped);
  }
  if (report.failed > 0) {
    DECO_OBS_COUNTER_ADD("sim.ensemble.failed", report.failed);
  }
  if (capture) {
    DECO_OBS_COUNTER_ADD("sim.ensemble.shard_merges", n - report.skipped);
  }
  // … and execution-shape gauges, which describe the host rather than the
  // simulated system and are exempt from the contract.
  DECO_OBS_GAUGE_SET("sim.ensemble.workers",
                     static_cast<double>(report.workers));
  DECO_OBS_GAUGE_SET("sim.ensemble.last_sweep_ms", report.wall_ms);

  if (error) std::rethrow_exception(error);
  return report;
}

}  // namespace deco::sim
