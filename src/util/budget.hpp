#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace deco::util {

// Cooperative cancellation flag. Cheap to poll from any thread; cancel() is
// sticky. Callers share one token across the layers of a solve so a single
// cancel reaches search drivers, evaluator kernels, and pool launches.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// Why a budget stopped the solve. kNone means the budget never fired.
enum class BudgetTrigger : std::uint8_t {
  kNone = 0,
  kCancel,     // explicit CancelToken
  kWallClock,  // wall-clock deadline elapsed
  kMemory,     // resident-bytes cap exceeded after the degradation ladder
};

const char* to_string(BudgetTrigger trigger);

// Thrown from cooperative checkpoints deep in the stack (evaluator kernels,
// pool launches, the WLog interpreter) and caught by the search drivers,
// which convert it into an anytime result instead of propagating.
class BudgetExhaustedError : public std::runtime_error {
 public:
  explicit BudgetExhaustedError(BudgetTrigger trigger);
  BudgetTrigger trigger() const noexcept { return trigger_; }

 private:
  BudgetTrigger trigger_;
};

// Per-solve resource limits. Zero means unlimited for both numeric fields;
// `cancel` is borrowed and may be null.
struct SolveBudget {
  double wall_ms = 0.0;       // wall-clock deadline; 0 = unlimited
  std::size_t max_bytes = 0;  // resident cache bytes cap; 0 = unlimited
  CancelToken* cancel = nullptr;

  bool unlimited() const {
    return wall_ms <= 0.0 && max_bytes == 0 && cancel == nullptr;
  }
};

// Outcome summary attached to every budgeted solve result.
struct SolveReport {
  bool budget_exhausted = false;
  BudgetTrigger trigger = BudgetTrigger::kNone;
  std::size_t states_at_cutoff = 0;
  std::size_t bytes_at_cutoff = 0;
  double elapsed_ms = 0.0;
};

// Armed budget state shared (by pointer) across every layer of one solve.
// All methods are safe to call concurrently: checkpoints only read atomics
// plus the steady clock, and the first trigger wins (sticky).
//
// Memory accounting is cooperative: each cache owner publishes its resident
// bytes via set_bytes(); over_memory_budget() compares the sum to the cap.
// The degradation ladder runs before kMemory fires — the evaluator drops its
// staged segments, then requests a visited-set shrink from the search driver
// (request_visited_shrink); only when nothing is left to evict does a layer
// call fire(kMemory).
class BudgetTracker {
 public:
  enum class Component : std::size_t {
    kSegmentCache = 0,
    kVisited,
  };
  static constexpr std::size_t kComponents = 2;

  // Inert tracker: never fires, all checkpoints are no-ops.
  BudgetTracker() = default;
  // Armed tracker: the wall clock starts now.
  explicit BudgetTracker(const SolveBudget& budget);

  BudgetTracker(const BudgetTracker&) = delete;
  BudgetTracker& operator=(const BudgetTracker&) = delete;

  bool active() const noexcept { return armed_; }

  // Cooperative checkpoint. Returns true once any trigger has fired; checks
  // the cancel token and wall clock as a side effect. Cheap enough for
  // per-tile kernel loops.
  bool should_stop() noexcept;

  bool exhausted() const noexcept {
    return trigger_.load(std::memory_order_acquire) !=
           static_cast<int>(BudgetTrigger::kNone);
  }
  BudgetTrigger trigger() const noexcept {
    return static_cast<BudgetTrigger>(trigger_.load(std::memory_order_acquire));
  }

  // Sticky: the first trigger wins, later calls are ignored. Records
  // budget.* obs counters and cancels in-flight launches via the internal
  // launch token.
  void fire(BudgetTrigger trigger) noexcept;

  // Throws BudgetExhaustedError when a trigger has fired. The canonical
  // checkpoint for layers that propagate by exception (kernels, interp).
  void checkpoint() {
    if (should_stop()) throw BudgetExhaustedError(trigger());
  }

  double elapsed_ms() const;

  // Internal token fired alongside any trigger; pool launches poll it
  // between chunk claims so in-flight work drains without calling back into
  // the tracker.
  const CancelToken* launch_cancel() const noexcept { return &launch_cancel_; }

  // --- memory accounting -------------------------------------------------
  std::size_t memory_budget() const noexcept { return budget_.max_bytes; }
  void set_bytes(Component component, std::size_t bytes) noexcept {
    bytes_[static_cast<std::size_t>(component)].store(
        bytes, std::memory_order_relaxed);
  }
  std::size_t bytes(Component component) const noexcept {
    return bytes_[static_cast<std::size_t>(component)].load(
        std::memory_order_relaxed);
  }
  std::size_t total_bytes() const noexcept;
  bool over_memory_budget() const noexcept {
    return armed_ && budget_.max_bytes > 0 && total_bytes() > budget_.max_bytes;
  }

  // Degradation handshake: the evaluator (which owns no visited set) asks
  // the search driver to shrink its visited FIFO at the next wave boundary.
  void request_visited_shrink() noexcept {
    shrink_requested_.store(true, std::memory_order_release);
  }
  bool consume_visited_shrink_request() noexcept {
    return shrink_requested_.exchange(false, std::memory_order_acq_rel);
  }

  // Snapshot into a report. `states` is the driver's states_evaluated count.
  SolveReport report(std::size_t states) const;

 private:
  SolveBudget budget_{};
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_{};
  std::atomic<int> trigger_{static_cast<int>(BudgetTrigger::kNone)};
  std::atomic<std::size_t> bytes_[kComponents] = {};
  std::atomic<bool> shrink_requested_{false};
  CancelToken launch_cancel_;
};

}  // namespace deco::util
