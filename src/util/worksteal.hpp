// Work-stealing index-range dispatcher — the launch path of the virtual-GPU
// backend (src/vgpu).
//
// A launch needs no per-chunk allocation or queue mutex, and must rebalance
// when blocks have skewed runtimes (a search wave mixes cheap and expensive
// plans), which a static contiguous partition cannot.  This dispatcher drives
// a *fixed index range* [0, n) with classic range stealing:
//
//   * every participant (each worker, plus the calling thread) owns a deque
//     of block indices, represented as a begin/end pair packed into one
//     atomic word;
//   * owners claim chunks of `chunk` blocks from the *front* of their own
//     deque with a single CAS — no locks, no allocation;
//   * a participant whose deque runs dry steals the *back half* of a
//     victim's remaining range, installs it as its own deque, and goes back
//     to front-claiming (so other thieves can in turn steal from it);
//   * the only blocking synchronization is one condvar wake per launch.
//
// Which participant executes a block is scheduling-dependent, but the block
// index fully determines the work, so callers that derive per-block state
// from the index (as vgpu kernels do) are bit-identical under any schedule.
//
// Exceptions: the launch runs to completion (every block is still claimed;
// blocks whose fn threw count as done), then the exception thrown by the
// *lowest block index* is rethrown on the caller — deterministic regardless
// of worker timing, and no task outlives run() (fn may safely borrow the
// caller's stack).
//
// Cancellation: run() takes an optional CancelToken.  Once it reads
// cancelled, participants stop invoking fn — remaining chunks are still
// claimed (so the launch drains and joins normally) but each skipped chunk
// records a BudgetExhaustedError, and the lowest-block one is rethrown on
// the caller exactly like a kernel exception.  Blocks already inside fn run
// to completion; fn observes cancellation through its own checkpoints.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace deco::util {

class CancelToken;

class WorkStealingPool {
 public:
  /// What one launch did — occupancy and steal accounting for observability.
  struct LaunchStats {
    std::size_t blocks = 0;        ///< n of the launch
    std::size_t chunks = 0;        ///< front-of-deque chunk claims
    std::size_t steals = 0;        ///< successful back-half range steals
    std::size_t participants = 0;  ///< participants that ran >= 1 block
  };

  /// Creates `threads` workers (0 = hardware_concurrency, min 1).  The
  /// calling thread of run() always participates too, so a launch executes
  /// on up to size() + 1 threads.
  explicit WorkStealingPool(std::size_t threads = 0);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  std::size_t size() const { return workers_.size(); }
  /// Worker threads plus the caller; the maximum `participant` argument to
  /// fn is participant_count() - 1.
  std::size_t participant_count() const { return workers_.size() + 1; }

  /// Runs fn(begin, end, participant) until every index in [0, n) has been
  /// covered exactly once, claiming `chunk` indices (>= 1) per deque access.
  /// fn must be safe to call concurrently from participant_count() threads;
  /// `participant` is a stable thread index in [0, participant_count()),
  /// usable for per-thread scratch.  Blocks until the whole range completed;
  /// rethrows the pending exception of the lowest-indexed failed chunk.
  /// Launches that fit a single chunk (n <= chunk) run inline on the caller
  /// (as its own participant id) without waking the pool.
  /// If `cancel` is non-null it is polled between chunk claims; a cancelled
  /// launch rethrows BudgetExhaustedError for its lowest skipped block.
  LaunchStats run(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& fn,
                  const CancelToken* cancel = nullptr);

 private:
  // One participant's deque: the remaining index range packed begin<<32|end.
  // Padded to a cache line so owner claims and thief CASes do not false-share.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> range{0};
    std::atomic<std::size_t> chunks{0};
    std::atomic<std::size_t> steals{0};
    std::atomic<bool> ran{false};
  };

  void worker_loop(std::size_t id);
  void participate(std::size_t participant);
  void execute(std::size_t begin, std::size_t end, std::size_t participant);

  std::vector<std::thread> workers_;
  std::vector<Slot> slots_;  // participant_count() entries, reused per launch

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;   // bumped once per launch
  std::size_t workers_done_ = 0;   // workers finished with current generation
  bool stopping_ = false;

  // Per-launch job state (written by run() before the generation bump).
  const std::function<void(std::size_t, std::size_t, std::size_t)>* fn_ =
      nullptr;
  const CancelToken* cancel_ = nullptr;
  std::size_t job_blocks_ = 0;
  std::size_t job_chunk_ = 1;
  std::atomic<std::size_t> blocks_done_{0};

  // First-failure capture, "first" = lowest block index of a throwing chunk.
  std::mutex error_mutex_;
  std::size_t error_block_ = 0;
  std::exception_ptr error_;
};

}  // namespace deco::util
