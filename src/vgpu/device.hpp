// Virtual-GPU compute backend.
//
// The paper accelerates probabilistic evaluation on an NVIDIA K40 with a
// specific decomposition (Section 5.2/5.3): one thread *block* per searched
// state, one *thread* per Monte Carlo iteration, temporary results in
// per-block *shared memory*, no cross-block communication.  This module
// reproduces that execution model on the host so the same kernel code runs
// with identical semantics:
//
//   * a Block is a cooperative group of `lane_count` lanes with a private
//     shared-memory scratch buffer;
//   * blocks never communicate; lanes within a block reduce via shared();
//   * a kernel walks its lanes itself, in tight loops over contiguous
//     per-lane arrays (the evaluator steps every lane of a tile one task row
//     at a time), not through per-lane indirect calls;
//   * VirtualGpuBackend schedules blocks over a work-stealing dispatcher
//     (participants play the role of streaming multiprocessors, claiming
//     chunks of blocks and stealing from laggards); SerialBackend runs
//     everything on the calling thread and is the baseline for the paper's
//     speed-up comparisons (GPU vs CPU search).
//
// Determinism contract: a block's entire RNG state derives from its seed
// (LaunchConfig::seed or block_seeds) and each lane's stream from
// lane_seed(lane) — counter-based per-(block, lane) streams.  No kernel
// input depends on which participant executes a block or in what order, so
// serial and work-stealing execution are bit-identical at any worker count
// (tests/vgpu/parallel_determinism_test.cpp holds this for the evaluator).
//
// Block contexts are pooled/per-participant and reused across launches
// (their shared-memory buffer and scratch arena keep their capacity),
// mirroring how real shared memory is a fixed hardware resource rather than
// a per-launch allocation — and keeping the Monte Carlo hot path
// allocation-free.
//
// Substitution note (DESIGN.md): no CUDA device is available in this
// environment; the backend preserves the paper's kernel decomposition and
// memory layout so the parallel-vs-serial comparison exercises the same code
// structure the GPU implementation would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/aligned.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/worksteal.hpp"

namespace deco::vgpu {

/// Execution context handed to a kernel, one per block.  Default-constructed
/// contexts are inert until reset(); backends reset a pooled context for
/// every block they run.
class BlockContext {
 public:
  BlockContext() = default;
  BlockContext(std::size_t block_index, std::size_t lane_count,
               std::size_t shared_doubles, util::Rng block_rng) {
    reset(block_index, lane_count, shared_doubles, block_rng);
  }

  /// Re-targets this context at a new block: shared memory is re-zeroed, the
  /// scratch arena is rewound (capacity retained), and the lane seed base is
  /// derived once from the block stream.
  void reset(std::size_t block_index, std::size_t lane_count,
             std::size_t shared_doubles, util::Rng block_rng) {
    block_index_ = block_index;
    lane_count_ = lane_count;
    shared_.assign(shared_doubles, 0.0);
    rng_ = block_rng;
    scratch_cursor_ = 0;
    index_cursor_ = 0;
    // Derive the lane seed base from the block stream without consuming it.
    util::Rng probe = rng_;
    lane_base_ = probe();
  }

  std::size_t block_index() const { return block_index_; }
  std::size_t lane_count() const { return lane_count_; }

  /// Per-block shared-memory scratch (zero-initialized at block start).
  std::span<double> shared() { return shared_; }

  /// Borrows `count` doubles from the block's reusable scratch arena — the
  /// software analogue of statically-sized per-block local arrays.  Buffers
  /// are 64-byte aligned and stay valid until the next reset(); contents are
  /// unspecified until written, so lane-reset accumulators must be cleared
  /// by the kernel.  Repeated borrows return distinct buffers (stable across
  /// arena growth).
  std::span<double> scratch_doubles(std::size_t count) {
    if (scratch_cursor_ == scratch_.size()) scratch_.emplace_back();
    auto& buf = scratch_[scratch_cursor_++];
    if (buf.size() < count) buf.resize(count);
    return {buf.data(), count};
  }

  /// Borrows `count` 32-bit integers from the block's reusable index arena,
  /// under the same contract as scratch_doubles(): for a kernel's
  /// per-position indices and flags.
  std::span<std::int32_t> scratch_ints(std::size_t count) {
    if (index_cursor_ == index_scratch_.size()) index_scratch_.emplace_back();
    auto& buf = index_scratch_[index_cursor_++];
    if (buf.size() < count) buf.resize(count);
    return {buf.data(), count};
  }

  /// Per-lane convenience: fn(lane, rng) with a deterministic per-lane RNG
  /// stream derived from the block stream.  Lanes may be executed in any
  /// order; they must only communicate through shared() after the loop.
  template <typename Fn>
  void for_each_lane(Fn&& fn) {
    util::Rng lane_rng;
    for (std::size_t lane = 0; lane < lane_count_; ++lane) {
      lane_rng.reseed(lane_seed(lane));
      fn(lane, lane_rng);
    }
  }

  /// Seed of lane `lane`'s RNG stream: the block base draw (computed once at
  /// reset) whitened per lane.
  std::uint64_t lane_seed(std::size_t lane) const {
    return lane_base_ ^ (0x9E3779B97F4A7C15ULL * (lane + 1));
  }

 private:
  std::size_t block_index_ = 0;
  std::size_t lane_count_ = 0;
  util::AlignedVector<double> shared_;
  std::vector<util::AlignedVector<double>> scratch_;
  std::size_t scratch_cursor_ = 0;
  std::vector<std::vector<std::int32_t>> index_scratch_;
  std::size_t index_cursor_ = 0;
  util::Rng rng_;
  std::uint64_t lane_base_ = 0;
};

/// Kernel: executed once per block (per-block type erasure only; the
/// per-lane hot loop inside a block stays statically dispatched).
using Kernel = std::function<void(BlockContext&)>;

struct LaunchConfig {
  std::size_t blocks = 1;
  std::size_t lanes_per_block = 32;
  std::size_t shared_doubles = 64;  ///< shared-memory scratch per block
  std::uint64_t seed = 42;          ///< base seed; block b uses seed ^ f(b)
  /// Optional explicit per-block seeds (size == blocks).  Lets callers make a
  /// block's stream a function of its *payload* rather than its index, so the
  /// same work item gives identical results whether evaluated alone or
  /// batched with others.
  std::vector<std::uint64_t> block_seeds;
  /// Optional cooperative cancel: polled between blocks (serial) or between
  /// chunk claims (vgpu).  A cancelled launch throws BudgetExhaustedError
  /// after draining; blocks already inside the kernel run to completion.
  const util::CancelToken* cancel = nullptr;
};

/// Occupancy/steal accounting of the most recent launch (vgpu backend; the
/// serial backend reports one participant and zero steals).
struct LaunchInfo {
  std::size_t blocks = 0;
  std::size_t chunks = 0;        ///< work-stealing chunk claims
  std::size_t steals = 0;        ///< successful range steals
  std::size_t participants = 0;  ///< threads that executed >= 1 block
};

/// Abstract device.
class ComputeBackend {
 public:
  virtual ~ComputeBackend() = default;
  virtual std::string name() const = 0;
  /// Runs `kernel` for every block in the config; returns after all blocks.
  virtual void launch(const LaunchConfig& config, const Kernel& kernel) = 0;
  /// Occupancy/steal stats of the most recent launch (also mirrored to the
  /// obs registry under "vgpu.*" counters).
  virtual LaunchInfo last_launch() const { return {}; }

 protected:
  static util::Rng block_rng(const LaunchConfig& config, std::size_t block) {
    if (block < config.block_seeds.size()) {
      return util::Rng(config.block_seeds[block]);
    }
    return util::Rng(config.seed ^ (0xD5A61266F0C9392CULL * (block + 1)));
  }
};

/// Runs every block on the calling thread (the paper's CPU baseline shape).
class SerialBackend final : public ComputeBackend {
 public:
  std::string name() const override { return "serial"; }
  void launch(const LaunchConfig& config, const Kernel& kernel) override;
  LaunchInfo last_launch() const override { return last_; }

 private:
  BlockContext context_;  // reused across every block and launch
  LaunchInfo last_;
};

/// Schedules blocks over a work-stealing participant pool; semantics
/// identical to SerialBackend (bit-identical results at any worker count).
class VirtualGpuBackend final : public ComputeBackend {
 public:
  /// `workers` = number of simulated multiprocessors (0 = hardware threads).
  /// The launching thread participates too, so blocks run on up to
  /// workers + 1 threads.
  explicit VirtualGpuBackend(std::size_t workers = 0);
  std::string name() const override { return "vgpu"; }
  void launch(const LaunchConfig& config, const Kernel& kernel) override;
  LaunchInfo last_launch() const override { return last_; }
  std::size_t worker_count() const { return pool_.size(); }

 private:
  util::WorkStealingPool pool_;
  // One pre-built context per participant, indexed by the dispatcher's
  // stable participant id: no pool mutex, no allocation on the launch path.
  std::vector<BlockContext> contexts_;
  LaunchInfo last_;
};

/// Factory used by engine options ("serial" | "vgpu").
std::unique_ptr<ComputeBackend> make_backend(const std::string& name,
                                             std::size_t workers = 0);

}  // namespace deco::vgpu
