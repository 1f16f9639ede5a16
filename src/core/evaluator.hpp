// Native probabilistic plan evaluation — the compiled counterpart of the
// WLog probabilistic IR (what the paper's GPU kernels compute).
//
// A candidate plan is scored by Monte Carlo over the per-task execution-time
// histograms: each lane samples one "possible world" (one time per task),
// takes the DAG longest path as the workflow makespan (the distributional
// version of Eq. 3) and a monetary cost (Eq. 1).  Kernel decomposition per
// Section 5.3: one block per evaluated plan, one lane per Monte Carlo
// iteration, lane results written to the block's slice and reduced per plan.
// The two sampling tiers of the estimator hierarchy are this one kernel with
// two world sources: Tier 2 draws each world from a per-lane RNG stream,
// Tier 1 takes it from a shared Kronecker point set and may stop at a tile
// boundary once a Wilson bound decides feasibility.  Tier 0, the analytic
// screen, is a launch of its own with one block per run of consecutive
// plans, reusing moments from plan to plan (analytic_estimator.hpp).  The
// histogram data is laid out as flat SoA arrays (per-position column
// pointers into contiguous alias columns) so the kernel touches contiguous
// memory — the paper's "memory-optimized" implementation.
//
// The hot path is allocation-free and O(1) per task-sample (see
// docs/performance.md):
//   * bins are drawn through Walker/Vose alias tables instead of a binary
//     CDF search;
//   * per-(task, vm type) staged segments live in one flat table, so the
//     mostly-overlapping plans a search wave produces share their staging
//     work, and each plan image references its segments' columns instead of
//     copying them;
//   * lane scratch lives in the block context's reusable arena, not in
//     per-lane heap allocations;
//   * both passes over a tile walk task rows across lanes without
//     data-dependent branches: the alias pick is a bit mask, and Tier 2
//     steps every lane's RNG stream at once in a vectorized row loop.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/estimator.hpp"
#include "sim/failure_model.hpp"
#include "sim/plan.hpp"
#include "util/aligned.hpp"
#include "util/budget.hpp"
#include "util/qmc.hpp"
#include "vgpu/device.hpp"
#include "workflow/dag.hpp"

namespace deco::core {

/// Probabilistic deadline requirement: P(makespan <= deadline) >= quantile.
struct ProbDeadline {
  double quantile = 0.96;  ///< the paper's default QoS setting
  double deadline_s = 0;
};

enum class CostModel {
  kProrated,     ///< Eq. 1: sum of mean task time x unit price (fractional h)
  kBilledHours,  ///< per-instance ceil-to-hour, groups share instances
};

/// Which tier(s) of the estimator hierarchy score a plan
/// (docs/performance.md, "Estimator hierarchy"):
///   kMc       — Tier 2 only: the fixed-iteration Monte Carlo evaluator.
///               Bit-identical to the pre-hierarchy evaluator.
///   kAnalytic — Tier 0 only: closed-form moment-matching max-plus screen
///               (no sampling at all; feasibility from the normal fit).
///   kAuto     — Tier 0 screens every plan; plans the screen cannot decide
///               within the guard band escalate to Tier 1 (adaptive QMC with
///               a sequential confidence bound, capped at mc_iterations).
enum class EstimatorMode { kMc, kAnalytic, kAuto };

/// Guard band of the analytic screen under kAuto, in standard-normal z
/// units: the screen accepts only when its feasibility z-score clears the
/// required quantile's z by this margin, rejects only when it falls short by
/// the same margin, and escalates anything in between to sampling.  z-space
/// (rather than probability-space) keeps the band meaningful near required
/// ~ 0.98 where probabilities saturate.  kAnalytic has no tier to escalate
/// to, so its band is empty.
inline constexpr double kScreenGuardZ = 0.8;

/// "mc" | "analytic" | "auto" (CLI --estimator values); nullopt on unknown.
std::optional<EstimatorMode> parse_estimator_mode(std::string_view name);
const char* to_string(EstimatorMode mode);

/// How a screened plan was decided.
enum class ScreenVerdict {
  kNone,      ///< estimator mode kMc: no screen ran
  kAccept,    ///< analytic screen cleared the guard band: feasible, no MC
  kReject,    ///< analytic screen failed the guard band: infeasible, no MC
  kEscalate,  ///< inside the band: decided by adaptive QMC sampling
};

struct EvalOptions {
  std::size_t mc_iterations = 128;
  CostModel cost_model = CostModel::kProrated;
  std::uint64_t seed = 99;
  /// Guard band on the probabilistic requirement: with Max_iter Monte Carlo
  /// lanes the quantile estimate carries ~sqrt(p(1-p)/Max_iter) noise, so a
  /// plan is declared feasible only if P(makespan <= D) clears the required
  /// quantile by this margin.  Keeps the paper's "results guarantee the
  /// probabilistic deadline requirement" property on the simulator.
  double feasibility_margin = 0.02;
  /// Deadline de-rating for the feasibility check: the 16-bin histograms
  /// compress the extreme right tail (a bin center averages its bin), so the
  /// estimated makespan quantile runs a few percent light.  Feasibility is
  /// checked against deadline / quantile_safety.
  double quantile_safety = 1.05;
  /// Failure-aware evaluation (borrowed; may be nullptr): the model's
  /// expected retry/straggler/crash inflation is folded into every staged
  /// task segment, so probabilistic deadlines account for the same failure
  /// process the simulator injects.  Null leaves results bit-identical to
  /// the failure-free evaluator.
  const sim::FailureModel* failure_model = nullptr;
  /// Estimator-hierarchy tier selection for evaluate_batch_screened().  The
  /// library default is kMc so existing callers (and the `--estimator mc`
  /// CLI path) stay bit-identical to the pre-hierarchy evaluator; the CLI
  /// defaults to kAuto.
  EstimatorMode estimator = EstimatorMode::kMc;
};

struct PlanEvaluation {
  double mean_cost = 0;          ///< USD
  double mean_makespan = 0;      ///< seconds
  double makespan_quantile = 0;  ///< the requirement's quantile of makespan
  double deadline_prob = 0;      ///< P(makespan <= deadline)
  bool feasible = false;         ///< deadline_prob >= quantile
};

/// Hit/miss counters for the segment staging cache (diagnostics; the
/// determinism tests also use them to prove the cached path was exercised).
struct StagingCacheStats {
  std::size_t segment_hits = 0;
  std::size_t segment_misses = 0;
};

/// One plan's screened score: the evaluation plus how it was decided and what
/// sampling it cost.
struct ScreenedEvaluation {
  PlanEvaluation eval;
  ScreenVerdict verdict = ScreenVerdict::kNone;
  std::size_t mc_iterations_used = 0;  ///< sampled worlds (0 for Tier 0 calls)
  bool qmc_early_stop = false;  ///< Tier 1 stopped before the iteration cap
};

/// Running tallies for the estimator hierarchy (mirrored into the
/// eval.screen.* / eval.qmc.* obs counters).
struct ScreenStats {
  std::size_t screened = 0;   ///< plans that went through the analytic screen
  std::size_t accepted = 0;   ///< decided feasible by Tier 0 alone
  std::size_t rejected = 0;   ///< decided infeasible by Tier 0 alone
  std::size_t escalated = 0;  ///< sent to Tier 1 sampling
  std::size_t qmc_early_stops = 0;
  std::size_t qmc_iterations_used = 0;
  std::size_t qmc_iterations_saved = 0;  ///< vs. the mc_iterations cap
  std::size_t full_mc_verifications = 0;  ///< Tier 2 verifier invocations
  /// Tier 0 work: positions screened (tasks x plans) and, of those, the
  /// positions whose moment fold was redone rather than carried over from
  /// the previous plan of the block's run.
  std::size_t positions = 0;
  std::size_t positions_recomputed = 0;
};

class PlanEvaluator {
 public:
  /// One pre-resolved alias-table column: a draw that lands in this column
  /// yields `stay_center` with probability `prob`, else `alias_center`.
  /// Materializing both bin centers in the column removes the dependent
  /// centers[alias[k]] load from the sampling loop — one contiguous 24-byte
  /// read per draw.
  struct AliasColumn {
    double prob = 1;
    double stay_center = 0;
    double alias_center = 0;
  };

  /// One staged (task, vm type) unit, shared by all three tiers: the
  /// dynamic-time histogram flattened into alias columns, the constant CPU
  /// time, and the first two moments of the dynamic time (the analytic
  /// screen's input), all after failure inflation.
  struct TaskSegment {
    std::vector<AliasColumn> columns;
    double cpu = 0;
    double dyn_mean = 0;  ///< E[dynamic time] under the alias columns
    double dyn_var = 0;   ///< Var[dynamic time] under the alias columns
    bool staged = false;  ///< false until built (and again after eviction)
  };

  /// The evaluator borrows the workflow, estimator and backend; they must
  /// outlive it.
  PlanEvaluator(const workflow::Workflow& wf, TaskTimeEstimator& estimator,
                vgpu::ComputeBackend& backend, EvalOptions options = {});

  /// Evaluates one plan against a probabilistic deadline.
  PlanEvaluation evaluate(const sim::Plan& plan, const ProbDeadline& req);

  /// Evaluates many plans concurrently: one block per plan.
  std::vector<PlanEvaluation> evaluate_batch(std::span<const sim::Plan> plans,
                                             const ProbDeadline& req);

  /// Estimator-hierarchy entry point: routes each plan through the tiers
  /// selected by options().estimator.  kMc runs the same kernel as
  /// evaluate_batch (bit-identical results, verdict kNone); kAnalytic
  /// answers every plan from the Tier 0 closed form; kAuto screens
  /// analytically and escalates only the guard-band states to adaptive QMC
  /// sampling.
  std::vector<ScreenedEvaluation> evaluate_batch_screened(
      std::span<const sim::Plan> plans, const ProbDeadline& req);

  /// Tier 2 verifier: full fixed-iteration MC regardless of estimator mode.
  /// Identical to evaluate(); the separate name records intent at call sites
  /// and feeds the full_mc_verifications tally.
  PlanEvaluation verify_full_mc(const sim::Plan& plan, const ProbDeadline& req);
  /// Tier 2 verification of a wave: one block per plan, each result equal to
  /// the single-plan verify_full_mc of that plan.
  std::vector<PlanEvaluation> verify_full_mc(std::span<const sim::Plan> plans,
                                             const ProbDeadline& req);

  const workflow::Workflow& workflow() const { return *wf_; }
  TaskTimeEstimator& estimator() { return *estimator_; }
  const EvalOptions& options() const { return options_; }

  /// Solver fallback hook: switch the estimator tier in place.  Touches no
  /// cache or RNG state — the MC kernel, the staged segments and the QMC
  /// sequence are all keyed on data that does not change with the mode — so
  /// flipping to kMc and back yields bit-identical full-MC results.
  void set_estimator_mode(EstimatorMode mode) { options_.estimator = mode; }

  const StagingCacheStats& cache_stats() const { return cache_stats_; }
  const ScreenStats& screen_stats() const { return screen_stats_; }
  /// Drops the segment cache (e.g. after the estimator was recalibrated).
  void clear_staging_cache();

  /// The staged segment of one (task, vm type), built on first use and
  /// counted as a cache hit or miss.  The reference stays valid until the
  /// cache is cleared or evicted (the memory ladder runs only at batch
  /// entry).
  const TaskSegment& segment(workflow::TaskId task, cloud::TypeId type);

  /// Arms (or disarms, with nullptr) a per-solve budget.  Batch entry points
  /// publish cache bytes, run the memory degradation ladder (drop the
  /// segments, then request a visited-set shrink from the driver), and
  /// checkpoint the kernels at block entry and every tile boundary, throwing
  /// BudgetExhaustedError once a trigger fires.  A budget that never fires
  /// leaves results bit-identical: checkpoints only read, and cache eviction
  /// is result-neutral by construction.
  void set_budget(util::BudgetTracker* budget) { budget_ = budget; }
  util::BudgetTracker* budget() const { return budget_; }
  /// Resident bytes of the segment cache (approximate; what the memory
  /// budget meters).
  std::size_t cache_bytes() const { return segment_cache_bytes_; }

 private:
  /// Flat SoA image of one plan's histograms, prices and grouping.  The
  /// histograms cover the dynamic (I/O + network) component; CPU time is a
  /// constant per task added after interference scaling.  All per-task
  /// arrays are stored in *topological position* order (position p holds
  /// task topo_[p]), so the kernel's single forward pass walks every array
  /// sequentially, and each array starts on a 64-byte boundary so the
  /// task-major row loops vectorize with aligned accesses.  Bins are
  /// sampled through the alias columns of the position's cached segment,
  /// which the image references rather than copies: column k of position p
  /// is cols[p][k], for k < bins[p].
  struct DevicePlan {
    util::AlignedVector<const AliasColumn*> cols;  // segment columns/position
    util::AlignedVector<std::size_t> bins;         // columns per position
    util::AlignedVector<double> cpu;          // constant CPU seconds/position
    util::AlignedVector<double> price_per_s;  // assigned unit price / 3600
    util::AlignedVector<double> price_hour;   // assigned unit price, USD/h
    util::AlignedVector<std::int32_t> group;
    util::AlignedVector<double> group_price_hour;   // per group slot, USD/h
    util::AlignedVector<std::uint32_t> group_size;  // members per group slot
    std::size_t group_slots = 0;                    // max group id + 1
  };

  /// Table slot of one (task, vm type): task-major, like the estimator's.
  std::size_t segment_slot(workflow::TaskId task, cloud::TypeId type) const {
    return static_cast<std::size_t>(task) * type_count_ + type;
  }
  /// Drops every staged segment; returns how many there were.
  std::size_t drop_segments();
  DevicePlan stage(const sim::Plan& plan);
  PlanEvaluation reduce(std::span<const double> makespans,
                        std::span<const double> costs,
                        const ProbDeadline& req) const;

  /// The sampling kernel behind Tiers 1 and 2: stages the plans, launches
  /// one block per plan over up to mc_iterations worlds in 128-lane tiles,
  /// and reduces each block's lane results.  qmc = false is Tier 2: every
  /// world comes from the lane's RNG stream and all mc_iterations run.
  /// qmc = true is Tier 1: world j is point j of the shared Kronecker
  /// sequence, and a plan stops at the first tile boundary where the Wilson
  /// interval on P(makespan <= deadline) clears (or fails) the required
  /// quantile.  Both are pure functions of (seed, plan).
  std::vector<ScreenedEvaluation> sample_worlds(
      std::span<const sim::Plan> plans, const ProbDeadline& req, bool qmc);

  /// Publishes screen-stat deltas to the obs counters and folds them into
  /// screen_stats_.
  void record_screen_stats(const ScreenStats& delta);

  /// Publishes cache byte gauges to the budget tracker and, when over the
  /// memory cap, runs the degradation ladder.  Called at batch entry (before
  /// staging grows the caches further); no-op without an armed budget.
  void enforce_memory_budget();
  static std::size_t segment_bytes(const TaskSegment& seg);

  /// Adds the segment-cache hits and misses counted since the last publish
  /// to the eval.cache.segment_* obs counters when it leaves scope.  Held by
  /// each batch entry point, so the counters move once per batch (on every
  /// exit path) instead of once per string-keyed, locked lookup.
  struct CacheStatsPublisher {
    PlanEvaluator& self;
    ~CacheStatsPublisher();
  };

  /// Evaluation pass of one tile of sample_worlds(): consumes the tile's
  /// pre-generated uniforms and interference speedups (from either world
  /// source) and writes per-lane makespans/costs into the accumulator rows.
  void eval_tile_rows(const DevicePlan& dev, bool billed, std::size_t tile,
                      std::size_t lanes, std::span<const double> uniforms,
                      std::span<double> finish,
                      std::span<const double> inv_inter,
                      std::span<double> start, std::span<const double> zero_row,
                      std::span<double> duration,
                      std::span<double> makespan_acc,
                      std::span<double> cost_acc, std::span<double> group_avail,
                      std::span<double> group_time) const;

  const workflow::Workflow* wf_;
  TaskTimeEstimator* estimator_;
  vgpu::ComputeBackend* backend_;
  EvalOptions options_;

  // DAG image shared by all plans: the topological order plus a CSR parent
  // list expressed in topological *positions* (parents_[e] is the position,
  // not the task id, of a parent), so the kernel's finish-time array is
  // indexed by position and the forward pass is fully sequential.
  std::vector<workflow::TaskId> topo_;
  std::vector<std::size_t> parent_offsets_;   // indexed by position, N+1
  std::vector<std::uint32_t> parents_;        // parent positions
  // sink_[p] != 0 iff position p has no children.  Finish times are monotone
  // along DAG edges (durations are >= 0), so the makespan — max finish over
  // all tasks — equals the max over sinks alone, and the kernel only folds
  // sink rows into its makespan accumulator.
  std::vector<std::uint8_t> sink_;

  // Hash of the whole placement vector; each block's seed derives from it, so
  // a plan's score does not depend on which batch it was evaluated in.
  struct PlanKeyHash {
    std::size_t operator()(const sim::Plan& plan) const;
  };

  // Staging cache: one flat task-major table of n x type_count_ segments,
  // indexed by segment_slot().  The estimator's distributions are
  // deterministic per (task, type), so entries never invalidate.  The table
  // is sized once and never reallocates, so plan images can point into its
  // columns; it changes only between launches (segment builds are serial,
  // and the memory ladder runs at batch entry).
  std::size_t type_count_ = 0;
  std::vector<TaskSegment> segment_cache_;
  StagingCacheStats cache_stats_;
  StagingCacheStats published_cache_stats_;  // cache_stats_ at last publish
  std::size_t segment_cache_bytes_ = 0;
  util::BudgetTracker* budget_ = nullptr;  // borrowed; null = unbudgeted

  // Estimator hierarchy.  The analytic screen (Tier 0) reads the segment
  // table and the DAG image through its friendship; the Kronecker sequence
  // (Tier 1) is built lazily at first escalation — one dimension for the
  // interference factor plus one per task — and shared by every plan
  // (common random numbers).
  friend class AnalyticEstimator;
  util::KroneckerSequence qmc_points_;
  ScreenStats screen_stats_;
};

}  // namespace deco::core
