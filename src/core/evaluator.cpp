#include "core/evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/analytic_estimator.hpp"
#include "obs/obs.hpp"
#include "sim/interference.hpp"
#include "util/alias_table.hpp"
#include "util/stats.hpp"

namespace deco::core {
namespace {

/// Lanes per kernel tile; also Tier 1's checkpoint spacing, so its first
/// early-stop check comes after 128 worlds, below which the Wilson bound is
/// too loose to trust.
constexpr std::size_t kTileLanes = 128;

/// Plans per Tier 0 block: a screen launch cuts its wave into runs of this
/// many consecutive plans, and each block carries finish moments from one
/// plan of its run to the next.  Longer runs reuse more, but leave fewer
/// blocks to spread over the backend's participants (docs/performance.md).
constexpr std::size_t kScreenRunLength = 8;

/// z-score of the Wilson interval that must clear (or fail) the required
/// quantile before Tier 1 stops early: two-sided 99%.
constexpr double kQmcConfidenceZ = 2.576;

/// Wilson score interval for a Bernoulli proportion — well-behaved at the
/// p ~ 1 probabilities deadline queries live at, unlike the Wald interval.
struct WilsonInterval {
  double lower = 0;
  double upper = 1;
};

WilsonInterval wilson_interval(std::size_t successes, std::size_t trials,
                               double z) {
  const double m = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / m;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / m;
  const double center = phat + z2 / (2.0 * m);
  const double half =
      z * std::sqrt(phat * (1.0 - phat) / m + z2 / (4.0 * m * m));
  return {(center - half) / denom, (center + half) / denom};
}

}  // namespace

std::optional<EstimatorMode> parse_estimator_mode(std::string_view name) {
  if (name == "mc") return EstimatorMode::kMc;
  if (name == "analytic") return EstimatorMode::kAnalytic;
  if (name == "auto") return EstimatorMode::kAuto;
  return std::nullopt;
}

const char* to_string(EstimatorMode mode) {
  switch (mode) {
    case EstimatorMode::kMc:
      return "mc";
    case EstimatorMode::kAnalytic:
      return "analytic";
    case EstimatorMode::kAuto:
      return "auto";
  }
  return "unknown";
}

PlanEvaluator::PlanEvaluator(const workflow::Workflow& wf,
                             TaskTimeEstimator& estimator,
                             vgpu::ComputeBackend& backend,
                             EvalOptions options)
    : wf_(&wf),
      estimator_(&estimator),
      backend_(&backend),
      options_(options),
      type_count_(estimator.catalog().type_count()),
      segment_cache_(wf.task_count() * type_count_) {
  const auto topo = wf.topological_order();
  topo_ = topo.value_or(std::vector<workflow::TaskId>{});
  if (topo_.size() != wf.task_count()) return;  // cyclic: kernel never runs
  // Position-space CSR: entry e of position p is the *position* of a parent
  // of task topo_[p], so the kernel indexes its finish array sequentially.
  std::vector<std::uint32_t> pos_of_task(wf.task_count());
  for (std::size_t p = 0; p < topo_.size(); ++p) {
    pos_of_task[topo_[p]] = static_cast<std::uint32_t>(p);
  }
  parent_offsets_.assign(wf.task_count() + 1, 0);
  for (std::size_t p = 0; p < topo_.size(); ++p) {
    parent_offsets_[p + 1] = parent_offsets_[p] + wf.parents(topo_[p]).size();
  }
  parents_.reserve(parent_offsets_.back());
  for (std::size_t p = 0; p < topo_.size(); ++p) {
    for (workflow::TaskId parent : wf.parents(topo_[p])) {
      parents_.push_back(pos_of_task[parent]);
    }
  }
  sink_.assign(wf.task_count(), 1);
  for (std::uint32_t parent : parents_) sink_[parent] = 0;
}

std::size_t PlanEvaluator::PlanKeyHash::operator()(
    const sim::Plan& plan) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& placement : plan.placements) {
    h = (h ^ placement.vm_type) * 0x100000001b3ULL;
    h = (h ^ placement.region) * 0x100000001b3ULL;
    h = (h ^ static_cast<std::uint64_t>(
                 static_cast<std::int64_t>(placement.group) + 9)) *
        0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

std::size_t PlanEvaluator::drop_segments() {
  std::size_t dropped = 0;
  for (TaskSegment& seg : segment_cache_) {
    if (!seg.staged) continue;
    seg = TaskSegment{};
    ++dropped;
  }
  segment_cache_bytes_ = 0;
  return dropped;
}

void PlanEvaluator::clear_staging_cache() { drop_segments(); }

std::size_t PlanEvaluator::segment_bytes(const TaskSegment& seg) {
  return seg.columns.capacity() * sizeof(AliasColumn) + 96;
}

void PlanEvaluator::enforce_memory_budget() {
  util::BudgetTracker* const budget = budget_;
  if (budget == nullptr || !budget->active()) return;
  using Component = util::BudgetTracker::Component;
  budget->set_bytes(Component::kSegmentCache, segment_cache_bytes_);
  if (budget->memory_budget() == 0 || !budget->over_memory_budget()) return;

  // Degradation ladder, cheapest-to-rebuild first.  Eviction is
  // result-neutral: segments are pure functions of their keys, so a later
  // re-stage reproduces them bit-identically.
  if (const std::size_t dropped = drop_segments(); dropped != 0) {
    DECO_OBS_COUNTER_ADD("budget.evictions.segments", dropped);
    budget->set_bytes(Component::kSegmentCache, 0);
  }
  if (!budget->over_memory_budget()) return;
  // Still over: the remaining weight is the search driver's visited set.
  // Ask it to shrink at the next wave boundary; if there is nothing there to
  // shrink either, the ladder is exhausted and the memory trigger fires.
  if (budget->bytes(Component::kVisited) > 0) {
    budget->request_visited_shrink();
  } else {
    budget->fire(util::BudgetTrigger::kMemory);
  }
}

const PlanEvaluator::TaskSegment& PlanEvaluator::segment(
    workflow::TaskId task, cloud::TypeId type) {
  TaskSegment& seg = segment_cache_[segment_slot(task, type)];
  if (seg.staged) {
    ++cache_stats_.segment_hits;
    return seg;
  }
  ++cache_stats_.segment_misses;
  // Single estimator round-trip per (task, type): the histogram is fetched
  // once and flattened into an alias table here; every later plan touching
  // this placement reuses the segment.
  const util::Histogram& hist = estimator_->dynamic_distribution(*wf_, task, type);
  const util::AliasTable table(hist.masses());
  const auto centers = hist.centers();
  seg.columns.resize(table.size());
  for (std::size_t k = 0; k < table.size(); ++k) {
    seg.columns[k].prob = table.prob()[k];
    seg.columns[k].stay_center = centers[k];
    seg.columns[k].alias_center = centers[table.alias()[k]];
  }
  seg.cpu = estimator_->cpu_time(*wf_, task, type);
  // Failure-aware staging: stretch the segment by the model's expected
  // retry/straggler/crash inflation at this task's nominal duration.  The
  // kernel and its RNG stream are untouched, so a null model stays
  // bit-identical to the failure-free evaluator, and segments remain
  // cacheable (the model is fixed for the evaluator's lifetime).
  if (options_.failure_model && options_.failure_model->enabled()) {
    const double nominal = seg.cpu + hist.mean();
    const double factor = options_.failure_model->expected_time_factor(nominal);
    seg.cpu *= factor;
    for (AliasColumn& column : seg.columns) {
      column.stay_center *= factor;
      column.alias_center *= factor;
    }
  }
  // Tier 0's moments.  The alias columns *are* the sampler's distribution: a
  // uniform column pick (1/bins each) followed by the stay/alias branch.
  // Averaging over that process gives the exact moments the kernel samples
  // from, failure inflation included.
  const std::size_t bins = seg.columns.size();
  if (bins != 0) {
    double m1 = 0;
    double m2 = 0;
    for (const AliasColumn& col : seg.columns) {
      m1 += col.prob * col.stay_center + (1.0 - col.prob) * col.alias_center;
      m2 += col.prob * col.stay_center * col.stay_center +
            (1.0 - col.prob) * col.alias_center * col.alias_center;
    }
    const double inv = 1.0 / static_cast<double>(bins);
    seg.dyn_mean = m1 * inv;
    seg.dyn_var = std::max(m2 * inv - seg.dyn_mean * seg.dyn_mean, 0.0);
  }
  seg.staged = true;
  segment_cache_bytes_ += segment_bytes(seg);
  return seg;
}

PlanEvaluator::CacheStatsPublisher::~CacheStatsPublisher() {
  // Zero deltas are skipped so a batch without lookups leaves no counter.
  const StagingCacheStats& now = self.cache_stats_;
  StagingCacheStats& was = self.published_cache_stats_;
  if (now.segment_hits != was.segment_hits) {
    DECO_OBS_COUNTER_ADD("eval.cache.segment_hits",
                         now.segment_hits - was.segment_hits);
  }
  if (now.segment_misses != was.segment_misses) {
    DECO_OBS_COUNTER_ADD("eval.cache.segment_misses",
                         now.segment_misses - was.segment_misses);
  }
  was = now;
}

PlanEvaluator::DevicePlan PlanEvaluator::stage(const sim::Plan& plan) {
  DevicePlan dev;
  const std::size_t n = wf_->task_count();
  dev.cols.resize(n);
  dev.bins.resize(n);
  dev.cpu.resize(n);
  dev.price_per_s.resize(n);
  dev.price_hour.resize(n);
  dev.group.resize(n);
  // All per-position arrays in topological order: position p = task topo_[p].
  // One table lookup per position; the image points at the segment's
  // columns, which stay put until the next batch entry.
  for (std::size_t p = 0; p < n; ++p) {
    const workflow::TaskId t = topo_[p];
    const TaskSegment& seg = segment(t, plan[t].vm_type);
    dev.cols[p] = seg.columns.data();
    dev.bins[p] = seg.columns.size();
    dev.cpu[p] = seg.cpu;
    dev.price_hour[p] =
        estimator_->catalog().price(plan[t].vm_type, plan[t].region);
    dev.price_per_s[p] = dev.price_hour[p] / 3600.0;
    dev.group[p] = plan[t].group;
    dev.group_slots = std::max(dev.group_slots,
                               static_cast<std::size_t>(plan[t].group + 1));
  }
  // Per-group billing constants (billed-hours model): the hourly price slot
  // is written in ascending task-id order, so the highest-id member's type
  // wins — matching the pre-cache per-lane map behaviour.
  dev.group_price_hour.assign(dev.group_slots, 0.0);
  dev.group_size.assign(dev.group_slots, 0);
  for (workflow::TaskId t = 0; t < n; ++t) {
    if (plan[t].group >= 0) {
      const auto g = static_cast<std::size_t>(plan[t].group);
      dev.group_price_hour[g] =
          estimator_->catalog().price(plan[t].vm_type, plan[t].region);
      ++dev.group_size[g];
    }
  }
  return dev;
}

PlanEvaluation PlanEvaluator::reduce(std::span<const double> makespans,
                                     std::span<const double> costs,
                                     const ProbDeadline& req) const {
  PlanEvaluation out;
  out.mean_cost = util::mean(costs);
  out.mean_makespan = util::mean(makespans);
  out.makespan_quantile =
      util::percentile(makespans, req.quantile * 100.0);
  std::size_t within = 0;
  const double derated =
      req.deadline_s / std::max(options_.quantile_safety, 1.0);
  for (double m : makespans) {
    if (m <= derated) ++within;
  }
  out.deadline_prob = makespans.empty()
                          ? 0
                          : static_cast<double>(within) /
                                static_cast<double>(makespans.size());
  const double required =
      std::min(req.quantile + options_.feasibility_margin, 1.0);
  out.feasible = out.deadline_prob >= required - 1e-12;
  return out;
}

PlanEvaluation PlanEvaluator::evaluate(const sim::Plan& plan,
                                       const ProbDeadline& req) {
  return sample_worlds({&plan, 1}, req, false)[0].eval;
}

void PlanEvaluator::eval_tile_rows(
    const DevicePlan& dev, bool billed, std::size_t tile, std::size_t lanes,
    std::span<const double> uniforms, std::span<double> finish,
    std::span<const double> inv_inter, std::span<double> start,
    std::span<const double> zero_row, std::span<double> duration,
    std::span<double> makespan_acc, std::span<double> cost_acc,
    std::span<double> group_avail, std::span<double> group_time) const {
  const std::size_t n = wf_->task_count();
  constexpr double kInvHour = 1.0 / 3600.0;
  std::fill(group_avail.begin(), group_avail.end(), 0.0);
  std::fill(group_time.begin(), group_time.end(), 0.0);

  // Evaluation pass (task-major rows over the tile's lanes).
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t bins = dev.bins[p];
    const double cpu = dev.cpu[p];
    const double* u_row = uniforms.data() + p * tile;
    double* f_row = finish.data() + p * tile;
    // O(1) alias-table draw per lane: one uniform, one comparison, one
    // contiguous column read (both candidate centers pre-resolved).  The
    // draw has no data-dependent branch: the column index is a 32-bit
    // conversion clamped with min (u ~ 1 after fp rounding), both centers
    // are loaded, and the comparison becomes a bit mask that keeps one.  A
    // ternary here compiles to a compare-and-jump whose outcome is random
    // on every sample; the mask compiles to a set-on-condition.
    if (bins != 0) {
      const AliasColumn* cols = dev.cols[p];
      const double scale = static_cast<double>(bins);
      const auto last = static_cast<std::int32_t>(bins - 1);
      for (std::size_t j = 0; j < lanes; ++j) {
        const double scaled = u_row[j] * scale;
        const std::int32_t col =
            std::min(static_cast<std::int32_t>(scaled), last);
        const AliasColumn& c = cols[col];
        const std::uint64_t stay = -static_cast<std::uint64_t>(
            scaled - static_cast<double>(col) < c.prob);
        const double center = std::bit_cast<double>(
            (std::bit_cast<std::uint64_t>(c.stay_center) & stay) |
            (std::bit_cast<std::uint64_t>(c.alias_center) & ~stay));
        duration[j] = cpu + center * inv_inter[j];
      }
    } else {
      std::fill(duration.begin(), duration.begin() + static_cast<std::ptrdiff_t>(lanes), cpu);
    }
    // start = max over parents' finish rows (position-space CSR).  Roots
    // read a never-written zero row and single-parent tasks read the
    // parent's finish row in place, so only multi-parent tasks pay for a
    // reduction into the start row.
    const std::size_t pb = parent_offsets_[p];
    const std::size_t pe = parent_offsets_[p + 1];
    const double* s_row;
    if (pb == pe) {
      s_row = zero_row.data();
    } else if (pe - pb == 1) {
      s_row = finish.data() + parents_[pb] * tile;
    } else if (pe - pb == 2) {
      const double* r0 = finish.data() + parents_[pb] * tile;
      const double* r1 = finish.data() + parents_[pb + 1] * tile;
      for (std::size_t j = 0; j < lanes; ++j) {
        start[j] = std::max(r0[j], r1[j]);
      }
      s_row = start.data();
    } else {
      const double* parent_row = finish.data() + parents_[pb] * tile;
      std::copy(parent_row, parent_row + lanes, start.begin());
      for (std::size_t e = pb + 1; e < pe; ++e) {
        const double* row = finish.data() + parents_[e] * tile;
        for (std::size_t j = 0; j < lanes; ++j) {
          start[j] = std::max(start[j], row[j]);
        }
      }
      s_row = start.data();
    }
    // Finish, makespan and cost accumulation fused into one row pass per
    // task (same arithmetic per lane as the unfused form, so results are
    // bit-identical — just fewer trips through L1).  Tasks in the same
    // instance group serialize on that instance (Merge/CoSchedule
    // semantics): finish = max(start, avail) + dur.  Cost is Eq. 1
    // prorated, or per-instance ceil-to-hour billing (grouped tasks
    // accumulate shared instance time, billed in the sweep below).
    const std::int32_t g = dev.group[p];
    if (g >= 0) {
      double* avail = group_avail.data() + static_cast<std::size_t>(g) * tile;
      if (!billed) {
        const double price = dev.price_per_s[p];
        for (std::size_t j = 0; j < lanes; ++j) {
          const double d = duration[j];
          const double f = std::max(s_row[j], avail[j]) + d;
          avail[j] = f;
          f_row[j] = f;
          cost_acc[j] += d * price;
        }
      } else {
        double* acc = group_time.data() + static_cast<std::size_t>(g) * tile;
        for (std::size_t j = 0; j < lanes; ++j) {
          const double d = duration[j];
          const double f = std::max(s_row[j], avail[j]) + d;
          avail[j] = f;
          f_row[j] = f;
          acc[j] += d;
        }
      }
    } else if (!billed) {
      const double price = dev.price_per_s[p];
      for (std::size_t j = 0; j < lanes; ++j) {
        const double d = duration[j];
        const double f = s_row[j] + d;
        f_row[j] = f;
        cost_acc[j] += d * price;
      }
    } else {
      const double price_hour = dev.price_hour[p];
      for (std::size_t j = 0; j < lanes; ++j) {
        const double d = duration[j];
        const double f = s_row[j] + d;
        f_row[j] = f;
        cost_acc[j] +=
            std::ceil(std::max(d, 1.0) * kInvHour) * price_hour;
      }
    }
    // Only sink rows can hold the makespan (finish times are monotone
    // along edges), so the accumulator folds those rows alone — same max
    // value, bit for bit, as folding every row.
    if (sink_[p]) {
      for (std::size_t j = 0; j < lanes; ++j) {
        makespan_acc[j] = std::max(makespan_acc[j], f_row[j]);
      }
    }
  }
  if (billed) {
    // Tasks in the same group share one instance, billed by the ceiling
    // of their summed hours; slots unused by this plan stay zero-sized.
    for (std::size_t g = 0; g < dev.group_slots; ++g) {
      if (dev.group_size[g] == 0) continue;
      const double* acc = group_time.data() + g * tile;
      const double price_hour = dev.group_price_hour[g];
      for (std::size_t j = 0; j < lanes; ++j) {
        cost_acc[j] +=
            std::ceil(std::max(acc[j], 1.0) * kInvHour) * price_hour;
      }
    }
  }
}

std::vector<PlanEvaluation> PlanEvaluator::evaluate_batch(
    std::span<const sim::Plan> plans, const ProbDeadline& req) {
  std::vector<PlanEvaluation> results;
  results.reserve(plans.size());
  for (const ScreenedEvaluation& s : sample_worlds(plans, req, false)) {
    results.push_back(s.eval);
  }
  return results;
}

std::vector<ScreenedEvaluation> PlanEvaluator::sample_worlds(
    std::span<const sim::Plan> plans, const ProbDeadline& req, bool qmc) {
  DECO_OBS_SPAN_TIMED("eval", qmc ? "qmc_batch" : "evaluate_batch",
                      "eval.batch_ms");
  const CacheStatsPublisher publish{*this};
  const std::size_t n = wf_->task_count();
  const std::size_t cap = options_.mc_iterations;
  // Tier 2 always reports its fixed iteration count; Tier 1 reports the
  // worlds it actually drew.
  ScreenedEvaluation blank;
  blank.mc_iterations_used = qmc ? 0 : cap;
  std::vector<ScreenedEvaluation> results(plans.size(), blank);
  if (plans.empty()) return results;
  DECO_OBS_COUNTER_ADD("eval.plans", plans.size());
  if (n == 0) {
    for (auto& r : results) {
      r.eval.feasible = true;
      r.eval.deadline_prob = 1;
    }
    return results;
  }
  // A cyclic workflow has no topological order and no finite makespan.
  if (topo_.size() != n) return results;

  // The shared low-discrepancy point set: dimension 0 drives the correlated
  // interference factor, dimension p + 1 the task at topological position p.
  // Built once per workflow size and shared by every plan in every batch, so
  // a plan's QMC score — and its early-stop iteration count — is a pure
  // function of (evaluator seed, plan): identical across backends, worker
  // counts and batch composition.
  if (qmc && qmc_points_.dimensions() != n + 1) {
    qmc_points_ =
        util::KroneckerSequence(n + 1, options_.seed ^ 0xC2B2AE3D27D4EB4FULL);
  }

  util::BudgetTracker* const budget = budget_;
  enforce_memory_budget();

  // Stage all plans on the host (the "global memory" image).  Staging reads
  // through the segment cache and is done serially; kernels then run in
  // parallel against the read-only images.
  std::vector<DevicePlan> staged;
  staged.reserve(plans.size());
  {
    DECO_OBS_SPAN_TIMED("eval", "stage", "eval.stage_ms");
    for (const sim::Plan& p : plans) {
      if (budget != nullptr) budget->checkpoint();
      staged.push_back(stage(p));
    }
  }

  // Output arrays (flat "global memory"): per block, up to `cap` makespans
  // and costs written by disjoint slices, plus the worlds actually drawn.
  std::vector<double> all_makespans(plans.size() * cap);
  std::vector<double> all_costs(plans.size() * cap);
  std::vector<std::size_t> used(plans.size(), 0);
  std::vector<std::uint8_t> early(plans.size(), 0);

  vgpu::LaunchConfig config;
  config.blocks = plans.size();
  config.lanes_per_block = cap;
  config.shared_doubles = 0;  // lanes write their block's global slice
  config.seed = options_.seed;
  config.cancel = budget != nullptr ? budget->launch_cancel() : nullptr;
  // Seed each block by its plan so a plan's score does not depend on which
  // batch it was evaluated in.
  config.block_seeds.reserve(plans.size());
  const PlanKeyHash plan_hash;
  for (const sim::Plan& p : plans) {
    config.block_seeds.push_back(plan_hash(p) ^ options_.seed);
  }

  const bool billed = options_.cost_model == CostModel::kBilledHours;
  const double required =
      std::min(req.quantile + options_.feasibility_margin, 1.0);
  const double derated =
      req.deadline_s / std::max(options_.quantile_safety, 1.0);
  const util::KroneckerSequence& points = qmc_points_;
  {
    DECO_OBS_SPAN_TIMED("eval", "kernel", "eval.kernel_ms");
    backend_->launch(config, [&](vgpu::BlockContext& ctx) {
      const std::size_t block = ctx.block_index();
      const DevicePlan& dev = staged[block];
      // SIMT-style execution: lanes are processed in tiles, and within a
      // tile the kernel walks *tasks* in topological position order,
      // applying each step to every lane of the tile (one row at a time).
      // Per-task constants (bin window, CPU time, price, group) are
      // loop-invariant over a row, rows are contiguous, and no per-sample
      // step branches on data: the generation and accumulation rows
      // vectorize, and the alias draw (a 24-byte-stride column read per
      // lane) runs scalar without mispredictions.  Each world's
      // values are those a lane-major kernel would draw (interference
      // factor first, then one uniform per task in topological order), so
      // results are bit-identical regardless of tiling, backend, or batch
      // composition.
      const std::size_t tile = std::min(kTileLanes, cap);
      // Block scratch: uniforms/finish are (n x tile) matrices in row-major
      // task order; everything else is one row.  All borrowed from the
      // context's reusable arena — no heap traffic in steady state.
      auto uniforms = ctx.scratch_doubles(n * tile);
      auto finish = ctx.scratch_doubles(n * tile);
      auto inv_inter = ctx.scratch_doubles(tile);
      auto start = ctx.scratch_doubles(tile);
      auto zero_row = ctx.scratch_doubles(tile);
      auto duration = ctx.scratch_doubles(tile);
      auto makespan_acc = ctx.scratch_doubles(tile);
      auto cost_acc = ctx.scratch_doubles(tile);
      auto group_avail = ctx.scratch_doubles(dev.group_slots * tile);
      auto group_time = ctx.scratch_doubles(dev.group_slots * tile);
      // Root tasks alias this row as their start times; it is never written.
      std::fill(zero_row.begin(), zero_row.end(), 0.0);
      // Tier 2's per-lane RNG streams, side by side so one row of uniforms
      // is one vectorized step of every lane's stream.
      util::RngLanes<kTileLanes> streams;

      double* out_mk = all_makespans.data() + block * cap;
      double* out_cost = all_costs.data() + block * cap;
      std::size_t sampled = 0;
      std::size_t within = 0;
      bool stopped = false;
      for (std::size_t base = 0; base < cap && !stopped; base += tile) {
        // Cooperative checkpoint per tile: a fired budget aborts the block
        // via the pool's lowest-block rethrow; a silent budget costs one
        // atomic load + clock read per tile and changes nothing else.
        if (budget != nullptr) budget->checkpoint();
        const std::size_t lanes = std::min(tile, cap - base);
        // Generation pass.  First one correlated interference factor per
        // possible world — congestion persists across a run, scaling every
        // dynamic component together.  Tier 2 seeds lane j's stream from
        // lane_seed(base + j) and draws the factor from it; Tier 1 reads
        // dimension 0 of Kronecker point base + j (inverse-CDF transport).
        for (std::size_t j = 0; j < lanes; ++j) {
          double z;
          if (qmc) {
            z = util::normal_quantile(points.point(base + j, 0));
          } else {
            util::Rng rng(ctx.lane_seed(base + j));
            z = util::Normal{}.sample(rng);
            streams.load(j, rng);
          }
          inv_inter[j] = 1.0 / sim::interference_factor(z);
        }
        std::fill_n(makespan_acc.begin(), lanes, 0.0);
        std::fill_n(cost_acc.begin(), lanes, 0.0);
        // Then the per-task uniforms, one contiguous row per task across the
        // tile's lanes: the next draw of every lane's stream, or dimension
        // p + 1 of every lane's Kronecker point.
        for (std::size_t p = 0; p < n; ++p) {
          double* row = uniforms.data() + p * tile;
          if (qmc) {
            for (std::size_t j = 0; j < lanes; ++j) {
              row[j] = points.point(base + j, p + 1);
            }
          } else {
            streams.uniform_row(lanes, row);
          }
        }
        eval_tile_rows(dev, billed, tile, lanes, uniforms, finish, inv_inter,
                       start, zero_row, duration, makespan_acc, cost_acc,
                       group_avail, group_time);
        std::copy_n(makespan_acc.begin(), lanes, out_mk + base);
        std::copy_n(cost_acc.begin(), lanes, out_cost + base);
        sampled += lanes;
        if (!qmc || sampled == cap) continue;
        // Sequential confidence bound: stop as soon as the Wilson interval
        // on P(makespan <= deadline) clears (or fails) the requirement.  The
        // check runs at fixed tile boundaries — the first after a full tile,
        // where the bound becomes trustworthy — over deterministic per-lane
        // values, so the stopping point is itself deterministic.
        for (std::size_t j = 0; j < lanes; ++j) {
          if (makespan_acc[j] <= derated) ++within;
        }
        const auto ci = wilson_interval(within, sampled, kQmcConfidenceZ);
        stopped = ci.lower >= required || ci.upper < required;
      }
      used[block] = sampled;
      early[block] = stopped ? 1 : 0;
    });
  }

  std::size_t total_sampled = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    results[i].eval = reduce(
        std::span<const double>(all_makespans).subspan(i * cap, used[i]),
        std::span<const double>(all_costs).subspan(i * cap, used[i]), req);
    results[i].mc_iterations_used = used[i];
    results[i].qmc_early_stop = early[i] != 0;
    total_sampled += used[i];
  }
  DECO_OBS_COUNTER_ADD("eval.task_samples", total_sampled * n);
  return results;
}

PlanEvaluation PlanEvaluator::verify_full_mc(const sim::Plan& plan,
                                             const ProbDeadline& req) {
  return verify_full_mc({&plan, 1}, req)[0];
}

std::vector<PlanEvaluation> PlanEvaluator::verify_full_mc(
    std::span<const sim::Plan> plans, const ProbDeadline& req) {
  if (plans.empty()) return {};
  screen_stats_.full_mc_verifications += plans.size();
  DECO_OBS_COUNTER_ADD("eval.screen.full_mc_verifications", plans.size());
  return evaluate_batch(plans, req);
}

void PlanEvaluator::record_screen_stats(const ScreenStats& delta) {
  screen_stats_.screened += delta.screened;
  screen_stats_.accepted += delta.accepted;
  screen_stats_.rejected += delta.rejected;
  screen_stats_.escalated += delta.escalated;
  screen_stats_.qmc_early_stops += delta.qmc_early_stops;
  screen_stats_.qmc_iterations_used += delta.qmc_iterations_used;
  screen_stats_.qmc_iterations_saved += delta.qmc_iterations_saved;
  screen_stats_.positions += delta.positions;
  screen_stats_.positions_recomputed += delta.positions_recomputed;
  DECO_OBS_COUNTER_ADD("eval.screen.accepted", delta.accepted);
  DECO_OBS_COUNTER_ADD("eval.screen.rejected", delta.rejected);
  DECO_OBS_COUNTER_ADD("eval.screen.escalated", delta.escalated);
  DECO_OBS_COUNTER_ADD("eval.qmc.early_stops", delta.qmc_early_stops);
  DECO_OBS_COUNTER_ADD("eval.qmc.iterations", delta.qmc_iterations_used);
  DECO_OBS_COUNTER_ADD("eval.qmc.iterations_saved",
                       delta.qmc_iterations_saved);
  DECO_OBS_COUNTER_ADD("eval.screen.positions", delta.positions);
  DECO_OBS_COUNTER_ADD("eval.screen.positions_recomputed",
                       delta.positions_recomputed);
}

std::vector<ScreenedEvaluation> PlanEvaluator::evaluate_batch_screened(
    std::span<const sim::Plan> plans, const ProbDeadline& req) {
  // Tier 2 only: the fixed-iteration kernel, bit-identical to the
  // pre-hierarchy evaluator.
  if (options_.estimator == EstimatorMode::kMc) {
    return sample_worlds(plans, req, false);
  }
  const CacheStatsPublisher publish{*this};  // screen lookups included

  std::vector<ScreenedEvaluation> results(plans.size());
  if (plans.empty()) return results;
  ScreenStats delta;

  // Tier 0 as a launch, one block per run of kScreenRunLength consecutive
  // plans.  Every segment the batch places is resolved serially first — the
  // only step that writes the table — so the blocks only read it, and a
  // plan's screen is a pure function of (plan, req) on any backend at any
  // worker count.  A placement whose type matches the previous plan's was
  // resolved for that plan, so only the differing ones are looked up.
  std::vector<AnalyticScreen> screens(plans.size());
  {
    DECO_OBS_SPAN_TIMED("eval", "screen", "eval.screen_ms");
    util::BudgetTracker* const budget = budget_;
    enforce_memory_budget();
    const sim::Plan* prev = nullptr;
    for (const sim::Plan& plan : plans) {
      for (const workflow::TaskId t : topo_) {
        if (prev == nullptr || (*prev)[t].vm_type != plan[t].vm_type) {
          segment(t, plan[t].vm_type);
        }
      }
      prev = &plan;
    }
    const std::size_t runs =
        (plans.size() + kScreenRunLength - 1) / kScreenRunLength;
    std::vector<ScreenRunCounts> counts(runs);
    vgpu::LaunchConfig config;
    config.blocks = runs;
    config.lanes_per_block = 1;  // the screen draws nothing
    config.shared_doubles = 0;
    config.cancel = budget != nullptr ? budget->launch_cancel() : nullptr;
    const AnalyticEstimator analytic(*this);
    backend_->launch(config, [&](vgpu::BlockContext& ctx) {
      if (budget != nullptr) budget->checkpoint();
      const std::size_t block = ctx.block_index();
      const std::size_t first = block * kScreenRunLength;
      const std::size_t count =
          std::min(kScreenRunLength, plans.size() - first);
      counts[block] =
          analytic.screen(plans.subspan(first, count), req, ctx,
                          std::span<AnalyticScreen>(screens).subspan(first,
                                                                     count));
    });
    for (const ScreenRunCounts& c : counts) {
      delta.positions += c.positions;
      delta.positions_recomputed += c.positions_recomputed;
    }
  }

  // Escalate only the guard band.  Accepted and rejected plans cost zero
  // sampled worlds; their analytic cost/makespan feed the search ordering
  // directly.  kAnalytic has no tier to escalate to, so its band is empty
  // and the sign of the z margin decides.
  const double guard =
      options_.estimator == EstimatorMode::kAuto ? kScreenGuardZ : 0.0;
  std::vector<std::size_t> escalated;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const AnalyticScreen& s = screens[i];
    ++delta.screened;
    results[i].eval.mean_cost = s.mean_cost;
    results[i].eval.mean_makespan = s.mean_makespan;
    results[i].eval.makespan_quantile = s.makespan_quantile;
    results[i].eval.deadline_prob = s.deadline_prob;
    if (s.z_margin >= guard) {
      results[i].eval.feasible = true;
      results[i].verdict = ScreenVerdict::kAccept;
      ++delta.accepted;
    } else if (s.z_margin <= -guard) {
      results[i].eval.feasible = false;
      results[i].verdict = ScreenVerdict::kReject;
      ++delta.rejected;
    } else {
      results[i].verdict = ScreenVerdict::kEscalate;
      ++delta.escalated;
      escalated.push_back(i);
    }
  }
  if (!escalated.empty()) {
    std::vector<sim::Plan> subset;
    subset.reserve(escalated.size());
    for (const std::size_t i : escalated) subset.push_back(plans[i]);
    const auto sampled = sample_worlds(subset, req, true);
    for (std::size_t k = 0; k < escalated.size(); ++k) {
      const std::size_t i = escalated[k];
      results[i].eval = sampled[k].eval;
      results[i].mc_iterations_used = sampled[k].mc_iterations_used;
      results[i].qmc_early_stop = sampled[k].qmc_early_stop;
      delta.qmc_early_stops += sampled[k].qmc_early_stop ? 1 : 0;
      delta.qmc_iterations_used += sampled[k].mc_iterations_used;
      delta.qmc_iterations_saved +=
          options_.mc_iterations - sampled[k].mc_iterations_used;
    }
  }
  record_screen_stats(delta);
  return results;
}

}  // namespace deco::core
