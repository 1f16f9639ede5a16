// Evaluator-throughput tracker: samples/sec and states/sec of the Monte
// Carlo plan evaluator (the hot path of the declarative search, Section 5.3).
//
// For Montage (~100 tasks) and CyberShake (100 tasks) the bench evaluates a
// wave of mostly-overlapping plans — the access pattern BFS/A* search
// produces — at several Monte Carlo iteration counts on both backends and
// both cost models.  On top of the full-MC rows, the bench measures the
// estimator hierarchy (analytic screen and the screened auto pipeline) at
// the acceptance point, and records a "screening" summary block alongside
// the rows.  Results go to stdout and to BENCH_evaluator.json so the perf
// trajectory is tracked across PRs.
//
//   states/sec  = evaluated plans per second (one vgpu block per plan for
//                 the sampling tiers, one per run of 8 plans for the screen)
//   samples/sec = task-samples per second (plans x MC lanes x tasks)
//
// Usage: evaluator_throughput [output.json] [--smoke]
//   --smoke shrinks iteration counts and repetitions to a CI-sized sanity
//   run (seconds, not minutes) that still exercises every code path.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.hpp"
#include "core/evaluator.hpp"
#include "bench/bench_common.hpp"
#include "obs/metrics.hpp"
#include "workflow/generators.hpp"

namespace {

using namespace deco;

struct Row {
  std::string workflow;
  std::size_t tasks = 0;
  std::string backend;
  std::size_t workers = 0;  ///< vgpu pool workers; 0 for the serial backend
  std::string cost_model;
  std::string estimator = "mc";
  std::size_t mc_iterations = 0;
  std::size_t plans = 0;
  double seconds = 0;
  double states_per_sec = 0;
  double samples_per_sec = 0;
  core::ScreenStats screen;  ///< zeroed for the full-MC rows
};

/// A search-like wave: `count` plans differing from a base placement by a few
/// single-task mutations (the overlap the staging cache exploits), with some
/// plans carrying co-scheduling groups (exercising billed-hours grouping).
std::vector<sim::Plan> make_wave(const workflow::Workflow& wf,
                                 std::size_t count, std::size_t types,
                                 util::Rng& rng) {
  std::vector<sim::Plan> plans;
  plans.reserve(count);
  sim::Plan base = sim::Plan::uniform(wf.task_count(), 1);
  for (std::size_t t = 0; t < wf.task_count(); t += 7) {
    base[t].group = static_cast<std::int32_t>(t % 5);
  }
  for (std::size_t i = 0; i < count; ++i) {
    sim::Plan p = base;
    // One to three single-placement mutations per wave member.
    const std::size_t mutations = 1 + rng.below(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t t = rng.below(wf.task_count());
      p[t].vm_type = static_cast<cloud::TypeId>(rng.below(types));
    }
    plans.push_back(std::move(p));
  }
  return plans;
}

Row run_case(const workflow::Workflow& wf, const std::string& backend_name,
             std::size_t workers, core::CostModel cost_model,
             std::size_t iters, std::span<const sim::Plan> plans,
             core::EstimatorMode mode, double deadline, double budget_s) {
  core::TaskTimeEstimator estimator(bench::env().catalog, bench::env().store);
  auto backend = vgpu::make_backend(backend_name, workers);
  core::EvalOptions opt;
  opt.mc_iterations = iters;
  opt.cost_model = cost_model;
  opt.estimator = mode;
  core::PlanEvaluator evaluator(wf, estimator, *backend, opt);
  const core::ProbDeadline req{0.9, deadline};
  const bool screened = mode != core::EstimatorMode::kMc;
  auto wave_once = [&] {
    if (screened) {
      (void)evaluator.evaluate_batch_screened(plans, req);
    } else {
      (void)evaluator.evaluate_batch(plans, req);
    }
  };

  // Warm the estimator / staging caches, then time steady-state repetitions:
  // search loops re-evaluate heavily overlapping waves, so steady state is
  // the representative regime.  Each repetition is timed individually and
  // the fastest is reported — the standard least-interference estimate on a
  // shared/noisy host, where a mean would fold scheduler preemption into
  // the kernel's throughput.
  wave_once();
  double best = 1e300;
  double elapsed = 0;
  std::size_t reps = 0;
  do {
    const auto t0 = std::chrono::steady_clock::now();
    wave_once();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, dt);
    elapsed += dt;
    ++reps;
  } while (elapsed < budget_s && reps < 50);

  Row row;
  row.workflow = wf.name();
  row.tasks = wf.task_count();
  row.backend = backend_name;
  row.workers = backend_name == "serial" ? 0 : workers;
  row.cost_model =
      cost_model == core::CostModel::kBilledHours ? "billed_hours" : "prorated";
  row.estimator = core::to_string(mode);
  row.mc_iterations = iters;
  row.plans = plans.size();
  row.seconds = best;
  row.screen = evaluator.screen_stats();
  const double states = static_cast<double>(plans.size());
  row.states_per_sec = states / row.seconds;
  row.samples_per_sec = states * static_cast<double>(iters) *
                        static_cast<double>(wf.task_count()) / row.seconds;
  return row;
}

bool write_json(const std::vector<Row>& rows, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"evaluator_throughput\",\n");
  std::fprintf(f, "  \"unit\": {\"states_per_sec\": \"plans/s\", "
                  "\"samples_per_sec\": \"task-samples/s\"},\n");
  std::fprintf(f, "  \"hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"workflow\": \"%s\", \"tasks\": %zu, \"backend\": "
                 "\"%s\", \"workers\": %zu, \"cost_model\": \"%s\", "
                 "\"estimator\": \"%s\", \"mc_iterations\": %zu, \"plans\": "
                 "%zu, \"seconds\": %.6f, \"states_per_sec\": %.1f, "
                 "\"samples_per_sec\": %.1f}%s\n",
                 r.workflow.c_str(), r.tasks, r.backend.c_str(), r.workers,
                 r.cost_model.c_str(), r.estimator.c_str(), r.mc_iterations,
                 r.plans, r.seconds, r.states_per_sec, r.samples_per_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  // Estimator-hierarchy summary: what the screen decided across every
  // screened row, and the screened-vs-full-MC throughput ratio per workflow
  // at the acceptance point (billed hours, 1000 iterations).
  core::ScreenStats total;
  for (const Row& r : rows) {
    total.screened += r.screen.screened;
    total.accepted += r.screen.accepted;
    total.rejected += r.screen.rejected;
    total.escalated += r.screen.escalated;
    total.qmc_early_stops += r.screen.qmc_early_stops;
    total.qmc_iterations_used += r.screen.qmc_iterations_used;
    total.qmc_iterations_saved += r.screen.qmc_iterations_saved;
    total.positions += r.screen.positions;
    total.positions_recomputed += r.screen.positions_recomputed;
  }
  std::fprintf(f,
               "  ],\n  \"screening\": {\"screened\": %zu, \"accepted\": %zu, "
               "\"rejected\": %zu, \"escalated\": %zu, \"qmc_early_stops\": "
               "%zu, \"qmc_iterations_used\": %zu, \"qmc_iterations_saved\": "
               "%zu, \"positions\": %zu, \"positions_recomputed\": %zu, "
               "\"speedup_vs_mc\": [",
               total.screened, total.accepted, total.rejected, total.escalated,
               total.qmc_early_stops, total.qmc_iterations_used,
               total.qmc_iterations_saved, total.positions,
               total.positions_recomputed);
  bool first = true;
  for (const Row& r : rows) {
    if (r.estimator != "auto") continue;
    // Find the matching full-MC row (same workflow/backend/workers/model).
    for (const Row& m : rows) {
      if (m.estimator == "mc" && m.workflow == r.workflow &&
          m.backend == r.backend && m.workers == r.workers &&
          m.cost_model == r.cost_model &&
          m.mc_iterations == r.mc_iterations) {
        std::fprintf(f, "%s{\"workflow\": \"%s\", \"speedup\": %.2f}",
                     first ? "" : ", ", r.workflow.c_str(),
                     r.states_per_sec / m.states_per_sec);
        first = false;
        break;
      }
    }
  }
  std::fprintf(f, "]},\n");
  // Aggregate evaluator counters/timers captured over the whole sweep, so
  // BENCH files record cache behaviour alongside the throughput rows.
  const std::string metrics =
      obs::to_json(obs::Registry::instance().snapshot());
  std::fprintf(f, "  \"metrics\": %s\n}\n", metrics.c_str());
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deco;
  std::string out = "BENCH_evaluator.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out = argv[i];
    }
  }
  obs::Registry::instance().set_enabled(true);
  bench::print_header("evaluator_throughput",
                      "Monte Carlo evaluator throughput (states/sec and "
                      "task-samples/sec) across workflows, backends, cost "
                      "models, MC iteration counts and estimator tiers.");

  util::Rng rng(2015);
  // Montage sized to ~100 tasks (width 28 -> 102 tasks with this generator).
  std::vector<workflow::Workflow> workflows;
  workflows.push_back(workflow::make_montage_by_width(smoke ? 8 : 28, rng));
  workflows.push_back(workflow::make_cybershake(smoke ? 30 : 100, rng));

  const std::size_t kPlansPerWave = smoke ? 8 : 32;
  const double kBudgetS = smoke ? 0.02 : 0.6;
  const std::size_t types = bench::env().catalog.type_count();

  // Worker sweep at the paper's default iteration count: 1, 2, 4 and the
  // hardware thread count, deduplicated (0 workers = the serial backend).
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> sweep{1, 2, 4};
  if (std::find(sweep.begin(), sweep.end(), hw) == sweep.end()) {
    sweep.push_back(hw);
  }
  if (smoke) sweep = {2};
  const std::vector<std::size_t> iteration_sweep =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{128, 1000, 4096};
  const std::size_t acceptance_iters = smoke ? 64 : 1000;

  std::vector<Row> rows;
  auto emit = [&rows](const Row& row) {
    std::printf("%-12s %6zu %-7s %7zu %-13s %-8s %6zu %10.0f %14.0f\n",
                row.workflow.c_str(), row.tasks, row.backend.c_str(),
                row.workers, row.cost_model.c_str(), row.estimator.c_str(),
                row.mc_iterations, row.states_per_sec, row.samples_per_sec);
    rows.push_back(row);
  };
  std::printf("%-12s %6s %-7s %7s %-13s %-8s %6s %10s %14s\n", "workflow",
              "tasks", "backend", "workers", "cost_model", "estimator",
              "iters", "states/s", "samples/s");
  for (const auto& wf : workflows) {
    util::Rng wave_rng(7);
    const auto wave = make_wave(wf, kPlansPerWave, types, wave_rng);
    // A deadline in the feasibility transition region, so the analytic
    // screen sees all three verdicts instead of trivially accepting.
    const double deadline = bench::deadline_bounds(wf).medium();
    for (const std::size_t iters : iteration_sweep) {
      for (const auto model :
           {core::CostModel::kBilledHours, core::CostModel::kProrated}) {
        // Track prorated at the paper's default iteration count only; the
        // billed-hours model is the acceptance metric at every point.
        if (model == core::CostModel::kProrated && iters != acceptance_iters) {
          continue;
        }
        emit(run_case(wf, "serial", 0, model, iters, wave,
                      core::EstimatorMode::kMc, deadline, kBudgetS));
        if (iters == acceptance_iters &&
            model == core::CostModel::kBilledHours) {
          // The acceptance point gets the full worker sweep plus the
          // estimator-hierarchy rows at the largest worker count.
          for (const std::size_t workers : sweep) {
            emit(run_case(wf, "vgpu", workers, model, iters, wave,
                          core::EstimatorMode::kMc, deadline, kBudgetS));
          }
          const std::size_t top = sweep.back();
          emit(run_case(wf, "vgpu", top, model, iters, wave,
                        core::EstimatorMode::kAnalytic, deadline, kBudgetS));
          emit(run_case(wf, "vgpu", top, model, iters, wave,
                        core::EstimatorMode::kAuto, deadline, kBudgetS));
        } else {
          emit(run_case(wf, "vgpu", smoke ? sweep.back() : hw, model, iters,
                        wave, core::EstimatorMode::kMc, deadline, kBudgetS));
        }
      }
    }
  }
  if (!write_json(rows, out)) return 1;
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
