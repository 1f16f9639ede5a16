// Solver speed-up tracker (Sections 6.3.1 / 6.3.2 text): the work-stealing
// "virtual GPU" backend vs the serial CPU baseline on the *search-driven*
// workload — a real scheduling solve whose waves mix cached and uncached
// plans — plus the per-task optimization overhead.
//
// Paper numbers for context: on an NVIDIA K40 vs a 6-core CPU, 12X/10X/20X
// speed-ups on Montage-1/4/8 scheduling and 36X/22X/18X on 20/100/1000-task
// ensembles; optimization overhead of 4.3-63.17 ms per task.  This host has
// no GPU (and may have a single core), so the *absolute* speed-up is
// hardware-bound — the bench sweeps worker counts (1/2/4/hw) over the
// identical kernel decomposition and records the measured ratio, the search
// driver's time inside batch evaluation, and the per-task overhead.
// The hw_threads field in the JSON says what parallelism the host could
// actually express.
//
// On top of the backend sweep, every configuration runs under both the
// full-MC estimator (`mc`, the pre-screening baseline) and the tiered
// estimator hierarchy (`auto`: analytic screen -> adaptive QMC -> full-MC
// verify).  The "screening" block in the JSON summarizes what the screen
// decided and the auto-vs-mc wall-clock ratio per workflow — the headline
// number of the estimator-hierarchy work (docs/performance.md).
//
// Both speed-up columns are wall-clock ratios of the rows' `seconds`
// (speedup_vs_serial = serial seconds / row seconds, speedup_vs_mc = mc
// seconds / auto seconds).  states/s is reported beside them but is not a
// speed-up: the two estimators, and the greedy chain's speculative wave
// scoring, make different numbers of evaluations per solve.
//
// The "wlog" block tracks the declarative path itself: the same scheduling
// program solved through the tree-walking interpreter (pre-compilation
// baseline), the bytecode VM, the VM plus IR-to-segment translation (the
// default pipeline), and the native solver as the reference ceiling — all
// serial, so the ratios isolate the engine, not the backend.  Its ratios
// (speedup_vs_interp, native_vs_segments) are wall-clock ratios too.
//
// Usage: solver_speedup [output.json] [--smoke]
//   --smoke shrinks workflows, budgets and repetitions to a CI-sized run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/deco.hpp"
#include "core/scheduling.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace deco;

struct Row {
  std::string workflow;
  std::size_t tasks = 0;
  std::string backend;
  std::size_t workers = 0;  ///< vgpu pool workers; 0 for the serial backend
  std::string estimator = "mc";
  std::size_t mc_iterations = 0;
  std::size_t states_evaluated = 0;
  std::size_t states_pruned = 0;  ///< analytic-screen rejections (auto only)
  double seconds = 0;
  double states_per_sec = 0;
  double eval_stall_ms = 0;
  double ms_per_task = 0;
  double speedup_vs_serial = 0;  ///< serial seconds / seconds
  double speedup_vs_mc = 0;  ///< same config, mc seconds / auto seconds
  core::ScreenStats screen;  ///< zeroed for the full-MC rows
};

struct CaseConfig {
  core::EstimatorMode mode = core::EstimatorMode::kMc;
  std::size_t mc_iterations = 1000;  // the paper's Max_iter default
  std::size_t max_states = 96;
  /// Timed solves repeat until both floors are met, then the best is kept.
  /// A Montage solve takes tens of milliseconds, so three alone leave its
  /// minimum at the mercy of host load; the time floor gives it dozens.
  int min_reps = 3;
  double min_timed_s = 1.0;
};

Row run_case(const workflow::Workflow& wf, const std::string& backend_name,
             std::size_t workers, double deadline, const CaseConfig& cfg) {
  core::TaskTimeEstimator estimator(bench::env().catalog, bench::env().store);
  auto backend = vgpu::make_backend(backend_name, workers);
  core::EvalOptions eval;
  eval.mc_iterations = cfg.mc_iterations;
  eval.cost_model = core::CostModel::kBilledHours;
  eval.estimator = cfg.mode;
  core::SchedulingProblem problem(wf, estimator, *backend, eval);

  core::SchedulingOptions opt;
  opt.search.max_states = cfg.max_states;
  opt.search.batch_size = 32;
  opt.search.stale_wave_limit = 0;  // fixed budget: comparable across backends

  const core::ProbDeadline req{0.9, deadline};
  // One warm-up solve fills the estimator and staging caches; the timed
  // solves then measure the steady-state search regime.  Best-of-reps is the
  // least-interference estimate on a shared host.
  (void)problem.solve(req, opt);
  double best = 1e300;
  double timed = 0;
  core::SearchStats stats;
  for (int rep = 0; rep < cfg.min_reps || timed < cfg.min_timed_s; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = problem.solve(req, opt);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    timed += dt;
    if (dt < best) {
      best = dt;
      stats = result.stats;
    }
  }

  Row row;
  row.workflow = wf.name();
  row.tasks = wf.task_count();
  row.backend = backend_name;
  row.workers = backend_name == "serial" ? 0 : workers;
  row.estimator = core::to_string(cfg.mode);
  row.mc_iterations = cfg.mc_iterations;
  row.states_evaluated = stats.states_evaluated;
  row.states_pruned = stats.states_pruned;
  row.seconds = best;
  row.states_per_sec = static_cast<double>(stats.states_evaluated) / best;
  row.eval_stall_ms = stats.eval_stall_ms;
  row.ms_per_task = best * 1000.0 / static_cast<double>(wf.task_count());
  row.screen = problem.evaluator().screen_stats();  // tallies over all solves
  return row;
}

// --- WLog engine sweep ---------------------------------------------------

struct WlogRow {
  std::string engine;  ///< "interp" | "vm" | "vm+segments" | "native"
  std::size_t states_evaluated = 0;
  double seconds = 0;
  double states_per_sec = 0;
};

/// The canonical scheduling program (paper Figure 4 shape): totalcost sum
/// and maxtime longest-path, both recognized by the segment translator.
std::string wlog_program(double deadline) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "cons T in maxtime(Path,T) satisfies deadline(90%%, %.0f).\n",
                deadline);
  return std::string("import(amazonec2).\nimport(workflow).\n"
                     "goal minimize Ct in totalcost(Ct).\n") +
         head +
         "var configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).\n"
         "path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T),\n"
         "    configs(X,Vid,Con), Con == 1, Tp is T.\n"
         "path(X,Y,Z,Tp) :- edge(X,Z), Z \\== Y, path(Z,Y,Z2,T1),\n"
         "    exetime(X,Vid,T), configs(X,Vid,Con), Con == 1, Tp is T+T1.\n"
         "maxtime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set),\n"
         "    max(Set, [Path,T]).\n"
         "cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T),\n"
         "    configs(Tid,Vid,Con), C is T*Up*Con.\n"
         "totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).\n";
}

WlogRow run_wlog_case(const workflow::Workflow& wf, const std::string& engine,
                      double deadline, std::size_t mc_iterations,
                      std::size_t max_states, int reps) {
  WlogRow row;
  row.engine = engine;
  double best = 1e300;
  for (int rep = 0; rep < reps + 1; ++rep) {  // first rep is warm-up
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t states = 0;
    if (engine == "native") {
      core::TaskTimeEstimator estimator(bench::env().catalog,
                                        bench::env().store);
      auto backend = vgpu::make_backend("serial", 0);
      core::EvalOptions eval;
      eval.mc_iterations = mc_iterations;
      core::SchedulingProblem problem(wf, estimator, *backend, eval);
      core::SchedulingOptions opt;
      opt.search.max_states = max_states;
      opt.search.stale_wave_limit = 0;
      const auto result = problem.solve({0.9, deadline}, opt);
      states = result.stats.states_evaluated;
    } else {
      core::DecoOptions opt;
      opt.backend = "serial";
      opt.wlog_max_states = max_states;
      opt.wlog_mc_iterations = mc_iterations;
      opt.wlog_exec = engine == "interp" ? "interp" : "vm";
      opt.wlog_segments = engine == "vm+segments";
      core::Deco deco(bench::env().catalog, bench::env().store, opt);
      const auto result = deco.solve_program(wlog_program(deadline), wf);
      // Throughput counts evaluated states either way; an infeasible search
      // still pays the full per-state inference cost.
      states = result.stats.states_evaluated;
      if (!result.ok && rep == 0) {
        std::fprintf(stderr, "wlog solve (%s): %s\n", engine.c_str(),
                     result.error.c_str());
      }
    }
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (rep == 0) continue;
    if (dt < best) {
      best = dt;
      row.states_evaluated = states;
    }
  }
  row.seconds = best;
  row.states_per_sec = static_cast<double>(row.states_evaluated) / best;
  return row;
}

bool write_json(const std::vector<Row>& rows, double guard_z,
                const workflow::Workflow& wlog_wf,
                const std::vector<WlogRow>& wlog_rows,
                std::size_t wlog_mc_iterations, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"solver_speedup\",\n");
  std::fprintf(f,
               "  \"unit\": {\"states_per_sec\": \"plans/s\", "
               "\"eval_stall_ms\": \"ms\", \"ms_per_task\": \"ms/task\", "
               "\"speedup_vs_serial\": \"x wall-clock\", "
               "\"speedup_vs_mc\": \"x wall-clock\", "
               "\"speedup_vs_interp\": \"x wall-clock\", "
               "\"native_vs_segments\": \"x wall-clock\"},\n");
  std::fprintf(f, "  \"hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"workflow\": \"%s\", \"tasks\": %zu, \"backend\": \"%s\", "
        "\"workers\": %zu, \"estimator\": \"%s\", \"mc_iterations\": %zu, "
        "\"states_evaluated\": %zu, \"states_pruned\": %zu, \"seconds\": "
        "%.6f, \"states_per_sec\": %.1f, \"eval_stall_ms\": %.2f, "
        "\"ms_per_task\": %.2f, \"speedup_vs_serial\": %.4f, "
        "\"speedup_vs_mc\": %.4f}%s\n",
        r.workflow.c_str(), r.tasks, r.backend.c_str(), r.workers,
        r.estimator.c_str(), r.mc_iterations, r.states_evaluated,
        r.states_pruned, r.seconds, r.states_per_sec, r.eval_stall_ms,
        r.ms_per_task, r.speedup_vs_serial, r.speedup_vs_mc,
        i + 1 < rows.size() ? "," : "");
  }
  // Estimator-hierarchy summary: aggregate screen verdicts across every
  // `auto` solve plus the auto-vs-mc wall-clock ratio per configuration.
  core::ScreenStats total;
  for (const Row& r : rows) {
    total.screened += r.screen.screened;
    total.accepted += r.screen.accepted;
    total.rejected += r.screen.rejected;
    total.escalated += r.screen.escalated;
    total.qmc_early_stops += r.screen.qmc_early_stops;
    total.qmc_iterations_used += r.screen.qmc_iterations_used;
    total.qmc_iterations_saved += r.screen.qmc_iterations_saved;
    total.full_mc_verifications += r.screen.full_mc_verifications;
  }
  std::fprintf(f,
               "  ],\n  \"screening\": {\"guard_band_z\": %.3f, \"screened\": "
               "%zu, \"accepted\": %zu, \"rejected\": %zu, \"escalated\": "
               "%zu, \"qmc_early_stops\": %zu, \"qmc_iterations_used\": %zu, "
               "\"qmc_iterations_saved\": %zu, \"full_mc_verifications\": "
               "%zu, \"speedup_vs_mc\": [",
               guard_z, total.screened, total.accepted, total.rejected,
               total.escalated, total.qmc_early_stops,
               total.qmc_iterations_used, total.qmc_iterations_saved,
               total.full_mc_verifications);
  bool first = true;
  for (const Row& r : rows) {
    if (r.estimator != "auto") continue;
    std::fprintf(f,
                 "%s{\"workflow\": \"%s\", \"backend\": \"%s\", \"workers\": "
                 "%zu, \"speedup\": %.2f}",
                 first ? "" : ", ", r.workflow.c_str(), r.backend.c_str(),
                 r.workers, r.speedup_vs_mc);
    first = false;
  }
  std::fprintf(f, "]},\n");
  // Declarative-engine sweep: interp -> vm -> vm+segments, with the native
  // solver as the reference ceiling.  Both ratios are wall-clock ratios of
  // the rows' `seconds` (the engines evaluate slightly different state
  // counts): speedup_vs_interp = interp seconds / row seconds, and
  // native_vs_segments = vm+segments seconds / native seconds, which says
  // how close the compiled WLog path gets to the hand-written evaluator.
  auto seconds_of = [&](const std::string& engine) {
    for (const WlogRow& r : wlog_rows) {
      if (r.engine == engine) return r.seconds;
    }
    return 0.0;
  };
  const double interp_seconds = seconds_of("interp");
  const double native_seconds = seconds_of("native");
  std::fprintf(f,
               "  \"wlog\": {\"workflow\": \"%s\", \"tasks\": %zu, "
               "\"mc_iterations\": %zu, \"rows\": [",
               wlog_wf.name().c_str(), wlog_wf.task_count(),
               wlog_mc_iterations);
  for (std::size_t i = 0; i < wlog_rows.size(); ++i) {
    const WlogRow& r = wlog_rows[i];
    std::fprintf(f,
                 "%s{\"engine\": \"%s\", \"states_evaluated\": %zu, "
                 "\"seconds\": %.6f, \"states_per_sec\": %.1f, "
                 "\"speedup_vs_interp\": %.3f}",
                 i == 0 ? "" : ", ", r.engine.c_str(), r.states_evaluated,
                 r.seconds, r.states_per_sec,
                 r.seconds > 0 ? interp_seconds / r.seconds : 0.0);
  }
  std::fprintf(f, "], \"native_vs_segments\": %.3f},\n",
               native_seconds > 0 ? seconds_of("vm+segments") / native_seconds
                                  : 0.0);
  const std::string metrics =
      obs::to_json(obs::Registry::instance().snapshot());
  std::fprintf(f, "  \"metrics\": %s\n}\n", metrics.c_str());
  return std::fclose(f) == 0;
}

void print_row(const Row& row) {
  std::printf("%-12s %6zu %-7s %7zu %-5s %10.1f %8zu %10.2f %9.3f %9.3f\n",
              row.workflow.c_str(), row.tasks, row.backend.c_str(),
              row.workers, row.estimator.c_str(), row.states_per_sec,
              row.states_pruned, row.ms_per_task, row.speedup_vs_serial,
              row.speedup_vs_mc);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deco;
  std::string out = "BENCH_solver.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out = argv[i];
    }
  }
  obs::Registry::instance().set_enabled(true);
  bench::print_header(
      "solver_speedup",
      "Search-driven solver throughput: serial baseline vs work-stealing "
      "vgpu backend at 1/2/4/hw workers (billed-hours model, 1000 MC "
      "iterations, 96-state budget), each under the full-MC estimator and "
      "the tiered analytic/QMC hierarchy, with the search's time inside "
      "batch evaluation and per-task optimization overhead.");

  util::Rng rng(2015);
  std::vector<workflow::Workflow> workflows;
  workflows.push_back(workflow::make_montage_by_width(smoke ? 8 : 28, rng));
  workflows.push_back(workflow::make_cybershake(smoke ? 30 : 100, rng));

  // Worker sweep: 1, 2, 4 and the hardware thread count, deduplicated.
  std::vector<std::size_t> sweep{1, 2, 4};
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (std::find(sweep.begin(), sweep.end(), hw) == sweep.end()) {
    sweep.push_back(hw);
  }
  if (smoke) sweep = {2};

  CaseConfig mc_cfg;
  CaseConfig auto_cfg;
  auto_cfg.mode = core::EstimatorMode::kAuto;
  if (smoke) {
    mc_cfg.mc_iterations = auto_cfg.mc_iterations = 64;
    mc_cfg.max_states = auto_cfg.max_states = 16;
    mc_cfg.min_reps = auto_cfg.min_reps = 1;
    mc_cfg.min_timed_s = auto_cfg.min_timed_s = 0;
  }

  std::vector<Row> rows;
  std::printf("%-12s %6s %-7s %7s %-5s %10s %8s %10s %9s %9s\n", "workflow",
              "tasks", "backend", "workers", "est", "states/s", "pruned",
              "ms/task", "vs_ser", "vs_mc");
  for (const auto& wf : workflows) {
    const double deadline = bench::deadline_bounds(wf).medium();
    // Serial baseline, then the worker sweep, under both estimators; the
    // mc row of each configuration is the denominator for speedup_vs_mc.
    Row serial_mc = run_case(wf, "serial", 0, deadline, mc_cfg);
    serial_mc.speedup_vs_serial = 1.0;
    serial_mc.speedup_vs_mc = 1.0;
    print_row(serial_mc);
    Row serial_auto = run_case(wf, "serial", 0, deadline, auto_cfg);
    serial_auto.speedup_vs_serial = 1.0;
    serial_auto.speedup_vs_mc = serial_mc.seconds / serial_auto.seconds;
    print_row(serial_auto);
    const double serial_mc_seconds = serial_mc.seconds;
    const double serial_auto_seconds = serial_auto.seconds;
    rows.push_back(std::move(serial_mc));
    rows.push_back(std::move(serial_auto));
    for (const std::size_t workers : sweep) {
      Row mc_row = run_case(wf, "vgpu", workers, deadline, mc_cfg);
      mc_row.speedup_vs_serial = serial_mc_seconds / mc_row.seconds;
      mc_row.speedup_vs_mc = 1.0;
      print_row(mc_row);
      Row auto_row = run_case(wf, "vgpu", workers, deadline, auto_cfg);
      auto_row.speedup_vs_serial = serial_auto_seconds / auto_row.seconds;
      auto_row.speedup_vs_mc = mc_row.seconds / auto_row.seconds;
      print_row(auto_row);
      rows.push_back(std::move(mc_row));
      rows.push_back(std::move(auto_row));
    }
  }
  // WLog engine sweep on a pipeline workflow (linear path count keeps the
  // interpreter baseline tractable — maxtime enumerates every DAG path).
  const auto wlog_wf = workflow::make_pipeline(smoke ? 5 : 10, rng);
  // Generous deadline: the sweep measures per-state inference throughput,
  // and a feasible search exercises the same constraint + goal path on
  // every state without early-infeasible short-circuits.
  const double wlog_deadline = 2.0 * bench::deadline_bounds(wlog_wf).d_max;
  const std::size_t wlog_iters = smoke ? 32 : 200;
  const std::size_t wlog_states = smoke ? 12 : 48;
  const int wlog_reps = smoke ? 1 : 2;
  std::printf("\nwlog engines (%s, %zu tasks, %zu MC iterations):\n",
              wlog_wf.name().c_str(), wlog_wf.task_count(), wlog_iters);
  std::printf("%-12s %8s %10s %10s %9s\n", "engine", "states", "seconds",
              "states/s", "vs_int");
  std::vector<WlogRow> wlog_rows;
  for (const char* engine : {"interp", "vm", "vm+segments", "native"}) {
    wlog_rows.push_back(run_wlog_case(wlog_wf, engine, wlog_deadline,
                                      wlog_iters, wlog_states, wlog_reps));
    const WlogRow& r = wlog_rows.back();
    std::printf("%-12s %8zu %10.4f %10.1f %9.3f\n", r.engine.c_str(),
                r.states_evaluated, r.seconds, r.states_per_sec,
                r.seconds > 0 ? wlog_rows[0].seconds / r.seconds : 0.0);
  }

  if (!write_json(rows, core::kScreenGuardZ, wlog_wf, wlog_rows, wlog_iters,
                  out)) {
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
