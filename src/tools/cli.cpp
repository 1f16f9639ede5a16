#include "tools/cli.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "baselines/autoscaling.hpp"
#include "cloud/calibration.hpp"
#include "cloud/control_plane.hpp"
#include "core/deco.hpp"
#include "obs/obs.hpp"
#include "util/budget.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "wlog/vm.hpp"
#include "wms/pegasus.hpp"
#include "workflow/dax.hpp"
#include "workflow/generators.hpp"
#include "workflow/stats.hpp"

namespace deco::tools {
namespace {

constexpr const char* kUsage = R"(deco — declarative workflow provisioning for IaaS clouds

usage: deco <command> [options]

commands:
  calibrate  --out store.txt [--samples 10000] [--seed 7]
      Run the micro-benchmark calibration against the simulated EC2 cloud
      and save the metadata store of performance histograms.

  generate   --app montage|ligo|epigenomics|cybershake|pipeline
             --out wf.dax [--tasks 100 | --degree 4] [--seed 7]
      Synthesize a workflow and write it as a Pegasus DAX file.

  plan       --dax wf.dax --deadline 3600 [--quantile 96]
             [--scheduler deco|autoscaling|random|<type name>]
             [--estimator mc|analytic|auto] [--region us-east-1]
             [--store store.txt] [--seed 7]
      Compute a provisioning plan and report the estimated cost and
      makespan distribution.  --estimator picks the evaluation tier
      (default auto): "mc" is full Monte Carlo on every state, "analytic"
      the closed-form screen alone, "auto" the screened hierarchy
      (analytic screen -> adaptive QMC -> full-MC verification).
      --region pins every placement to a named catalog region (exit 3
      with the candidate list on an unknown name).

  run        --dax wf.dax --deadline 3600 [--quantile 96] [--runs 20]
             [--scheduler ...] [--estimator mc|analytic|auto]
             [--region us-east-1] [--store store.txt] [--seed 7]
             [--api-profile none|degraded|exhausted]
             [--weather-profile none|storms|blackout]
      Plan, then execute on the simulated cloud; report statistics.
      --api-profile injects control-plane faults: "degraded" throttles and
      interleaves capacity outages (runs complete via retry/fallback),
      "exhausted" fails every provisioning call (exits with code 4).
      --weather-profile layers region-correlated failure weather on the
      control plane: "storms" injects recurring regional storms (runs
      survive on retries and failover), "blackout" blacks out every
      region permanently with fallback disabled (exits with code 4).

  solve      --dax wf.dax --program prog.wlog [--store store.txt]
             [--wlog-exec vm|interp] [--wlog-segments on|off]
      Solve a WLog program against the workflow (declarative path).
      --wlog-exec picks the engine (default vm: compiled bytecode;
      interp: the tree-walking oracle); --wlog-segments off disables the
      direct IR-to-segment translation of totalcost/maxtime shapes.

  info       --dax wf.dax
      Summarize a workflow: structure, task mix, data volumes.

  stats      --dax wf.dax --deadline 3600 [plan options]
             [--program file.wlog [solve options]]
      Plan with observability enabled and print the metrics summary
      table (solver effort, evaluator cache hits, staging/kernel times).
      With --program, runs the declarative solve instead and the summary
      includes the wlog.vm.* engine counters.

  help
      Show this text.

global options (any command):
  --metrics-out m.json   write a JSON metrics dump after the command
  --trace-out t.json     write a Chrome trace (chrome://tracing, Perfetto)

solve budgets (plan, run, solve, stats):
  --solve-budget-ms N    wall-clock budget for the solve; when it fires the
                         solver returns its best plan so far (exit code 5)
  --memory-budget-mb N   cap on resident solver caches; the engine degrades
                         (drops staged segments, shrinks the visited set)
                         before cutting the solve

exit codes:
  0  success
  1  usage or unexpected error
  2  the scheduler/solver failed to produce a plan
  3  input error (missing, unreadable or malformed --dax/--program file)
  4  cloud capacity exhausted (control-plane retries and fallback gave up)
  5  solve budget exhausted, best-so-far plan reported (anytime result)
  6  solve budget exhausted before any plan existed
)";

struct CloudSetup {
  cloud::Catalog catalog;
  cloud::MetadataStore store;
};

/// Builds the solve budget selected by --solve-budget-ms / --memory-budget-mb
/// (nullopt when neither flag is present: the solve runs unbudgeted).
std::optional<util::SolveBudget> cli_budget(const CliArgs& args) {
  const double wall_ms = args.number_or("solve-budget-ms", 0);
  const double mem_mb = args.number_or("memory-budget-mb", 0);
  if (wall_ms <= 0 && mem_mb <= 0) return std::nullopt;
  util::SolveBudget budget;
  budget.wall_ms = wall_ms;
  budget.max_bytes = static_cast<std::size_t>(mem_mb * 1024.0 * 1024.0);
  return budget;
}

/// Prints the one-line anytime-cut notice for an exhausted budget.
void report_budget_cut(const util::BudgetTracker& tracker, std::ostream& out) {
  out << "solve budget exhausted (" << util::to_string(tracker.trigger())
      << ") after " << util::Table::num(tracker.elapsed_ms(), 0)
      << " ms; reporting the best result found before the cutoff\n";
}

CloudSetup load_cloud(const CliArgs& args) {
  CloudSetup setup;
  setup.catalog = cloud::make_ec2_catalog();
  if (const auto path = args.get("store")) {
    if (auto loaded = cloud::MetadataStore::load(*path)) {
      setup.store = std::move(*loaded);
      return setup;
    }
  }
  setup.store = core::make_store_from_catalog(
      setup.catalog, "ec2", 4000, 24,
      static_cast<std::uint64_t>(args.number_or("seed", 7)));
  return setup;
}

std::optional<workflow::Workflow> load_dax(const CliArgs& args,
                                           std::ostream& out) {
  const auto path = args.get("dax");
  if (!path) {
    out << "error: --dax <file> is required\n";
    return std::nullopt;
  }
  auto parsed = workflow::load_dax_file(*path);
  if (std::holds_alternative<workflow::DaxError>(parsed)) {
    out << "error: " << std::get<workflow::DaxError>(parsed).message << "\n";
    return std::nullopt;
  }
  return std::get<workflow::Workflow>(std::move(parsed));
}

std::unique_ptr<wms::Scheduler> make_scheduler(const std::string& name,
                                               core::Deco& engine,
                                               const cloud::Catalog& catalog) {
  if (name == "deco") return std::make_unique<wms::DecoScheduler>(engine);
  if (name == "autoscaling") {
    return std::make_unique<wms::AutoscalingScheduler>();
  }
  if (name == "random") return std::make_unique<wms::RandomScheduler>();
  if (const auto type = catalog.find_type(name)) {
    return std::make_unique<wms::FixedTypeScheduler>(*type);
  }
  return nullptr;
}

int cmd_calibrate(const CliArgs& args, std::ostream& out) {
  const cloud::Catalog catalog = cloud::make_ec2_catalog();
  cloud::MetadataStore store;
  cloud::CalibrationOptions options;
  options.samples_per_setting =
      static_cast<std::size_t>(args.number_or("samples", 10000));
  util::Rng rng(static_cast<std::uint64_t>(args.number_or("seed", 2015)));
  const auto report = cloud::calibrate(catalog, store, options, rng);

  util::Table table({"setting", "mean", "stddev", "KS p(Normal)"});
  for (const auto& rec : report.records) {
    table.add_row({rec.key, util::Table::num(util::mean(rec.samples), 1),
                   util::Table::num(util::stddev(rec.samples), 1),
                   util::Table::num(rec.ks_normal.p_value, 3)});
  }
  out << table.to_string();

  const std::string path = args.get_or("out", "metadata_store.txt");
  if (!store.save(path)) {
    out << "error: cannot write " << path << "\n";
    return 1;
  }
  out << "saved " << store.size() << " histograms to " << path << "\n";
  return 0;
}

int cmd_generate(const CliArgs& args, std::ostream& out) {
  const std::string app = args.get_or("app", "montage");
  const auto path = args.get("out");
  if (!path) {
    out << "error: --out <file.dax> is required\n";
    return 1;
  }
  util::Rng rng(static_cast<std::uint64_t>(args.number_or("seed", 7)));
  workflow::Workflow wf;
  if (app == "montage" && args.get("degree")) {
    wf = workflow::make_montage(
        static_cast<int>(args.number_or("degree", 1)), rng);
  } else {
    workflow::AppType type;
    if (app == "montage") type = workflow::AppType::kMontage;
    else if (app == "ligo") type = workflow::AppType::kLigo;
    else if (app == "epigenomics") type = workflow::AppType::kEpigenomics;
    else if (app == "cybershake") type = workflow::AppType::kCyberShake;
    else if (app == "pipeline") type = workflow::AppType::kPipeline;
    else {
      out << "error: unknown app '" << app << "'\n";
      return 1;
    }
    wf = workflow::make_workflow(
        type, static_cast<std::size_t>(args.number_or("tasks", 100)), rng);
  }
  if (!workflow::save_dax_file(wf, *path)) {
    out << "error: cannot write " << *path << "\n";
    return 1;
  }
  out << "wrote " << wf.name() << ": " << wf.task_count() << " tasks, "
      << wf.edge_count() << " edges -> " << *path << "\n";
  return 0;
}

/// Builds the control-plane options selected by --api-profile, or nullopt
/// for the default infallible API.  Throws std::invalid_argument on an
/// unknown profile name (the run_cli boundary maps it to a usage error).
std::optional<cloud::ControlPlaneOptions> api_profile_options(
    const std::string& profile, std::uint64_t seed) {
  if (profile == "none") return std::nullopt;
  cloud::ControlPlaneOptions cp;
  cp.seed = seed;
  if (profile == "degraded") {
    // Nonzero but survivable: throttling, occasional outages, 5% transient
    // errors.  Runs complete through retries and fallback grants.
    cp.faults.throttle_rate_per_s = 0.05;
    cp.faults.throttle_burst = 2;
    cp.faults.capacity_mtbo_s = 2 * 3600.0;
    cp.faults.capacity_outage_s = 900;
    cp.faults.transient_error_prob = 0.05;
    return cp;
  }
  if (profile == "exhausted") {
    // Every API call fails from t=0 onward, with fallback disabled:
    // provisioning must give up (exit kExitProvisioningExhausted).
    cp.faults.transient_error_prob = 1.0;
    cp.allow_type_fallback = false;
    cp.allow_region_fallback = false;
    cp.retry.max_attempts = 3;
    cp.give_up_s = 600;
    return cp;
  }
  throw std::invalid_argument("unknown --api-profile '" + profile + "'");
}

/// Layers --weather-profile onto the control-plane options (creating them
/// when --api-profile was "none": weather needs a mediating control plane).
/// Throws std::invalid_argument on an unknown profile name.
void apply_weather_profile(const std::string& profile, std::uint64_t seed,
                           std::optional<cloud::ControlPlaneOptions>& cp) {
  if (profile == "none") return;
  if (!cp) {
    cp.emplace();
    cp->seed = seed;
  }
  if (profile == "storms") {
    // Recurring regional storms: correlated blackouts, synchronized spot
    // reclaims and elevated crash rates — but storms pass, so runs survive
    // on retries and region failover.
    cp->faults.weather.storm_mtbs_s = 3600;
    cp->faults.weather.storm_duration_s = 600;
    cp->faults.weather.capacity_hazard = 0.5;
    cp->faults.weather.crash_hazard = 4.0;
    return;
  }
  if (profile == "blackout") {
    // One permanent all-region blackout storm, in progress from t=0, with
    // fallback disabled: provisioning must give up
    // (exit kExitProvisioningExhausted).
    cp->faults.weather.storm_mtbs_s = 1.0;
    cp->faults.weather.storm_duration_s = 1e9;
    cp->faults.weather.capacity_hazard = 1.0;
    cp->faults.weather.initial_storm = true;
    cp->allow_type_fallback = false;
    cp->allow_region_fallback = false;
    cp->retry.max_attempts = 3;
    cp->give_up_s = 600;
    return;
  }
  throw std::invalid_argument("unknown --weather-profile '" + profile + "'");
}

int cmd_plan(const CliArgs& args, std::ostream& out, bool execute) {
  const auto wf = load_dax(args, out);
  if (!wf) return kExitInputError;
  const auto deadline = args.get("deadline");
  if (!deadline) {
    out << "error: --deadline <seconds> is required\n";
    return 1;
  }
  // Estimator-hierarchy selection: the CLI defaults to the screened "auto"
  // hierarchy; the library default stays "mc" so programmatic users opt in.
  const std::string estimator_name = args.get_or("estimator", "auto");
  const auto estimator_mode = core::parse_estimator_mode(estimator_name);
  if (!estimator_mode) {
    out << "error: unknown --estimator '" << estimator_name
        << "' (expected mc|analytic|auto)\n";
    return kExitInputError;
  }
  // Echo the choice into --metrics-out dumps (a counter keyed by mode, so
  // the JSON records which estimator produced the numbers around it).
  obs::Registry::instance().counter_add(
      std::string("cli.estimator.") + core::to_string(*estimator_mode), 1);

  const CloudSetup cloud = load_cloud(args);

  // --region pins every placement to a named catalog region; an unknown
  // name is an input error that lists the candidates.
  cloud::RegionId region = 0;
  if (const auto region_name = args.get("region")) {
    const auto found = cloud.catalog.find_region(*region_name);
    if (!found) {
      out << "error: unknown region '" << *region_name << "' (expected one of:";
      for (const cloud::Region& r : cloud.catalog.regions()) {
        out << " " << r.name;
      }
      out << ")\n";
      return kExitInputError;
    }
    region = *found;
  }
  // Echo the placement region into --metrics-out dumps, mirroring the
  // estimator echo above.
  obs::Registry::instance().counter_add(
      "cli.region." + cloud.catalog.region(region).name, 1);

  core::ProbDeadline req;
  req.deadline_s = args.number_or("deadline", 3600);
  req.quantile = args.number_or("quantile", 96) / 100.0;

  core::DecoOptions engine_options;
  engine_options.eval.estimator = *estimator_mode;
  engine_options.ensemble_eval.estimator = *estimator_mode;
  core::Deco engine(cloud.catalog, cloud.store, engine_options);
  wms::PegasusWms wms(cloud.catalog, cloud.store);
  const std::string scheduler_name = args.get_or("scheduler", "deco");
  auto scheduler = make_scheduler(scheduler_name, engine, cloud.catalog);
  if (!scheduler) {
    out << "error: unknown scheduler '" << scheduler_name << "'\n";
    return 1;
  }
  wms.set_scheduler(std::move(scheduler));
  wms.set_home_region(region);

  util::Rng rng(static_cast<std::uint64_t>(args.number_or("seed", 7)));
  const auto budget_spec = cli_budget(args);
  std::optional<util::BudgetTracker> tracker;
  if (budget_spec) tracker.emplace(*budget_spec);
  auto planned =
      wms.plan_workflow(*wf, req, rng, tracker ? &*tracker : nullptr);
  if (std::holds_alternative<wms::WmsError>(planned)) {
    out << "error: " << std::get<wms::WmsError>(planned).message << "\n";
    return tracker && tracker->exhausted() ? kExitBudgetExhaustedEmpty
                                           : kExitSolverFailure;
  }
  const auto& exec = std::get<wms::ExecutableWorkflow>(planned);

  // Report the plan.
  std::map<std::string, int> site_counts;
  for (const auto& task : exec.tasks) ++site_counts[task.site];
  out << "plan (" << exec.scheduler
      << "): estimator=" << core::to_string(*estimator_mode) << "\n";
  for (const auto& [site, count] : site_counts) {
    out << "  " << count << " tasks -> " << site << "\n";
  }

  core::TaskTimeEstimator estimator(cloud.catalog, cloud.store);
  vgpu::VirtualGpuBackend backend;
  core::PlanEvaluator evaluator(*wf, estimator, backend);
  const auto eval = evaluator.evaluate(exec.plan, req);
  out << "estimated cost $" << util::Table::num(eval.mean_cost, 4)
      << ", mean makespan " << util::Table::num(eval.mean_makespan, 0)
      << " s, P(makespan <= " << req.deadline_s
      << " s) = " << util::Table::num(eval.deadline_prob, 3)
      << (eval.feasible ? " (feasible)" : " (NOT feasible)") << "\n";

  int code = kExitOk;
  if (tracker && tracker->exhausted()) {
    report_budget_cut(*tracker, out);
    code = kExitBudgetExhaustedPlan;
  }

  if (execute) {
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.number_or("seed", 7));
    auto cp_options = api_profile_options(args.get_or("api-profile", "none"),
                                          seed);
    const std::string weather = args.get_or("weather-profile", "none");
    apply_weather_profile(weather, seed, cp_options);
    obs::Registry::instance().counter_add("cli.weather." + weather, 1);
    std::optional<cloud::ControlPlane> control;
    sim::ExecutorOptions exec_options;
    if (cp_options) {
      control.emplace(cloud.catalog, *cp_options);
      exec_options.control = &*control;
    }
    const int runs = static_cast<int>(args.number_or("runs", 20));
    std::vector<double> costs;
    std::vector<double> makespans;
    int met = 0;
    for (int i = 0; i < runs; ++i) {
      const auto report = wms.execute(exec, rng, req, exec_options);
      costs.push_back(report.total_cost);
      makespans.push_back(report.makespan);
      met += report.met_deadline;
    }
    out << "executed " << runs << " runs: avg billed cost $"
        << util::Table::num(util::mean(costs), 4) << ", avg makespan "
        << util::Table::num(util::mean(makespans), 0) << " s, deadline met "
        << met << "/" << runs << "\n";
    if (control) {
      const cloud::ApiStats& api = control->stats();
      out << "control plane: " << api.calls << " API calls, " << api.throttled
          << " throttled, " << api.capacity_denials << " capacity denials, "
          << api.retries << " retries, " << api.fallbacks << " fallbacks";
      if (api.storm_denials > 0 || api.storm_reclaims > 0) {
        out << ", " << api.storm_denials << " storm denials, "
            << api.storm_reclaims << " storm reclaims";
      }
      out << "\n";
    }
  }
  return code;
}

int cmd_solve(const CliArgs& args, std::ostream& out) {
  const auto wf = load_dax(args, out);
  if (!wf) return kExitInputError;
  const auto program_path = args.get("program");
  if (!program_path) {
    out << "error: --program <file.wlog> is required\n";
    return kExitInputError;
  }
  std::ifstream in(*program_path);
  if (!in) {
    out << "error: cannot open " << *program_path << "\n";
    return kExitInputError;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  core::DecoOptions engine_options;
  engine_options.wlog_exec = args.get_or("wlog-exec", "vm");
  if (!wlog::parse_exec_mode(engine_options.wlog_exec)) {
    out << "error: unknown --wlog-exec '" << engine_options.wlog_exec
        << "' (expected vm|interp)\n";
    return kExitInputError;
  }
  const std::string segments = args.get_or("wlog-segments", "on");
  if (segments != "on" && segments != "off") {
    out << "error: unknown --wlog-segments '" << segments
        << "' (expected on|off)\n";
    return kExitInputError;
  }
  engine_options.wlog_segments = segments == "on";

  const CloudSetup cloud = load_cloud(args);
  const auto budget_spec = cli_budget(args);
  std::optional<util::BudgetTracker> tracker;
  if (budget_spec) {
    tracker.emplace(*budget_spec);
    engine_options.budget = &*tracker;
  }
  core::Deco engine(cloud.catalog, cloud.store, engine_options);
  const auto result = engine.solve_program(buffer.str(), *wf);
  if (!result.ok) {
    out << "error: " << result.error << "\n";
    return tracker && tracker->exhausted() ? kExitBudgetExhaustedEmpty
                                           : kExitSolverFailure;
  }
  out << "solved: goal value " << util::Table::num(result.goal_value, 4)
      << ", feasible " << (result.feasible ? "yes" : "no") << ", "
      << result.stats.states_evaluated << " states in "
      << util::Table::num(result.stats.elapsed_ms, 0) << " ms\n";
  if (result.plan.size() == wf->task_count()) {
    for (workflow::TaskId t = 0; t < wf->task_count(); ++t) {
      out << "  " << wf->task(t).name << " -> "
          << cloud.catalog.type(result.plan[t].vm_type).name << "\n";
    }
  } else {
    // Not a task -> instance-type program: report the generic assignment.
    for (std::size_t e = 0; e < result.entities.size(); ++e) {
      out << "  " << result.entities[e] << " -> "
          << result.choices[static_cast<std::size_t>(result.assignment[e])]
          << "\n";
    }
  }
  if (tracker && tracker->exhausted()) {
    report_budget_cut(*tracker, out);
    return kExitBudgetExhaustedPlan;
  }
  return 0;
}

int cmd_info(const CliArgs& args, std::ostream& out) {
  const auto wf = load_dax(args, out);
  if (!wf) return kExitInputError;
  out << workflow::describe(workflow::compute_stats(*wf), wf->name());
  return 0;
}

int cmd_stats(const CliArgs& args, std::ostream& out) {
  // Observability was enabled by run_cli (the command name opts in); run
  // the plan pipeline — or the declarative solve when a WLog program is
  // given — then render what the instrumentation saw.
  const int code = args.get("program") ? cmd_solve(args, out)
                                       : cmd_plan(args, out, /*execute=*/false);
  // A budget-exhausted plan still has metrics worth printing (the budget.*
  // counters especially); any other failure aborts before the tables.
  if (code != 0 && code != kExitBudgetExhaustedPlan) return code;

  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  out << "\nmetrics summary";
  if (!obs::kCompiledIn) {
    out << " (instrumentation compiled out: rebuild with -DDECO_OBS=ON)";
  }
  out << ":\n";
  if (!snap.counters.empty()) {
    util::Table counters({"counter", "value"});
    for (const auto& [name, value] : snap.counters) {
      counters.add_row({name, std::to_string(value)});
    }
    out << counters.to_string();
  }
  if (!snap.gauges.empty()) {
    util::Table gauges({"gauge", "value"});
    for (const auto& [name, value] : snap.gauges) {
      gauges.add_row({name, util::Table::num(value, 4)});
    }
    out << gauges.to_string();
  }
  if (!snap.histograms.empty()) {
    util::Table timers({"timer", "count", "mean ms", "max ms"});
    for (const auto& [name, hist] : snap.histograms) {
      timers.add_row({name, std::to_string(hist.count),
                      util::Table::num(hist.mean_ms(), 3),
                      util::Table::num(hist.max_ms, 3)});
    }
    out << timers.to_string();
  }
  // One-line estimator-hierarchy summary (the tallies also appear in the
  // counters table above; this is the at-a-glance version).
  const auto counter = [&snap](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const std::uint64_t screen_total = counter("eval.screen.accepted") +
                                     counter("eval.screen.rejected") +
                                     counter("eval.screen.escalated");
  if (screen_total != 0) {
    out << "estimator screen: " << counter("eval.screen.accepted")
        << " accepted, " << counter("eval.screen.rejected") << " rejected, "
        << counter("eval.screen.escalated") << " escalated; qmc early stops "
        << counter("eval.qmc.early_stops") << ", iterations saved "
        << counter("eval.qmc.iterations_saved") << "; full-MC re-solves "
        << counter("search.screen_fallbacks") << " ("
        << counter("search.screen_skips") << " skipped the screened pass)";
    // Tier 0 reuse: the share of screened positions whose moment fold was
    // recomputed rather than carried over from the previous plan of a run.
    const std::uint64_t positions = counter("eval.screen.positions");
    if (positions != 0) {
      const std::uint64_t recomputed =
          counter("eval.screen.positions_recomputed");
      out << "; positions recomputed " << recomputed << "/" << positions
          << " ("
          << util::Table::num(100.0 * static_cast<double>(recomputed) /
                                  static_cast<double>(positions),
                              1)
          << "%)";
    }
    out << "\n";
  }
  // At-a-glance WLog VM summary when a declarative solve ran (the wlog.vm.*
  // counters also appear in the counters table above).
  const std::uint64_t vm_instructions = counter("wlog.vm.instructions");
  if (vm_instructions != 0) {
    const std::uint64_t hits = counter("wlog.vm.index.hits");
    const std::uint64_t misses = counter("wlog.vm.index.misses");
    out << "wlog vm: " << vm_instructions << " instructions, "
        << counter("wlog.vm.calls") << " calls, index hits " << hits << "/"
        << (hits + misses) << ", " << counter("wlog.vm.compiled_clauses")
        << " clauses compiled, " << counter("wlog.vm.segment_translations")
        << " segment translations, " << counter("wlog.vm.segment_worlds")
        << " segment worlds\n";
  }
  return code;
}

/// Subcommand dispatch (no error boundary; run_cli wraps this).
int dispatch(const CliArgs& args, std::ostream& out) {
  if (args.command.empty() || args.command == "help") {
    out << kUsage;
    return args.command.empty() ? 1 : 0;
  }
  if (args.command == "calibrate") return cmd_calibrate(args, out);
  if (args.command == "generate") return cmd_generate(args, out);
  if (args.command == "plan") return cmd_plan(args, out, /*execute=*/false);
  if (args.command == "run") return cmd_plan(args, out, /*execute=*/true);
  if (args.command == "solve") return cmd_solve(args, out);
  if (args.command == "info") return cmd_info(args, out);
  if (args.command == "stats") return cmd_stats(args, out);
  out << "error: unknown command '" << args.command << "'\n" << kUsage;
  return 1;
}

}  // namespace

std::optional<std::string> CliArgs::get(const std::string& key) const {
  const auto it = options.find(key);
  if (it == options.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& key,
                            std::string fallback) const {
  return get(key).value_or(std::move(fallback));
}

double CliArgs::number_or(const std::string& key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  try {
    return std::stod(*value);
  } catch (...) {
    return fallback;
  }
}

CliArgs parse_args(const std::vector<std::string>& argv) {
  CliArgs args;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& word = argv[i];
    if (word.rfind("--", 0) == 0) {
      const std::string key = word.substr(2);
      if (i + 1 < argv.size() && argv[i + 1].rfind("--", 0) != 0) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "true";  // bare flag
      }
    } else if (args.command.empty()) {
      args.command = word;
    } else {
      args.positional.push_back(word);
    }
  }
  return args;
}

int run_cli(const CliArgs& args, std::ostream& out) {
  // Observability opt-in: --metrics-out / --trace-out on any command (and
  // the stats command itself) enable the registry and trace collector for
  // the duration of the command, then dump and disable them.
  const auto metrics_path = args.get("metrics-out");
  const auto trace_path = args.get("trace-out");
  const bool observe = metrics_path || trace_path || args.command == "stats";
  if (observe) {
    obs::Registry::instance().reset();
    obs::Registry::instance().set_enabled(true);
    obs::TraceCollector::instance().clear();
    obs::TraceCollector::instance().set_enabled(true);
  }

  // Top-level error boundary: malformed inputs must produce a one-line
  // diagnostic and a non-zero exit, never an escaping exception.
  int code;
  try {
    code = dispatch(args, out);
  } catch (const cloud::ProvisioningExhaustedError& e) {
    // The control plane retried, fell back, and still found no capacity:
    // a distinct exit code so orchestration can tell "the cloud is full"
    // from "my inputs are wrong".
    out << "error: " << e.what() << "\n";
    code = kExitProvisioningExhausted;
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    code = 1;
  } catch (...) {
    out << "error: unexpected failure\n";
    code = 1;
  }

  if (observe) {
    obs::Registry::instance().set_enabled(false);
    obs::TraceCollector::instance().set_enabled(false);
    if (metrics_path) {
      std::ofstream file(*metrics_path);
      if (file) {
        file << obs::to_json(obs::Registry::instance().snapshot()) << "\n";
        out << "wrote metrics to " << *metrics_path << "\n";
      } else {
        out << "error: cannot write " << *metrics_path << "\n";
        if (code == 0) code = 1;
      }
    }
    if (trace_path) {
      std::ofstream file(*trace_path);
      if (file) {
        obs::TraceCollector::instance().write(file);
        out << "wrote trace to " << *trace_path << "\n";
      } else {
        out << "error: cannot write " << *trace_path << "\n";
        if (code == 0) code = 1;
      }
    }
  }
  return code;
}

int run_cli(int argc, const char* const* argv, std::ostream& out) {
  std::vector<std::string> words;
  for (int i = 1; i < argc; ++i) words.emplace_back(argv[i]);
  return run_cli(parse_args(words), out);
}

}  // namespace deco::tools
