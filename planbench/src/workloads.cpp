#include "workloads.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "bench/bench_common.hpp"
#include "core/estimator.hpp"
#include "core/evaluator.hpp"
#include "sim/failure_model.hpp"
#include "util/rng.hpp"
#include "wms/pegasus.hpp"
#include "wms/reactive.hpp"
#include "wms/scheduler.hpp"
#include "workflow/dax.hpp"
#include "workflow/generators.hpp"

namespace planbench {
namespace {

using deco::cloud::ControlPlaneOptions;
using deco::core::ProbDeadline;
using deco::sim::Plan;
using deco::workflow::AppType;
using deco::workflow::Workflow;

constexpr double kQuantile = 0.9;

/// Primary-scheduler wrapper: times every call as a "bench.schedule" span and
/// applies the shape check to every plan it hands back.
class TimedScheduler final : public deco::wms::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<deco::wms::Scheduler> inner, SpanLog& log,
                 const deco::cloud::Catalog& catalog)
      : inner_(std::move(inner)), log_(&log), catalog_(&catalog) {}

  std::string name() const override { return inner_->name(); }

  Plan schedule(const Workflow& wf,
                const deco::wms::SchedulerContext& ctx) override {
    SpanScope span(*log_, "bench.schedule");
    Plan plan = inner_->schedule(wf, ctx);
    calls_ms_.push_back(span.close());
    if (!well_formed(plan, wf.task_count(), *catalog_, ctx.region)) {
      malformed_ = true;
    }
    if (calls_ms_.size() == 1) first_plan_ = plan;
    return plan;
  }

  /// Forgets the previous request's calls.
  void reset() {
    calls_ms_.clear();
    malformed_ = false;
    first_plan_ = Plan{};
  }
  const std::vector<double>& calls_ms() const { return calls_ms_; }
  bool malformed() const { return malformed_; }
  const Plan& first_plan() const { return first_plan_; }

 private:
  std::unique_ptr<deco::wms::Scheduler> inner_;
  SpanLog* log_;
  const deco::cloud::Catalog* catalog_;
  std::vector<double> calls_ms_;
  bool malformed_ = false;
  Plan first_plan_;
};

/// Set-up shared by every workload: the `deco` CLI's catalog and metadata
/// store (load_cloud in src/tools/cli.cpp: 4000 samples, 24 bins, seed 7).
void build_cloud(deco::cloud::Catalog& catalog,
                 deco::cloud::MetadataStore& store) {
  catalog = deco::cloud::make_ec2_catalog();
  store = deco::core::make_store_from_catalog(catalog, "ec2", 4000, 24, 7);
}

/// vgpu workers of every timed engine.  The pipelined search evaluates each
/// wave on a thread of its own, which launches on the pool and runs blocks
/// too, so a request keeps at most three threads busy.  The default pool (one
/// worker per hardware thread) keeps up to nproc + 2 busy, and every launch
/// then waits for whichever participant the host has descheduled: with two
/// CPU-bound neighbours on a 4-core host, plan-fallback's request_s.p50 rose
/// 1.37x with the default pool against 1.03-1.07x with one worker.  The
/// backend's results are bit-identical at any worker count.
constexpr std::size_t kVgpuWorkers = 1;

/// The CLI's engine defaults for `deco plan` (the vgpu backend and the chosen
/// estimator; the CLI's default is auto), with kVgpuWorkers workers.
deco::core::DecoOptions cli_plan_options(deco::core::EstimatorMode estimator) {
  deco::core::DecoOptions options;
  options.eval.estimator = estimator;
  options.ensemble_eval.estimator = estimator;
  options.backend_workers = kVgpuWorkers;
  return options;
}

Workflow parse_or_throw(deco::workflow::DaxResult parsed,
                        const std::string& where) {
  if (std::holds_alternative<deco::workflow::DaxError>(parsed)) {
    throw std::runtime_error(
        where + ": " + std::get<deco::workflow::DaxError>(parsed).message);
  }
  return std::get<Workflow>(std::move(parsed));
}

/// Writes `wf` as a DAX file under the input directory and reads it back
/// through the CLI's loader, so set-up sees exactly what requests will load.
Workflow write_dax(const Workflow& wf, const std::string& path) {
  if (!deco::workflow::save_dax_file(wf, path)) {
    throw std::runtime_error("cannot write " + path);
  }
  return parse_or_throw(deco::workflow::load_dax_file(path), path);
}

/// D_min / D_max of bench/bench_common.hpp (every task on the fastest /
/// cheapest type) against the CLI's store.  Each bound is a whole-plan
/// evaluation, which is why inputs are prepared before the timed set-ups.
class DeadlineOracle {
 public:
  DeadlineOracle() {
    build_cloud(catalog_, store_);
    engine_ = std::make_unique<deco::core::Deco>(catalog_, store_);
  }

  /// Bounds of `generated` as requests will see it: after its DAX round trip.
  deco::bench::DeadlineBounds bounds(const Workflow& generated) {
    const Workflow wf = parse_or_throw(
        deco::workflow::parse_dax(deco::workflow::to_dax(generated)),
        generated.name());
    deco::core::TaskTimeEstimator estimator(catalog_, store_);
    deco::core::PlanEvaluator evaluator(wf, estimator, engine_->backend());
    const auto fastest =
        static_cast<deco::cloud::TypeId>(catalog_.type_count() - 1);
    deco::bench::DeadlineBounds out;
    out.d_min = evaluator
                    .evaluate(Plan::uniform(wf.task_count(), fastest),
                              {0.5, 1e12})
                    .mean_makespan;
    out.d_max =
        evaluator.evaluate(Plan::uniform(wf.task_count(), 0), {0.5, 1e12})
            .mean_makespan;
    return out;
  }

 private:
  deco::cloud::Catalog catalog_;
  deco::cloud::MetadataStore store_;
  std::unique_ptr<deco::core::Deco> engine_;
};

std::string dax_path(const WorkloadOptions& options, std::size_t index) {
  return options.input_dir + "/" + options.name + "-" + std::to_string(index) +
         ".dax";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string describe(const Workflow& wf) {
  return wf.name() + "-" + std::to_string(wf.task_count());
}

// ---------------------------------------------------------------------------
// plan-screened / plan-fallback: the `deco plan` request loop.

/// Where a plan request's deadline falls, in units of D_min (every task on
/// the fastest type).
struct DeadlineBand {
  bool tight_to_loose = true;  ///< bench_common's tight..loose span
  double lo_dmin = 0;          ///< otherwise [lo_dmin, hi_dmin] x D_min
  double hi_dmin = 0;
};

/// Apps interleave so any prefix of the pool mixes them evenly.  Deadline
/// positions inside the band are stratified: input k of an app draws from the
/// k-th of per_app equal slices of the band, so every seed covers it alike
/// and only the draw inside each slice (and the workflow instance) changes
/// with the seed.
std::vector<Input> plan_inputs(std::uint64_t seed,
                               const std::vector<AppType>& apps,
                               std::size_t per_app, DeadlineBand band) {
  DeadlineOracle oracle;
  deco::util::Rng rng(seed);
  std::vector<Input> inputs;
  for (std::size_t k = 0; k < per_app; ++k) {
    for (const AppType app : apps) {
      Input in;
      in.wf = deco::workflow::make_workflow(app, 100, rng);
      const auto bounds = oracle.bounds(in.wf);
      const double lo =
          band.tight_to_loose ? bounds.tight() : band.lo_dmin * bounds.d_min;
      const double hi =
          band.tight_to_loose ? bounds.loose() : band.hi_dmin * bounds.d_min;
      const double u = (static_cast<double>(k) + rng.uniform()) /
                       static_cast<double>(per_app);
      in.deadline_s = lo + u * (hi - lo);
      in.label = describe(in.wf) + " deadline " +
                 std::to_string(in.deadline_s) + " s = " +
                 std::to_string(in.deadline_s / bounds.d_min) + " x D_min";
      inputs.push_back(std::move(in));
    }
  }
  return inputs;
}

class PlanWorkload final : public Workload {
 public:
  PlanWorkload(const WorkloadOptions& options,
               const std::vector<Input>& inputs) {
    build_cloud(catalog_, store_);
    engine_ = std::make_unique<deco::core::Deco>(
        catalog_, store_, cli_plan_options(options.estimator));
    wms_ = std::make_unique<deco::wms::PegasusWms>(catalog_, store_);
    auto scheduler = std::make_unique<TimedScheduler>(
        std::make_unique<deco::wms::DecoScheduler>(*engine_), log_, catalog_);
    scheduler_ = scheduler.get();
    wms_->set_scheduler(std::move(scheduler));
    wms_->set_home_region(0);
    for (const Input& in : inputs) {
      const std::string path = dax_path(options, items_.size());
      write_dax(in.wf, path);
      items_.push_back({path, {kQuantile, in.deadline_s}});
      labels_.push_back(in.label);
    }
  }

  std::size_t pool_size() const override { return items_.size(); }
  const char* solve_span() const override { return "bench.schedule"; }
  std::vector<std::string> span_names() const override {
    return {"bench.load_dax", "bench.plan_workflow", "bench.schedule",
            "bench.final_eval"};
  }

  /// load_dax_file, then plan_workflow, then the CLI's final evaluate.
  Outcome request(std::size_t index) override {
    const Item& item = items_[index];
    Outcome out;
    out.req = item.req;
    scheduler_->reset();
    {
      SpanScope span(log_, "bench.load_dax");
      auto parsed = deco::workflow::load_dax_file(item.path);
      if (std::holds_alternative<deco::workflow::DaxError>(parsed)) {
        out.error = std::get<deco::workflow::DaxError>(parsed).message;
        return out;
      }
      out.wf = std::get<Workflow>(std::move(parsed));
    }
    {
      SpanScope span(log_, "bench.plan_workflow");
      deco::util::Rng rng(7);  // the CLI's default --seed
      auto planned = wms_->plan_workflow(out.wf, out.req, rng);
      if (std::holds_alternative<deco::wms::WmsError>(planned)) {
        out.error = std::get<deco::wms::WmsError>(planned).message;
        return out;
      }
      out.plan = std::get<deco::wms::ExecutableWorkflow>(planned).plan;
    }
    {
      SpanScope span(log_, "bench.final_eval");
      deco::core::TaskTimeEstimator estimator(catalog_, store_);
      deco::core::PlanEvaluator evaluator(out.wf, estimator,
                                          engine_->backend());
      const auto eval = evaluator.evaluate(out.plan, out.req);
      if (!(eval.mean_cost > 0)) out.error = "final evaluation: no cost";
    }
    out.solve_ms = scheduler_->calls_ms();
    out.malformed = scheduler_->malformed() ||
                    !well_formed(out.plan, out.wf.task_count(), catalog_, 0);
    return out;
  }

 private:
  struct Item {
    std::string path;
    ProbDeadline req;
  };
  std::unique_ptr<deco::wms::PegasusWms> wms_;
  TimedScheduler* scheduler_ = nullptr;  // owned by wms_
  std::vector<Item> items_;
};

// ---------------------------------------------------------------------------
// replan-reactive: ReactiveEngine::run under injected faults.

/// The robustness sweep's `medium` failure level (bench/robustness_sweep.cpp).
deco::sim::FailureModelOptions medium_failures() {
  deco::sim::FailureModelOptions fm;
  fm.crash_mtbf_s = 2 * 3600;
  fm.task_failure_prob = 0.03;
  fm.straggler_prob = 0.05;
  fm.boot_failure_prob = 0.01;
  return fm;
}

/// `deco run --api-profile degraded` (api_profile_options in
/// src/tools/cli.cpp): throttling, capacity outages, 5% transient errors.
ControlPlaneOptions degraded_api(std::uint64_t seed) {
  ControlPlaneOptions cp;
  cp.seed = seed;
  cp.faults.throttle_rate_per_s = 0.05;
  cp.faults.throttle_burst = 2;
  cp.faults.capacity_mtbo_s = 2 * 3600.0;
  cp.faults.capacity_outage_s = 900;
  cp.faults.transient_error_prob = 0.05;
  return cp;
}

/// `rounds` x (two CyberShake-50 runs, one Montage-1 run); every run gets its
/// own workflow instance and fault seed.
std::vector<Input> reactive_inputs(std::uint64_t seed, std::size_t rounds) {
  DeadlineOracle oracle;
  deco::util::Rng rng(seed);
  std::vector<Input> inputs;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const bool montage : {false, false, true}) {
      Input in;
      in.wf = montage ? deco::workflow::make_montage(1, rng)
                      : deco::workflow::make_cybershake(50, rng);
      // The robustness sweep's deadline: halfway between D_min and D_max.
      in.deadline_s = oracle.bounds(in.wf).medium();
      in.seed = rng();
      in.label =
          describe(in.wf) + " deadline " + std::to_string(in.deadline_s) + " s";
      inputs.push_back(std::move(in));
    }
  }
  return inputs;
}

class ReactiveWorkload final : public Workload {
 public:
  ReactiveWorkload(const WorkloadOptions& options,
                   const std::vector<Input>& inputs)
      : failures_(medium_failures()) {
    build_cloud(catalog_, store_);
    engine_ = std::make_unique<deco::core::Deco>(
        catalog_, store_, cli_plan_options(options.estimator));
    // The robustness sweep's reduced search budget: a run replans
    // repeatedly, so each solve is bounded well below the default 2048
    // states (bench/robustness_sweep.cpp, which also caps replans at 4).
    deco::core::SchedulingOptions sched;
    sched.search.max_states = 192;
    scheduler_ = std::make_unique<TimedScheduler>(
        std::make_unique<deco::wms::DecoScheduler>(*engine_, sched), log_,
        catalog_);
    for (const Input& in : inputs) {
      items_.push_back({write_dax(in.wf, dax_path(options, items_.size())),
                        in.deadline_s, in.seed});
      labels_.push_back(in.label);
    }
  }

  std::size_t pool_size() const override { return items_.size(); }
  const char* solve_span() const override { return "bench.schedule"; }
  std::vector<std::string> span_names() const override {
    return {"bench.reactive_run", "bench.schedule"};
  }

  Outcome request(std::size_t index) override {
    const Item& item = items_[index];
    Outcome out;
    out.reactive = true;
    out.wf = item.wf;
    out.req = {kQuantile, item.deadline_s};
    deco::wms::ReactiveOptions options;
    options.executor.failures = &failures_;
    options.control = degraded_api(item.seed);
    options.seed = item.seed;
    options.max_replans = 4;
    deco::wms::ReactiveEngine reactive(catalog_, store_, *scheduler_, options);
    scheduler_->reset();
    deco::wms::ReactiveReport report;
    {
      SpanScope span(log_, "bench.reactive_run");
      report = reactive.run(out.wf, out.req);
    }
    out.solve_ms = scheduler_->calls_ms();
    out.plan = scheduler_->first_plan();
    out.malformed = scheduler_->malformed();
    out.run_cost = report.total_cost;
    out.run_met = report.met_deadline;
    if (!report.completed) out.error = "run did not complete";
    if (report.solver_fallbacks > 0) {
      out.error = "run took the solver fallback (" + report.last_scheduler +
                  ")";
    }
    return out;
  }

 private:
  struct Item {
    Workflow wf;
    double deadline_s = 0;
    std::uint64_t seed = 0;
  };
  deco::sim::FailureModel failures_;
  std::unique_ptr<TimedScheduler> scheduler_;
  std::vector<Item> items_;
};

// ---------------------------------------------------------------------------
// solve-wlog: the `deco solve` request loop over two WLog programs.

/// Task count per program (scheduling.wlog, scheduling_astar.wlog).  The A*
/// program runs its heuristics in the VM and costs ~10x more per task than
/// the segment-translated one, so it gets smaller files: the two kinds of
/// request then take comparable time and the request-time median does not
/// fall in the gap between two modes.
constexpr std::size_t kWlogTasks[2] = {40, 14};

/// Requests alternate the two programs.
std::vector<Input> wlog_inputs(std::uint64_t seed, std::size_t per_app) {
  deco::util::Rng rng(seed);
  std::vector<Input> inputs;
  for (std::size_t k = 0; k < per_app; ++k) {
    for (const AppType app :
         {AppType::kMontage, AppType::kLigo, AppType::kEpigenomics}) {
      for (std::size_t p = 0; p < 2; ++p) {
        Input in;
        in.wf = deco::workflow::make_workflow(app, kWlogTasks[p], rng);
        in.program = p;
        in.label = describe(in.wf) + (p == 0 ? " scheduling.wlog"
                                             : " scheduling_astar.wlog");
        inputs.push_back(std::move(in));
      }
    }
  }
  return inputs;
}

class WlogWorkload final : public Workload {
 public:
  WlogWorkload(const WorkloadOptions& options,
               const std::vector<Input>& inputs) {
    build_cloud(catalog_, store_);
    // `deco solve` defaults: no --estimator flag, the VM, segments on.
    deco::core::DecoOptions engine_options;
    engine_options.backend_workers = kVgpuWorkers;
    engine_ = std::make_unique<deco::core::Deco>(catalog_, store_,
                                                 engine_options);
    programs_ = {read_file(options.repo_root + "/assets/scheduling.wlog"),
                 read_file(options.repo_root +
                           "/assets/scheduling_astar.wlog")};
    for (const Input& in : inputs) {
      const std::string path = dax_path(options, items_.size());
      write_dax(in.wf, path);
      items_.push_back({path, in.program});
      labels_.push_back(in.label);
    }
  }

  std::size_t pool_size() const override { return items_.size(); }
  const char* solve_span() const override { return "bench.solve_program"; }
  std::vector<std::string> span_names() const override {
    return {"bench.load_dax", "bench.solve_program"};
  }

  /// load_dax_file, then solve_program.
  Outcome request(std::size_t index) override {
    const Item& item = items_[index];
    Outcome out;
    // Both programs declare `deadline(95%, 10h)`.
    out.req = {0.95, 10 * 3600.0};
    {
      SpanScope span(log_, "bench.load_dax");
      auto parsed = deco::workflow::load_dax_file(item.path);
      if (std::holds_alternative<deco::workflow::DaxError>(parsed)) {
        out.error = std::get<deco::workflow::DaxError>(parsed).message;
        return out;
      }
      out.wf = std::get<Workflow>(std::move(parsed));
    }
    deco::core::WlogSolveResult result;
    {
      SpanScope span(log_, "bench.solve_program");
      result = engine_->solve_program(programs_[item.program], out.wf);
      out.solve_ms.push_back(span.close());
    }
    if (!result.ok) {
      out.error = result.error;
      return out;
    }
    out.plan = result.plan;
    out.malformed = !well_formed(out.plan, out.wf.task_count(), catalog_, 0);
    return out;
  }

 private:
  struct Item {
    std::string path;
    std::size_t program;
  };
  std::vector<std::string> programs_;
  std::vector<Item> items_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "plan-screened", "plan-fallback", "replan-reactive", "solve-wlog"};
  return names;
}

std::string Outcome::signature() const {
  std::ostringstream out;
  for (const auto& p : plan.placements) {
    out << p.vm_type << '@' << p.region << ',';
  }
  if (reactive) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "|%.17g|%d", run_cost, run_met ? 1 : 0);
    out << buf;
  }
  return out.str();
}

bool well_formed(const Plan& plan, std::size_t tasks,
                 const deco::cloud::Catalog& catalog,
                 deco::cloud::RegionId home) {
  if (plan.size() != tasks) return false;
  for (const auto& p : plan.placements) {
    if (p.vm_type >= catalog.type_count() || p.region != home) return false;
  }
  return true;
}

namespace {

/// Seed of the warm-up input (the pool's input 0).  It is fixed, so set-up
/// serves the same warm-up request whatever the workload seed, and
/// setup_s does not follow the seed's first input.
constexpr std::uint64_t kWarmUpSeed = 12;

/// The pool proper: every input drawn from `seed`.
std::vector<Input> seeded_inputs(const std::string& name, std::uint64_t seed,
                                 bool smoke) {
  if (name == "plan-screened") {
    return plan_inputs(seed,
                       {AppType::kMontage, AppType::kLigo,
                        AppType::kEpigenomics},
                       smoke ? 1 : 32, DeadlineBand{});
  }
  if (name == "plan-fallback") {
    // The frontier band just below bench_common's tight bound
    // (1.25 x D_min): here the screened search finds nothing that verifies
    // and re-solves in full MC on every solve, while full MC still finds
    // feasible plans.  README.md has the probe behind it.
    return plan_inputs(seed, {AppType::kCyberShake}, smoke ? 1 : 36,
                       DeadlineBand{false, 1.17, 1.20});
  }
  if (name == "replan-reactive") {
    return reactive_inputs(seed, smoke ? 1 : 48);
  }
  if (name == "solve-wlog") {
    return wlog_inputs(seed, smoke ? 1 : 12);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

std::vector<Input> make_inputs(const WorkloadOptions& options) {
  std::vector<Input> inputs =
      seeded_inputs(options.name, options.seed, options.smoke);
  std::vector<Input> warm_up =
      seeded_inputs(options.name, kWarmUpSeed, /*smoke=*/true);
  warm_up.front().label += " (warm-up input, fixed seed)";
  inputs.insert(inputs.begin(), std::move(warm_up.front()));
  return inputs;
}

std::unique_ptr<Workload> make_workload(const WorkloadOptions& options,
                                        const std::vector<Input>& inputs) {
  if (options.name == "plan-screened" || options.name == "plan-fallback") {
    return std::make_unique<PlanWorkload>(options, inputs);
  }
  if (options.name == "replan-reactive") {
    return std::make_unique<ReactiveWorkload>(options, inputs);
  }
  if (options.name == "solve-wlog") {
    return std::make_unique<WlogWorkload>(options, inputs);
  }
  throw std::invalid_argument("unknown workload '" + options.name + "'");
}

}  // namespace planbench
