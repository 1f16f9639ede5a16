// planbench — the end-to-end planning benchmark.  See README.md.
//
//   planbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --root <checkout> --work-dir <dir> [--smoke]
//             [--estimator auto|mc|analytic]
//
// One closed-loop client serves requests from the workload's input pool
// until --seconds have passed and every input has been served at least once.
// The last line of standard output is the JSON result; the lines before it
// are the host record and every metric by name with its unit.
//
// --trace 0 (untraced): the engine's observability stays off and the result
// carries the end-to-end metrics.  --trace 1: every input is served twice in
// a row, untraced then traced (obs::Registry and obs::TraceCollector on), and
// the result carries the per-layer metrics of the traced requests plus the
// tracing overhead; the span tree is written to <work-dir>/spans.json.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "core/estimator.hpp"
#include "core/evaluator.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"
#include "vgpu/device.hpp"
#include "workloads.hpp"

namespace planbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Layer-sum gate: the top-level spans of a traced request must cover its
/// wall-clock time to within this share plus kGapSlackMs.
constexpr double kGapShare = 0.02;
constexpr double kGapSlackMs = 0.1;
/// Engine trace events kept in spans.json (the rest are counted as dropped).
constexpr std::size_t kMaxObsEvents = 200000;
/// Seed reserved for confirming claims: never used while tuning a change.
constexpr std::uint64_t kHeldOutSeed = 2015;
/// Set-ups per run; setup_s is their median.  --smoke does one.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string work_dir;
  bool smoke = false;
  deco::core::EstimatorMode estimator = deco::core::EstimatorMode::kAuto;
};

const char* kUsage =
    "usage: planbench --workload <name> --seed <n> --seconds <s> "
    "--trace <0|1>\n"
    "                 --root <checkout> --work-dir <dir> [--smoke]\n"
    "                 [--estimator auto|mc|analytic]\n";

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (key == "--workload") args.workload = value;
      else if (key == "--seed") args.seed = std::stoull(value);
      else if (key == "--seconds") args.seconds = std::stod(value);
      else if (key == "--trace") args.trace = value == "1";
      else if (key == "--root") args.root = value;
      else if (key == "--work-dir") args.work_dir = value;
      else if (key == "--estimator") {
        const auto mode = deco::core::parse_estimator_mode(value);
        if (!mode) return std::nullopt;
        args.estimator = *mode;
      } else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end() ||
      args.work_dir.empty() || !(args.seconds >= 0)) {
    return std::nullopt;
  }
  return args;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolation percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A JSON number with all its digits (0 for a non-finite value).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

/// CPU seconds used so far by each live thread of this process, by tid.
std::map<int, double> thread_cpu_s() {
  std::map<int, double> out;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream file(entry.path() / "stat");
    std::string line;
    std::getline(file, line);
    // Fields after "(comm)": state is field 3, utime and stime 14 and 15.
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 1));
    std::string skip;
    for (int field = 3; field <= 13; ++field) rest >> skip;
    double utime = 0;
    double stime = 0;
    if (!(rest >> utime >> stime)) continue;
    out[std::stoi(entry.path().filename().string())] = (utime + stime) / tick;
  }
  return out;
}

/// Steal and total ticks of the whole machine so far (/proc/stat "cpu" line):
/// time the hypervisor gave this VM's CPUs to someone else.
std::pair<double, double> cpu_steal_ticks() {
  std::ifstream file("/proc/stat");
  std::string cpu;
  double steal = 0;
  double total = 0;
  file >> cpu;
  for (int field = 1; field <= 8; ++field) {
    double ticks = 0;
    if (!(file >> ticks)) break;
    total += ticks;
    if (field == 8) steal = ticks;
  }
  return {steal, total};
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything the traced requests add up to.
struct LayerTotals {
  std::size_t requests = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> hist_ms;
  std::map<std::string, double> span_ms;
  std::size_t fallback_requests = 0;
  double max_gap_ms = 0;

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double hist(const std::string& name) const {
    const auto it = hist_ms.find(name);
    return it == hist_ms.end() ? 0 : it->second;
  }
  double span(const std::string& name) const {
    const auto it = span_ms.find(name);
    return it == span_ms.end() ? 0 : it->second;
  }
};

/// What report.json says about one input of the pool.
struct InputRecord {
  std::vector<double> request_ms;  ///< every untraced request
  std::size_t solves = 0;          ///< solver calls of its first request
  double ref_cost = 0;             ///< reference re-score of its plan
  double ref_deadline_prob = 0;
  double run_cost = 0;  ///< reactive only
  bool run_met = false;
  std::uint64_t screen_fallbacks = 0;  ///< traced requests, summed
};

/// Quality of the returned plans, re-scored by the reference evaluator, and
/// of the reactive runs; first pass over the pool only, so it is a pure
/// function of the seed.
struct Quality {
  std::size_t plans = 0;
  double plan_cost = 0;
  std::size_t plans_feasible = 0;
  std::size_t runs = 0;
  double run_cost = 0;
  std::size_t runs_met = 0;
};

class Runner {
 public:
  explicit Runner(const Args& args) : args_(args) {}

  int run();

 private:
  void set_up();
  void serve(std::size_t item, bool traced);
  void reference(const Outcome& out, InputRecord& record);
  std::string inputs_json() const;
  void check_layers(std::uint64_t id, double request_ms,
                    const deco::obs::MetricsSnapshot& snap);
  void fail_check(const std::string& what);
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;
  std::string host_record() const;

  const Args& args_;
  std::unique_ptr<Workload> workload_;
  std::vector<double> setup_s_;
  /// Peak RSS after the first set-up (input preparation and warm-up
  /// request included).
  double setup_rss_mb_ = 0;
  std::vector<double> untraced_ms_;
  std::vector<double> traced_ms_;
  std::vector<double> solve_ms_;
  std::vector<std::optional<std::string>> signatures_;
  std::vector<InputRecord> inputs_;
  Quality quality_;
  LayerTotals layers_;
  std::uint64_t next_request_ = 1;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::string first_error_;
  bool correct_ = true;
  std::vector<std::string> check_failures_;
  std::map<int, double> thread_cpu_at_start_;
  std::size_t busy_threads_ = 0;
  double steal_frac_ = 0;
};

void Runner::set_up() {
  WorkloadOptions options;
  options.name = args_.workload;
  options.seed = args_.seed;
  options.repo_root = args_.root;
  options.input_dir = args_.work_dir + "/inputs";
  options.smoke = args_.smoke;
  options.estimator = args_.estimator;
  std::filesystem::create_directories(options.input_dir);
  // Input preparation (workflow instances and their deadlines) is not part
  // of set-up: it runs once, untimed.
  const std::vector<Input> inputs = make_inputs(options);
  const int setups = args_.smoke ? 1 : kSetups;
  for (int s = 0; s < setups; ++s) {
    workload_.reset();
    const auto t0 = Clock::now();
    workload_ = make_workload(options, inputs);
    // Warm-up: one request, part of set-up (pools and caches fill here).
    workload_->log().set_request(0);
    const Outcome warm = workload_->request(0);
    setup_s_.push_back(ms_since(t0) / 1000.0);
    if (s == 0) setup_rss_mb_ = peak_rss_mb();
    workload_->log().drop_request(0);
    if (!warm.error.empty()) {
      throw std::runtime_error("warm-up request failed: " + warm.error);
    }
  }
  signatures_.assign(workload_->pool_size(), std::nullopt);
  inputs_.assign(workload_->pool_size(), InputRecord{});
}

void Runner::fail_check(const std::string& what) {
  correct_ = false;
  if (check_failures_.size() < 8) check_failures_.push_back(what);
}

void Runner::reference(const Outcome& out, InputRecord& record) {
  // Independent reference verifier: fixed-seed full Monte Carlo with many
  // more worlds than the solver's, judged on P(makespan <= D) >= q with no
  // guard band or deadline de-rating.
  deco::core::EvalOptions ref;
  ref.mc_iterations = 2000;
  ref.seed = 0x5EEDDEC0ULL;
  ref.estimator = deco::core::EstimatorMode::kMc;
  ref.feasibility_margin = 0;
  ref.quantile_safety = 1.0;
  deco::core::TaskTimeEstimator estimator(workload_->catalog(),
                                          workload_->store());
  deco::core::PlanEvaluator evaluator(out.wf, estimator,
                                      workload_->engine().backend(), ref);
  const auto eval = evaluator.evaluate(out.plan, out.req);
  record.solves = out.solve_ms.size();
  record.ref_cost = eval.mean_cost;
  record.ref_deadline_prob = eval.deadline_prob;
  record.run_cost = out.run_cost;
  record.run_met = out.run_met;
  ++quality_.plans;
  quality_.plan_cost += eval.mean_cost;
  quality_.plans_feasible += eval.deadline_prob >= out.req.quantile ? 1 : 0;
  if (out.reactive) {
    ++quality_.runs;
    quality_.run_cost += out.run_cost;
    quality_.runs_met += out.run_met ? 1 : 0;
  }
}

void Runner::check_layers(std::uint64_t id, double request_ms,
                          const deco::obs::MetricsSnapshot& snap) {
  SpanLog& log = workload_->log();
  const double gap = std::abs(request_ms - log.top_level_ms(id));
  layers_.max_gap_ms = std::max(layers_.max_gap_ms, gap);
  if (gap > kGapShare * request_ms + kGapSlackMs) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "layer-sum gate: request %llu spans leave %.3f of %.3f ms",
                  static_cast<unsigned long long>(id), gap, request_ms);
    fail_check(buf);
  }
  double search_ms = 0;
  for (const char* name : {"search.generic_ms", "search.astar_ms"}) {
    const auto it = snap.histograms.find(name);
    if (it != snap.histograms.end()) search_ms += it->second.sum_ms;
  }
  const double solve_ms = log.total_ms(id, workload_->solve_span());
  if (search_ms > solve_ms + 1e-3) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "layer-sum gate: request %llu search %.3f ms > %s %.3f ms",
                  static_cast<unsigned long long>(id), search_ms,
                  workload_->solve_span(), solve_ms);
    fail_check(buf);
  }
  for (const std::string& name : workload_->span_names()) {
    layers_.span_ms[name] += log.total_ms(id, name);
  }
}

void Runner::serve(std::size_t item, bool traced) {
  auto& registry = deco::obs::Registry::instance();
  auto& collector = deco::obs::TraceCollector::instance();
  SpanLog& log = workload_->log();
  const std::uint64_t id = next_request_++;
  log.set_request(id);
  if (traced) {
    registry.reset();
    collector.clear();
    registry.set_enabled(true);
    collector.set_enabled(true);
  }
  Outcome out;
  const auto t0 = Clock::now();
  try {
    out = workload_->request(item);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  const double request_ms = ms_since(t0);
  if (traced) {
    registry.set_enabled(false);
    collector.set_enabled(false);
  }
  ++attempted_;
  if (!out.error.empty() || out.malformed) {
    ++failed_;
    if (first_error_.empty()) {
      first_error_ = out.malformed ? "malformed plan" : out.error;
    }
    if (out.malformed) fail_check("malformed plan on input " +
                                  std::to_string(item));
  } else if (!signatures_[item]) {
    signatures_[item] = out.signature();
    reference(out, inputs_[item]);
  } else if (*signatures_[item] != out.signature()) {
    fail_check("input " + std::to_string(item) +
               " returned a different result on a repeat");
  }

  if (!traced) {
    untraced_ms_.push_back(request_ms);
    inputs_[item].request_ms.push_back(request_ms);
    solve_ms_.insert(solve_ms_.end(), out.solve_ms.begin(), out.solve_ms.end());
    log.drop_request(id);
    return;
  }
  traced_ms_.push_back(request_ms);
  const deco::obs::MetricsSnapshot snap = registry.snapshot();
  ++layers_.requests;
  for (const auto& [name, value] : snap.counters) {
    layers_.counters[name] += value;
  }
  for (const auto& [name, hist] : snap.histograms) {
    layers_.hist_ms[name] += hist.sum_ms;
  }
  const auto fallbacks = snap.counters.find("search.screen_fallbacks");
  if (fallbacks != snap.counters.end() && fallbacks->second > 0) {
    ++layers_.fallback_requests;
    inputs_[item].screen_fallbacks += fallbacks->second;
  }
  check_layers(id, request_ms, snap);
  log.adopt(collector.snapshot(), id, kMaxObsEvents);
  collector.clear();
}

std::vector<Metric> Runner::end_to_end() const {
  const double plans = static_cast<double>(quality_.plans);
  std::vector<Metric> m = {
      {"setup_s", percentile(setup_s_, 50), "s"},
      {"request_s.p50", percentile(untraced_ms_, 50) / 1000.0, "s"},
      {"plan_cost_usd", ratio(quality_.plan_cost, plans), "USD"},
      {"plan_feasible_frac",
       ratio(static_cast<double>(quality_.plans_feasible), plans), "fraction"},
      {"setup_rss_mb", setup_rss_mb_, "MB"},
  };
  return m;
}

std::vector<Metric> Runner::per_layer() const {
  const LayerTotals& t = layers_;
  const double n = static_cast<double>(t.requests);
  const auto per_req = [n](double total) { return ratio(total, n); };
  const auto total = [&t](const char* name) {
    return static_cast<double>(t.counter(name));
  };
  const auto count = [&](const char* name) { return per_req(total(name)); };
  double traced_total_ms = 0;
  for (const double ms : traced_ms_) traced_total_ms += ms;
  const double seg_hits = total("eval.cache.segment_hits");
  const double seg_lookups = seg_hits + total("eval.cache.segment_misses");
  const double plan_hits = total("eval.cache.plan_hits");
  const double plan_lookups = plan_hits + total("eval.cache.plan_misses");
  const double accepted = total("eval.screen.accepted");
  const double rejected = total("eval.screen.rejected");
  const double screened =
      accepted + rejected + total("eval.screen.escalated");
  const double untraced_p50 = percentile(untraced_ms_, 50);
  const double traced_p50 = percentile(traced_ms_, 50);
  const double reactive_self =
      t.span("bench.reactive_run") - (t.span("bench.reactive_run") > 0
                                          ? t.span("bench.schedule")
                                          : 0);
  const double runs = static_cast<double>(quality_.runs);

  std::vector<Metric> m = {
      // Bases and the benchmark's own checks.
      {"bench.requests_traced", n, "count"},
      {"bench.layer_gap_ms.max", t.max_gap_ms, "ms"},
      {"bench.untraced_request_ms.p50", untraced_p50, "ms"},
      {"bench.traced_request_ms.p50", traced_p50, "ms"},
      {"bench.trace_overhead", ratio(traced_p50, untraced_p50), "ratio"},
      // workflow
      {"bench.load_dax_ms", per_req(t.span("bench.load_dax")), "ms/req"},
      // wms
      {"bench.plan_workflow_ms", per_req(t.span("bench.plan_workflow")),
       "ms/req"},
      {"bench.reactive_self_ms", per_req(reactive_self), "ms/req"},
      {"wms.reactive.replans", count("wms.reactive.replans"), "count/req"},
      {"wms.reactive.segments", count("wms.reactive.segments"), "count/req"},
      {"bench.run_cost_usd", ratio(quality_.run_cost, runs), "USD"},
      {"bench.run_met_frac",
       ratio(static_cast<double>(quality_.runs_met), runs), "fraction"},
      // core search
      {"bench.schedule_ms", per_req(t.span("bench.schedule")), "ms/req"},
      {"bench.solve_call_ms.p50", percentile(solve_ms_, 50), "ms"},
      {"bench.solve_call_ms.p90", percentile(solve_ms_, 90), "ms"},
      {"search.generic_ms", per_req(t.hist("search.generic_ms")), "ms/req"},
      {"search.astar_ms", per_req(t.hist("search.astar_ms")), "ms/req"},
      {"search.states_evaluated", count("search.states_evaluated"),
       "count/req"},
      {"search.waves", count("search.waves"), "count/req"},
      {"search.duplicate_hits", count("search.duplicate_hits"), "count/req"},
      {"search.eval_stall_ms", per_req(t.hist("search.eval_stall_ms")),
       "ms/req"},
      {"search.screen_fallbacks", count("search.screen_fallbacks"),
       "count/req"},
      {"bench.fallback_request_frac",
       per_req(static_cast<double>(t.fallback_requests)), "fraction"},
      // core evaluator
      {"bench.final_eval_ms", per_req(t.span("bench.final_eval")), "ms/req"},
      {"eval.batch_ms", per_req(t.hist("eval.batch_ms")), "ms/req"},
      {"eval.stage_ms", per_req(t.hist("eval.stage_ms")), "ms/req"},
      {"eval.kernel_ms", per_req(t.hist("eval.kernel_ms")), "ms/req"},
      {"eval.plans", count("eval.plans"), "count/req"},
      {"eval.task_samples", count("eval.task_samples"), "count/req"},
      // core evaluator caches
      {"eval.cache.segment_lookups", per_req(seg_lookups), "count/req"},
      {"eval.cache.segment_hit_ratio", ratio(seg_hits, seg_lookups), "ratio"},
      {"eval.cache.plan_lookups", per_req(plan_lookups), "count/req"},
      {"eval.cache.plan_hit_ratio", ratio(plan_hits, plan_lookups), "ratio"},
      // core screen
      {"eval.screen.screened", per_req(screened), "count/req"},
      {"eval.screen.accepted", per_req(accepted), "count/req"},
      {"eval.screen.rejected", per_req(rejected), "count/req"},
      {"eval.screen.escalated", count("eval.screen.escalated"), "count/req"},
      {"eval.screen.decided_ratio", ratio(accepted + rejected, screened),
       "ratio"},
      {"eval.qmc.iterations", count("eval.qmc.iterations"), "count/req"},
      {"eval.screen.full_mc_verifications",
       count("eval.screen.full_mc_verifications"), "count/req"},
      // vgpu
      {"vgpu.launches", count("vgpu.launches"), "count/req"},
      {"vgpu.chunks", count("vgpu.chunks"), "count/req"},
      {"vgpu.steals", count("vgpu.steals"), "count/req"},
      // wlog
      {"bench.solve_program_ms", per_req(t.span("bench.solve_program")),
       "ms/req"},
      {"wlog.parse_ms", per_req(t.hist("wlog.parse_ms")), "ms/req"},
      {"wlog.translate_ms", per_req(t.hist("wlog.translate_ms")), "ms/req"},
      {"wlog.vm.instructions", count("wlog.vm.instructions"), "count/req"},
      {"wlog.vm.calls", count("wlog.vm.calls"), "count/req"},
      {"wlog.vm.segment_worlds", count("wlog.vm.segment_worlds"), "count/req"},
      // sim, cloud
      {"sim.execute_ms", per_req(t.hist("sim.execute_ms")), "ms/req"},
      {"sim.execute_share", ratio(t.hist("sim.execute_ms"), traced_total_ms),
       "fraction"},
      {"sim.task_attempts", count("sim.task_attempts"), "count/req"},
      {"cloud.api.calls", count("cloud.api.calls"), "count/req"},
      {"cloud.api.retries", count("cloud.api.retries"), "count/req"},
  };
  return m;
}

std::string Runner::host_record() const {
  std::size_t workers = 0;
  if (const auto* vgpu = dynamic_cast<const deco::vgpu::VirtualGpuBackend*>(
          &workload_->engine().backend())) {
    workers = vgpu->worker_count();
  }
  std::ostringstream out;
  out << "{\"nproc\": " << nproc()
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"vgpu_workers\": " << workers
      << ", \"busy_threads\": " << busy_threads_
      << ", \"steal_frac\": " << json_number(steal_frac_)
      << ", \"build_type\": \"" << PLANBENCH_BUILD_TYPE << "\""
      << ", \"obs_compiled_in\": "
      << (deco::obs::kCompiledIn ? "true" : "false")
      << ", \"workload\": \"" << args_.workload << "\""
      << ", \"seed\": " << args_.seed
      << ", \"held_out_seed\": " << kHeldOutSeed
      << ", \"estimator\": \"" << deco::core::to_string(args_.estimator) << "\""
      << ", \"trace\": " << (args_.trace ? 1 : 0) << "}";
  return out.str();
}

std::string Runner::inputs_json() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const InputRecord& r = inputs_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"item\": " << i << ", \"input\": \""
        << deco::obs::json_escape(workload_->label(i))
        << "\", \"solves\": " << r.solves
        << ", \"ref_cost_usd\": " << json_number(r.ref_cost)
        << ", \"ref_deadline_prob\": " << json_number(r.ref_deadline_prob)
        << ", \"screen_fallbacks\": " << r.screen_fallbacks;
    if (quality_.runs > 0) {
      out << ", \"run_cost_usd\": " << json_number(r.run_cost)
          << ", \"run_met\": " << (r.run_met ? "true" : "false");
    }
    out << ", \"request_ms\": [";
    for (std::size_t k = 0; k < r.request_ms.size(); ++k) {
      out << (k ? ", " : "") << json_number(r.request_ms[k]);
    }
    out << "]}";
  }
  out << "]";
  return out.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}";
  return out.str();
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Runner::run() {
  auto& registry = deco::obs::Registry::instance();
  auto& collector = deco::obs::TraceCollector::instance();
  registry.set_enabled(false);
  collector.set_enabled(false);

  set_up();
  const std::size_t pool = workload_->pool_size();
  thread_cpu_at_start_ = thread_cpu_s();
  const auto steal_at_start = cpu_steal_ticks();
  const auto start = Clock::now();
  const double budget_ms = args_.seconds * 1000.0;
  for (std::size_t i = 0; i < pool || ms_since(start) < budget_ms; ++i) {
    serve(i % pool, /*traced=*/false);
    if (args_.trace) serve(i % pool, /*traced=*/true);
  }
  const double measured_s = ms_since(start) / 1000.0;
  const auto steal_at_end = cpu_steal_ticks();
  steal_frac_ = ratio(steal_at_end.first - steal_at_start.first,
                      steal_at_end.second - steal_at_start.second);
  // Threads that were on a CPU for at least 1% of the measured time: the
  // client plus the vgpu participants that actually took blocks.
  for (const auto& [tid, cpu_s] : thread_cpu_s()) {
    const auto before = thread_cpu_at_start_.find(tid);
    const double used =
        cpu_s - (before == thread_cpu_at_start_.end() ? 0 : before->second);
    if (used >= 0.01 * measured_s) ++busy_threads_;
  }

  const std::vector<Metric> e2e = end_to_end();
  const std::vector<Metric> layers = per_layer();
  if (args_.trace && !deco::obs::kCompiledIn) {
    fail_check("obs instrumentation is compiled out: no per-layer split");
  }

  const std::string host = host_record();
  std::printf("host: %s\n", host.c_str());
  std::printf("workload %s, seed %llu: %zu requests (%zu failed) over %.2f s,"
              " pool of %zu inputs, %zu set-ups\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), attempted_, failed_,
              measured_s, pool, setup_s_.size());
  std::printf("set-up times (s):");
  for (const double s : setup_s_) std::printf(" %.4f", s);
  std::printf("\n");
  if (!first_error_.empty()) {
    std::printf("first failure: %s\n", first_error_.c_str());
  }
  std::vector<Metric> report = e2e;
  // Printed, not gated: the tail moves with the host more than the median.
  report.push_back({"request_s.p90", percentile(untraced_ms_, 90) / 1000.0,
                    "s"});
  report.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  report.push_back({"solve_s.p50", percentile(solve_ms_, 50) / 1000.0, "s"});
  report.push_back({"solve_s.p90", percentile(solve_ms_, 90) / 1000.0, "s"});
  report.push_back({"failed_frac",
                    ratio(static_cast<double>(failed_),
                          static_cast<double>(attempted_)),
                    "fraction"});
  if (quality_.runs > 0) {
    const double runs = static_cast<double>(quality_.runs);
    report.push_back({"replan_s.p50", percentile(solve_ms_, 50) / 1000.0, "s"});
    report.push_back({"replan_s.p90", percentile(solve_ms_, 90) / 1000.0, "s"});
    report.push_back({"run_cost_usd", ratio(quality_.run_cost, runs), "USD"});
    report.push_back({"run_met_frac",
                      ratio(static_cast<double>(quality_.runs_met), runs),
                      "fraction"});
  }
  print_table(args_.trace ? "end-to-end (untraced requests of the traced run):"
                          : "end-to-end:",
              report);
  if (args_.trace) {
    print_table("per layer (traced requests):", layers);
    std::printf("layer-sum gate: %s (largest gap %.3f ms; tolerance %.0f%% "
                "+ %.1f ms)\n",
                check_failures_.empty() ? "pass" : "FAIL", layers_.max_gap_ms,
                kGapShare * 100, kGapSlackMs);
  }
  for (const std::string& failure : check_failures_) {
    std::printf("check failed: %s\n", failure.c_str());
  }

  // Every output, host record included, also lands in <work-dir>.
  {
    std::ofstream file(args_.work_dir + "/report.json");
    file << "{\"host\": " << host << ",\n \"end_to_end\": "
         << metrics_json(report) << ",\n \"per_layer\": "
         << metrics_json(layers) << ",\n \"correct\": "
         << (correct_ ? "true" : "false") << ",\n \"inputs\": "
         << inputs_json() << "}\n";
  }
  if (args_.trace) {
    std::ofstream file(args_.work_dir + "/spans.json");
    workload_->log().write(file);
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct_ ? "true" : "false", attempted_, failed_,
              metrics_json(args_.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace planbench

int main(int argc, char** argv) {
  const auto args = planbench::parse_args(argc, argv);
  if (!args) {
    std::fputs(planbench::kUsage, stderr);
    return 2;
  }
  try {
    planbench::Runner runner(*args);
    return runner.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "planbench: %s\n", e.what());
    return 1;
  }
}
