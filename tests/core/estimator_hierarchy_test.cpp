// Three-tier estimator hierarchy (analytic screen -> adaptive QMC -> full
// MC): mode parsing, full-MC bit-compatibility, the exact-selection
// regression pinning `auto` to the full-MC plan choice on the four paper
// workflows, distribution agreement (KS) between the analytic screen and
// the sampled evaluator, and bit-identical QMC early stopping across
// backends and worker counts, plus golden fingerprints of the evaluator's
// absolute outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheduling.hpp"
#include "tests/core/test_fixtures.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::medium_deadline;
using testing::store;

std::vector<workflow::Workflow> paper_workflows() {
  std::vector<workflow::Workflow> out;
  util::Rng rng(2015);
  out.push_back(workflow::make_montage_by_width(8, rng));
  out.push_back(workflow::make_cybershake(40, rng));
  out.push_back(workflow::make_epigenomics(40, rng));
  out.push_back(workflow::make_ligo(40, rng));
  return out;
}

/// A search-like wave of plans around one base placement (same access
/// pattern the BFS/A* drivers produce).
std::vector<sim::Plan> make_wave(const workflow::Workflow& wf,
                                 std::size_t count, util::Rng& rng) {
  std::vector<sim::Plan> plans;
  const std::size_t types = ec2().type_count();
  sim::Plan base = sim::Plan::uniform(wf.task_count(), 1);
  for (std::size_t t = 0; t < wf.task_count(); t += 7) {
    base[t].group = static_cast<std::int32_t>(t % 5);
  }
  for (std::size_t i = 0; i < count; ++i) {
    sim::Plan p = base;
    const std::size_t mutations = 1 + rng.below(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      p[rng.below(wf.task_count())].vm_type =
          static_cast<cloud::TypeId>(rng.below(types));
    }
    plans.push_back(std::move(p));
  }
  return plans;
}

TEST(EstimatorModeTest, ParsesAndRoundTrips) {
  EXPECT_EQ(parse_estimator_mode("mc"), EstimatorMode::kMc);
  EXPECT_EQ(parse_estimator_mode("analytic"), EstimatorMode::kAnalytic);
  EXPECT_EQ(parse_estimator_mode("auto"), EstimatorMode::kAuto);
  EXPECT_FALSE(parse_estimator_mode("qmc").has_value());
  EXPECT_FALSE(parse_estimator_mode("").has_value());
  for (const auto mode : {EstimatorMode::kMc, EstimatorMode::kAnalytic,
                          EstimatorMode::kAuto}) {
    EXPECT_EQ(parse_estimator_mode(to_string(mode)), mode);
  }
}

TEST(EstimatorHierarchyTest, McModeIsBitIdenticalToLegacyEvaluator) {
  util::Rng rng(11);
  const auto wf = workflow::make_montage_by_width(8, rng);
  const auto wave = make_wave(wf, 12, rng);
  const ProbDeadline req{0.9, medium_deadline(wf)};

  TaskTimeEstimator estimator(ec2(), store());
  vgpu::VirtualGpuBackend backend(2);
  EvalOptions opt;
  opt.mc_iterations = 300;
  PlanEvaluator legacy(wf, estimator, backend, opt);
  opt.estimator = EstimatorMode::kMc;
  PlanEvaluator screened(wf, estimator, backend, opt);

  const auto expect = legacy.evaluate_batch(wave, req);
  const auto got = screened.evaluate_batch_screened(wave, req);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    EXPECT_EQ(got[i].verdict, ScreenVerdict::kNone);
    EXPECT_EQ(got[i].eval.feasible, expect[i].feasible);
    EXPECT_EQ(got[i].eval.mean_cost, expect[i].mean_cost);
    EXPECT_EQ(got[i].eval.mean_makespan, expect[i].mean_makespan);
    EXPECT_EQ(got[i].eval.makespan_quantile, expect[i].makespan_quantile);
    EXPECT_EQ(got[i].eval.deadline_prob, expect[i].deadline_prob);
  }
  EXPECT_EQ(screened.screen_stats().screened, 0u);
}

// Exact-selection regression: on each paper workflow the tiered hierarchy
// must pick the same plan as the exhaustive full-MC search — screening may
// only skip work, never change the answer.
TEST(EstimatorHierarchyTest, AutoSelectsSamePlanAsFullMcOnPaperWorkflows) {
  for (const auto& wf : paper_workflows()) {
    const ProbDeadline req{0.9, medium_deadline(wf)};
    SchedulingOptions sopt;
    sopt.search.max_states = 48;

    TaskTimeEstimator estimator(ec2(), store());
    auto solve_with = [&](EstimatorMode mode) {
      vgpu::VirtualGpuBackend backend(2);
      EvalOptions opt;
      opt.mc_iterations = 400;
      opt.cost_model = CostModel::kBilledHours;
      opt.estimator = mode;
      SchedulingProblem problem(wf, estimator, backend, opt);
      return problem.solve(req, sopt);
    };
    const auto mc = solve_with(EstimatorMode::kMc);
    const auto tiered = solve_with(EstimatorMode::kAuto);

    ASSERT_EQ(mc.found, tiered.found) << wf.name();
    ASSERT_EQ(mc.plan.size(), tiered.plan.size()) << wf.name();
    for (std::size_t t = 0; t < mc.plan.size(); ++t) {
      EXPECT_EQ(mc.plan[t].vm_type, tiered.plan[t].vm_type)
          << wf.name() << " task " << t;
      EXPECT_EQ(mc.plan[t].group, tiered.plan[t].group)
          << wf.name() << " task " << t;
    }
    // Identical plan + final full-MC evaluation => identical numbers.
    EXPECT_EQ(mc.evaluation.mean_cost, tiered.evaluation.mean_cost)
        << wf.name();
    EXPECT_EQ(mc.evaluation.makespan_quantile,
              tiered.evaluation.makespan_quantile)
        << wf.name();
  }
}

// Distribution agreement: per plan, |P_analytic(M <= D) - P_mc(M <= D)| is
// the Kolmogorov-Smirnov distance between the screen's normal fit and the
// sampled makespan distribution evaluated at the deadline — exactly the
// point the feasibility decision reads.  Bounding its supremum over a wave
// of plans (plus mean/quantile agreement) keeps the moment propagation
// honest as the kernel evolves: if Clark's approximation drifts from what
// the sampler does, this trips before the guard band silently stops
// protecting selections.
TEST(EstimatorHierarchyTest, AnalyticScreenTracksFullMcDistributions) {
  for (const auto& wf : paper_workflows()) {
    util::Rng rng(5);
    const auto wave = make_wave(wf, 24, rng);
    const ProbDeadline req{0.9, medium_deadline(wf)};
    TaskTimeEstimator estimator(ec2(), store());
    vgpu::SerialBackend backend;
    EvalOptions opt;
    opt.mc_iterations = 2000;
    opt.cost_model = CostModel::kBilledHours;
    PlanEvaluator mc(wf, estimator, backend, opt);
    opt.estimator = EstimatorMode::kAnalytic;
    PlanEvaluator analytic(wf, estimator, backend, opt);

    const auto mc_evals = mc.evaluate_batch(wave, req);
    const auto screens = analytic.evaluate_batch_screened(wave, req);

    double ks_at_deadline = 0;
    double rel_makespan_err = 0;
    double rel_quantile_err = 0;
    for (std::size_t i = 0; i < wave.size(); ++i) {
      ks_at_deadline = std::max(
          ks_at_deadline, std::abs(screens[i].eval.deadline_prob -
                                   mc_evals[i].deadline_prob));
      rel_makespan_err +=
          std::abs(screens[i].eval.mean_makespan - mc_evals[i].mean_makespan) /
          mc_evals[i].mean_makespan;
      rel_quantile_err += std::abs(screens[i].eval.makespan_quantile -
                                   mc_evals[i].makespan_quantile) /
                          mc_evals[i].makespan_quantile;
    }
    rel_makespan_err /= static_cast<double>(wave.size());
    rel_quantile_err /= static_cast<double>(wave.size());
    EXPECT_LT(rel_makespan_err, 0.08) << wf.name();
    EXPECT_LT(rel_quantile_err, 0.08) << wf.name();
    // Well inside the z = 0.8 guard band at the probabilities deadline
    // queries live at (a 0.8 z-shift near p = 0.9 moves p by ~0.13).
    EXPECT_LT(ks_at_deadline, 0.12) << wf.name();
  }
}

// QMC early stopping must be a pure function of (seed, plan), not of the
// backend, the worker count, or which other plans share the batch: the
// same escalated plan must report the same iteration count, the same
// early-stop flag and bit-identical statistics everywhere.
TEST(EstimatorHierarchyTest, QmcEarlyStopBitIdenticalAcrossBackends) {
  util::Rng rng(17);
  const auto wf = workflow::make_cybershake(40, rng);
  const auto wave = make_wave(wf, 16, rng);
  const ProbDeadline req{0.9, medium_deadline(wf)};
  TaskTimeEstimator estimator(ec2(), store());

  EvalOptions opt;
  opt.mc_iterations = 1000;
  opt.cost_model = CostModel::kBilledHours;
  opt.estimator = EstimatorMode::kAuto;

  struct Run {
    const char* label;
    std::unique_ptr<vgpu::ComputeBackend> backend;
  };
  std::vector<Run> runs;
  runs.push_back({"serial", vgpu::make_backend("serial", 0)});
  runs.push_back({"vgpu-1", vgpu::make_backend("vgpu", 1)});
  runs.push_back({"vgpu-2", vgpu::make_backend("vgpu", 2)});
  runs.push_back({"vgpu-4", vgpu::make_backend("vgpu", 4)});

  std::vector<std::vector<ScreenedEvaluation>> all;
  for (auto& run : runs) {
    PlanEvaluator evaluator(wf, estimator, *run.backend, opt);
    all.push_back(evaluator.evaluate_batch_screened(wave, req));
  }
  bool any_escalated = false;
  bool any_early = false;
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const auto& ref = all[0][i];
    any_escalated |= ref.verdict == ScreenVerdict::kEscalate;
    any_early |= ref.qmc_early_stop;
    for (std::size_t r = 1; r < all.size(); ++r) {
      const auto& got = all[r][i];
      EXPECT_EQ(got.verdict, ref.verdict) << runs[r].label << " plan " << i;
      EXPECT_EQ(got.qmc_early_stop, ref.qmc_early_stop)
          << runs[r].label << " plan " << i;
      EXPECT_EQ(got.mc_iterations_used, ref.mc_iterations_used)
          << runs[r].label << " plan " << i;
      EXPECT_EQ(got.eval.feasible, ref.eval.feasible)
          << runs[r].label << " plan " << i;
      EXPECT_EQ(got.eval.mean_cost, ref.eval.mean_cost)
          << runs[r].label << " plan " << i;
      EXPECT_EQ(got.eval.mean_makespan, ref.eval.mean_makespan)
          << runs[r].label << " plan " << i;
      EXPECT_EQ(got.eval.deadline_prob, ref.eval.deadline_prob)
          << runs[r].label << " plan " << i;
      EXPECT_EQ(got.eval.makespan_quantile, ref.eval.makespan_quantile)
          << runs[r].label << " plan " << i;
    }
  }
  // The medium deadline must actually exercise the QMC tier, else this
  // test silently degrades to comparing analytic screens.
  EXPECT_TRUE(any_escalated);
  EXPECT_TRUE(any_early);
}

// Early stopping must also be independent of batch composition: evaluating
// a plan alone and inside a wave must agree bit-for-bit (common random
// numbers — one shared rotated sequence per evaluator seed).
TEST(EstimatorHierarchyTest, QmcResultIndependentOfBatchComposition) {
  util::Rng rng(23);
  const auto wf = workflow::make_montage_by_width(8, rng);
  const auto wave = make_wave(wf, 8, rng);
  const ProbDeadline req{0.9, medium_deadline(wf)};
  TaskTimeEstimator estimator(ec2(), store());
  EvalOptions opt;
  opt.mc_iterations = 1000;
  opt.estimator = EstimatorMode::kAuto;

  vgpu::VirtualGpuBackend backend(2);
  PlanEvaluator batch_eval(wf, estimator, backend, opt);
  const auto batched = batch_eval.evaluate_batch_screened(wave, req);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    PlanEvaluator solo_eval(wf, estimator, backend, opt);
    const auto solo =
        solo_eval.evaluate_batch_screened({&wave[i], 1}, req);
    EXPECT_EQ(solo[0].verdict, batched[i].verdict) << i;
    EXPECT_EQ(solo[0].mc_iterations_used, batched[i].mc_iterations_used) << i;
    EXPECT_EQ(solo[0].eval.mean_makespan, batched[i].eval.mean_makespan) << i;
    EXPECT_EQ(solo[0].eval.deadline_prob, batched[i].eval.deadline_prob) << i;
  }
}

/// Appends the exact bit pattern of `v` (C99 hex-float) to `out`.
void put(std::ostringstream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a ", v);
  out << buf;
}

void put(std::ostringstream& out, const PlanEvaluation& e) {
  put(out, e.mean_cost);
  put(out, e.mean_makespan);
  put(out, e.makespan_quantile);
  put(out, e.deadline_prob);
  out << e.feasible << ' ';
}

/// FNV-1a, 64-bit.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

/// One fingerprint: every output of a fixed 24-plan screened wave plus one
/// bounded solve, serialized as hex floats and hashed.
std::uint64_t fingerprint(const workflow::Workflow& wf, CostModel cost,
                          EstimatorMode mode, vgpu::ComputeBackend& backend) {
  util::Rng rng(31);
  const auto wave = make_wave(wf, 24, rng);
  const ProbDeadline req{0.9, medium_deadline(wf)};
  TaskTimeEstimator estimator(ec2(), store());
  EvalOptions opt;
  // 400 = three full 128-lane tiles plus a partial one, so the Tier 1 stop
  // rule is exercised at interior boundaries and at the cap.
  opt.mc_iterations = 400;
  opt.cost_model = cost;
  opt.estimator = mode;

  std::ostringstream out;
  PlanEvaluator evaluator(wf, estimator, backend, opt);
  for (const ScreenedEvaluation& s :
       evaluator.evaluate_batch_screened(wave, req)) {
    put(out, s.eval);
    out << static_cast<int>(s.verdict) << ' ' << s.mc_iterations_used << ' '
        << s.qmc_early_stop << '\n';
  }

  SchedulingOptions sopt;
  sopt.search.max_states = 64;
  SchedulingProblem problem(wf, estimator, backend, opt);
  const SchedulingResult solved = problem.solve(req, sopt);
  out << solved.found << ' ' << solved.stats.states_evaluated << ' '
      << solved.stats.states_pruned << ' ';
  put(out, solved.evaluation);
  for (std::size_t t = 0; t < solved.plan.size(); ++t) {
    out << solved.plan[t].vm_type << ':' << solved.plan[t].region << ':'
        << solved.plan[t].group << ' ';
  }
  return fnv1a(out.str());
}

// Golden pin of absolute evaluator values across commits: the paper
// workflows x both cost models x every estimator mode, on the serial and a
// 3-worker vgpu backend (which must agree).  Regenerate only after an
// intentional numerical change, with:
//   DECO_REGEN_GOLDEN=1 ctest -R EvaluatorFingerprints
TEST(EstimatorHierarchyTest, EvaluatorFingerprintsMatchGolden) {
  std::ostringstream lines;
  for (const auto& wf : paper_workflows()) {
    for (const CostModel cost :
         {CostModel::kProrated, CostModel::kBilledHours}) {
      for (const EstimatorMode mode : {EstimatorMode::kMc,
                                       EstimatorMode::kAnalytic,
                                       EstimatorMode::kAuto}) {
        vgpu::SerialBackend serial;
        vgpu::VirtualGpuBackend vgpu3(3);
        const std::uint64_t a = fingerprint(wf, cost, mode, serial);
        const std::uint64_t b = fingerprint(wf, cost, mode, vgpu3);
        EXPECT_EQ(a, b) << wf.name() << ' ' << to_string(mode);
        char hex[32];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(a));
        lines << wf.name() << ' '
              << (cost == CostModel::kProrated ? "prorated" : "billed") << ' '
              << to_string(mode) << ' ' << hex << '\n';
      }
    }
  }
  const std::string path =
      std::string(DECO_TEST_DATA_DIR) + "/golden/eval_fingerprints.txt";
  if (std::getenv("DECO_REGEN_GOLDEN") != nullptr) {
    std::ofstream file(path);
    file << lines.str();
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "missing golden file " << path;
  std::stringstream expected;
  expected << file.rdbuf();
  EXPECT_EQ(lines.str(), expected.str())
      << "evaluator outputs drifted from " << path
      << " — if intentional, regenerate with DECO_REGEN_GOLDEN=1";
}

}  // namespace
}  // namespace deco::core
