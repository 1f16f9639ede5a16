// Golden-trace regression tests: two canonical observability captures —
// the trace + metrics of a Montage-25 plan evaluation and the timeline of
// one fault-injected executor run — compared structurally against committed
// golden files.  Timestamps and durations are excluded; what is pinned is
// the event structure (phase, category, name, args, ordering) and the
// deterministic counter values, so any unintended change to what the
// instrumentation emits (or to the engine behaviour it reflects) fails
// loudly here.
//
// Regenerate after an intentional change with:
//   DECO_REGEN_GOLDEN=1 ctest -R Golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "tests/core/test_fixtures.hpp"
#include "util/rng.hpp"
#include "workflow/generators.hpp"

namespace deco::obs {
namespace {

using core::testing::ec2;
using core::testing::store;

const std::string kGoldenDir = std::string(DECO_TEST_DATA_DIR) + "/golden/";

/// One line per event: phase, category, name, args — everything except the
/// wall-clock fields.  `tracks` additionally pins pid/tid (used for the
/// simulator timeline, where both are virtual and deterministic).
std::string normalize(const std::vector<TraceEvent>& events, bool tracks) {
  std::ostringstream out;
  for (const TraceEvent& e : events) {
    out << e.phase << ' ' << (e.cat.empty() ? "-" : e.cat) << ' ' << e.name;
    if (tracks) out << " pid=" << e.pid << " tid=" << e.tid;
    for (const TraceArg& a : e.args) out << ' ' << a.key << '=' << a.value;
    out << '\n';
  }
  return out.str();
}

/// Counters in full; histograms by name and count only (sums are timing).
std::string normalize(const MetricsSnapshot& snap) {
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    out << "counter " << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    out << "gauge " << name << ' ' << value << '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    out << "hist " << name << " count " << h.count << '\n';
  }
  return out.str();
}

void check_golden(const std::string& file, const std::string& actual) {
  const std::string path = kGoldenDir + file;
  if (std::getenv("DECO_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << actual;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with DECO_REGEN_GOLDEN=1)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "structure drifted from " << path
      << " — if intentional, regenerate with DECO_REGEN_GOLDEN=1";
}

class GoldenTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::instance().reset();
    Registry::instance().set_enabled(true);
    TraceCollector::instance().clear();
    TraceCollector::instance().set_enabled(true);
  }
  void TearDown() override {
    Registry::instance().set_enabled(false);
    Registry::instance().reset();
    TraceCollector::instance().set_enabled(false);
    TraceCollector::instance().clear();
  }
};

TEST_F(GoldenTraceTest, Montage25PlanEvaluationStructureIsStable) {
  if (!kCompiledIn) {
    GTEST_SKIP() << "instrumentation compiled out (DECO_OBS=OFF)";
  }
  // ~25-task Montage: width 6 with this generator and seed.
  util::Rng wf_rng(17);
  const auto wf = workflow::make_montage_by_width(6, wf_rng);
  core::TaskTimeEstimator est(ec2(), store());
  vgpu::SerialBackend backend;
  core::EvalOptions opt;
  opt.mc_iterations = 200;
  core::PlanEvaluator eval(wf, est, backend, opt);
  const core::ProbDeadline req{0.9, 3000};

  sim::Plan plan = sim::Plan::uniform(wf.task_count(), 1);
  for (std::size_t t = 0; t < wf.task_count(); t += 3) plan[t].vm_type = 2;
  const std::vector<sim::Plan> batch{plan, sim::Plan::uniform(wf.task_count(), 0)};
  (void)eval.evaluate_batch(batch, req);  // cold caches
  (void)eval.evaluate(plan, req);         // segment-cache hit path

  check_golden("montage_eval_trace.txt",
               normalize(TraceCollector::instance().snapshot(), false));
  check_golden("montage_eval_metrics.txt",
               normalize(Registry::instance().snapshot()));
}

TEST_F(GoldenTraceTest, FaultInjectedRunTimelineIsStable) {
  util::Rng wf_rng(12);
  const auto wf = workflow::make_montage(1, wf_rng);
  sim::FailureModelOptions fm;
  fm.crash_mtbf_s = 1200;
  fm.task_failure_prob = 0.08;
  fm.straggler_prob = 0.05;
  const sim::FailureModel failures(fm);
  sim::ExecutorOptions options;
  options.failures = &failures;
  util::Rng rng(2015);
  const auto result = sim::simulate_execution(
      wf, sim::Plan::uniform(wf.task_count(), 1), ec2(), rng, options);
  ASSERT_GT(result.failures.total_disruptions(), 0u);

  check_golden("fault_run_timeline.txt",
               normalize(execution_timeline(wf, result, &ec2()), true));
  if (kCompiledIn) {
    check_golden("fault_run_metrics.txt",
                 normalize(Registry::instance().snapshot()));
  }
}

}  // namespace
}  // namespace deco::obs
