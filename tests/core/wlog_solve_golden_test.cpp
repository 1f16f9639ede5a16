// Golden pin of end-to-end WLog solves: both shipped scheduling programs
// (segment-translated and A*) on the paper workflows at 40 and 14 tasks,
// across both engines and with segments on and off.  Every entry records the chosen assignment,
// the goal value as a hex float, feasibility and the number of evaluated
// states, so any change to RNG consumption, enumeration order, clause order
// or floating-point order shows up here.  Regenerate only after an
// intentional change to the declarative solver's results, with:
//   DECO_REGEN_GOLDEN=1 ctest -R WlogSolveFingerprints
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/deco.hpp"
#include "tests/core/test_fixtures.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::store;

std::string read_asset(const std::string& name) {
  std::ifstream in(std::string(DECO_TEST_DATA_DIR) + "/../../assets/" + name);
  EXPECT_TRUE(in.good()) << "missing asset " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string fingerprint(const WlogSolveResult& r, std::size_t tasks) {
  std::ostringstream out;
  out << (r.ok ? "ok" : "fail");
  if (!r.ok) return out.str() + " " + r.error;
  char hex[64];
  std::snprintf(hex, sizeof(hex), "%a", r.goal_value);
  out << ' ' << hex << " feasible=" << r.feasible
      << " states=" << r.stats.states_evaluated << " plan=";
  for (std::size_t t = 0; t < tasks && t < r.plan.size(); ++t) {
    out << r.plan[t].vm_type;
  }
  return out.str();
}

TEST(WlogSolveGoldenTest, WlogSolveFingerprintsMatchGolden) {
  const std::pair<const char*, std::string> programs[] = {
      {"scheduling", read_asset("scheduling.wlog")},
      {"scheduling_astar", read_asset("scheduling_astar.wlog")}};
  std::ostringstream lines;
  for (const auto& [name, source] : programs) {
    for (const workflow::AppType app :
         {workflow::AppType::kMontage, workflow::AppType::kLigo,
          workflow::AppType::kEpigenomics}) {
      for (const std::size_t tasks : {std::size_t{40}, std::size_t{14}}) {
        util::Rng rng(tasks);
        const auto wf = workflow::make_workflow(app, tasks, rng);
        for (const char* exec : {"vm", "interp"}) {
          for (const bool segments : {true, false}) {
            // Without segments every world re-runs the path enumeration in
            // the engine; at 40 tasks that costs seconds to a minute per
            // solve, so the engine-only rows use the small files and fewer
            // worlds per state.
            if (!segments && tasks > 14) continue;
            DecoOptions opt;
            opt.backend = "serial";
            opt.wlog_exec = exec;
            opt.wlog_segments = segments;
            if (!segments) opt.wlog_mc_iterations = 8;
            Deco engine(ec2(), store(), opt);
            const WlogSolveResult r = engine.solve_program(source, wf);
            lines << name << ' ' << workflow::to_string(app) << '-' << tasks
                  << ' ' << exec << ' '
                  << (segments ? "seg" : "noseg-mc8") << ' '
                  << fingerprint(r, wf.task_count()) << '\n';
          }
        }
      }
    }
  }
  const std::string path =
      std::string(DECO_TEST_DATA_DIR) + "/golden/wlog_solve_fingerprints.txt";
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
      << "WLog solve results drifted from " << path
      << " — if intentional, regenerate with DECO_REGEN_GOLDEN=1";
}

}  // namespace
}  // namespace deco::core
