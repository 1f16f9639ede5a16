#include "tools/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/obs.hpp"

namespace deco::tools {
namespace {

CliArgs parse(std::initializer_list<std::string> words) {
  return parse_args(std::vector<std::string>(words));
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliParseTest, CommandAndOptions) {
  const auto args = parse({"plan", "--dax", "wf.dax", "--deadline", "3600"});
  EXPECT_EQ(args.command, "plan");
  EXPECT_EQ(args.get_or("dax", ""), "wf.dax");
  EXPECT_DOUBLE_EQ(args.number_or("deadline", 0), 3600.0);
}

TEST(CliParseTest, BareFlagsAndPositionals) {
  // A word following an option is its value; a trailing option is a flag.
  const auto args = parse({"run", "extra", "--verbose"});
  EXPECT_EQ(args.command, "run");
  EXPECT_EQ(args.get_or("verbose", ""), "true");
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "extra");
}

TEST(CliParseTest, MissingOptionFallsBack) {
  const auto args = parse({"plan"});
  EXPECT_FALSE(args.get("dax").has_value());
  EXPECT_DOUBLE_EQ(args.number_or("deadline", 42), 42.0);
  EXPECT_DOUBLE_EQ(args.number_or("deadline", 0), 0.0);
}

TEST(CliParseTest, NonNumericOptionFallsBack) {
  const auto args = parse({"plan", "--deadline", "--quantile"});
  // "--deadline" immediately followed by another flag is a bare flag.
  EXPECT_DOUBLE_EQ(args.number_or("deadline", 9), 9.0);
}

TEST(CliRunTest, HelpPrintsUsage) {
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"help"}), out), 0);
  EXPECT_NE(out.str().find("usage: deco"), std::string::npos);
}

TEST(CliRunTest, NoCommandIsErrorWithUsage) {
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({}), out), 1);
  EXPECT_NE(out.str().find("usage"), std::string::npos);
}

TEST(CliRunTest, UnknownCommandFails) {
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"frobnicate"}), out), 1);
  EXPECT_NE(out.str().find("unknown command"), std::string::npos);
}

TEST(CliRunTest, GenerateWritesDax) {
  const std::string path = temp_path("cli_gen.dax");
  std::ostringstream out;
  const int rc = run_cli(parse({"generate", "--app", "pipeline", "--tasks",
                                "5", "--out", path}),
                         out);
  EXPECT_EQ(rc, 0) << out.str();
  std::ifstream check(path);
  EXPECT_TRUE(check.good());
  EXPECT_NE(out.str().find("5 tasks"), std::string::npos);
}

TEST(CliRunTest, GenerateUnknownAppFails) {
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"generate", "--app", "nope", "--out",
                           temp_path("x.dax")}),
                    out),
            1);
}

TEST(CliRunTest, GenerateMontageByDegree) {
  const std::string path = temp_path("cli_montage.dax");
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"generate", "--app", "montage", "--degree", "1",
                           "--out", path}),
                    out),
            0);
  EXPECT_NE(out.str().find("Montage-1"), std::string::npos);
}

TEST(CliRunTest, CalibrateSavesStore) {
  const std::string path = temp_path("cli_store.txt");
  std::ostringstream out;
  const int rc = run_cli(
      parse({"calibrate", "--samples", "300", "--out", path}), out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("saved 19 histograms"), std::string::npos);
}

TEST(CliRunTest, PlanRequiresDax) {
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"plan", "--deadline", "100"}), out),
            kExitInputError);
  EXPECT_NE(out.str().find("--dax"), std::string::npos);
}

TEST(CliRunTest, PlanRequiresDeadline) {
  const std::string path = temp_path("cli_plan_in.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 path}),
          gen);
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"plan", "--dax", path}), out), 1);
  EXPECT_NE(out.str().find("--deadline"), std::string::npos);
}

TEST(CliRunTest, PlanEndToEnd) {
  const std::string dax = temp_path("cli_plan.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "pipeline", "--tasks", "4",
                           "--out", dax}),
                    gen),
            0);
  std::ostringstream out;
  const int rc = run_cli(
      parse({"plan", "--dax", dax, "--deadline", "100000"}), out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("plan (Deco):"), std::string::npos);
  EXPECT_NE(out.str().find("estimated cost"), std::string::npos);
  EXPECT_NE(out.str().find("feasible"), std::string::npos);
}

TEST(CliRunTest, PlanWithFixedTypeScheduler) {
  const std::string dax = temp_path("cli_fixed.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  const int rc = run_cli(parse({"plan", "--dax", dax, "--deadline", "100000",
                                "--scheduler", "m1.large"}),
                         out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("m1.large"), std::string::npos);
}

TEST(CliRunTest, PlanUnknownSchedulerFails) {
  const std::string dax = temp_path("cli_sched.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"plan", "--dax", dax, "--deadline", "1000",
                           "--scheduler", "nope"}),
                    out),
            1);
}

TEST(CliRunTest, PlanUnknownEstimatorIsInputError) {
  const std::string dax = temp_path("cli_estimator_bad.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"plan", "--dax", dax, "--deadline", "1000",
                           "--estimator", "sobol"}),
                    out),
            kExitInputError);
  EXPECT_NE(out.str().find("unknown --estimator"), std::string::npos);
  EXPECT_NE(out.str().find("mc|analytic|auto"), std::string::npos);
}

TEST(CliRunTest, PlanEstimatorModesRunAndAreReported) {
  const std::string dax = temp_path("cli_estimator.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "pipeline", "--tasks", "4",
                           "--out", dax}),
                    gen),
            0);
  for (const std::string mode : {"mc", "analytic", "auto"}) {
    std::ostringstream out;
    const int rc = run_cli(parse({"plan", "--dax", dax, "--deadline",
                                  "100000", "--estimator", mode}),
                           out);
    EXPECT_EQ(rc, 0) << mode << ": " << out.str();
    EXPECT_NE(out.str().find("estimator=" + mode), std::string::npos)
        << out.str();
  }
  // Default is the tiered hierarchy.
  std::ostringstream out;
  ASSERT_EQ(run_cli(parse({"plan", "--dax", dax, "--deadline", "100000"}),
                    out),
            0);
  EXPECT_NE(out.str().find("estimator=auto"), std::string::npos) << out.str();
}

TEST(CliRunTest, PlanEstimatorEchoedInMetricsDump) {
  const std::string dax = temp_path("cli_estimator_obs.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "pipeline", "--tasks", "4",
                           "--out", dax}),
                    gen),
            0);
  const std::string metrics_path = temp_path("cli_estimator_metrics.json");
  std::ostringstream out;
  const int rc = run_cli(parse({"plan", "--dax", dax, "--deadline", "100000",
                                "--estimator", "mc", "--metrics-out",
                                metrics_path}),
                         out);
  ASSERT_EQ(rc, 0) << out.str();
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::stringstream mbuf;
  mbuf << metrics.rdbuf();
  EXPECT_NE(mbuf.str().find("cli.estimator.mc"), std::string::npos)
      << mbuf.str();
}

TEST(CliRunTest, RunExecutesOnSimulator) {
  const std::string dax = temp_path("cli_run.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  const int rc = run_cli(parse({"run", "--dax", dax, "--deadline", "100000",
                                "--runs", "3"}),
                         out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("executed 3 runs"), std::string::npos);
}

TEST(CliRunTest, SolveRunsWlogProgram) {
  const std::string dax = temp_path("cli_solve.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  const std::string program = temp_path("cli_solve.wlog");
  {
    std::ofstream p(program);
    p << R"(
      import(amazonec2).
      import(workflow).
      goal minimize Ct in totalcost(Ct).
      cons T in maxtime(Path,T) satisfies deadline(90%, 1000h).
      var configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
      path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T),
          configs(X,Vid,Con), Con == 1, Tp is T.
      path(X,Y,Z,Tp) :- edge(X,Z), Z \== Y, path(Z,Y,Z2,T1),
          exetime(X,Vid,T), configs(X,Vid,Con), Con == 1, Tp is T+T1.
      maxtime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set),
          max(Set, [Path,T]).
      cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T),
          configs(Tid,Vid,Con), C is T*Up*Con.
      totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
    )";
  }
  std::ostringstream out;
  const int rc = run_cli(
      parse({"solve", "--dax", dax, "--program", program}), out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("solved: goal value"), std::string::npos);
}

TEST(CliRunTest, SolveMissingProgramFails) {
  const std::string dax = temp_path("cli_noprog.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "2", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"solve", "--dax", dax, "--program",
                           "/nonexistent.wlog"}),
                    out),
            kExitInputError);
}

// Engine flags are validated like --estimator: an unknown value must not
// silently fall back to the default engine.  Each caller passes its own
// file stem: ctest runs the tests as separate, concurrent processes.
int solve_with_flag(const std::string& stem, const std::string& flag,
                    const std::string& value, std::ostringstream& out) {
  const std::string dax = temp_path(stem + ".dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "2", "--out",
                 dax}),
          gen);
  const std::string program = temp_path(stem + ".wlog");
  std::ofstream(program) << "goal minimize Ct in totalcost(Ct).\n";
  return run_cli(parse({"solve", "--dax", dax, "--program", program, flag,
                        value}),
                 out);
}

TEST(CliRunTest, SolveUnknownWlogExecIsInputError) {
  std::ostringstream out;
  EXPECT_EQ(solve_with_flag("cli_solve_exec_flag", "--wlog-exec",
                            "interpreter", out),
            kExitInputError);
  EXPECT_NE(out.str().find("error: unknown --wlog-exec 'interpreter' "
                           "(expected vm|interp)"),
            std::string::npos)
      << out.str();
}

TEST(CliRunTest, SolveUnknownWlogSegmentsIsInputError) {
  std::ostringstream out;
  EXPECT_EQ(solve_with_flag("cli_solve_segments_flag", "--wlog-segments",
                            "nope", out),
            kExitInputError);
  EXPECT_NE(out.str().find("error: unknown --wlog-segments 'nope' "
                           "(expected on|off)"),
            std::string::npos)
      << out.str();
}

TEST(CliRunTest, SolveNonSchedulingProgramPrintsAssignment) {
  // A var declaration that is not task x instance-type shaped has no
  // provisioning plan; the command reports the entity -> choice assignment
  // instead of reading plan entries that do not exist.
  const std::string dax = temp_path("cli_solve_pick.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "montage", "--tasks", "6",
                           "--out", dax}),
                    gen),
            0);
  const std::string program = temp_path("cli_solve_pick.wlog");
  std::ofstream(program) << "goal minimize C in picked(C).\n"
                            "var pick(Tid,S) forall task(Tid).\n"
                            "picked(C) :- findall(S, pick(_,S), B), "
                            "sum(B, C).\n";
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"solve", "--dax", dax, "--program", program}), out),
            0)
      << out.str();
  EXPECT_NE(out.str().find("solved: goal value 0"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("  task("), std::string::npos) << out.str();
  EXPECT_NE(out.str().find(") -> 0\n"), std::string::npos) << out.str();
}

TEST(CliRunTest, InfoSummarizesWorkflow) {
  const std::string dax = temp_path("cli_info.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "epigenomics", "--tasks",
                           "40", "--out", dax}),
                    gen),
            0);
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"info", "--dax", dax}), out), 0);
  EXPECT_NE(out.str().find("tasks"), std::string::npos);
  EXPECT_NE(out.str().find("task mix"), std::string::npos);
  EXPECT_NE(out.str().find("fastQSplit"), std::string::npos);
}

TEST(CliRunTest, InfoRequiresDax) {
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"info"}), out), kExitInputError);
}

TEST(CliRunTest, TruncatedDaxFailsWithDiagnosticNotCrash) {
  // A DAX cut off mid-element (a partial download, a full disk) must come
  // back as a one-line diagnostic and the input-error exit code — never an
  // escaping exception, whatever the command.
  const std::string path = temp_path("cli_truncated.dax");
  {
    std::ofstream f(path);
    f << R"(<?xml version="1.0"?>
<adag name="pipeline">
  <job id="ID01" name="process1" runtime="30">
    <uses file="f.a" link="inp)";
  }
  for (const char* command : {"plan", "run", "info"}) {
    std::ostringstream out;
    int rc = -1;
    ASSERT_NO_THROW(rc = run_cli(parse({command, "--dax", path, "--deadline",
                                        "1000"}),
                                 out))
        << command;
    EXPECT_EQ(rc, kExitInputError) << command;
    EXPECT_NE(out.str().find("error"), std::string::npos) << out.str();
  }
}

TEST(CliRunTest, SolverFailureHasDistinctExitCode) {
  const std::string dax = temp_path("cli_badprog.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "2", "--out",
                 dax}),
          gen);
  // A syntactically broken WLog program reaches the solver and fails there:
  // that is a solver failure (2), not an input I/O failure (3).
  const std::string program = temp_path("cli_badprog.wlog");
  {
    std::ofstream p(program);
    p << "goal minimize Ct in totalcost(Ct";  // unbalanced, no clauses
  }
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"solve", "--dax", dax, "--program", program}), out),
            kExitSolverFailure);
  EXPECT_NE(out.str().find("error"), std::string::npos) << out.str();
}

TEST(CliRunTest, RunDegradedApiProfileCompletes) {
  const std::string dax = temp_path("cli_degraded.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  // Throttling, outages and transient errors — but retries and fallback
  // carry every run to completion with exit 0.
  const int rc = run_cli(parse({"run", "--dax", dax, "--deadline", "100000",
                                "--runs", "3", "--api-profile", "degraded"}),
                         out);
  EXPECT_EQ(rc, kExitOk) << out.str();
  EXPECT_NE(out.str().find("executed 3 runs"), std::string::npos);
  EXPECT_NE(out.str().find("control plane:"), std::string::npos);
}

TEST(CliRunTest, RunExhaustedApiProfileExitsWithCapacityCode) {
  const std::string dax = temp_path("cli_exhausted.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  int rc = -1;
  ASSERT_NO_THROW(rc = run_cli(parse({"run", "--dax", dax, "--deadline",
                                      "100000", "--runs", "2",
                                      "--api-profile", "exhausted"}),
                               out));
  EXPECT_EQ(rc, kExitProvisioningExhausted) << out.str();
  EXPECT_NE(out.str().find("error"), std::string::npos);
}

TEST(CliRunTest, UnknownApiProfileIsUsageError) {
  const std::string dax = temp_path("cli_badprofile.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "2", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"run", "--dax", dax, "--deadline", "100000",
                           "--api-profile", "sideways"}),
                    out),
            kExitError);
  EXPECT_NE(out.str().find("api-profile"), std::string::npos);
}

TEST(CliRunTest, RegionFlagPinsPlacementsAndEchoesMetrics) {
  const std::string dax = temp_path("cli_region.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  const std::string metrics = temp_path("cli_region_metrics.json");
  std::ostringstream out;
  const int rc = run_cli(parse({"plan", "--dax", dax, "--deadline", "100000",
                                "--scheduler", "m1.small", "--region",
                                "ap-southeast-1", "--metrics-out", metrics}),
                         out);
  EXPECT_EQ(rc, kExitOk) << out.str();
  // Site names carry the region, so every mapped task lands there.
  EXPECT_NE(out.str().find("@ap-southeast-1"), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find("@us-east-1"), std::string::npos) << out.str();
  // And the choice is echoed into the metrics dump.
  std::ifstream in(metrics);
  std::stringstream dumped;
  dumped << in.rdbuf();
  EXPECT_NE(dumped.str().find("cli.region.ap-southeast-1"), std::string::npos);
}

TEST(CliRunTest, UnknownRegionIsInputErrorListingCandidates) {
  const std::string dax = temp_path("cli_badregion.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "2", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"plan", "--dax", dax, "--deadline", "100000",
                           "--region", "mars-north-1"}),
                    out),
            kExitInputError);
  EXPECT_NE(out.str().find("unknown region 'mars-north-1'"), std::string::npos);
  // The error names the valid candidates.
  EXPECT_NE(out.str().find("us-east-1"), std::string::npos);
  EXPECT_NE(out.str().find("ap-southeast-1"), std::string::npos);
}

TEST(CliRunTest, RunStormsWeatherProfileCompletes) {
  const std::string dax = temp_path("cli_storms.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  // Recurring storms are survivable: retries and fallback grants carry
  // every run to completion.
  const int rc = run_cli(parse({"run", "--dax", dax, "--deadline", "100000",
                                "--runs", "3", "--weather-profile", "storms"}),
                         out);
  EXPECT_EQ(rc, kExitOk) << out.str();
  EXPECT_NE(out.str().find("executed 3 runs"), std::string::npos);
  // Weather forces a mediating control plane even without --api-profile.
  EXPECT_NE(out.str().find("control plane:"), std::string::npos);
}

TEST(CliRunTest, RunBlackoutWeatherProfileExitsWithCapacityCode) {
  const std::string dax = temp_path("cli_blackout.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  int rc = -1;
  ASSERT_NO_THROW(rc = run_cli(parse({"run", "--dax", dax, "--deadline",
                                      "100000", "--runs", "2",
                                      "--weather-profile", "blackout"}),
                               out));
  EXPECT_EQ(rc, kExitProvisioningExhausted) << out.str();
  EXPECT_NE(out.str().find("error"), std::string::npos);
}

TEST(CliRunTest, UnknownWeatherProfileIsUsageError) {
  const std::string dax = temp_path("cli_badweather.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "2", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  EXPECT_EQ(run_cli(parse({"run", "--dax", dax, "--deadline", "100000",
                           "--weather-profile", "hailstorm"}),
                    out),
            kExitError);
  EXPECT_NE(out.str().find("weather-profile"), std::string::npos);
}

TEST(CliRunTest, PlanUsesSavedStore) {
  const std::string store_path = temp_path("cli_reuse_store.txt");
  std::ostringstream cal;
  ASSERT_EQ(run_cli(parse({"calibrate", "--samples", "300", "--out",
                           store_path}),
                    cal),
            0);
  const std::string dax = temp_path("cli_reuse.dax");
  std::ostringstream gen;
  run_cli(parse({"generate", "--app", "pipeline", "--tasks", "3", "--out",
                 dax}),
          gen);
  std::ostringstream out;
  const int rc = run_cli(parse({"plan", "--dax", dax, "--deadline", "100000",
                                "--store", store_path}),
                         out);
  EXPECT_EQ(rc, 0) << out.str();
}

TEST(CliRunTest, StatsRendersMetricsSummary) {
  const std::string dax = temp_path("cli_stats.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "pipeline", "--tasks", "4",
                           "--out", dax}),
                    gen),
            0);
  std::ostringstream out;
  const int rc =
      run_cli(parse({"stats", "--dax", dax, "--deadline", "100000"}), out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("metrics summary"), std::string::npos);
  if (obs::kCompiledIn) {
    EXPECT_NE(out.str().find("search.states_evaluated"), std::string::npos);
    EXPECT_NE(out.str().find("eval.plans"), std::string::npos);
  } else {
    EXPECT_NE(out.str().find("instrumentation compiled out"),
              std::string::npos);
  }
}

TEST(CliRunTest, StatsReportsTheRecomputedScreenShare) {
  const std::string dax = temp_path("cli_stats_reuse.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "montage", "--degree", "1",
                           "--out", dax}),
                    gen),
            0);
  std::ostringstream out;
  const int rc =
      run_cli(parse({"stats", "--dax", dax, "--deadline", "100000"}), out);
  EXPECT_EQ(rc, 0) << out.str();
  if (!obs::kCompiledIn) return;
  // "...; positions recomputed <recomputed>/<positions> (<share>%)" on the
  // estimator screen line, matching the eval.screen.positions* counters.
  const std::string text = out.str();
  const std::string key = "positions recomputed ";
  const auto at = text.find(key);
  ASSERT_NE(at, std::string::npos) << text;
  unsigned long long recomputed = 0;
  unsigned long long positions = 0;
  ASSERT_EQ(std::sscanf(text.c_str() + at + key.size(), "%llu/%llu",
                        &recomputed, &positions),
            2)
      << text;
  EXPECT_GT(positions, 0u);
  EXPECT_GT(recomputed, 0u);
  EXPECT_LT(recomputed, positions);
  EXPECT_NE(text.find("eval.screen.positions_recomputed"), std::string::npos);
}

TEST(CliRunTest, StatsCountsTheSkippedScreenedPass) {
  const std::string dax = temp_path("cli_stats_skip.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "pipeline", "--tasks", "4",
                           "--out", dax}),
                    gen),
            0);
  // Not even the all-fastest plan meets a 1 s deadline: the screened solve
  // goes straight to its full-MC re-solve.
  std::ostringstream out;
  const int rc = run_cli(parse({"stats", "--dax", dax, "--deadline", "1"}), out);
  EXPECT_EQ(rc, 0) << out.str();
  if (obs::kCompiledIn) {
    EXPECT_NE(out.str().find("full-MC re-solves 1 (1 skipped the screened "
                             "pass)"),
              std::string::npos)
        << out.str();
  }
}

TEST(CliRunTest, MetricsAndTraceOutWriteFiles) {
  const std::string dax = temp_path("cli_obs.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "pipeline", "--tasks", "4",
                           "--out", dax}),
                    gen),
            0);
  const std::string metrics_path = temp_path("cli_metrics.json");
  const std::string trace_path = temp_path("cli_trace.json");
  std::ostringstream out;
  const int rc = run_cli(
      parse({"run", "--dax", dax, "--deadline", "100000", "--runs", "2",
             "--metrics-out", metrics_path, "--trace-out", trace_path}),
      out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("wrote metrics to"), std::string::npos);
  EXPECT_NE(out.str().find("wrote trace to"), std::string::npos);

  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::stringstream mbuf;
  mbuf << metrics.rdbuf();
  EXPECT_NE(mbuf.str().find("\"counters\""), std::string::npos);
  if (obs::kCompiledIn) {
    EXPECT_NE(mbuf.str().find("sim.runs"), std::string::npos);
  }

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::stringstream tbuf;
  tbuf << trace.rdbuf();
  EXPECT_NE(tbuf.str().find("\"traceEvents\""), std::string::npos);

  // The observation window is per-invocation: a later plain run must not
  // leave the registry/collector enabled.
  EXPECT_FALSE(obs::Registry::instance().enabled());
  EXPECT_FALSE(obs::TraceCollector::instance().enabled());
}

TEST(CliRunTest, UsageDocumentsSolveBudgetFlags) {
  std::ostringstream out;
  run_cli(parse({"help"}), out);
  EXPECT_NE(out.str().find("--solve-budget-ms"), std::string::npos);
  EXPECT_NE(out.str().find("--memory-budget-mb"), std::string::npos);
}

TEST(CliRunTest, GenerousSolveBudgetPlansNormally) {
  const std::string dax = temp_path("cli_budget_ok.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "pipeline", "--tasks", "4",
                           "--out", dax}),
                    gen),
            0);
  std::ostringstream out;
  const int rc = run_cli(parse({"plan", "--dax", dax, "--deadline", "100000",
                                "--solve-budget-ms", "600000"}),
                         out);
  EXPECT_EQ(rc, kExitOk) << out.str();
  EXPECT_NE(out.str().find("plan (Deco):"), std::string::npos);
  EXPECT_EQ(out.str().find("solve budget exhausted"), std::string::npos);
}

TEST(CliRunTest, TinySolveBudgetReturnsAnytimePlanWithExitFive) {
  const std::string dax = temp_path("cli_budget_cut.dax");
  std::ostringstream gen;
  ASSERT_EQ(run_cli(parse({"generate", "--app", "montage", "--tasks", "25",
                           "--out", dax}),
                    gen),
            0);
  std::ostringstream out;
  // A budget this tiny always expires mid-solve; the CLI must still print
  // a full plan (the anytime incumbent) and exit with the distinct
  // budget-exhausted-with-plan code.
  const int rc = run_cli(parse({"plan", "--dax", dax, "--deadline", "100000",
                                "--solve-budget-ms", "0.01"}),
                         out);
  EXPECT_EQ(rc, kExitBudgetExhaustedPlan) << out.str();
  EXPECT_NE(out.str().find("plan (Deco):"), std::string::npos);
  EXPECT_NE(out.str().find("estimated cost"), std::string::npos);
  EXPECT_NE(out.str().find("solve budget exhausted"), std::string::npos);
}

}  // namespace
}  // namespace deco::tools
