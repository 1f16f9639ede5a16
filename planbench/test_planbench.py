#!/usr/bin/env python3
"""The benchmark's own test: every workload, shortened.

Run from the root of a checkout:

    python3 planbench/test_planbench.py

For each workload it runs run.py three times with --smoke (one input per
kind, one set-up, one second): untraced twice with the same seed, then
traced once.  It checks that

  1. every metric BENCHMARK.json names prints, by name and with its unit, in
     the text report and in the JSON result;
  2. the quality metrics (plan_cost_usd, plan_feasible_frac, and on
     replan-reactive run_cost_usd, run_met_frac) repeat exactly;
  3. no request failed (failed_frac is 0);
  4. the traced run passes the layer-sum gate;
  5. each workload exercises the layer it was chosen for: wlog.vm.instructions
     is above zero only on solve-wlog, every plan-fallback request hit the
     screen's full-MC fallback, and sim.execute_ms is above zero only on
     replan-reactive;
  6. on plan-fallback, --estimator mc returns plans of the same reference cost
     as auto: auto's fallback re-solves in full MC.

Exits non-zero if any workload fails a check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 11
QUALITY = ("plan_cost_usd", "plan_feasible_frac", "run_cost_usd",
           "run_met_frac")


def run(workload, trace, estimator="auto"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--smoke", "--estimator", estimator]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report_path = os.path.join(
        ROOT, ".bench_build", "planbench-work",
        f"{workload}-seed{SEED}-trace{trace}"
        + ("" if estimator == "auto" else f"-{estimator}"), "report.json")
    with open(report_path) as f:
        report = json.load(f)
    return lines[:-1], result, report


def check_metrics(text, result, expected):
    """Every expected metric is in the result and the text, with its unit."""
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, (
        f"result metrics {sorted(metrics)} != BENCHMARK.json")
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}"
        assert any(line.split()[:1] == [m["name"]] and
                   line.split()[-1] == m["unit"] for line in text), (
            f"{m['name']} ({m['unit']}) missing from the text report")


def check_workload(workload, spec):
    text0, first, report0 = run(workload, 0)
    _, second, report1 = run(workload, 0)
    text1, traced, report_t = run(workload, 1)

    check_metrics(text0, first, spec["end_to_end"])
    check_metrics(text1, traced, spec["per_layer"])

    for name in QUALITY:
        a = report0["end_to_end"].get(name)
        b = report1["end_to_end"].get(name)
        if workload == "replan-reactive" or name.startswith("plan_"):
            assert a is not None, f"{name} not reported"
        assert a == b, f"{name} differs across runs of one seed: {a} vs {b}"

    for result in (first, second, traced):
        assert result["attempted"] >= 1
        assert result["failed"] == 0, f"{result['failed']} requests failed"
        assert result["correct"], "output checks failed"
    assert any(line.startswith("layer-sum gate: pass") for line in text1), (
        "layer-sum gate did not pass")

    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layers["bench.requests_traced"] >= 1
    assert (layers["wlog.vm.instructions"] > 0) == (workload == "solve-wlog"), (
        f"wlog.vm.instructions = {layers['wlog.vm.instructions']}")
    assert (layers["sim.execute_ms"] > 0) == (workload == "replan-reactive"), (
        f"sim.execute_ms = {layers['sim.execute_ms']}")
    if workload == "plan-fallback":
        assert layers["bench.fallback_request_frac"] == 1, (
            "a plan-fallback request did not take the screen fallback")
        _, mc, _ = run(workload, 0, estimator="mc")
        assert (mc["metrics"]["plan_cost_usd"] ==
                first["metrics"]["plan_cost_usd"]), (
            "auto's full-MC fallback and mc returned different plans")
    assert report_t["host"]["nproc"] >= 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        try:
            check_workload(workload, spec)
            print(f"ok    {workload}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL  {workload}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
