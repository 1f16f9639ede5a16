#!/usr/bin/env python3
"""Builds the planning benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 planbench/run.py --workload plan-screened --seed 1 --seconds 25 \
        --trace 0

The engine libraries (src/) and the binary (planbench/src/) are compiled into
.bench_build/planbench with CMake; an up-to-date build is a no-op.  Build
output goes to standard error, so the binary's last line of standard output
is the JSON result.  Inputs, report.json and (with --trace 1) spans.json land
in .bench_build/planbench-work/<workload>-seed<n>-trace<0|1>/.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "planbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "planbench-work")
WORKLOADS = ("plan-screened", "plan-fallback", "replan-reactive", "solve-wlog")
# A run must finish within 180 s; the binary gets what is left after the build.
RUN_LIMIT_S = 175


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("planbench: engine sources (src/) not found next to planbench/",
              file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "planbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr,
                      cwd=ROOT).returncode != 0:
        return None
    binary = os.path.join(BUILD_DIR, "planbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one input per kind and one set-up (the "
                             "benchmark's own test)")
    parser.add_argument("--estimator", choices=("auto", "mc", "analytic"),
                        default="auto",
                        help="estimator tier of the plan and reactive "
                             "workloads (default: the CLI's auto)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("planbench: build failed", file=sys.stderr)
        return 2

    work_dir = os.path.join(
        WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
        + ("" if args.estimator == "auto" else f"-{args.estimator}"))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work-dir", work_dir,
           "--estimator", args.estimator]
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    try:
        # Standard output passes straight through; the binary's last line is
        # the result.
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"planbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 3
    if done.returncode != 0:
        print(f"planbench: binary exited with {done.returncode} after "
              f"{time.monotonic() - start:.1f} s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
