#!/usr/bin/env python3
"""Builds and runs the MTMLF-QO end-to-end benchmark (qobench).

Run from the root of a source checkout:

    python3 qobench/run.py --workload callout-miss --seed 1 --seconds 10 --trace 0

The first run configures and builds the library and the benchmark binary
into .bench_build/ (CMake, Release); later runs only check the build is up
to date. The binary prints its progress on stderr and, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the spans of the traced phase are written to
.bench_build/trace/<workload>-seed<seed>.jsonl.

Exits non-zero when the build or the run fails (printing no result) or
when a check of the program's outputs fails (printing the result with
"correct": false).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "qobench")
WORKLOADS = ("callout-miss", "callout-hit")
BUILD_TIMEOUT_S = 840
# A run is three set-ups, the checks and the decision set (about 60 s on a
# 4-core machine) plus one timed phase, or two with --trace 1.
RUN_FIXED_S = 120


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no MTMLF source tree next to qobench/ "
            "(missing src/CMakeLists.txt)")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "qobench",
                  "-j", jobs])
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout carries only the result.
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if r.returncode != 0:
            log("build step failed (exit %d): %s"
                % (r.returncode, " ".join(cmd)))
            return False
    return os.path.isfile(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--train-seed", type=int, default=1,
                    help="seed of the shared set-up (database, training)")
    args = ap.parse_args()
    if args.seed < 0 or args.train_seed < 0 or args.seconds < 1:
        ap.error("seeds must be >= 0 and --seconds >= 1")

    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--train-seed", str(args.train_seed)]
    if args.trace:
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    timeout_s = RUN_FIXED_S + (2 if args.trace else 1) * args.seconds
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=timeout_s, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % timeout_s)
        return 1
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0:
        # A run whose output checks failed still reports its result, with
        # "correct": false; any other failure prints none.
        if lines and lines[-1].startswith('{"correct": false'):
            print(lines[-1], flush=True)
        log("benchmark failed (exit %d)" % r.returncode)
        return 1
    if not lines:
        log("benchmark printed no result")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
