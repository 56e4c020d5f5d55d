#!/usr/bin/env python3
"""Runs each benchmark workload several times and summarises every metric.

    python3 qobench/repeat.py --runs 10 [--workloads callout-miss,callout-hit]
                              [--seconds 10] [--trace 0] [--seed-base 1]
                              [--out results.json]

Run i uses --seed seed-base + i, so two invocations with different
--seed-base values give two independent sets of runs. For each workload
and metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median, plus the share of failed operations. --out also writes every raw
result as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("callout-miss", "callout-hit")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def summarise(results):
    metrics = {}
    for res in results:
        for name, m in res["metrics"].items():
            metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
    rows = []
    for name, (unit, values) in metrics.items():
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / med if med else float("nan")
        rows.append((name, unit, med, q1, q3, spread))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    raw = {}
    ok = True
    for w in args.workloads.split(","):
        if w not in WORKLOADS:
            ap.error("unknown workload " + w)
        results = []
        for i in range(args.runs):
            seed = args.seed_base + i
            res = run_once(w, seed, args.seconds, args.trace)
            if res is None or not res["correct"]:
                print("%s seed %d: run failed" % (w, seed), flush=True)
                ok = False
                continue
            results.append(res)
            print("%s seed %d: done" % (w, seed), file=sys.stderr, flush=True)
        raw[w] = results
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n== %s: %d runs, failed share %s" % (
            w, len(results), ", ".join("%.6g" % s for s in shares)))
        print("%-34s %-6s %14s %14s %14s %8s" % (
            "metric", "unit", "median", "q1", "q3", "iqr/med"))
        for name, unit, med, q1, q3, spread in summarise(results):
            print("%-34s %-6s %14.6g %14.6g %14.6g %8.4f" % (
                name, unit, med, q1, q3, spread))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
