#!/usr/bin/env python3
"""Steadiness mode: run one workload repeatedly and judge its spread.

Runs the benchmark command from BENCHMARK.json once per seed (plain
runs), then once traced. For every end-to-end metric it prints the
median, the quartile spread (first-to-third quartile distance as a share
of the median, from statistics.quantiles(values, n=4)) and the metric's
bound; a spread at or above a third of its bound is flagged. The traced
run supplies the tracing overhead.

Run from the repository root:

    python3 perfbench/steady.py --workload bulk-dma --runs 10
    python3 perfbench/steady.py --workload all --runs 5 --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, trace):
    """One benchmark run; returns its result object (last stdout line)."""
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"run failed ({p.returncode}): {' '.join(args)}\n{p.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def steady(bench, workload, runs, first_seed, seconds):
    cmd = bench["command"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for i in range(runs):
        res = run(cmd, workload, first_seed + i, seconds, 0)
        if not res["correct"] or res["failed"]:
            sys.exit(f"{workload} seed {first_seed + i}: incorrect result {res}")
        for name in values:
            values[name].append(res["metrics"][name]["value"])
    print(f"{workload}: {runs} plain runs, seeds {first_seed}..{first_seed + runs - 1}")
    print(f"  {'metric':<16} {'median':>14} {'spread':>9} {'bound':>7}")
    steady_all = True
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        s = spread(vals)
        flag = ""
        if m["name"] != "setup_s" and s >= m["bound"] / 3:
            flag = "  <- spread not below a third of the bound"
            steady_all = False
        print(f"  {m['name']:<16} {statistics.median(vals):>14.6g} "
              f"{100 * s:>8.2f}% {100 * m['bound']:>6.1f}%  {m['unit']}{flag}")
    traced = run(cmd, workload, first_seed, seconds, 1)
    overhead = traced["metrics"]["bench.trace_overhead_pct"]["value"]
    print(f"  tracing overhead {overhead:.2f} %")
    return steady_all


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    chosen = names if a.workload == "all" else [a.workload]
    seconds = a.seconds or bench["run_seconds"]
    ok = all([steady(bench, w, a.runs, a.first_seed, seconds) for w in chosen])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
