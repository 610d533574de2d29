#!/usr/bin/env python3
"""Run workloads repeatedly and print each metric's median and quartiles.

    python3 perfbench/stats.py --runs 10                 # every declared workload
    python3 perfbench/stats.py --workload cruise-bounded --runs 5 --trace 1

Each run calls perfbench/run.py with its own seed (--first-seed, +1, ...).
For every metric it prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median. End-to-end metrics are compared with their bound from
BENCHMARK.json: a spread above a third of the bound is flagged, because two
sets of runs of the same code must agree within the bound. It also checks
that every run failed the same share of its operations. It exits 1 if a
spread is flagged or the shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return json.loads(lines[-1]), elapsed


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, elapsed = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            steady = False
            print(f"{workload}: failed shares {sorted(shares)}, "
                  f"correct {[r['correct'] for r in results]}")
        print(f"\n{workload} ({args.runs} runs of {args.seconds:g} s, trace {args.trace})")
        print(f"{'metric':32} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else f'{bound:g}':>6} {unit}{flag}")
        print()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
