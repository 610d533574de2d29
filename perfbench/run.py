#!/usr/bin/env python3
"""Build the benchmark driver and run one workload.

    python3 perfbench/run.py --workload acasxu-paper --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout of the repository. The driver is built
in Release mode under .bench_build/perfbench (incremental after the first
run); the run copies the workload's network cache into a scratch directory
under .bench_build/runs and removes it afterwards. The last line of standard
output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced rounds (and writes their spans to .bench_build/trace/).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "nncs_perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run inside a full checkout")
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "nncs_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    work_dir = os.path.join(BUILD_ROOT, "runs", f"{args.workload}-{os.getpid()}")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--root", ROOT, "--work-dir", work_dir]
    if args.trace:
        command += ["--spans-out", os.path.join(BUILD_ROOT, "trace", f"{args.workload}.spans")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    # The metrics printed must be exactly the ones BENCHMARK.json declares.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        fail(f"metrics {sorted(printed.items())} differ from BENCHMARK.json {sorted(declared.items())}")


if __name__ == "__main__":
    main()
