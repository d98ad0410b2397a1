#!/usr/bin/env python3
"""Builds and runs the LPVS benchmark.

Run from the root of a checkout:

    python3 lpvsbench/run.py --workload serve_c4 --seed 1 --seconds 20 --trace 0

The first call configures and builds the benchmark program (and the LPVS
libraries it links) under .bench_build/lpvsbench; later calls only re-check
the build.  Build output goes to stderr, so the last line of stdout is the
JSON result.  The result's metric names are checked against BENCHMARK.json:
a run whose metrics do not match exits non-zero.

An end-to-end run (--trace 0) starts the program PROCESSES times, each for
an equal share of --seconds, and reports each metric's median over the
processes: the host's other tenants slow whole processes by up to half, so
one process is one draw.  The processes must all be correct and print the
same determinism digest; their operation counts add up.  A traced run is
one process for the whole time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "lpvsbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
PROCESSES = 4


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "lpvsbench")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        expected = expected_metrics(args.trace)
        binary = build()
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as err:
        print(f"lpvsbench: set-up failed: {err}", file=sys.stderr)
        return 2

    processes = 1 if args.trace else PROCESSES
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / processes),
               "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    outputs = []
    for _ in range(processes):
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("lpvsbench: run timed out", file=sys.stderr)
            return 3
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 3:
            sys.stdout.write(proc.stdout)
            print(f"lpvsbench: program exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 4
        outputs.append(lines)

    results = [json.loads(lines[-1]) for lines in outputs]
    got = {name: m["unit"] for name, m in results[0]["metrics"].items()}
    if got != expected:
        print(f"lpvsbench: metrics {sorted(got)} do not match BENCHMARK.json "
              f"{sorted(expected)}", file=sys.stderr)
        return 5
    # The metadata line of the first process, and the digest line, which
    # every process must repeat.
    meta = json.loads(outputs[0][0])
    meta["meta"]["processes"] = processes
    digests = {lines[1] for lines in outputs}
    result = {
        "correct": all(r["correct"] for r in results) and len(digests) == 1,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"]
                                              for r in results),
                   "unit": unit}
            for name, unit in got.items()},
    }
    print(json.dumps(meta))
    for digest in sorted(digests):
        print(digest)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
