#!/usr/bin/env python3
"""Collects and compares LPVS benchmark result sets.

A result set is a JSON-lines file, one benchmark run per line:
    {"workload": ..., "seed": ..., "digest": ..., "result": {...}}
where "result" is the last line the benchmark printed.

    # run every workload on seeds 1..10 for run_seconds with --trace 0,
    # append to a set
    python3 lpvsbench/compare.py collect --out base.jsonl --seeds 1-10
    # spread of one set: quartile distance over median, against each bound
    python3 lpvsbench/compare.py spread base.jsonl
    # per workload and end-to-end metric: medians, quartiles and a verdict
    python3 lpvsbench/compare.py diff base.jsonl change.jsonl

Run from the root of a checkout.  Bounds and directions come from
BENCHMARK.json.  diff's verdict for each (workload, metric):
  better         the change's median is better than the base's by more than
                 the base's own quartile spread, and at least 9 in 10 of all
                 (base, change) run pairs favour the change;
  worse          the change's median is worse by more than the bound;
  within bound   neither of the above;
  unresolved     either set's spread exceeds the bound, unless every run of
                 one side beats every run of the other.
A workload with an incorrect or failing run in either set gets no verdict:
diff prints the failure counts instead and exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_set(path):
    """{workload: {metric: [values]}}, {workload: {seed: digest}}, and
    {workload: number of runs that were incorrect or had failures}."""
    values = defaultdict(lambda: defaultdict(list))
    digests = defaultdict(dict)
    failing = defaultdict(int)
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            for name, metric in run["result"]["metrics"].items():
                values[run["workload"]][name].append(metric["value"])
            digests[run["workload"]][run["seed"]] = run.get("digest")
            result = run["result"]
            if not result["correct"] or result["failed"]:
                failing[run["workload"]] += 1
    return values, digests, failing


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(args):
    spec = load_spec()
    failures = 0
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in (w["name"] for w in spec["workloads"]):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}",
                          file=sys.stderr)
                    failures += 1
                    continue
                digest = next((l.split()[-1] for l in lines
                               if l.startswith("digest ")), None)
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"]:
                    failures += 1
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "digest": digest, "result": result})
                          + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']} digest={digest}",
                      file=sys.stderr)
    return 1 if failures else 0


def spread(args):
    spec = load_spec()
    values, _, failing = load_set(args.set)
    worst = 0.0
    print(f"{'workload':14} {'metric':20} {'n':>3} {'median':>14} "
          f"{'spread':>8} {'bound':>6}")
    for workload in sorted(values):
        for metric in spec["end_to_end"]:
            vals = values[workload].get(metric["name"], [])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / med if med else float("inf")
            worst = max(worst, share / metric["bound"])
            flag = ("OVER" if share > metric["bound"]
                    else "ok" if share < metric["bound"] / 3 else "wide")
            print(f"{workload:14} {metric['name']:20} {len(vals):3d} "
                  f"{med:14.6g} {share:8.4f} {metric['bound']:6.2f} {flag}")
    print(f"worst spread / bound: {worst:.3f}")
    for workload in sorted(failing):
        print(f"{workload}: {failing[workload]} incorrect or failing runs")
    return 1 if failing else 0


def verdict(base, change, bound, higher_better):
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    sign = -1.0 if higher_better else 1.0
    # Positive = the change is worse, as a share of the base median.
    worse_by = sign * (cm - bm) / bm
    base_spread = (b3 - b1) / bm
    change_spread = (c3 - c1) / cm if cm else float("inf")
    better_all = all(sign * (c - b) < 0 for c in change for b in base)
    worse_all = all(sign * (c - b) > 0 for c in change for b in base)
    if base_spread > bound or change_spread > bound:
        return "better" if better_all else "worse" if worse_all else "unresolved"
    pairs = [(b, c) for b in base for c in change]
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if -worse_by > base_spread and wins >= 0.9 * len(pairs):
        return "better"
    if worse_by > bound:
        return "worse"
    return "within bound"


def diff(args):
    spec = load_spec()
    base, base_digests, base_failing = load_set(args.base)
    change, change_digests, change_failing = load_set(args.change)
    status = 0
    print(f"{'workload':14} {'metric':20} {'base q1/med/q3':>36} "
          f"{'change q1/med/q3':>36}  verdict")
    for workload in sorted(set(base) & set(change)):
        if base_failing[workload] or change_failing[workload]:
            print(f"{workload:14} no verdict: incorrect or failing runs: "
                  f"base {base_failing[workload]}, "
                  f"change {change_failing[workload]}")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            b = base[workload].get(metric["name"])
            c = change[workload].get(metric["name"])
            if not b or not c:
                continue
            v = verdict(b, c, metric["bound"], metric["better"] == "higher")
            if v == "worse":
                status = 1
            bq = "/".join(f"{x:.5g}" for x in quartiles(b))
            cq = "/".join(f"{x:.5g}" for x in quartiles(c))
            print(f"{workload:14} {metric['name']:20} {bq:>36} {cq:>36}  {v}")
        shared = set(base_digests[workload]) & set(change_digests[workload])
        changed = sorted(s for s in shared
                         if base_digests[workload][s] != change_digests[workload][s])
        if changed:
            print(f"{workload:14} determinism digest differs on seeds {changed}")
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark, append to a set")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p = sub.add_parser("spread", help="quartile spread of one set")
    p.add_argument("set")
    p = sub.add_parser("diff", help="compare two sets")
    p.add_argument("base")
    p.add_argument("change")
    args = parser.parse_args()
    return {"collect": collect, "spread": spread, "diff": diff}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
