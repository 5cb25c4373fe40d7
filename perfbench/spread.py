#!/usr/bin/env python3
"""Runs each workload repeatedly and reports every metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workload NAME ...] [--trace 0|1]
                                [--out .bench_runs/spread.json]

Each run uses another seed. For every end-to-end metric the report gives the
median, the first and third quartiles (Python's statistics.quantiles, n=4)
and the spread: the interquartile distance as a share of the median, next to
the metric's bound from BENCHMARK.json. A spread above a third of its bound
is flagged (setup_s has no spread gate: only its median is compared between
sets of runs). Every run must report correct outputs, and the share of
failed operations must be identical across runs. Raw results are written as
JSON to --out. Exits non-zero when a run fails or a gate is missed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-4000:])
        return None
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(".bench_runs", "spread.json"))
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    ok = True
    raw = {}
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(spec, workload, seed, args.seconds, args.trace)
            if r is None:
                print("%s seed %d: run failed" % (workload, seed))
                ok = False
                continue
            if not r["correct"]:
                print("%s seed %d: outputs INCORRECT" % (workload, seed))
                ok = False
            results.append((seed, r))
        raw[workload] = [{"seed": s, "result": r} for s, r in results]
        if not results:
            continue
        shares = {r["failed"] / r["attempted"] for _, r in results}
        print("\n%s: %d runs, failed share %s" %
              (workload, len(results), sorted(shares)))
        if len(shares) != 1:
            print("  failed share differs between runs")
            ok = False
        print("  %-38s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for _, r in results
                    if m["name"] in r["metrics"]]
            if len(vals) != len(results):
                print("  %-38s missing in some runs" % m["name"])
                ok = False
                continue
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                if spread > bound:
                    flag = "OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "over a third of the bound"
            if bound is not None and med == 0:
                flag = "ZERO"
                ok = False
            print("  %-38s %12.4f %12.4f %12.4f %8.4f %6s %s" %
                  (m["name"], med, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound, flag))
    out = os.path.join(ROOT, args.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    print("\nraw results: %s" % args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
