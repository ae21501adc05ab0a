#!/usr/bin/env python3
"""Run each workload on several seeds and record the spread of every metric.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/results/steadiness.json

For each end-to-end metric it records the ten values, their median and
quartiles (statistics.quantiles(values, n=4)) and the interquartile range
as a share of the median, next to the bound BENCHMARK.json gives it. Run
it from the repository root; it calls perfbench/run.py once per seed.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    report = {
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine()},
        "run_seconds": bench["run_seconds"],
        "runs": args.runs,
        "workloads": {},
    }
    worst = 0.0
    for name in names:
        values = {}
        failed = 0
        for i in range(args.runs):
            res = run_once(name, args.first_seed + i, bench["run_seconds"])
            if not res["correct"] or res["failed"]:
                failed += 1
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        rows = {}
        for k, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds.get(k), "values": vs}
            if k != "setup_s" and k in bounds:
                worst = max(worst, spread / bounds[k])
            print(f"{name:13s} {k:22s} median {med:12.4f} spread {spread:6.3f}"
                  f" bound {bounds.get(k)}", flush=True)
        report["workloads"][name] = {"incorrect_runs": failed, "metrics": rows}
    report["worst_spread_over_bound"] = worst
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
