#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

Runs perfbench/run.py once per seed on each workload (untraced) and prints,
per metric, the median of the runs and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the median,
next to the bound BENCHMARK.json gives the metric.

    python3 perfbench/spread.py --seeds 1-10 --workloads mem_sweep,fleet
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed steps")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"{workload} ({len(runs)} seeds)")
        for name, bound in bounds.items():
            median, share = spread([r[name] for r in runs])
            worst = max(worst, share / bound)
            flag = "" if share < bound / 3 else "  <-- over a third of bound"
            print(f"  {name:20s} median {median:14.6g}  spread {share:7.4f}  bound {bound}{flag}")
            print("    " + " ".join(f"{r[name]:.6g}" for r in runs))
    print(f"largest spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
