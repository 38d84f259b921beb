#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --runs 10 [--workload NAME ...] [--trace 1]

For every workload it runs bench/run.py once per seed (first-seed,
first-seed + 1, ...) with the run length from BENCHMARK.json, one run
at a time, then prints each metric's median, quartiles and the distance
between the quartiles as a share of the median, next to the metric's
bound.  The figures in bench/README.md come from this script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in config["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        values, shares = {}, set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: checks failed\n{proc.stdout}")
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        fail_shares = sorted({f / a for f, a in shares})
        print(f"{workload}: {args.runs} runs, failed share {fail_shares}")
        for name, vals in values.items():
            if len(vals) < 2:
                print(f"  {name:28s} {vals[0]:.6g}")
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:28s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}" + (f" bound {bound}" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
