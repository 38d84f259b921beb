"""Paired benchmark runs of a parent and a changed checkout.

Usage: python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W
           --seeds A-B [--seconds S]

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts.  For each
seed A..B, one run at a time, it runs each checkout's own
`bench/run.py --workload W --seed SEED --seconds S --trace 0` from that
root and with the caller's environment; the parent runs first on even
seeds and the change on odd ones.  S defaults to the run_seconds of
PARENT_ROOT's BENCHMARK.json, which also gives the end-to-end metrics
and which way each is better.

The last line of a run's stdout is its JSON result.  The comparison is
refused, with exit 1, if a run exits nonzero or is not correct, or if
the change fails a larger share of its operations than the parent.
Otherwise, for each end-to-end metric, it prints the parent's median
and quartiles, the change's median, the pairs the change wins (ties
count for neither) and whether a gain could be claimed: at least 9 wins
in 10 and a median gap, in the better direction, wider than the
distance between the parent's quartiles.  It claims nothing itself.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """range of the seeds "A-B" (or one seed "A"), each >= 0."""
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return seeds


def last_result(stdout):
    """The JSON object on the last nonblank line of a run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def run_bench(root, workload, seed, seconds):
    """(exit code, result or None, stderr) of one run of root's bench/run.py."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=dict(os.environ), capture_output=True, text=True)
    try:
        result = last_result(proc.stdout)
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def refusal(pairs):
    """Why the paired results cannot be compared, or None: a run that is
    missing or incorrect, or a larger failed share on the change's side."""
    for seed, sides in pairs:
        for side, result in zip(("parent", "change"), sides):
            if not result or not result.get("correct"):
                return f"seed {seed}: the {side}'s run is not correct"
    shares = [sum(sides[i]["failed"] for _, sides in pairs)
              / max(sum(sides[i]["attempted"] for _, sides in pairs), 1) for i in (0, 1)]
    if shares[1] > shares[0]:
        return f"the change fails {shares[1]:.4%} of operations, the parent {shares[0]:.4%}"
    return None


def summary(name, better, parent, change):
    """The line of one metric, from its values in each pair's runs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, med, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                   else parent * 3)
    new = statistics.median(change)
    holds = 10 * wins >= 9 * len(parent) and sign * (new - med) > q3 - q1
    return (f"{name:12s} parent {med:.6g} (q1 {q1:.6g}, q3 {q3:.6g})  change {new:.6g} "
            f"({100 * (new - med) / med if med else math.nan:+.2f}%)  "
            f"wins {wins}/{len(parent)}  "
            f"gain rule {'holds' if holds else 'does not hold'}")


def main(argv=None, run=run_bench):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent_root, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    roots = (args.parent_root, args.change_root)
    pairs = []
    for seed in args.seeds:
        sides = {}
        for i in ((0, 1) if seed % 2 == 0 else (1, 0)):
            code, result, stderr = run(roots[i], args.workload, seed, seconds)
            if code:
                print(f"refused: seed {seed}: {roots[i]} exited {code}\n{stderr}")
                return 1
            sides[i] = result
        pairs.append((seed, (sides[0], sides[1])))
    why = refusal(pairs)
    if why:
        print(f"refused: {why}")
        return 1
    print(f"{args.workload}: {len(pairs)} pairs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{seconds:g} s per run")
    for metric in config["end_to_end"]:
        name = metric["name"]
        if all(name in sides[i]["metrics"] for _, sides in pairs for i in (0, 1)):
            parent, change = ([sides[i]["metrics"][name]["value"] for _, sides in pairs]
                              for i in (0, 1))
            print(summary(name, metric["better"], parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
