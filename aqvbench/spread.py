#!/usr/bin/env python3
"""Runs one workload under several seeds and reports, per metric, the
median and the spread (interquartile range as a share of the median), the
figures a regression bound is judged against.

    python3 aqvbench/spread.py --workload serve_hot --seeds 1-10 [--trace 0]

Each run is `aqvbench/run.py` in a fresh process; run from the repository
root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    values = {}
    units = {}
    for seed in seeds(args.seeds):
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if run.returncode != 0:
            sys.exit("seed %d failed:\n%s%s" % (seed, run.stdout, run.stderr))
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] != 0:
            sys.exit("seed %d: correct=%s failed=%d" % (seed, result["correct"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
    print("%-36s %12s %8s %9s  %s" % ("metric", "median", "unit", "iqr/med", "n"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print("%-36s %12.5g %8s %8.2f%%  %d" % (name, med, units[name], 100 * spread, len(vals)))


if __name__ == "__main__":
    main()
