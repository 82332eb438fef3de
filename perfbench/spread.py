#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, for each metric, the
median and the spread between the first and third quartile as a share of
the median: the figure the bounds in BENCHMARK.json are checked against.

Run from the root of the repository:

    python3 perfbench/spread.py replay-steady --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    first, last = (int(s) for s in args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        argv = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        run = subprocess.run(argv, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect\n{run.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
        ), flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vs in values.items():
        median = statistics.median(vs)
        spread = 0.0
        if len(vs) >= 2 and median:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / median
        print(f"{name:<30} median {median:<14.6g} spread {spread:.4f}"
              f"  bound {bounds.get(name, '-')}")


if __name__ == "__main__":
    main()
