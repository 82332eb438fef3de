#!/usr/bin/env python3
"""Parent-vs-change performance gate over perfbench pairs.

Builds perfbench in two checkouts, runs short alternating pairs on the
replay workloads, and fails when the change is worse than the parent:

    python3 .github/perf_gate.py PARENT_TREE CHANGE_TREE

Each pair runs both trees on one seed, the first side swapping from pair
to pair. The end-to-end metrics, their direction and their bounds come
from the change tree's BENCHMARK.json. The gate fails when a run exits
non-zero or does not read "correct": true, when the change fails a larger
share of its operations than the parent, or when a change median is worse
than the parent median by more than the metric's bound. It exits 0 on a
pass, 1 on a failure and 2 on a usage error.
"""

import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["replay-backlog", "replay-steady"]
SEEDS = [1, 2, 3, 4, 5]
SECONDS = 5
BINARY = os.path.join("perfbench", "target", "release", "pdpa-perfbench")


def build(tree):
    return subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--locked",
         "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml")],
    ).returncode


def run(tree, workload, seed):
    """One perfbench run; returns its closing JSON object, or the reason
    it has none."""
    argv = [os.path.join(tree, BINARY), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError) as e:
        return None, f"no closing JSON line ({e})"


def worse_by(better, parent, change):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def main():
    if len(sys.argv) != 3:
        print("usage: perf_gate.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    trees = {"parent": os.path.abspath(sys.argv[1]),
             "change": os.path.abspath(sys.argv[2])}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    started = time.monotonic()
    for side, tree in trees.items():
        if build(tree) != 0:
            print(f"FAIL: perfbench does not build in the {side} tree ({tree})")
            return 1

    problems = []
    for workload in WORKLOADS:
        values = {side: {m["name"]: [] for m in metrics} for side in trees}
        ops = {side: [0, 0] for side in trees}
        for i, seed in enumerate(SEEDS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                result, error = run(trees[side], workload, seed)
                if result is None:
                    problems.append(f"{workload} seed {seed} {side}: {error}")
                    continue
                if result.get("correct") is not True:
                    problems.append(f"{workload} seed {seed} {side}: not correct")
                ops[side][0] += result["attempted"]
                ops[side][1] += result["failed"]
                for m in metrics:
                    values[side][m["name"]].append(result["metrics"][m["name"]]["value"])

        share = {side: failed / max(attempted, 1) for side, (attempted, failed) in ops.items()}
        print(f"{workload}: failed share parent {share['parent']:.4f}, "
              f"change {share['change']:.4f}")
        if share["change"] > share["parent"]:
            problems.append(f"{workload}: the change fails a larger share of operations")
        for m in metrics:
            name, parent, change = m["name"], values["parent"][m["name"]], values["change"][m["name"]]
            if not parent or not change:
                continue
            p, c = statistics.median(parent), statistics.median(change)
            worse = worse_by(m["better"], p, c)
            verdict = "FAIL" if worse > m["bound"] else "ok"
            print(f"  {name:<18} parent {p:<12.6g} change {c:<12.6g} "
                  f"worse by {worse:+.3f} (bound {m['bound']}) {verdict}")
            if verdict == "FAIL":
                problems.append(f"{workload} {name}: median worse by {worse:.3f} "
                                f"> bound {m['bound']}")

    print(f"perf gate: {len(SEEDS)} pairs per workload, "
          f"{time.monotonic() - started:.0f} s wall")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("perf gate: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
