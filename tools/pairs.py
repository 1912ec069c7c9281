#!/usr/bin/env python3
"""Alternating parent/change runs of the repo benchmark, summarised.

    tools/pairs.py PARENT_BIN CHANGE_BIN --workload W [--seed S] [--pairs N]
                   [--seconds T] [--quick]

Runs `BIN run --workload W --seed S --seconds T --trace 0` once per side per
pair, alternating which side goes first (pair 1 parent first, pair 2 change
first, ...), so a slow spell on the host lands on both sides alike. Prints
every run, then for each end-to-end metric of `BENCHMARK.json`: the median
[q1, q3] of each side, the ratio of the medians, how many pairs the change
won, and the gap — the distance between the medians over the parent's
interquartile range (a gap above 1 is a difference the parent's own spread
does not cover). Exits non-zero if any run is not `correct`, or if
`attempted` or `failed` differ between any two runs: the two binaries must
simulate the same thing.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def end_to_end():
    """(name, higher_is_better) of every end-to-end metric."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"] == "higher") for m in spec["end_to_end"]]


def run(binary, args):
    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.quick:
        cmd.append("--quick")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    line = next(l for l in reversed(out.splitlines()) if l.startswith("{"))
    return json.loads(line)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--quick", action="store_true",
                   help="pass --quick: a check that both sides run, not a measurement")
    args = p.parse_args()
    metrics = end_to_end()

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run(getattr(args, side), args)
            runs[side].append(r)
            shown = "  ".join(f"{n}={r['metrics'][n]['value']:.6g}" for n, _ in metrics)
            print(f"pair {i + 1:2}  {side:6}  {shown}  attempted={r['attempted']} "
                  f"failed={r['failed']} correct={r['correct']}", flush=True)

    budget = "--quick" if args.quick else f"{args.seconds:g} s"
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {budget}")
    print(f"{'metric':18} {'parent median [q1, q3]':38} {'change median [q1, q3]':38} "
          f"{'ratio':>6} {'wins':>6} {'gap':>7}")
    for name, higher in metrics:
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        iqr = a3 - a1
        gap = abs(mb - ma) / iqr if iqr > 0 else float("inf")
        ratio = mb / ma if ma else float("nan")
        cell = lambda m, q1, q3: f"{m:.6g} [{q1:.6g}, {q3:.6g}]"
        print(f"{name:18} {cell(ma, a1, a3):38} {cell(mb, b1, b3):38} "
              f"{ratio:6.3f} {wins:3}/{args.pairs:<2} {gap:7.2f}")

    every = runs["parent"] + runs["change"]
    bad = [k for k in ("correct", "attempted", "failed") if len({r[k] for r in every}) != 1]
    if bad or not all(r["correct"] for r in every):
        print(f"FAIL: the two sides differ or are incorrect in {bad or ['correct']}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
