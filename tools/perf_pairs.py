#!/usr/bin/env python3
"""Compare two lnic_perfbench builds in alternating pairs of runs.

    python3 tools/perf_pairs.py PARENT_BIN CHANGE_BIN --workload image_rdma \\
        --seed 1 --pairs 10 --seconds 20

Each pair runs both binaries once, untraced, with the same workload, seed
and run length; the side that runs first flips every pair, so drift in
the machine's speed falls on both sides alike. For every end-to-end
metric BENCHMARK.json lists, it prints each side's median and quartiles,
how many pairs the change won (ties count for neither side) and whether
the gain rule is met: at least ten pairs, the change winning at least
nine tenths of them, and the medians further apart than the parent's
interquartile range. It also checks that every run was correct and that
all runs printed the same `digest` line.

Exits 1 when a run fails or the digests differ, else 0.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(binary, args, out_dir):
    """Runs one benchmark; returns (digest line, result JSON) or None."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    digest = next((l for l in lines if l.startswith("digest ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        print(f"perf_pairs: {binary} failed (exit {proc.returncode})",
              file=sys.stderr)
        return None
    return digest, result


def quantile(values, q):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values):
    return quantile(values, 0.5), quantile(values, 0.25), quantile(values, 0.75)


def fmt(x):
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="lnic_perfbench built at the parent")
    parser.add_argument("change", help="lnic_perfbench built with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()

    binaries = {"parent": args.parent, "change": args.change}
    values = {side: [] for side in SIDES}  # per run: {metric: value}
    digests = set()
    with tempfile.TemporaryDirectory() as out_dir:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                got = run_once(binaries[side], args, out_dir)
                if got is None:
                    return 1
                digests.add(got[0])
                metrics = {k: v["value"] for k, v in got[1]["metrics"].items()}
                values[side].append(metrics)
                print(f"pair {pair + 1}/{args.pairs} {side}: "
                      f"req_per_s {metrics.get('req_per_s', 0):,.0f}",
                      file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}: {args.pairs} alternating pairs "
          f"of {args.seconds:g} s runs")
    print(f"{'metric':<16} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio':>7} {'wins':>6}  gain")
    for metric in end_to_end_metrics():
        name = metric["name"]
        higher = metric["better"] == "higher"
        parent = [run[name] for run in values["parent"]]
        change = [run[name] for run in values["change"]]
        if len(parent) != args.pairs or len(change) != args.pairs:
            continue
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if higher else c < p))
        (pm, pq1, pq3), (cm, cq1, cq3) = summary(parent), summary(change)
        gap = cm - pm if higher else pm - cm
        met = (args.pairs >= 10 and wins * 10 >= 9 * args.pairs
               and gap > pq3 - pq1)
        ratio = cm / pm if pm else float("nan")
        cells = [f"{fmt(m)} [{fmt(q1)}, {fmt(q3)}]"
                 for m, q1, q3 in ((pm, pq1, pq3), (cm, cq1, cq3))]
        print(f"{name:<16} {cells[0]:>34} {cells[1]:>34} {ratio:>7.3f} "
              f"{wins:>3}/{args.pairs}  {'yes' if met else 'no'}")
    same = len(digests) == 1
    print("digest lines:", "identical" if same else "DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
