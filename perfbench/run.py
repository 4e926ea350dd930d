#!/usr/bin/env python3
"""Builds and runs the cluster-path benchmark.

    python3 perfbench/run.py --workload faas_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, briefly, plus the
                                        # determinism self-test

Run from the repository root. The first call configures and builds the
simulator libraries and lnic_perfbench (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when it is unset;
later calls only rebuild what changed. Build output goes to stderr, so
the last line on stdout is lnic_perfbench's JSON result. Traced runs write
their spans as Chrome JSON next to the build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["faas_mix", "nic_kv_rw", "image_rdma"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds lnic_perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources under", ROOT, file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed:", " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, "lnic_perfbench")


def run(binary, args):
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)

    def bench(workload, seconds, trace):
        return run(binary, ["--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(seconds), "--trace", str(trace),
                            "--out", traces])

    if args.workload:
        seconds = 10 if args.seconds is None else args.seconds
        return bench(args.workload, seconds, args.trace)

    # Everything, briefly: the self-test, then each workload untraced and
    # traced (one round each unless --seconds asks for more).
    seconds = 0 if args.seconds is None else args.seconds
    failed = run(binary, ["--selftest", "--seed", str(args.seed)]) != 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            failed |= bench(workload, seconds, trace) != 0
    print("perfbench:", "FAILED" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
