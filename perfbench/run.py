#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness from the checkout's sources on first use (and trains
the weights if perfbench/weights.py has not been run), then runs the
untraced harness (--trace 0: end-to-end metrics) or the traced one
(--trace 1: per-layer metrics, spans under .bench_build/spans/).
"""

import argparse
import json
import subprocess
import sys

import bench

# setup_s is the median of this many cold set-ups, each in a process of
# its own: the timed run's and SETUP_RUNS - 1 set-up-only runs before it.
SETUP_RUNS = 3


def cold_setups(args, threads):
    """Times SETUP_RUNS - 1 set-ups, each in a fresh harness process."""
    times = []
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(
            [str(bench.harness()), "--workload", args.workload, "--seed",
             str(args.seed), "--setup-only", "--cache", bench.CACHE]
            + threads, cwd=bench.ROOT, env=bench.harness_env(),
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise bench.BenchError("a set-up-only run failed")
        times.append(json.loads(proc.stdout)["setup_s"])
    return times


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="pool size (default: the harness's pinned 2)")
    args = parser.parse_args()
    threads = [] if args.threads is None else ["--threads", str(args.threads)]
    cmd = [str(bench.harness(traced=args.trace == 1)),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache", bench.CACHE, "--spans", ".bench_build/spans"] + threads
    try:
        bench.build()
        if not bench.weights_ready():
            bench.prepare_weights()
        if args.trace == 0:
            setups = cold_setups(args, threads)
            cmd += ["--setup-s", ",".join(repr(t) for t in setups)]
    except bench.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return subprocess.run(cmd, cwd=bench.ROOT, env=bench.harness_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
