#!/usr/bin/env python3
"""Steadiness check: runs each workload N times with seeds 1..N and
prints, per metric, the median, the quartiles and the interquartile
spread as a share of the median (the figure the bounds in BENCHMARK.json
are set against), plus the share of failed operations and, per run, the
share of CPU time the hypervisor stole during the timed phase.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workload NAME ...]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import bench


def run_once(workload, seed, seconds):
    """Returns the result line, the context line and the run's duration."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=bench.ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise bench.BenchError(
            f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])["context"], elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workload", action="append",
                        choices=bench.WORKLOADS)
    args = parser.parse_args()
    if args.seconds is None:
        with open(bench.ROOT / "BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]
    for workload in args.workload or bench.WORKLOADS:
        results, elapsed, steal = [], [], []
        for seed in range(1, args.runs + 1):
            result, context, seconds = run_once(workload, seed, args.seconds)
            results.append(result)
            elapsed.append(seconds)
            steal.append(context["steal_pct"])
            print(f"  {workload} seed {seed}: {seconds:.1f}s "
                  f"correct={result['correct']} "
                  f"steal {context['steal_pct']:.2f}%", file=sys.stderr)
        failed = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs, correct "
              f"{sum(r['correct'] for r in results)}/{args.runs}, failed "
              f"share {failed}, {statistics.median(elapsed):.1f}s per run")
        print("  steal % per run: " + " ".join(f"{s:.2f}" for s in steal))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, iqr = spread(values)
            print(f"  {name:30s} median {med:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  iqr/median {iqr:7.4f}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except bench.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
