#!/usr/bin/env python3
"""Trains the default weights the benchmark loads into mpcnn_cache_perfbench/
(ignored by git), checks each file with `mpcnn_cli verify`, and marks the
cache ready.  Timed runs only load these weights.

    python3 perfbench/weights.py
"""

import sys

import bench


def main():
    try:
        bench.build()
        bench.prepare_weights()
    except bench.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(f"weights ready in {bench.CACHE}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
