"""Benchmark entry point.

    python3 perfbench/run.py --workload spec-contended --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  This script only starts the workload
process (bench.py, same interpreter) and waits for it: set-up time is
counted from the moment the workload process is spawned, so it covers
interpreter start, importing specsim, building the config and building
the first engine.  The workload process prints the report; its last
line is one JSON object.  The exit code is the workload process's.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="spec-contended, committed-stream or attack-suite")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting per-layer metrics")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench.py")
    spawned_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, bench, args.workload, str(args.seed),
                             str(args.seconds), str(args.trace), str(spawned_ns)])
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload process exceeded {TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
