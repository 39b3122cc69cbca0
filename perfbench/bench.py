"""Workload process of the benchmark; started by run.py.

    bench.py <workload> <seed> <seconds> <trace 0|1> <spawn time, CLOCK_MONOTONIC ns>

Untraced run (trace 0): build the first engine (the end of set-up),
generate the inputs from the seed, then repeat whole rounds until
<seconds> have passed and report the end-to-end metrics.  Traced run
(trace 1): one untraced round, one round with only Engine.step wrapped
(step latency), one round with every layer wrapped (self times, call
counts, spans), and the per-layer metrics.  Both then run the
workload's correctness checks, outside the timed part, and print the
result as one JSON line last.  The metric names and units are the ones
BENCHMARK.json lists.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _setup(workload: str):
    """Import specsim from this checkout and build the workload's first engine."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import specsim
    except ImportError as exc:
        sys.exit(f"bench.py: cannot import specsim from {src}: {exc}")
    if os.path.dirname(os.path.abspath(specsim.__file__)) != os.path.join(src, "specsim"):
        sys.exit(f"bench.py: specsim was imported from {specsim.__file__}, not from {src}")
    import workloads

    if workload not in workloads.WORKLOADS:
        sys.exit(f"bench.py: unknown workload {workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    workloads.Engine(wl.config())
    return wl


def main(argv: list[str]) -> int:
    if len(argv) != 6:
        sys.exit(__doc__)
    workload, seed, seconds, traced, spawned_ns = argv[1], int(argv[2]), int(argv[3]), argv[4] == "1", int(argv[5])
    wl = _setup(workload)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawned_ns) / 1e9

    # imported after set-up is timed
    import json

    import report

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    inputs = wl.generate(seed)
    if traced:
        metrics, res, attempted = report.traced_run(wl, inputs, f"{workload}-seed{seed}-pid{os.getpid()}", ROOT)
        wanted = spec["per_layer"]
    else:
        metrics, res, attempted = report.timed_run(wl, inputs, seconds)
        metrics["setup_s"] = setup_s
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        sys.exit(f"bench.py: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name in units:
        print(f"{name:44s} {metrics[name]:.6g} {units[name]}")
    print(f"attempted {attempted} failed 0")
    report.print_model(res)
    errors = wl.check(inputs, res)
    for err in errors:
        print(f"check FAILED: {err}")
    print("checks passed" if not errors else f"{len(errors)} check(s) failed")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": 0,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
