"""Timed and traced runs, and the numbers each one reports."""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path

from tracer import Tracer
from workloads import RoundResult, observation_hash


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _mean_probe_cycles(res: RoundResult) -> float:
    return statistics.fmean(o.latency for o in res.observations)


def timed_run(wl, inputs, seconds: int) -> tuple[dict, RoundResult, int]:
    """Whole rounds until `seconds` have passed; events/s is that of the
    fastest round.  Interference from other tenants of a shared host only
    ever slows a round, and on a noisy virtual machine it moves the
    median round of a run far more than the fastest one (README).  Peak
    RSS is read before the checks run."""
    rates = []
    attempted = 0
    res = None
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        res = None  # let the previous round's engine go before the next is built
        t0 = time.perf_counter()
        res = wl.run_round(inputs)
        rates.append(res.events / (time.perf_counter() - t0))
        attempted += res.events
    metrics = {
        "events_per_s": max(rates),
        "peak_rss_mb": _peak_rss_mb(),
        "sim_probe_cycles": _mean_probe_cycles(res),
    }
    return metrics, res, attempted


def _ratio(num: int, base: int) -> float:
    return num / base if base else 0.0


def traced_run(wl, inputs, run_id: str, root: str) -> tuple[dict, RoundResult, int]:
    """One untraced round, one with Engine.step alone wrapped, one with
    every layer wrapped.  Spans of the last are written under perfbench/out."""
    t0 = time.perf_counter()
    untraced = wl.run_round(inputs)
    untraced_s = time.perf_counter() - t0
    attempted = untraced.events
    untraced = None

    step_tracer = Tracer(run_id, {"engine.step"})
    with step_tracer.installed():
        attempted += wl.run_round(inputs).events
    steps = step_tracer.durations_us("engine.step")
    del step_tracer

    tracer = Tracer(run_id)
    t0 = time.perf_counter()
    with tracer.installed():
        res = wl.run_round(inputs)
    traced_s = time.perf_counter() - t0
    attempted += res.events
    tracer.write(Path(root) / "perfbench" / "out" / f"spans-{run_id}.bin")

    m: dict[str, float] = {}
    for name, calls, self_ns in zip(tracer.names, tracer.calls, tracer.self_ns):
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_ns / 1e9
    q = statistics.quantiles(steps, n=100)
    m["engine.step.us_p50"] = statistics.median(steps)
    m["engine.step.us_p99"] = q[98]
    m["engine.step.samples"] = len(steps)

    c = res.counters
    calls = dict(zip(tracer.names, tracer.calls))
    l1 = c["inflight_accesses"] + c["committed_accesses"]
    l2 = c["l2_hits"] + c["memory_fills"]
    m["notifier.windows_retained"] = c["windows_retained"]
    m["coherence.directory_entries"] = c["directory_entries"]
    m["domains.l1_accesses"] = l1
    m["domains.l1_hit_ratio"] = _ratio(c["l1_hits"], l1)
    m["domains.l2_accesses"] = l2
    m["domains.l2_hit_ratio"] = _ratio(c["l2_hits"], l2)
    m["domains.reinstalls"] = c["rsr_reinstalls"]
    m["domains.back_invalidations"] = c["l2_back_invalidations"]
    m["ownership.emulated_misses"] = c["emulated_misses"]
    m["ownership.suspended_installs"] = c["suspended_installs"]
    m["ownership.retry_success_ratio"] = _ratio(
        c["retried_installs"], calls["domains.try_install_suspended"])
    m["coherence.delayed"] = c["delayed_coherence"]
    m["notifier.merge_ratio"] = _ratio(c["nfb_merged"], calls["notifier.offer"])
    m["notifier.forced_out"] = c["nfb_forced_out"]
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_ratio"] = traced_s / untraced_s
    return m, res, attempted


def print_model(res: RoundResult) -> None:
    """Modelled counters and the observation hash: identical for identical
    seeds as long as the model is unchanged."""
    for key in sorted(res.counters):
        print(f"counter {key} {res.counters[key]}")
    print(f"observations {len(res.observations)} hash {observation_hash(res.observations)}")

