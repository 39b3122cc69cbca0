"""A memory budget for the records the simulator builds and keeps.

Trace events and probe observations are immutable, so the PoC builds
its flushes, measures and probe addresses once and shares them across
repetitions, and an observation derives its line instead of storing
it.  `tracemalloc` counts are deterministic for one interpreter, so
this guards that sharing with a count that host noise cannot move.
The bounds assume CPython 3.11's object sizes: 9.0 bytes per event
and 124.3 per probe with the sharing, 112.4 and 196.3 without.
"""

from __future__ import annotations

import gc
import platform
import sys
import tracemalloc

import pytest

from specsim.attacks import PROBE_LINES, build_trace, scenario_config
from specsim.engine import Engine

REPS = 100
MAX_BYTES_PER_EVENT = 32
MAX_BYTES_PER_PROBE = 144


@pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="the bounds assume CPython 3.11 object sizes",
)
def test_poc_trace_and_retained_probes_stay_within_budget():
    cfg = scenario_config("poc", "specbox")
    build_trace("poc", 1, cfg)  # the shared blocks are built on first use
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        events = build_trace("poc", 1, cfg, reps=REPS)
        n_events = len(events)
        per_event = (tracemalloc.get_traced_memory()[0] - base) / n_events
        eng = Engine(cfg)
        eng.run(events)
        report = eng.report
        del eng, events
        gc.collect()
        per_probe = (tracemalloc.get_traced_memory()[0] - base) / len(report.observations)
    finally:
        tracemalloc.stop()
    assert len(report.observations) == REPS * PROBE_LINES
    assert per_event <= MAX_BYTES_PER_EVENT, f"{per_event:.1f} B/event over {n_events} events"
    assert per_probe <= MAX_BYTES_PER_PROBE, f"{per_probe:.1f} B/probe retained by the report"
