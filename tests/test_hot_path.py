"""Budgets of Python calls and of bytecodes per event on the engine's
hot path.

`sys.setprofile` sees every Python frame that `Engine.step` opens, so
the calls made per event are a count that host noise cannot move.  The
100-repetition PoC is the flush/probe loop of a flush+reload attack on
the default hierarchy; the golden soups (see `test_golden`) cover every
event kind on a small one.  A loop over the ways of a set shows up in
bytecodes, not in calls, so the golden stream, whose sets stay full, is
held to a count of bytecodes per event (`sys.settrace` with
`f_trace_opcodes`).  The bounds assume CPython 3.11, where a
NamedTuple's constructor and a dataclass's ``__init__`` are Python
frames too.  Each bound is what its case makes since fills of full sets
stopped scanning their ways and records stopped opening constructor
frames, rounded up to the next hundredth.
"""

from __future__ import annotations

import gc
import platform
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from specsim.attacks import build_trace, scenario_config
from specsim.engine import Engine

from test_golden import POC_REPS, soup_config, soup_events, stream_config, stream_trace

POC_BUDGET = {"specbox": 17.46, "baseline": 12.94}
# (mode, smt) -> calls per event on the golden soup
SOUP_BUDGET = {
    ("specbox", 1): 14.24,
    ("specbox", 2): 14.70,
    ("baseline", 1): 12.23,
    ("baseline", 2): 12.64,
}
# bytecodes per event on the golden specbox stream (1,204.29 when every
# fill scanned the ways of its set)
STREAM_BYTECODE_BUDGET = 865.72

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="the budgets count CPython 3.11's Python frames",
)


def calls_per_event(eng: Engine, events: list) -> tuple[float, Counter]:
    """Step `events` through `eng`; return the Python calls made per
    event and the calls by function."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    with _collector_paused():
        sys.setprofile(profile)
        try:
            for ev in events:
                eng.step(ev)
        finally:
            sys.setprofile(None)
    return sum(calls.values()) / len(events), _by_name(calls)


@contextmanager
def _collector_paused():
    """Keep the cyclic collector out of a count: a collection runs the
    gc callbacks other tests' libraries register (hypothesis times its
    collections) and the finalizers of garbage they left, all Python
    frames that no step opened."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def bytecodes_per_event(eng: Engine, events: list) -> tuple[float, Counter]:
    """Step `events` through `eng`; return the bytecodes executed per
    event and the bytecodes by function."""
    ops: Counter = Counter()

    def trace(frame, event, arg):
        if event == "call":
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
        elif event == "opcode":
            ops[frame.f_code] += 1
        return trace

    with _collector_paused():
        sys.settrace(trace)
        try:
            for ev in events:
                eng.step(ev)
        finally:
            sys.settrace(None)
    return sum(ops.values()) / len(events), _by_name(ops)


def _by_name(per_code: Counter) -> Counter:
    by_name = Counter()
    for code, n in per_code.items():
        by_name[f"{code.co_qualname} ({code.co_filename.rsplit('/', 1)[-1]})"] += n
    return by_name


def _check(per_event: float, by_name: Counter, budget: float, n_events: int,
           what: str = "calls") -> None:
    top = ", ".join(f"{name} {n / n_events:.2f}" for name, n in by_name.most_common(8))
    assert per_event <= budget, f"{per_event:.2f} {what} per event over {budget}; top: {top}"


@pytest.mark.parametrize("mode", sorted(POC_BUDGET))
def test_poc_stays_within_its_call_budget(mode):
    cfg = scenario_config("poc", mode)
    events = build_trace("poc", 1, cfg, reps=POC_REPS)
    per_event, by_name = calls_per_event(Engine(cfg), events)
    _check(per_event, by_name, POC_BUDGET[mode], len(events))


@pytest.mark.parametrize("mode, smt", sorted(SOUP_BUDGET))
def test_soup_makes_no_more_calls_than_before(mode, smt):
    cfg = soup_config(mode, smt)
    events = soup_events(cfg, smt)
    per_event, by_name = calls_per_event(Engine(cfg), events)
    _check(per_event, by_name, SOUP_BUDGET[mode, smt], len(events))


def test_full_sets_stay_within_the_bytecode_budget():
    cfg = stream_config("specbox")
    events = stream_trace(cfg)
    per_event, by_name = bytecodes_per_event(Engine(cfg), events)
    _check(per_event, by_name, STREAM_BYTECODE_BUDGET, len(events), "bytecodes")
