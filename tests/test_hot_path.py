"""A budget of Python calls per event on the engine's hot path.

`sys.setprofile` sees every Python frame that `Engine.step` opens, so
the calls made per event are a count that host noise cannot move.  The
100-repetition PoC is the flush/probe loop of a flush+reload attack on
the default hierarchy; the golden soups (see `test_golden`) cover every
event kind on a small one.  The bounds assume CPython 3.11, where a
NamedTuple's constructor and a dataclass's ``__init__`` are Python
frames too.  A PoC bound leaves about half a call per event over what
the engine makes; a soup bound is what the soup makes since the
directory and the owner check answer with plain values, rounded up to
the next hundredth.
"""

from __future__ import annotations

import platform
import sys
from collections import Counter

import pytest

from specsim.attacks import build_trace, scenario_config
from specsim.engine import Engine

from test_golden import POC_REPS, soup_config, soup_events

POC_BUDGET = {"specbox": 19.0, "baseline": 14.5}
# (mode, smt) -> calls per event on the golden soup
SOUP_BUDGET = {
    ("specbox", 1): 16.22,
    ("specbox", 2): 16.51,
    ("baseline", 1): 12.87,
    ("baseline", 2): 13.29,
}

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

    sys.setprofile(profile)
    try:
        for ev in events:
            eng.step(ev)
    finally:
        sys.setprofile(None)
    by_name = Counter()
    for code, n in calls.items():
        by_name[f"{code.co_qualname} ({code.co_filename.rsplit('/', 1)[-1]})"] += n
    return sum(calls.values()) / len(events), by_name


def _check(per_event: float, by_name: Counter, budget: float, n_events: int) -> None:
    top = ", ".join(f"{name} {n / n_events:.2f}" for name, n in by_name.most_common(8))
    assert per_event <= budget, f"{per_event:.2f} calls per event over {budget}; top: {top}"


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
