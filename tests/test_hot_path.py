"""Budgets of Python calls, bytecodes and enum member lookups per
event on the engine's hot path.

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

Neither budget sees what a lookup such as ``Domain.PERSISTENT`` costs:
it is one opcode, ``LOAD_ATTR`` on the class, and opens no frame.  But
on 3.11 ``EnumType`` defines ``__getattr__``, so that opcode takes the
slow metaclass path, about ten times a module global's load.  The
simulator's modules therefore bind each member to a module constant
right after its class and compare against that.  The last budget holds
every case to no such lookup at all: `dis` finds each
``LOAD_GLOBAL <enum class>`` + ``LOAD_ATTR`` pair in specsim's
functions, and opcode tracing counts how often one runs.
"""

from __future__ import annotations

import dis
import gc
import importlib
import pkgutil
import platform
import sys
from collections import Counter
from contextlib import contextmanager
from enum import EnumType

import pytest

import specsim
from specsim.attacks import build_trace, scenario_config
from specsim.cache import Domain
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
# fill scanned the ways of its set, 865.72 while the code still looked
# up enum members on their classes)
STREAM_BYTECODE_BUDGET = 826.11

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


def enum_lookup_sites(modules) -> dict:
    """Code object -> {offset: line} of every ``LOAD_GLOBAL <enum
    class>`` directly followed by ``LOAD_ATTR`` in the functions,
    methods and nested functions that `modules` define."""
    sites = {}
    for module in modules:
        enums = {name for name, v in vars(module).items() if isinstance(v, EnumType)}
        for code in _code_objects(module):
            instrs = list(dis.get_instructions(code))
            pairs = {
                load.offset: load.positions.lineno
                for load, attr in zip(instrs, instrs[1:])
                if load.opname == "LOAD_GLOBAL" and load.argval in enums
                and attr.opname == "LOAD_ATTR"
            }
            if pairs:
                sites[code] = pairs
    return sites


def _code_objects(module) -> list:
    found = []
    for value in vars(module).values():
        if isinstance(value, type) and value.__module__ == module.__name__:
            members = list(vars(value).values())
        elif getattr(value, "__module__", None) == module.__name__:
            members = [value]
        else:
            continue
        for member in members:
            # a function, a classmethod or staticmethod, or a property
            for fn in (member, getattr(member, "__func__", None), getattr(member, "fget", None)):
                code = getattr(fn, "__code__", None)
                if code is not None:
                    found.append(code)
    for code in found:  # grows as nested functions turn up
        found.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return found


def specsim_modules() -> list:
    return [importlib.import_module(f"specsim.{m.name}")
            for m in pkgutil.iter_modules(specsim.__path__)]


def enum_lookups(sites: dict, run) -> Counter:
    """Call `run()`; return how often each site in `sites` ran, keyed
    by function and line."""
    hits: Counter = Counter()

    def trace(frame, event, arg):
        code = frame.f_code
        pairs = sites.get(code)
        if pairs is None:
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        where = f"{code.co_qualname} ({code.co_filename.rsplit('/', 1)[-1]}:"

        def local(frame, event, arg):
            if event == "opcode":
                line = pairs.get(frame.f_lasti)
                if line is not None:
                    hits[f"{where}{line})"] += 1
            return local

        return local

    with _collector_paused():
        sys.settrace(trace)
        try:
            run()
        finally:
            sys.settrace(None)
    return hits


def _check_no_enum_lookups(eng: Engine, events: list) -> None:
    sites = enum_lookup_sites(specsim_modules())

    def run():
        for ev in events:
            eng.step(ev)

    hits = enum_lookups(sites, run)
    per_event = sum(hits.values()) / len(events)
    where = ", ".join(f"{site} {n} times" for site, n in hits.most_common())
    assert not hits, f"{per_event:.2f} enum member lookups per event: {where}"


def _sample_lookup():
    return Domain.PERSISTENT


def test_the_lookup_count_sees_a_lookup():
    sites = enum_lookup_sites([sys.modules[__name__]])
    assert list(sites) == [_sample_lookup.__code__]
    hits = enum_lookups(sites, lambda: [_sample_lookup() for _ in range(3)])
    line = _sample_lookup.__code__.co_firstlineno + 1
    assert hits == {f"_sample_lookup (test_hot_path.py:{line})": 3}


@pytest.mark.parametrize("mode", sorted(POC_BUDGET))
def test_poc_looks_up_no_enum_member(mode):
    cfg = scenario_config("poc", mode)
    _check_no_enum_lookups(Engine(cfg), build_trace("poc", 1, cfg, reps=POC_REPS))


@pytest.mark.parametrize("mode, smt", sorted(SOUP_BUDGET))
def test_soup_looks_up_no_enum_member(mode, smt):
    cfg = soup_config(mode, smt)
    _check_no_enum_lookups(Engine(cfg), soup_events(cfg, smt))


@pytest.mark.parametrize("mode", ["baseline", "specbox"])
def test_stream_looks_up_no_enum_member(mode):
    cfg = stream_config(mode)
    _check_no_enum_lookups(Engine(cfg), stream_trace(cfg))
