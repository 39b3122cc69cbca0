"""The per-event records and the directory's grants.

The records an engine builds once per event (trace events, probe
observations, access records, which are both the window log's entries
and the notification buffer's notes, and parked fills) are tuples that
keep the semantics of the frozen dataclasses they replaced; the
directory's grants are plain values, a coherence state or a core mask,
so no decision builds an object.  The last tests are counts that host
noise cannot move: while the engine steps, it builds no frozen
dataclass and hashes no plain enum.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import pkgutil
import random
import sys

import pytest

import specsim
from specsim.cache import ADDR_MASK, LINE_SIZE, CacheGeometry, CohState, LevelId
from specsim.coherence import Directory
from specsim.domains import CacheLevel
from specsim.engine import Engine, LatencyClass, TimingObservation, _Pending
from specsim.notifier import AccessRecord
from specsim.trace import EventKind, TraceEvent, TraceParseError

from conftest import small_config
from gentraces import random_events

_LEVEL = CacheLevel(CacheGeometry(LevelId.L1D, 1, 2), 1, 1)

# each record with a value for every field, in field order
RECORDS = [
    (TraceEvent, dict(kind=EventKind.LOAD, thread=1, addr=0x40, window=2, mgmt_op=None)),
    (TimingObservation, dict(index=3, thread=1, addr=0x40, latency=9, klass=LatencyClass.HIT)),
    (AccessRecord, dict(line=4, level=LevelId.L1I, is_store=True)),
    (_Pending, dict(level=_LEVEL, core=0, thread=1, window=2, line=4, is_store=False)),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_immutable_and_equal_by_value(cls, fields):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert cls._fields == tuple(fields)
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert len({by_keyword, by_position}) == 1
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
    last = cls._fields[-1]
    assert by_keyword != by_keyword._replace(**{last: not fields[last]})


def test_record_defaults_are_unchanged():
    assert TraceEvent(EventKind.BARRIER) == (EventKind.BARRIER, 0, None, None, None)
    assert AccessRecord(4, LevelId.L1D).is_store is False


@pytest.mark.parametrize("addr", [0, 0x40, 0x7F, 0x1_0000_0040, 2**64 - 1, 2**64, 2**64 + 0x80])
def test_observation_line_is_derived_from_its_address(addr):
    obs = TimingObservation(0, 0, addr, 1, LatencyClass.HIT)
    assert obs.line == (addr & ADDR_MASK) // LINE_SIZE
    assert "line" not in TimingObservation._fields
    with pytest.raises(AttributeError):
        obs.line = 0


def test_trace_event_constructors_build_by_keyword():
    assert TraceEvent.load(1, 0x40, 2) == TraceEvent(EventKind.LOAD, thread=1, addr=0x40, window=2)
    assert TraceEvent.mgmt("flush", 0, 0x80) == TraceEvent(
        EventKind.MGMT, thread=0, addr=0x80, mgmt_op="flush")
    assert TraceEvent.barrier() == TraceEvent(kind=EventKind.BARRIER)
    with pytest.raises(TraceParseError):
        TraceEvent.mgmt("clean", 0, 0x80)


def test_observation_index_is_the_probes_number(cfg):
    eng = Engine(cfg)
    for addr in (0x40, 0x80, 0x40):
        eng.step(TraceEvent.measure(0, addr))
    assert [o.index for o in eng.report.observations] == [0, 1, 2]


def test_grants_without_per_call_data_are_shared():
    """A load grant is a CohState member or None, so every decision
    without per-call data hands back the same immutable object."""
    d, other = Directory(2), Directory(2)
    # untracked speculative load and a load of a shared line: both S
    assert d.grant_load(4, 0, True) is other.grant_load(8, 1, True) is CohState.SHARED
    d.note_l2_fill(4, CohState.SHARED)
    d.note_l1_fill(0, 4, CohState.SHARED)
    assert d.grant_load(4, 1, False) is other.grant_load(8, 1, True)
    d.note_l1_fill(0, 12, CohState.EXCLUSIVE)
    assert d.grant_load(12, 1, True) is None  # delayed
    assert d.grant_load(12, 1, False) is None  # recall
    assert d.grant_load(12, 0, False) is other.grant_load(8, 0, False) is CohState.EXCLUSIVE
    # a store with no other holder: nothing to delay or shoot down
    assert d.grant_store(8, 0) is d.grant_store(12, 0) is None
    with pytest.raises(AttributeError):
        d.grant_load(4, 0, True).value = "M"


def test_each_committed_rfo_carries_its_own_mask():
    d = Directory(3)
    for core in (0, 1):
        d.note_l1_fill(core, 4, CohState.SHARED)
    d.note_l1_fill(1, 8, CohState.SHARED)
    assert d.grant_store(4, 2) == 0b011
    assert d.grant_store(8, 0) == 0b010
    # a remote owner whose L1 copy has gone leaves nothing to shoot down,
    # but it is still a recall: 0, not None
    d.note_l1_fill(1, 12, CohState.MODIFIED)
    d.remove_sharers(12, 0b10)
    assert d.grant_store(12, 0) == 0 and d.grant_store(12, 2) == 0
    assert d.grant_store(12, 1) is None  # the owner's own store


def _dataclass_inits() -> dict:
    """Every dataclass defined in specsim, by its __init__'s code."""
    inits = {}
    for info in pkgutil.iter_modules(specsim.__path__):
        module = importlib.import_module(f"specsim.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                inits[obj.__init__.__code__] = obj
    return inits


@pytest.mark.parametrize("mode", ["specbox", "baseline"])
@pytest.mark.parametrize("smt", [1, 2])
def test_step_builds_no_frozen_dataclass(mode, smt):
    """Count dataclass constructions while the engine steps random
    soups: none is frozen, not even on a committed RFO, whose grant is
    the mask of the cores to shoot down."""
    cfg = small_config(mode=mode, smt=smt)
    inits = _dataclass_inits()
    built: list[tuple[type, dict]] = []

    def profile(frame, event, arg):
        if event == "call":
            cls = inits.get(frame.f_code)
            if cls is not None:
                built.append((cls, dict(frame.f_locals)))

    eng = Engine(cfg)
    events = list(random_events(random.Random(40 + smt), cfg, 3000))
    sys.setprofile(profile)
    try:
        for ev in events:
            eng.step(ev)
    finally:
        sys.setprofile(None)
    assert eng.report.counters["rfo_invalidations"], "the soup made no committed RFO"
    frozen = [(cls.__name__, args) for cls, args in built if cls.__dataclass_params__.frozen]
    assert frozen == []


@pytest.mark.parametrize("mode", ["specbox", "baseline"])
@pytest.mark.parametrize("smt", [1, 2])
def test_step_hashes_no_plain_enum(mode, smt):
    """A plain ``Enum`` hashes in Python: no dict or set on the step
    path may be keyed by one (``IntEnum`` hashes as its int)."""
    cfg = small_config(mode=mode, smt=smt)
    enum_hash = enum.Enum.__hash__.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is enum_hash:
            calls += 1

    eng = Engine(cfg)
    events = list(random_events(random.Random(40 + smt), cfg, 3000))
    sys.setprofile(profile)
    try:
        for ev in events:
            eng.step(ev)
    finally:
        sys.setprofile(None)
    assert calls == 0
