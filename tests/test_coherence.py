"""Unit tests for the directory and transition gating."""

from __future__ import annotations

import itertools

from specsim.cache import LINE_SIZE, CohState, Domain
from specsim.coherence import DirEntry, Directory
from specsim.engine import Engine
from specsim.trace import TraceEvent

from conftest import small_config


def test_absent_line_grants():
    d = Directory(2)
    assert d.grant_load(4, 0, speculative=True) is CohState.SHARED
    assert d.grant_load(4, 0, speculative=False) is CohState.EXCLUSIVE
    assert d.grant_store(4, 0) is None  # nobody else holds it


def test_speculative_load_of_remote_exclusive_is_delayed():
    d = Directory(2)
    d.note_l2_fill(4, CohState.EXCLUSIVE)
    d.note_l1_fill(0, 4, CohState.EXCLUSIVE)
    assert d.grant_load(4, 1, speculative=True) is None  # delayed
    # the directory was not consulted into a new state
    assert d.state(4) is CohState.EXCLUSIVE


def test_committed_load_of_remote_exclusive_recalls():
    d = Directory(2)
    d.note_l2_fill(4, CohState.MODIFIED)
    d.note_l1_fill(0, 4, CohState.MODIFIED)
    assert d.grant_load(4, 1, speculative=False) is None  # recall, then S
    d.downgrade(4)
    assert d.grant_load(4, 1, speculative=False) is CohState.SHARED
    assert d.state(4) is CohState.SHARED
    assert d.entry(4).owner is None


def test_own_exclusive_reload_keeps_state():
    d = Directory(2)
    d.note_l2_fill(4, CohState.EXCLUSIVE)
    d.note_l1_fill(0, 4, CohState.EXCLUSIVE)
    assert d.grant_load(4, 0, speculative=True) is CohState.EXCLUSIVE
    d.upgrade_for_store(4, 0)
    assert d.grant_load(4, 0, speculative=False) is CohState.MODIFIED


def test_shared_line_loads_freely():
    d = Directory(2)
    d.note_l2_fill(4, CohState.SHARED)
    d.note_l1_fill(0, 4, CohState.SHARED)
    for speculative in (True, False):
        assert d.grant_load(4, 1, speculative) is CohState.SHARED


def test_speculative_store_gating():
    d = Directory(2)
    # absent line: fresh modified fill is fine
    assert d.grant_store(4, 0) is None
    # any remote copy delays the upgrade
    d.note_l2_fill(4, CohState.SHARED)
    d.note_l1_fill(1, 4, CohState.SHARED)
    assert d.grant_store(4, 0) == 0b10
    # a local persistent copy in S delays too: the upgrade could not be
    # rolled back without telling remote observers.  The directory sees
    # no other holder, so the engine applies this rule.
    eng = Engine(small_config())
    addr = 8 * LINE_SIZE
    line = addr // LINE_SIZE
    for ev in (TraceEvent.open(0, 1), TraceEvent.load(0, addr, 1), TraceEvent.commit(0, 1)):
        eng.step(ev)
    assert eng.l1d[0].resident_domain(line) is Domain.PERSISTENT
    assert eng.directory.state(line) is CohState.SHARED
    assert eng.directory.grant_store(line, 0) is None
    before = eng.fingerprint()
    eng.step(TraceEvent.open(0, 2))
    eng.step(TraceEvent.store(0, addr, 2))
    assert eng.report.counters["delayed_coherence"] == 1
    assert eng.fingerprint() == before


def test_speculative_store_own_exclusive_upgrades_silently():
    d = Directory(2)
    d.note_l2_fill(4, CohState.EXCLUSIVE)
    d.note_l1_fill(0, 4, CohState.EXCLUSIVE)
    assert d.grant_store(4, 0) is None  # not delayed; the store takes M
    # and the engine upgrades it in place, with no delay
    eng = Engine(small_config())
    eng.step(TraceEvent.load(0, 4 * LINE_SIZE))
    assert eng.directory.state(4) is CohState.EXCLUSIVE
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.store(0, 4 * LINE_SIZE, 1))
    assert eng.report.counters["delayed_coherence"] == 0
    assert eng.directory.state(4) is CohState.MODIFIED


def test_committed_store_invalidates_remote_sharers():
    d = Directory(2)
    d.note_l2_fill(4, CohState.SHARED)
    d.note_l1_fill(0, 4, CohState.SHARED)
    d.note_l1_fill(1, 4, CohState.SHARED)
    assert d.grant_store(4, 1) == 0b01  # everyone but the writer
    d.remove_sharers(4, 0b01)
    d.upgrade_for_store(4, 1)
    e = d.entry(4)
    assert e.state is CohState.MODIFIED
    assert e.owner == 1
    assert e.sharers == 0b10


def test_sharer_tracking_and_drop():
    d = Directory(2)
    d.note_l2_fill(4, CohState.SHARED)
    d.note_l1_fill(0, 4, CohState.SHARED)
    d.note_l1_fill(1, 4, CohState.SHARED)
    assert d.sharers(4) == 0b11
    d.remove_sharers(4, 0b01)
    assert d.sharers(4) == 0b10
    assert d.drop(4) == 0b10  # the cores whose L1 copies go with it
    assert d.entry(4) is None
    assert d.drop(4) == 0
    assert d.sharers(4) == 0
    assert d.state(4) is CohState.INVALID


def test_note_l2_fill_does_not_clobber_existing_entry():
    d = Directory(2)
    d.note_l2_fill(4, CohState.MODIFIED)
    d.note_l1_fill(0, 4, CohState.MODIFIED)
    d.note_l2_fill(4, CohState.SHARED)
    assert d.state(4) is CohState.MODIFIED


def test_fingerprint_tracks_state():
    d = Directory(2)
    fp0 = d.fingerprint()
    d.note_l2_fill(4, CohState.SHARED)
    assert d.fingerprint() != fp0
    d.drop(4)
    assert d.fingerprint() == fp0


# -- the whole decision table ------------------------------------------------

_E_OR_M = (CohState.EXCLUSIVE, CohState.MODIFIED)


def _reference_load(entry, core, speculative):
    """A load takes S from an untracked line if speculative, else E; S
    from a shared line; the holder's own state when the requester owns
    the E/M line; and waits (None) when anyone else might own it."""
    if entry is None:
        return CohState.SHARED if speculative else CohState.EXCLUSIVE
    state, owner, _ = entry
    if state is CohState.SHARED:
        return CohState.SHARED
    return state if owner == core else None


def _reference_store(entry, core):
    """A store answers the mask of the other cores' L1 copies when some
    other core may hold the line -- as a sharer, or as an E/M owner that
    is not the requester (an unrecorded owner counts) -- and None when
    nobody else does."""
    if entry is None:
        return None
    state, owner, sharers = entry
    others = sum(1 << c for c in range(3) if c != core and sharers >> c & 1)
    remote_owner = state in _E_OR_M and owner != core
    return others if others or remote_owner else None


def _entries():
    yield None
    for sharers in range(8):
        yield CohState.SHARED, None, sharers
    for state, owner, sharers in itertools.product(_E_OR_M, (None, 0, 1, 2), range(8)):
        yield state, owner, sharers


def test_decision_table_matches_the_reference_rule():
    """Every entry a 3-core directory can hold, asked by every core,
    speculative or not."""
    checked = 0
    for entry in _entries():
        d = Directory(3)
        if entry is not None:
            d._entries[4] = DirEntry(*entry)
        for core in range(3):
            for speculative in (True, False):
                assert d.grant_load(4, core, speculative) is _reference_load(entry, core, speculative), (
                    entry, core, speculative)
            assert d.grant_store(4, core) == _reference_store(entry, core), (entry, core)
            checked += 1
        assert d.entry(4) == (None if entry is None else DirEntry(*entry))  # asking changes nothing
    assert checked == 3 * (1 + 8 + 2 * 4 * 8)
