"""Unit tests for the directory and transition gating."""

from __future__ import annotations

from specsim.cache import CohState
from specsim.coherence import Directory


def test_absent_line_grants():
    d = Directory(2)
    assert d.grant_load(4, 0, speculative=True).grant is CohState.SHARED
    assert d.grant_load(4, 0, speculative=False).grant is CohState.EXCLUSIVE


def test_speculative_load_of_remote_exclusive_is_delayed():
    d = Directory(2)
    d.note_l2_fill(4, CohState.EXCLUSIVE)
    d.note_l1_fill(4, 0, CohState.EXCLUSIVE)
    g = d.grant_load(4, 1, speculative=True)
    assert g.delayed
    assert not g.recall
    # the directory was not consulted into a new state
    assert d.state(4) is CohState.EXCLUSIVE


def test_committed_load_of_remote_exclusive_recalls():
    d = Directory(2)
    d.note_l2_fill(4, CohState.MODIFIED)
    d.note_l1_fill(4, 0, CohState.MODIFIED)
    g = d.grant_load(4, 1, speculative=False)
    assert g.recall
    assert g.grant is CohState.SHARED
    d.downgrade(4)
    assert d.state(4) is CohState.SHARED
    assert d.entry(4).owner is None


def test_own_exclusive_reload_keeps_state():
    d = Directory(2)
    d.note_l2_fill(4, CohState.EXCLUSIVE)
    d.note_l1_fill(4, 0, CohState.EXCLUSIVE)
    g = d.grant_load(4, 0, speculative=True)
    assert not g.delayed
    assert g.grant is CohState.EXCLUSIVE


def test_shared_line_loads_freely():
    d = Directory(2)
    d.note_l2_fill(4, CohState.SHARED)
    d.note_l1_fill(4, 0, CohState.SHARED)
    for speculative in (True, False):
        g = d.grant_load(4, 1, speculative)
        assert not g.delayed and not g.recall
        assert g.grant is CohState.SHARED


def test_speculative_store_gating():
    d = Directory(2)
    # absent line: fresh modified fill is fine
    g = d.grant_store(4, 0, speculative=True, local_persistent_shared=False)
    assert not g.delayed and g.grant is CohState.MODIFIED
    # any remote copy delays the upgrade
    d.note_l2_fill(4, CohState.SHARED)
    d.note_l1_fill(4, 1, CohState.SHARED)
    g = d.grant_store(4, 0, speculative=True, local_persistent_shared=False)
    assert g.delayed
    # a local persistent copy in S delays too: the upgrade could not
    # be rolled back without telling remote observers
    d2 = Directory(2)
    d2.note_l2_fill(8, CohState.SHARED)
    d2.note_l1_fill(8, 0, CohState.SHARED)
    g = d2.grant_store(8, 0, speculative=True, local_persistent_shared=True)
    assert g.delayed


def test_speculative_store_own_exclusive_upgrades_silently():
    d = Directory(2)
    d.note_l2_fill(4, CohState.EXCLUSIVE)
    d.note_l1_fill(4, 0, CohState.EXCLUSIVE)
    g = d.grant_store(4, 0, speculative=True, local_persistent_shared=False)
    assert not g.delayed
    assert g.grant is CohState.MODIFIED


def test_committed_store_invalidates_remote_sharers():
    d = Directory(2)
    d.note_l2_fill(4, CohState.SHARED)
    d.note_l1_fill(4, 0, CohState.SHARED)
    d.note_l1_fill(4, 1, CohState.SHARED)
    g = d.grant_store(4, 1, speculative=False, local_persistent_shared=False)
    assert g.recall
    assert g.invalidate_cores == 0b01  # everyone but the writer
    d.remove_sharers(4, 0b01)
    d.upgrade_for_store(4, 1)
    e = d.entry(4)
    assert e.state is CohState.MODIFIED
    assert e.owner == 1
    assert e.sharers == 0b10


def test_sharer_tracking_and_drop():
    d = Directory(2)
    d.note_l2_fill(4, CohState.SHARED)
    d.note_l1_fill(4, 0, CohState.SHARED)
    d.note_l1_fill(4, 1, CohState.SHARED)
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
    d.note_l1_fill(4, 0, CohState.MODIFIED)
    d.note_l2_fill(4, CohState.SHARED)
    assert d.state(4) is CohState.MODIFIED


def test_fingerprint_tracks_state():
    d = Directory(2)
    fp0 = d.fingerprint()
    d.note_l2_fill(4, CohState.SHARED)
    assert d.fingerprint() != fp0
    d.drop(4)
    assert d.fingerprint() == fp0
