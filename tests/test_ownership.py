"""Unit tests for thread-ownership bookkeeping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.cache import CacheSet, CohState, Domain
from specsim.ownership import ThreadOwnership


def fresh_set(ways=4, cap_t=2):
    return CacheSet(ways, cap_t)


def test_bit_rejects_out_of_range_threads():
    own = ThreadOwnership(2)
    assert own.bit(0) == 1
    assert own.bit(1) == 2
    with pytest.raises(ValueError):
        own.bit(2)
    with pytest.raises(ValueError):
        own.bit(-1)


def test_acquire_charges_once_per_residency():
    own = ThreadOwnership(2)
    cset = fresh_set()
    cset.install(2, 5, Domain.TEMPORARY, own.bit(0), CohState.SHARED, 1)
    assert own.check_and_acquire(cset, 2, 0) is False  # owned: a hit
    assert own.check_and_acquire(cset, 2, 1) is True  # charged an emulated miss
    # second touch by the new owner is an ordinary hit
    assert own.check_and_acquire(cset, 2, 1) is False
    assert cset.ways[2].owner_mask == 0b11


def test_find_evictable_prefers_invalid_ways():
    own = ThreadOwnership(2)
    cset = fresh_set(ways=4, cap_t=2)
    cset.install(2, 5, Domain.TEMPORARY, own.bit(0), CohState.SHARED, 1)
    assert own.find_evictable(cset, 1) == 3
    assert cset.ways[2].owner_mask == own.bit(0)  # untouched


def test_find_evictable_release_persists_across_failures():
    """A failed eviction scan still sheds the requester's claims, so a
    line owned by several threads drains one scan at a time."""
    own = ThreadOwnership(2)
    cset = fresh_set(ways=4, cap_t=2)
    cset.install(2, 5, Domain.TEMPORARY, own.bit(0) | own.bit(1), CohState.SHARED, 1)
    cset.install(3, 6, Domain.TEMPORARY, own.bit(0) | own.bit(1), CohState.SHARED, 2)
    assert own.find_evictable(cset, 0) is None
    assert cset.ways[2].owner_mask == own.bit(1)
    assert cset.ways[3].owner_mask == own.bit(1)
    # the other owner's scan now drains the first candidate completely
    assert own.find_evictable(cset, 1) == 2
    assert cset.ways[2].owner_mask == 0


def test_find_evictable_drains_own_single_ownership():
    own = ThreadOwnership(2)
    cset = fresh_set(ways=4, cap_t=2)
    cset.install(2, 5, Domain.TEMPORARY, own.bit(0), CohState.SHARED, 1)
    cset.install(3, 6, Domain.TEMPORARY, own.bit(0), CohState.SHARED, 2)
    # oldest own line is evictable immediately
    assert own.find_evictable(cset, 0) == 2


def _victim_order_find_evictable(own, cset, thread):
    """The scan find_evictable must match: walk victim_order, releasing
    the requester's bit on each candidate until one drains."""
    bit = own.bit(thread)
    for way in cset.victim_order(Domain.TEMPORARY):
        meta = cset.ways[way]
        if not meta.valid:
            return way
        meta.owner_mask &= ~bit
        if meta.owner_mask == 0:
            return way
    return None


_way_state = st.one_of(
    st.none(),  # invalid
    st.tuples(st.integers(0, 3), st.integers(0, 15)),  # (recency, owner mask): few stamps, so ties
)


@given(
    num_threads=st.integers(1, 4),
    states=st.lists(_way_state, min_size=2, max_size=8),
    cap_t=st.integers(1, 7),
    requests=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_find_evictable_matches_the_victim_order_scan(num_threads, states, cap_t, requests):
    """Random temporary-domain histories, with recency ties: every scan
    returns the same way and leaves every owner mask as the victim-order
    walk does.  A returned way is then refilled by the requester."""
    ways = len(states)
    cap_t = min(cap_t, ways - 1)
    own = ThreadOwnership(num_threads)
    full = (1 << num_threads) - 1
    sets = [fresh_set(ways, cap_t), fresh_set(ways, cap_t)]
    for cset in sets:
        for way, state in enumerate(states):
            if state is not None:
                recency, mask = state
                dom = cset.ways[way].domain
                cset.install(way, way, dom, mask & full if dom is Domain.TEMPORARY else 0,
                             CohState.SHARED, recency)
    tag = ways
    for thread, recency in requests:
        thread %= num_threads
        got = own.find_evictable(sets[0], thread)
        want = _victim_order_find_evictable(own, sets[1], thread)
        assert got == want
        assert [m.owner_mask for m in sets[0].ways] == [m.owner_mask for m in sets[1].ways]
        if got is not None:
            for cset in sets:
                cset.install(got, tag, Domain.TEMPORARY, own.bit(thread), CohState.SHARED, recency)
            tag += 1
