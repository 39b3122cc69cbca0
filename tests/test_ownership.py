"""Unit tests for thread-ownership bookkeeping."""

from __future__ import annotations

import pytest

from specsim.cache import CacheSet, CohState, Domain
from specsim.ownership import AcquireResult, ThreadOwnership


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
    assert own.check_and_acquire(cset, 2, 0) is AcquireResult.OWNED_HIT
    assert own.check_and_acquire(cset, 2, 1) is AcquireResult.ACQUIRED_EMULATED_MISS
    # second touch by the new owner is an ordinary hit
    assert own.check_and_acquire(cset, 2, 1) is AcquireResult.OWNED_HIT
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
