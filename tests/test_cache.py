"""Unit tests for set/way bookkeeping and geometry."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.cache import (
    LINE_SIZE,
    CacheGeometry,
    CacheSet,
    CohState,
    Domain,
    DomainEmpty,
    InvalidWay,
    LevelId,
)


def test_geometry_round_trip():
    geom = CacheGeometry(LevelId.L2, num_sets=32, ways=16)
    addr = 0x40000 + 5 * LINE_SIZE + 17
    line = geom.line_of(addr)
    assert line == (0x40000 + 5 * LINE_SIZE) // LINE_SIZE
    si = geom.set_index(line)
    tag = geom.tag(line)
    assert geom.line_from(si, tag) == line


@given(st.integers(min_value=0, max_value=2**40), st.sampled_from([8, 16, 64, 4096]))
@settings(max_examples=200)
def test_geometry_line_from_inverts(addr, num_sets):
    geom = CacheGeometry(LevelId.L1D, num_sets=num_sets, ways=4)
    line = geom.line_of(addr)
    assert geom.line_from(geom.set_index(line), geom.tag(line)) == line


def test_initial_labelling_puts_cap_t_ways_in_temporary():
    cset = CacheSet(8, 3)
    assert cset.count(Domain.TEMPORARY) == 3
    assert cset.count(Domain.PERSISTENT) == 5
    assert [m.domain for m in cset.ways[:5]] == [Domain.PERSISTENT] * 5
    assert [m.domain for m in cset.ways[5:]] == [Domain.TEMPORARY] * 3
    assert not any(m.valid for m in cset.ways)


def test_unused_ways_share_read_only_metadata():
    a, b = CacheSet(4, 1), CacheSet(4, 1)
    with pytest.raises(TypeError):
        a.ways[0].owner_mask = 1
    a.install(0, 9, Domain.PERSISTENT, 0, CohState.EXCLUSIVE, 1)
    a.relabel(1, Domain.TEMPORARY)
    a.invalidate(2)
    assert [m.snapshot() for m in b.ways] == [
        (0, False, "P", 0, "I", 0)] * 3 + [(0, False, "T", 0, "I", 0)]
    assert a.ways[0].snapshot() == (9, True, "P", 0, "E", 1)
    assert a.count(Domain.TEMPORARY) == 2


def test_cap_t_must_leave_a_persistent_way():
    with pytest.raises(ValueError):
        CacheSet(8, 8)
    with pytest.raises(ValueError):
        CacheSet(8, -1)


def test_new_sets_match_sets_built_one_by_one():
    sets = CacheSet.new_sets(3, 8, 3)
    assert [c.snapshot() for c in sets] == [CacheSet(8, 3).snapshot()] * 3
    assert all(c.index == {} and c.keys is None for c in sets)
    sets[0].install(0, 9, Domain.PERSISTENT, 0, CohState.EXCLUSIVE, 1)
    assert not sets[1].ways[0].valid and sets[1].index == {}
    assert CacheSet.new_sets(0, 8, 3) == []
    with pytest.raises(ValueError):
        CacheSet.new_sets(3, 8, 8)


def test_victim_order_prefers_invalid_then_lru():
    cset = CacheSet(8, 4)
    stamp = 0
    for way, tag in ((4, 10), (6, 11)):
        stamp += 1
        cset.install(way, tag, Domain.TEMPORARY, 0, CohState.SHARED, stamp)
    # invalid temporary ways (5, 7) come first, lowest index first
    assert cset.victim_order(Domain.TEMPORARY) == [5, 7, 4, 6]
    stamp += 1
    cset.touch(4, stamp)
    assert cset.victim_order(Domain.TEMPORARY) == [5, 7, 6, 4]
    assert cset.select_victim(Domain.TEMPORARY) == 5


def test_victim_order_empty_domain_raises():
    cset = CacheSet(4, 0)
    with pytest.raises(DomainEmpty):
        cset.victim_order(Domain.TEMPORARY)


def test_touch_invalid_way_raises():
    cset = CacheSet(4, 2)
    with pytest.raises(InvalidWay):
        cset.touch(0, 1)


def test_invalidate_keeps_domain_label():
    cset = CacheSet(4, 2)
    cset.install(2, 7, Domain.TEMPORARY, 0b1, CohState.MODIFIED, 1)
    cset.invalidate(2)
    meta = cset.ways[2]
    assert not meta.valid
    assert meta.domain is Domain.TEMPORARY
    assert meta.owner_mask == 0
    assert meta.coh_state is CohState.INVALID


def test_lookup_finds_only_valid_ways():
    cset = CacheSet(4, 2)
    cset.install(1, 9, Domain.PERSISTENT, 0, CohState.EXCLUSIVE, 1)
    assert cset.lookup(9) == (1, Domain.PERSISTENT)
    cset.invalidate(1)
    assert cset.lookup(9) is None


@given(st.lists(st.tuples(st.sampled_from(["install", "touch", "invalidate"]),
                          st.integers(min_value=0, max_value=7)),
                max_size=40))
@settings(max_examples=200)
def test_victim_order_is_domain_permutation_with_invalid_prefix(ops):
    """Whatever happens to a set, victim_order(d) enumerates exactly the
    ways labelled d, invalid ones first."""
    cset = CacheSet(8, 3)
    stamp = 0
    for op, way in ops:
        meta = cset.ways[way]
        stamp += 1
        if op == "install":
            cset.install(way, 100 + way, meta.domain, 0, CohState.SHARED, stamp)
        elif op == "touch" and meta.valid:
            cset.touch(way, stamp)
        elif op == "invalidate":
            cset.invalidate(way)
    for domain in (Domain.TEMPORARY, Domain.PERSISTENT):
        order = cset.victim_order(domain)
        members = [i for i, m in enumerate(cset.ways) if m.domain is domain]
        assert sorted(order) == members
        flags = [cset.ways[i].valid for i in order]
        # no valid way may precede an invalid one
        assert flags == sorted(flags)


def _scan_lookup(cset, tag):
    """Linear-scan reference for the tag index."""
    for idx, meta in enumerate(cset.ways):
        if meta.valid and meta.tag == tag:
            return idx, meta.domain
    return None


def test_install_rejects_a_tag_resident_in_another_way():
    cset = CacheSet(4, 1)
    cset.install(0, 5, Domain.PERSISTENT, 0, CohState.SHARED, 1)
    with pytest.raises(ValueError):
        cset.install(1, 5, Domain.PERSISTENT, 0, CohState.SHARED, 2)
    # refilling the way that holds the tag is allowed
    cset.install(0, 5, Domain.PERSISTENT, 0, CohState.EXCLUSIVE, 3)
    assert cset.lookup(5) == (0, Domain.PERSISTENT)


@given(st.lists(st.tuples(st.sampled_from(["install", "install", "touch", "invalidate", "relabel"]),
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=7),
                          st.sampled_from([Domain.TEMPORARY, Domain.PERSISTENT])),
                max_size=60))
@settings(max_examples=300)
def test_tag_index_and_victim_choice_match_linear_scans(ops):
    """After any sequence of set operations, lookup agrees with a scan of
    the ways and select_victim(d) is the head of victim_order(d)."""
    cset = CacheSet(4, 1)
    for op, way, tag, domain in ops:
        stamp = tag // 3  # few distinct stamps, so recency ties happen
        if op == "install":
            holder = _scan_lookup(cset, tag)
            if holder is not None and holder[0] != way:
                with pytest.raises(ValueError):
                    cset.install(way, tag, domain, 0, CohState.SHARED, stamp)
            else:
                meta = cset.ways[way]
                displaced = meta.tag if meta.valid else None
                assert cset.install(way, tag, domain, 0, CohState.SHARED, stamp) == displaced
        elif op == "touch" and cset.ways[way].valid:
            cset.touch(way, stamp)
        elif op == "invalidate":
            cset.invalidate(way)
        elif op == "relabel":
            cset.relabel(way, domain)
        for t in range(8):
            assert cset.lookup(t) == _scan_lookup(cset, t)
        for d in (Domain.TEMPORARY, Domain.PERSISTENT):
            if cset.count(d) == 0:
                with pytest.raises(DomainEmpty):
                    cset.select_victim(d)
            else:
                assert cset.select_victim(d) == cset.victim_order(d)[0]


def _promote_by_steps(cset, way, stamp):
    """The five fine-grained calls that `promote` folds into one."""
    victim = cset.select_victim(Domain.PERSISTENT)
    vmeta = cset.ways[victim]
    evicted = vmeta.tag if vmeta.valid else None
    cset.invalidate(victim)
    cset.relabel(victim, Domain.TEMPORARY)
    cset.relabel(way, Domain.PERSISTENT)
    cset.ways[way].owner_mask = 0
    cset.touch(way, stamp)
    return evicted


def _fill_persistent(cset, stamps):
    """Install a line in every persistent way, stamped from `stamps` in
    turn, and ask for the persistent victim, which builds the set's keys."""
    persistent = [i for i, m in enumerate(cset.ways) if m.domain is Domain.PERSISTENT]
    for n, way in enumerate(persistent):
        cset.install(way, 1000 + way, Domain.PERSISTENT, 0, CohState.SHARED, stamps[n % len(stamps)])
    cset.select_victim(Domain.PERSISTENT)
    assert cset.keys is not None


def _reference_keys(cset):
    """The victim keys the module docstring defines, from the ways."""
    return [(m.recency if m.valid else -1) if m.domain is Domain.PERSISTENT else math.inf
            for m in cset.ways]


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
       st.lists(st.tuples(st.sampled_from(["install", "install", "touch", "invalidate",
                                           "relabel", "promote"]),
                          st.integers(min_value=0, max_value=5),
                          st.integers(min_value=0, max_value=11),
                          st.sampled_from([Domain.TEMPORARY, Domain.PERSISTENT])),
                max_size=60))
@settings(max_examples=300)
def test_victim_keys_track_every_write(stamps, ops):
    """Once a full persistent domain has built the keys, every op keeps
    them as the ways define them, so select_victim(d) stays the head of
    victim_order(d) for both domains, ties and stamps that go backwards
    included."""
    cset = CacheSet(6, 2)
    _fill_persistent(cset, stamps)
    for op, way, tag, domain in ops:
        meta = cset.ways[way]
        stamp = (tag * 7) % 5  # non-monotonic, with ties
        if op == "install" and cset.index.get(tag, way) == way:
            cset.install(way, tag, domain, 0, CohState.SHARED, stamp)
        elif op == "touch" and meta.valid:
            cset.touch(way, stamp)
        elif op == "invalidate":
            cset.invalidate(way)
        elif op == "relabel":
            cset.relabel(way, domain)
        elif (op == "promote" and meta.valid and meta.domain is Domain.TEMPORARY
              and cset.count(Domain.PERSISTENT)):
            cset.promote(way, stamp)
        assert cset.keys == _reference_keys(cset)
        for d in (Domain.TEMPORARY, Domain.PERSISTENT):
            if cset.count(d) == 0:
                with pytest.raises(DomainEmpty):
                    cset.select_victim(d)
            else:
                assert cset.select_victim(d) == cset.victim_order(d)[0]


def test_a_set_whose_persistent_domain_never_fills_has_no_keys():
    """Keys cost a list per set, so only a set whose persistent domain
    has been full builds them: the mostly empty sets of a default-size
    hierarchy, thousands per engine, stay without one."""
    cset = CacheSet(6, 2)
    for way in range(3):
        cset.install(way, 10 + way, Domain.PERSISTENT, 0, CohState.SHARED, 5 - way)
    cset.touch(0, 9)
    cset.invalidate(1)
    for way in (4, 5):
        cset.install(way, 20 + way, Domain.TEMPORARY, 0b1, CohState.SHARED, 7)
    assert cset.select_victim(Domain.TEMPORARY) == 4  # a full temporary domain
    assert cset.select_victim(Domain.PERSISTENT) == 1
    cset.promote(4, 8)  # into way 1, the invalid persistent victim
    cset.relabel(5, Domain.PERSISTENT)
    assert cset.select_victim(Domain.PERSISTENT) == 3
    assert cset.keys is None
    cset.install(3, 13, Domain.PERSISTENT, 0, CohState.SHARED, 1)
    cset.select_victim(Domain.PERSISTENT)  # now full
    assert cset.keys == _reference_keys(cset)


@given(st.lists(st.tuples(st.sampled_from(["install", "install", "touch", "invalidate"]),
                          st.integers(min_value=0, max_value=5),
                          st.integers(min_value=0, max_value=11)),
                max_size=40),
       st.integers(min_value=0, max_value=1),
       st.booleans())
@settings(max_examples=300)
def test_promote_matches_its_fine_grained_steps(ops, pick, full):
    """`promote` leaves the ways, the tag index, the victim keys and the
    evicted tag exactly as select_victim, invalidate, two relabels and
    touch do, whether or not the persistent domain was full at the
    start (and the keys built)."""
    sets = [CacheSet(6, 2), CacheSet(6, 2)]
    if full:
        for cset in sets:
            _fill_persistent(cset, [3, 1, 3, 0])
    for op, way, tag in ops:
        for cset in sets:
            meta = cset.ways[way]
            if op == "install" and cset.index.get(tag, way) == way:
                cset.install(way, tag, meta.domain, 0b10, CohState.SHARED, tag // 3)
            elif op == "touch" and meta.valid:
                cset.touch(way, tag // 3)
            elif op == "invalidate":
                cset.invalidate(way)
    temporary = [i for i, m in enumerate(sets[0].ways) if m.valid and m.domain is Domain.TEMPORARY]
    if not temporary:
        return
    way = temporary[pick % len(temporary)]
    folded, steps = sets
    assert folded.promote(way, 99) == _promote_by_steps(steps, way, 99)
    assert folded.snapshot() == steps.snapshot()
    assert folded.index == steps.index
    assert folded.keys == steps.keys
    assert folded.count(Domain.TEMPORARY) == 2
