"""Unit tests for the partitioned cache level."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.cache import CacheGeometry, CohState, Domain, LevelId
from specsim.domains import (
    AccessOutcome,
    CacheLevel,
    CapacityOutOfRange,
    CommitCase,
)


def make_level(num_sets=4, ways=8, cap_t=3, threads=2, protected=False):
    geom = CacheGeometry(LevelId.L1D, num_sets=num_sets, ways=ways)
    return CacheLevel(geom, cap_t, threads, protected=protected)


def lines_in_set(level, si, n):
    """n distinct lines mapping to set si."""
    return [level.geometry.line_from(si, tag) for tag in range(1, n + 1)]


def test_inflight_miss_installs_temporary():
    lv = make_level()
    res = lv.access_inflight(64, 0, 1)
    assert res.outcome is AccessOutcome.MISS_INSTALLED
    assert lv.resident_domain(64) is Domain.TEMPORARY


def test_inflight_persistent_hit_does_not_touch_recency():
    """Replacement state must not move until the commit notification;
    a squashed window would otherwise leave an LRU footprint."""
    lv = make_level()
    a, b = lines_in_set(lv, 0, 2)
    lv.access_committed(a, 0)
    lv.access_committed(b, 0)
    before = lv.fingerprint()
    assert lv.access_inflight(a, 0, 1).outcome is AccessOutcome.HIT
    assert lv.fingerprint() == before
    # the deferred update arrives with the commit
    res = lv.apply_commit(a, 0)
    assert res.case is CommitCase.TOUCHED
    assert lv.fingerprint() != before


def test_committed_persistent_hit_touches_immediately():
    lv = make_level()
    a = lines_in_set(lv, 0, 1)[0]
    lv.access_committed(a, 0)
    before = lv.fingerprint()
    lv.access_committed(a, 0)
    assert lv.fingerprint() != before


def test_temporary_recency_is_install_order():
    lv = make_level(cap_t=2)
    a, b = lines_in_set(lv, 0, 2)
    lv.access_inflight(a, 0, 1)
    lv.access_inflight(b, 0, 1)
    # hitting a again must not refresh it ...
    lv.access_inflight(a, 0, 1)
    c = lines_in_set(lv, 0, 3)[2]
    # ... so the third fill evicts a, the oldest install
    lv.access_inflight(c, 0, 1)
    assert lv.resident_domain(a) is None
    assert lv.resident_domain(b) is Domain.TEMPORARY


def test_inflight_install_never_evicts_persistent():
    lv = make_level(ways=4, cap_t=2)
    persist = lines_in_set(lv, 0, 2)
    for ln in persist:
        lv.access_committed(ln, 0)
    extra = [lv.geometry.line_from(0, 50 + i) for i in range(6)]
    for ln in extra:
        lv.access_inflight(ln, 0, 1)
    for ln in persist:
        assert lv.resident_domain(ln) is Domain.PERSISTENT


def test_cap_zero_falls_back_to_persistent_fills():
    lv = make_level(cap_t=0)
    res = lv.access_inflight(64, 0, 1)
    assert res.outcome is AccessOutcome.MISS_INSTALLED
    assert lv.resident_domain(64) is Domain.PERSISTENT


def test_per_set_temp_count_is_constant():
    lv = make_level(num_sets=2, ways=8, cap_t=3)
    rng = random.Random(7)
    for _ in range(500):
        line = rng.randrange(64)
        if rng.random() < 0.5:
            lv.access_inflight(line, rng.randrange(2), 1)
        else:
            lv.access_committed(line, rng.randrange(2))
        for cset in lv.sets:
            assert cset.count(Domain.TEMPORARY) == 3


# -- ownership interaction -------------------------------------------------


def test_unowned_temporary_hit_is_emulated_miss_once():
    lv = make_level(protected=True)
    line = 64
    lv.access_inflight(line, 0, 1)
    res = lv.access_inflight(line, 1, 2)
    assert res.outcome is AccessOutcome.EMULATED_MISS
    # ownership was acquired, so the charge happens once per residency
    res = lv.access_inflight(line, 1, 2)
    assert res.outcome is AccessOutcome.HIT


def test_owner_hit_is_plain_hit():
    lv = make_level(protected=True)
    lv.access_inflight(64, 0, 1)
    assert lv.access_inflight(64, 0, 1).outcome is AccessOutcome.HIT


def test_full_foreign_set_suspends_install():
    lv = make_level(ways=4, cap_t=2, protected=True)
    foreign = lines_in_set(lv, 0, 2)
    for ln in foreign:
        assert lv.access_inflight(ln, 0, 1).outcome is AccessOutcome.MISS_INSTALLED
    mine = lv.geometry.line_from(0, 9)
    res = lv.access_inflight(mine, 1, 2)
    assert res.outcome is AccessOutcome.MISS_BYPASSED
    assert res.suspended is not None
    assert res.suspended.line == mine
    # nothing foreign was displaced
    for ln in foreign:
        assert lv.resident_domain(ln) is Domain.TEMPORARY


def test_suspended_install_retries_after_squash():
    lv = make_level(ways=4, cap_t=2, protected=True)
    foreign = lines_in_set(lv, 0, 2)
    for ln in foreign:
        lv.access_inflight(ln, 0, 1)
    mine = lv.geometry.line_from(0, 9)
    pend = lv.access_inflight(mine, 1, 2).suspended
    assert lv.try_install_suspended(pend)[0] == "blocked"
    for ln in foreign:
        lv.apply_squash(ln, 0)
    status, evicted = lv.try_install_suspended(pend)
    assert status == "installed"
    assert evicted is None
    assert lv.resident_domain(mine) is Domain.TEMPORARY


def test_suspended_install_detects_present_line():
    lv = make_level(ways=4, cap_t=2, protected=True)
    foreign = lines_in_set(lv, 0, 2)
    for ln in foreign:
        lv.access_inflight(ln, 0, 1)
    mine = lv.geometry.line_from(0, 9)
    pend = lv.access_inflight(mine, 1, 2).suspended
    # a committed access brings the line in independently
    lv.access_committed(mine, 1)
    assert lv.try_install_suspended(pend)[0] == "present"


# -- commit/squash notifications --------------------------------------------


def test_apply_commit_promotes_and_recycles_persistent_way():
    lv = make_level(ways=4, cap_t=2)
    old = lines_in_set(lv, 0, 2)
    for ln in old:
        lv.access_committed(ln, 0)
    line = lv.geometry.line_from(0, 9)
    lv.access_inflight(line, 0, 1)
    res = lv.apply_commit(line, 0)
    assert res.case is CommitCase.PROMOTED
    # the LRU persistent line made room and its way joined the temporary pool
    assert res.evicted_line == old[0]
    assert lv.resident_domain(line) is Domain.PERSISTENT
    assert lv.resident_domain(old[1]) is Domain.PERSISTENT
    for cset in lv.sets:
        assert cset.count(Domain.TEMPORARY) == 2


def test_apply_commit_absent_line_reinstalls():
    lv = make_level()
    res = lv.apply_commit(64, 0, CohState.SHARED)
    assert res.case is CommitCase.REINSTALLED
    assert lv.resident_domain(64) is Domain.PERSISTENT
    assert lv.coh_state_of(64) is CohState.SHARED


def test_apply_squash_sole_owner_invalidates():
    lv = make_level()
    lv.access_inflight(64, 0, 1)
    assert lv.apply_squash(64, 0) is True
    assert lv.resident_domain(64) is None


def test_apply_squash_shared_line_only_releases():
    lv = make_level(protected=True)
    lv.access_inflight(64, 0, 1)
    lv.access_inflight(64, 1, 2)  # emulated miss acquires ownership
    assert lv.apply_squash(64, 0) is False
    assert lv.resident_domain(64) is Domain.TEMPORARY
    assert lv.apply_squash(64, 1) is True
    assert lv.resident_domain(64) is None


def test_apply_squash_persistent_or_absent_is_noop():
    lv = make_level()
    lv.access_committed(64, 0)
    assert lv.apply_squash(64, 0) is False
    assert lv.resident_domain(64) is Domain.PERSISTENT
    assert lv.apply_squash(9999, 0) is False


# -- reconfiguration ---------------------------------------------------------


def test_reconfigure_grow_keeps_contents():
    lv = make_level(ways=4, cap_t=1)
    a, b, c = lines_in_set(lv, 0, 3)
    for ln in (a, b, c):
        lv.access_committed(ln, 0)
    res = lv.reconfigure(2)
    assert res.dropped_lines == []
    assert lv.cap_t == 2
    for cset in lv.sets:
        assert cset.count(Domain.TEMPORARY) == 2
    # the LRU persistent line was relabelled, not dropped
    assert lv.resident_domain(a) is Domain.TEMPORARY
    assert lv.resident_domain(b) is Domain.PERSISTENT
    assert lv.resident_domain(c) is Domain.PERSISTENT
    # relabelled contents surface unowned
    si, way = lv.lookup(a)
    assert lv.sets[si].ways[way].owner_mask == 0


def test_reconfigure_shrink_drops_oldest_temporaries():
    lv = make_level(ways=8, cap_t=3)
    t1, t2, t3 = lines_in_set(lv, 0, 3)
    for ln in (t1, t2, t3):
        lv.access_inflight(ln, 0, 1)
    res = lv.reconfigure(1)
    assert lv.cap_t == 1
    assert set(res.dropped_lines) == {t1, t2}
    assert lv.resident_domain(t3) is Domain.TEMPORARY
    for cset in lv.sets:
        assert cset.count(Domain.TEMPORARY) == 1


def test_reconfigure_rejects_out_of_range():
    lv = make_level(ways=4, cap_t=2)
    with pytest.raises(CapacityOutOfRange):
        lv.reconfigure(4)
    with pytest.raises(CapacityOutOfRange):
        lv.reconfigure(-1)


def test_install_prefetch_is_idempotent_and_persistent():
    lv = make_level()
    res = lv.install_prefetch(64, 0, CohState.SHARED)
    assert res.outcome is AccessOutcome.MISS_INSTALLED
    assert lv.resident_domain(64) is Domain.PERSISTENT
    again = lv.install_prefetch(64, 0, CohState.SHARED)
    assert again.outcome is AccessOutcome.HIT


@given(st.lists(st.tuples(st.sampled_from(["inflight", "committed", "commit", "squash",
                                           "invalidate", "prefetch", "retry", "reconfigure"]),
                          st.integers(min_value=0, max_value=11),
                          st.integers(min_value=0, max_value=1)),
                max_size=50))
@settings(max_examples=200)
def test_level_lookups_match_a_linear_scan(ops):
    """Whatever a level goes through, its line lookups agree with a scan
    of the set's ways and every set's victim choice is the head of its
    victim order."""
    lv = make_level(num_sets=2, ways=4, cap_t=2, protected=True)
    parked = []
    for op, i, thread in ops:
        line = 64 + i
        if op == "inflight":
            res = lv.access_inflight(line, thread, 1)
            if res.suspended is not None:
                parked.append(res.suspended)
        elif op == "committed":
            lv.access_committed(line, thread)
        elif op == "commit":
            lv.apply_commit(line, thread)
        elif op == "squash":
            lv.apply_squash(line, thread)
        elif op == "invalidate":
            lv.invalidate_line(line)
        elif op == "prefetch":
            lv.install_prefetch(line, thread, CohState.SHARED)
        elif op == "retry" and parked:
            lv.try_install_suspended(parked.pop(0))
        elif op == "reconfigure":
            # reconfiguring needs quiescence: parked fills died with their windows
            parked.clear()
            lv.reconfigure(i % 4)
        for ln in range(64, 76):
            si = lv.geometry.set_index(ln)
            tag = lv.geometry.tag(ln)
            ways = lv.sets[si].ways
            hits = [w for w, m in enumerate(ways) if m.valid and m.tag == tag]
            assert len(hits) <= 1
            assert lv.lookup(ln) == ((si, hits[0]) if hits else None)
            assert lv.resident_domain(ln) == (ways[hits[0]].domain if hits else None)
            assert lv.coh_state_of(ln) is (ways[hits[0]].coh_state if hits else CohState.INVALID)
        for cset in lv.sets:
            for d in (Domain.TEMPORARY, Domain.PERSISTENT):
                if cset.count(d):
                    assert cset.select_victim(d) == cset.victim_order(d)[0]
