"""Behavioural tests for the trace engine."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from specsim.cache import CohState, Domain, LINE_SIZE
from specsim.domains import NotQuiescent
from specsim import attacks
from specsim.engine import Engine, LatencyClass, run_trace
from specsim.notifier import UnknownWindow
from specsim.trace import MGMT_OPS, EventKind, TraceEvent

from conftest import small_config
from gentraces import random_events


def local_addr(cfg, core, si=None, tag=1):
    """An address in L2 set `si`, homed on `core`.

    With num_sets a multiple of the core count, the home bank is fixed
    by the set index, so the set must agree with the requested core.
    """
    if si is None:
        si = core
    assert si % cfg.cores == core, "set index pins the home bank"
    return (si + tag * cfg.l2.num_sets) * LINE_SIZE


# -- latency composition ----------------------------------------------------


def test_full_miss_latency_is_sum_of_levels(cfg):
    eng = Engine(cfg)
    lat = cfg.latency
    addr = local_addr(cfg, core=0)
    obs = eng._measure(0, addr)
    assert obs.latency == lat.l1_hit + lat.l2_local + lat.memory
    assert obs.klass is LatencyClass.MISS


def test_remote_bank_costs_more(cfg):
    eng = Engine(cfg)
    lat = cfg.latency
    addr = local_addr(cfg, core=1)  # homed away from thread 0's core
    obs = eng._measure(0, addr)
    assert obs.latency == lat.l1_hit + lat.l2_remote + lat.memory


def test_l1_hit_after_committed_load(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    eng.step(TraceEvent.load(0, addr))
    obs = eng._measure(0, addr)
    assert obs.latency == cfg.latency.l1_hit
    assert obs.klass is LatencyClass.HIT


def test_l2_hit_from_the_other_core(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    # a committed speculative fill leaves the line shared, so the other
    # core's probe is a plain L2 hit rather than an owner recall
    eng.step(TraceEvent.open(1, 1))
    eng.step(TraceEvent.load(1, addr, 1))
    eng.step(TraceEvent.commit(1, 1))
    obs = eng._measure(0, addr)
    assert obs.latency == cfg.latency.l1_hit + cfg.latency.l2_local


def test_emulated_miss_is_indistinguishable_from_a_real_miss(cfg):
    """The keystone of the ownership defence: a probe of someone else's
    in-flight line costs exactly what a true miss would."""
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0, tag=3)
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.load(0, addr, 1))
    probe = eng._measure(1, addr)

    fresh = Engine(cfg)
    truth = fresh._measure(1, addr)
    assert probe.latency == truth.latency
    assert eng.report.counters["emulated_misses"] >= 1


# -- speculative fills and grants --------------------------------------------


def test_speculative_fill_is_shared_never_exclusive(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    line = addr // LINE_SIZE
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.load(0, addr, 1))
    assert eng.directory.state(line) is CohState.SHARED


def test_baseline_windowed_fill_is_shared_too(baseline_cfg):
    eng = Engine(baseline_cfg)
    addr = local_addr(baseline_cfg, core=0)
    line = addr // LINE_SIZE
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.load(0, addr, 1))
    assert eng.directory.state(line) is CohState.SHARED


def test_committed_windowless_load_takes_exclusive(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    eng.step(TraceEvent.load(0, addr))
    assert eng.directory.state(addr // LINE_SIZE) is CohState.EXCLUSIVE


def test_speculative_load_of_remote_exclusive_is_delayed(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=1)
    owner = 2 if cfg.smt > 1 else 1
    eng.step(TraceEvent.load(owner, addr))  # E at the other core
    before = eng.fingerprint()
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.load(0, addr, 1))
    assert eng.report.counters["delayed_coherence"] == 1
    assert eng.fingerprint() == before
    # the replay happens at commit, as an ordinary access
    eng.step(TraceEvent.commit(0, 1))
    assert eng.report.counters["delayed_completed"] == 1
    assert eng.fingerprint() != before


def test_committed_load_recalls_remote_owner(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    line = addr // LINE_SIZE
    eng.step(TraceEvent.load(0, addr))  # E at core 0
    prober = 2 if cfg.smt > 1 else 1
    obs = eng._measure(prober, addr)
    # owner recall costs a full miss even though the data was cached
    assert obs.klass is LatencyClass.MISS
    assert eng.report.counters["owner_recalls"] == 1
    assert eng.directory.state(line) is CohState.SHARED


def test_committed_store_shoots_down_remote_copies(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    line = addr // LINE_SIZE
    other = 2 if cfg.smt > 1 else 1
    eng.step(TraceEvent.load(0, addr))
    eng.step(TraceEvent.load(other, addr))
    eng.step(TraceEvent.store(other, addr))
    assert eng.report.counters["rfo_invalidations"] >= 1
    assert eng.directory.state(line) is CohState.MODIFIED
    assert eng.l1d[0].resident_domain(line) is None
    # the writer's own probe is now fast, the old sharer's is not
    assert eng._measure(other, addr).klass is LatencyClass.HIT
    assert eng._measure(0, addr).klass is LatencyClass.MISS


@pytest.mark.parametrize("spec_store, counter", [
    (True, "rfo_invalidations"),
    (False, "owner_recalls"),
])
def test_commit_time_reinstall_counts_its_coherence_action(cfg, spec_store, counter):
    """Core 1's committed access purges core 0's speculative copy, so
    the commit re-installs the line and must first take it from core 1:
    a store shoots core 1's copy down, a load recalls core 1's M."""
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    line = addr // LINE_SIZE
    eng.step(TraceEvent.open(0, 1))
    if spec_store:
        eng.step(TraceEvent.store(0, addr, 1))
        eng.step(TraceEvent.load(1, addr))
    else:
        eng.step(TraceEvent.load(0, addr, 1))
        eng.step(TraceEvent.store(1, addr))
    assert eng.report.counters["spec_purges"] == 1
    assert eng.report.counters[counter] == 0
    eng.step(TraceEvent.commit(0, 1))
    assert eng.report.counters["rsr_reinstalls"] >= 1
    assert eng.report.counters[counter] == 1
    if spec_store:
        assert eng.l1d[1].resident_domain(line) is None
        assert eng.directory.state(line) is CohState.MODIFIED
    else:
        assert eng.l1d[1].coh_state_of(line) is CohState.SHARED
        assert eng.directory.state(line) is CohState.SHARED


# -- window resolution --------------------------------------------------------


def test_commit_promotes_at_both_levels(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    line = addr // LINE_SIZE
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.load(0, addr, 1))
    assert eng.l1d[0].resident_domain(line) is Domain.TEMPORARY
    assert eng.l2.resident_domain(line) is Domain.TEMPORARY
    eng.step(TraceEvent.commit(0, 1))
    assert eng.l1d[0].resident_domain(line) is Domain.PERSISTENT
    assert eng.l2.resident_domain(line) is Domain.PERSISTENT
    assert eng.report.counters["lines_promoted"] >= 2


def test_squash_erases_the_fill_and_the_directory_entry(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    line = addr // LINE_SIZE
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.load(0, addr, 1))
    eng.step(TraceEvent.squash(0, 1))
    assert eng.l1d[0].resident_domain(line) is None
    assert eng.l2.resident_domain(line) is None
    assert eng.directory.entry(line) is None
    assert eng.report.counters["lines_squashed"] >= 2


def test_commit_reinstalls_a_line_lost_to_contention(cfg):
    """Reference, lose the line, commit: the line comes back persistent."""
    eng = Engine(cfg)
    si = 2
    keeper = local_addr(cfg, core=0, si=si, tag=1)
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.load(0, keeper, 1))
    # same-thread fills crowd the temporary ways at both levels
    eng.step(TraceEvent.open(0, 2))
    tag = 30
    for _ in range(max(cfg.l1d.cap_t, cfg.l2.cap_t) + 2):
        eng.step(TraceEvent.load(0, local_addr(cfg, core=0, si=si, tag=tag), 2))
        tag += 1
    kline = keeper // LINE_SIZE
    assert eng.l2.resident_domain(kline) is None
    eng.step(TraceEvent.commit(0, 1))
    assert eng.l2.resident_domain(kline) is Domain.PERSISTENT
    assert eng.report.counters["rsr_reinstalls"] >= 1
    eng.step(TraceEvent.squash(0, 2))


def test_notifications_merge_within_a_window(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.load(0, addr, 1))
    eng.step(TraceEvent.load(0, addr, 1))  # second reference, same line
    eng.step(TraceEvent.commit(0, 1))
    assert eng.report.counters["nfb_merged"] >= 1


def test_nfb_overflow_forwards_early_but_loses_nothing(cfg):
    tiny = small_config(nfb_capacity=2)
    eng = Engine(tiny)
    addrs = [0x40000 + i * LINE_SIZE for i in range(6)]
    eng.step(TraceEvent.open(0, 1))
    for a in addrs:
        eng.step(TraceEvent.load(0, a, 1))
    eng.step(TraceEvent.commit(0, 1))
    assert eng.report.counters["nfb_forced_out"] >= 1
    for a in addrs:
        assert eng.l2.resident_domain(a // LINE_SIZE) is Domain.PERSISTENT


def test_squash_refreshes_nfb_counters():
    # a run whose last resolution is a squash must report the buffer's
    # totals, not the ones copied at the last commit
    eng = Engine(small_config(nfb_capacity=1))
    eng.step(TraceEvent.open(0, 1))
    for i in range(3):
        eng.step(TraceEvent.load(0, 0x40000 + i * LINE_SIZE, 1))
    eng.step(TraceEvent.squash(0, 1))
    ctr = eng.report.counters
    assert eng.nfb.forced_out > 0
    assert "nfb_merged" in ctr and "nfb_forced_out" in ctr
    assert (ctr["nfb_merged"], ctr["nfb_forced_out"]) == (eng.nfb.merged, eng.nfb.forced_out)


def test_suspension_and_retry_after_foreign_commit(cfg):
    eng = Engine(cfg)
    si = 4
    blockers = [local_addr(cfg, core=0, si=si, tag=10 + i) for i in range(cfg.l2.cap_t)]
    eng.step(TraceEvent.open(0, 1))
    for a in blockers:
        eng.step(TraceEvent.load(0, a, 1))
    victim_thread = 2 if cfg.smt > 1 else 1
    mine = local_addr(cfg, core=0, si=si, tag=40)
    eng.step(TraceEvent.open(victim_thread, 2))
    eng.step(TraceEvent.load(victim_thread, mine, 2))
    assert eng.report.counters["suspended_installs"] >= 1
    assert eng.l2.resident_domain(mine // LINE_SIZE) is None
    # the foreign commit promotes the blockers, freeing temporary ways
    eng.step(TraceEvent.commit(0, 1))
    assert eng.report.counters["retried_installs"] >= 1
    assert eng.l2.resident_domain(mine // LINE_SIZE) is Domain.TEMPORARY
    eng.step(TraceEvent.commit(victim_thread, 2))


def test_mgmt_inside_a_window_is_deferred_to_commit(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    line = addr // LINE_SIZE
    eng.step(TraceEvent.load(0, addr))
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.mgmt("flush", 0, addr, 1))
    assert eng.l1d[0].resident_domain(line) is Domain.PERSISTENT  # not yet
    eng.step(TraceEvent.commit(0, 1))
    assert eng.l1d[0].resident_domain(line) is None
    assert eng.report.counters["mgmt_stalled_completed"] == 1


def test_mgmt_inside_a_squashed_window_never_runs(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    line = addr // LINE_SIZE
    eng.step(TraceEvent.load(0, addr))
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.mgmt("flush", 0, addr, 1))
    eng.step(TraceEvent.squash(0, 1))
    assert eng.l1d[0].resident_domain(line) is Domain.PERSISTENT
    assert eng.report.counters["deferred_dropped"] == 1


def test_tlb_fill_is_deferred_to_commit(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    line = addr // LINE_SIZE
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.tlbmiss_load(0, addr, 1))
    assert eng.l1d[0].resident_domain(line) is None
    eng.step(TraceEvent.commit(0, 1))
    assert eng.l1d[0].resident_domain(line) is Domain.PERSISTENT
    assert eng.report.counters["tlb_deferred_completed"] == 1


# -- inclusion ---------------------------------------------------------------


def test_l2_eviction_back_invalidates_l1(cfg):
    eng = Engine(cfg)
    si = 6
    first = local_addr(cfg, core=0, si=si, tag=1)
    eng.step(TraceEvent.load(0, first))
    # fill the whole L2 set with committed lines to force an eviction
    for tag in range(2, cfg.l2.ways + 2):
        eng.step(TraceEvent.load(0, local_addr(cfg, core=0, si=si, tag=tag)))
    assert eng.report.counters["l2_back_invalidations"] >= 1
    fline = first // LINE_SIZE
    assert eng.l2.resident_domain(fline) is None
    assert eng.l1d[0].resident_domain(fline) is None
    assert eng.directory.entry(fline) is None


# -- mode handling ------------------------------------------------------------


def test_baseline_has_no_temporary_ways(baseline_cfg):
    eng = Engine(baseline_cfg)
    assert eng.l2.cap_t == 0
    assert all(lv.cap_t == 0 for lv in eng.l1d)
    addr = local_addr(baseline_cfg, core=0)
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.load(0, addr, 1))
    # windowed accesses run committed-style: the fill is persistent
    assert eng.l1d[0].resident_domain(addr // LINE_SIZE) is Domain.PERSISTENT
    eng.step(TraceEvent.squash(0, 1))
    assert eng.l1d[0].resident_domain(addr // LINE_SIZE) is Domain.PERSISTENT


def _snapshot(eng):
    return eng.fingerprint(), dict(eng.report.counters), eng.windows.any_open()


def test_window_thread_ownership_enforced():
    """An event naming a window another thread opened fails with nothing
    changed: the window stays open, and its owner can still resolve it."""
    for mode in ("specbox", "baseline"):
        cfg = small_config(mode=mode)
        eng = Engine(cfg)
        addr = local_addr(cfg, core=0)
        line = addr // LINE_SIZE
        eng.step(TraceEvent.open(0, 1))
        eng.step(TraceEvent.load(0, addr, 1))
        before = _snapshot(eng)
        for ev in (
            TraceEvent.load(1, addr, 1),
            TraceEvent.commit(1, 1),
            TraceEvent.squash(1, 1),
            TraceEvent.mgmt("flush", 1, addr, 1),
            TraceEvent.tlbmiss_load(1, addr, 1),
        ):
            with pytest.raises(ValueError):
                eng.step(ev)
            assert _snapshot(eng) == before, (mode, ev)
            assert eng.windows.get_open(1).thread == 0
        eng.step(TraceEvent.squash(0, 1))
        assert not eng.windows.any_open()
        if mode == "specbox":
            assert eng.l2.resident_domain(line) is None


def test_thread_out_of_range_is_rejected_before_anything_changes(cfg):
    eng = Engine(cfg)
    assert cfg.num_threads == 2
    before = _snapshot(eng)
    for ev in (
        TraceEvent.open(7, 1),
        TraceEvent.load(7, 0x40, 1),
        TraceEvent.load(2, 0x40),
        TraceEvent.store(7, 0x40),
        TraceEvent.prefetch(2, 0x40),
        TraceEvent.mgmt("flush", 2, 0x40),
        TraceEvent.measure(7, 0x40),
    ):
        with pytest.raises(ValueError):
            eng.step(ev)
        assert _snapshot(eng) == before, ev
    eng.step(TraceEvent.open(1, 1))
    eng.step(TraceEvent.load(1, 0x40, 1))
    eng.step(TraceEvent.commit(1, 1))
    assert not eng.windows.any_open()


@pytest.mark.parametrize("mode", ["specbox", "baseline"])
def test_negative_address_or_window_is_rejected_before_anything_changes(mode):
    cfg = small_config(mode=mode)
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    eng.step(TraceEvent.open(0, 1))
    eng.step(TraceEvent.load(0, addr, 1))
    before = _snapshot(eng)
    for ev in (
        TraceEvent.load(0, -64),
        TraceEvent.load(0, -64, 1),
        TraceEvent.measure(0, -64),
        TraceEvent.measure(1, -1),
        TraceEvent.open(0, -1),
        TraceEvent.load(0, addr, -1),
    ):
        with pytest.raises(ValueError):
            eng.step(ev)
        assert _snapshot(eng) == before, ev
        assert eng.windows.get_open(1).thread == 0
        assert not eng.report.observations
    assert not eng.l2.resident_lines() - {addr // LINE_SIZE}


@pytest.mark.parametrize("mode", ["specbox", "baseline"])
def test_event_missing_a_field_is_rejected_before_anything_changes(mode):
    """An event built through the API without a field its kind needs is
    a ValueError naming the kind and the field, with nothing changed,
    whether or not the window it names is open."""
    K = EventKind
    cfg = small_config(mode=mode)
    addr = local_addr(cfg, core=0)
    missing_addr = [
        TraceEvent(kind, thread=0, window=window, mgmt_op=op)
        for kind, window, op in (
            (K.LOAD, None, None), (K.LOAD, 1, None), (K.STORE, None, None),
            (K.IFETCH, 1, None), (K.PREFETCH, None, None), (K.MGMT, None, "flush"),
            (K.MGMT, 1, "invd"), (K.TLBMISS_LOAD, 1, None), (K.MEASURE, None, None),
        )
    ]
    missing_window = [
        TraceEvent(kind, thread=0, addr=address)
        for kind, address in ((K.OPEN, None), (K.COMMIT, None), (K.SQUASH, None), (K.TLBMISS_LOAD, addr))
    ]
    assert "clean" not in MGMT_OPS
    missing_op = [TraceEvent(K.MGMT, thread=0, addr=addr, window=w, mgmt_op=op)
                  for w in (None, 1) for op in (None, "clean")]
    cases = ([(ev, "address") for ev in missing_addr]
             + [(ev, "window") for ev in missing_window]
             + [(ev, "mgmt_op") for ev in missing_op])
    eng = Engine(cfg)
    eng.step(TraceEvent.load(0, addr))
    for opened in (False, True):
        if opened:
            eng.step(TraceEvent.open(0, 1))
            eng.step(TraceEvent.load(0, addr + LINE_SIZE, 1))
        before = _snapshot(eng)
        for ev, what in cases:
            with pytest.raises(ValueError, match=f"{ev.kind.value} event has no {what}"):
                eng.step(ev)
            assert _snapshot(eng) == before, ev
    eng.step(TraceEvent.commit(0, 1))
    assert not eng.windows.any_open()


@pytest.mark.parametrize("mode", ["specbox", "baseline"])
def test_engine_is_freed_without_the_cyclic_gc(mode):
    """Nothing in an engine refers back to it, so dropping the last
    reference frees it at once, before the next one is built."""
    cfg = small_config(mode=mode)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        eng = Engine(cfg)
        eng.run(random_events(random.Random(3), cfg, 200))
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# -- the direct probe commit ---------------------------------------------------


def _probe_state(eng):
    ctr = {k: v for k, v in eng.report.counters.items() if k != "measures"}
    return eng.fingerprint(), ctr, eng.nfb.merged, eng.nfb.forced_out


def _step_both(direct, windowed, ev, wid):
    """Step `direct` through `ev`, and `windowed` through the same event
    with a MEASURE spelled as a load in the unused window `wid`."""
    direct.step(ev)
    if ev.kind is EventKind.MEASURE:
        windowed.step(TraceEvent.open(ev.thread, wid))
        windowed.step(TraceEvent.load(ev.thread, ev.addr, wid))
        windowed.step(TraceEvent.commit(ev.thread, wid))
    else:
        windowed.step(ev)


@pytest.mark.parametrize("nfb_capacity", [0, 1, 16])
@pytest.mark.parametrize("smt", [1, 2])
def test_probe_commit_equals_a_one_load_window(nfb_capacity, smt):
    """A specbox MEASURE commits its one-shot window without the window
    registry or the NFB; what it leaves must equal OPEN/LOAD/COMMIT of
    an unused window, checked after every event of random soups."""
    cfg = small_config(smt=smt, nfb_capacity=nfb_capacity)
    rng = random.Random(nfb_capacity * 10 + smt)
    probes = 0
    for soup in range(2):
        direct, windowed = Engine(cfg), Engine(cfg)
        wid = 1_000_000
        for n, ev in enumerate(random_events(rng, cfg, 600), 1):
            _step_both(direct, windowed, ev, wid)
            if ev.kind is EventKind.MEASURE:
                wid += 1
                probes += 1
            assert _probe_state(direct) == _probe_state(windowed), (soup, n, ev.format())
    assert probes > 100


def test_delayed_probe_replays_like_a_committed_window(cfg):
    addr = local_addr(cfg, core=1)
    direct, windowed = Engine(cfg), Engine(cfg)
    for ev in (TraceEvent.load(1, addr), TraceEvent.measure(0, addr)):  # E at core 1
        _step_both(direct, windowed, ev, 1)
    assert _probe_state(direct) == _probe_state(windowed)
    ctr = direct.report.counters
    assert ctr["delayed_coherence"] == ctr["delayed_completed"] == 1
    (obs,) = direct.report.observations
    assert obs.latency == cfg.latency.l1_hit + cfg.latency.l2_remote + cfg.latency.memory
    assert direct.directory.state(addr // LINE_SIZE) is CohState.SHARED


def test_probes_bypass_the_window_registry_and_the_nfb():
    cfg = attacks.scenario_config("poc", "specbox")
    eng = Engine(cfg)
    probing = False

    def guarded(real):
        def call(*args):
            assert not probing, "a probe went through the window registry or the NFB"
            return real(*args)
        return call

    eng.windows.open = guarded(eng.windows.open)
    eng.windows.close = guarded(eng.windows.close)
    eng.nfb.offer = guarded(eng.nfb.offer)
    eng.nfb.drain = guarded(eng.nfb.drain)
    for ev in attacks.build_trace("poc", 1, cfg, reps=2):
        probing = ev.kind is EventKind.MEASURE
        eng.step(ev)
    obs = eng.report.observations
    assert len(obs) == 2 * attacks.PROBE_LINES
    assert all(o.klass is LatencyClass.MISS for o in obs)
    assert eng.report.counters["windows_committed"] == len(obs)
    with pytest.raises(UnknownWindow):
        eng.windows.get_open(-1)
    assert not eng.windows.any_open()


@pytest.mark.parametrize("mode, cores, smt", [
    ("specbox", 2, 2),
    ("specbox", 4, 1),
    ("baseline", 2, 2),
])
def test_every_l1_line_keeps_its_sharer_bit(mode, cores, smt):
    """L1 copies are invalidated by walking only the directory's sharer
    mask, which misses none only while every valid L1 line has its
    sharer bit; and the directory tracks every line the L2 holds.  Both
    checked after every event of a random soup."""
    cfg = small_config(mode=mode, cores=cores, smt=smt)
    eng = Engine(cfg)
    rng = random.Random(cores * 10 + smt)
    for n, ev in enumerate(random_events(rng, cfg, 3000), 1):
        eng.step(ev)
        for core in range(cores):
            for lv in (eng.l1i[core], eng.l1d[core]):
                for line in lv.resident_lines():
                    assert eng.directory.sharers(line) >> core & 1, (
                        f"event {n} ({ev.format()}): core {core} holds {line:#x} without its bit"
                    )
        for line in eng.l2.resident_lines():
            assert eng.directory.entry(line) is not None, (
                f"event {n} ({ev.format()}): L2 holds {line:#x} with no directory entry"
            )
        if n % 1000 == 0 and not eng.windows.any_open():
            level = rng.choice(("l1i", "l1d", "l2"))
            eng.reconfigure(level, rng.randint(1, getattr(cfg, level).ways - 1))


def test_reconfigure_requires_quiescence(cfg):
    eng = Engine(cfg)
    eng.step(TraceEvent.open(0, 1))
    with pytest.raises(NotQuiescent):
        eng.reconfigure("l2", 1)
    eng.step(TraceEvent.squash(0, 1))
    eng.reconfigure("l2", 1)
    assert eng.l2.cap_t == 1


def test_prefetcher_trains_next_line_when_enabled():
    cfg = small_config(prefetch=True)
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    eng.step(TraceEvent.load(0, addr))
    assert eng.report.counters["prefetch_fills"] >= 1
    assert eng.l2.resident_domain(addr // LINE_SIZE + 1) is Domain.PERSISTENT


def test_prefetch_disabled_by_default(cfg):
    eng = Engine(cfg)
    addr = local_addr(cfg, core=0)
    eng.step(TraceEvent.load(0, addr))
    assert eng.l2.resident_domain(addr // LINE_SIZE + 1) is None


def test_run_trace_returns_report(cfg):
    addr = local_addr(cfg, core=0)
    rep = run_trace([TraceEvent.load(0, addr), TraceEvent.measure(0, addr)], cfg)
    assert rep.mode == "specbox"
    assert len(rep.observations) == 1
    assert rep.counters["measures"] == 1
    assert "measures=1" in rep.summary()
