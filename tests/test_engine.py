"""Behavioural tests for the trace engine."""

from __future__ import annotations

import pytest

from specsim.cache import CohState, Domain, LINE_SIZE
from specsim.domains import NotQuiescent
from specsim.engine import Engine, LatencyClass, run_trace
from specsim.trace import TraceEvent

from conftest import small_config


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


def test_window_thread_ownership_enforced(cfg):
    eng = Engine(cfg)
    eng.step(TraceEvent.open(0, 1))
    with pytest.raises(ValueError):
        eng.step(TraceEvent.load(1, 0x40, 1))
    with pytest.raises(ValueError):
        eng.step(TraceEvent.commit(1, 1))


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
