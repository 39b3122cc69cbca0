"""Tests for the attack harness and its scenario library."""

from __future__ import annotations

import pytest

from specsim.attacks import (
    EXPECTED_LEAK,
    PROBE_BASE,
    PROBE_LINES,
    MisalignedObservations,
    analyze,
    build_trace,
    conflict_addrs,
    probe_order,
    run_scenario,
    scenario_config,
    scenario_names,
)
from specsim.cache import LINE_SIZE
from specsim.engine import LatencyClass, TimingObservation


def obs(index, addr, latency, klass, thread=0):
    return TimingObservation(index=index, thread=thread, addr=addr, latency=latency, klass=klass)


def test_analyze_flags_class_differences():
    a = [obs(0, 0x40, 1, LatencyClass.HIT)]
    b = [obs(0, 0x40, 209, LatencyClass.MISS)]
    v = analyze(a, b)
    assert v.leak
    assert "0x40" in v.evidence[0]


def test_analyze_ignores_latency_jitter_within_a_class():
    a = [obs(0, 0x40, 209, LatencyClass.MISS)]
    b = [obs(0, 0x40, 217, LatencyClass.MISS)]
    assert not analyze(a, b).leak


def test_analyze_rejects_misaligned_streams():
    a = [obs(0, 0x40, 1, LatencyClass.HIT)]
    with pytest.raises(MisalignedObservations):
        analyze(a, [])
    with pytest.raises(MisalignedObservations):
        analyze(a, [obs(0, 0x80, 1, LatencyClass.HIT)])


def test_probe_order_is_a_permutation():
    order = probe_order()
    assert sorted(order) == list(range(PROBE_LINES))
    # and deliberately not sequential, to sidestep stride prefetching
    assert order[:4] != [0, 1, 2, 3]


def test_conflict_addrs_collide_in_both_levels():
    cfg = scenario_config("table1:2", "specbox")
    addrs = conflict_addrs(cfg, 0x4000, 4)
    l1_sets = {(a // LINE_SIZE) % cfg.l1d.num_sets for a in addrs}
    l2_sets = {(a // LINE_SIZE) % cfg.l2.num_sets for a in addrs}
    assert len(l1_sets) == 1
    assert len(l2_sets) == 1


def test_scenario_names_cover_the_catalogue():
    names = scenario_names()
    assert [n for n in names if n.startswith("table1:")] == [f"table1:{i}" for i in range(1, 7)]
    assert "coherence:e2s" in names
    assert "coherence:inval" in names
    assert "poc" in names


def test_expected_leak_table():
    assert EXPECTED_LEAK == {"baseline": True, "specbox": False}


def test_flush_reload_scenario_end_to_end():
    base = run_scenario("table1:1", "baseline")
    assert base.verdict.leak
    assert base.verdict.evidence
    prot = run_scenario("table1:1", "specbox")
    assert not prot.verdict.leak


def test_poc_trace_embeds_the_secret_only_in_bit1():
    cfg = scenario_config("poc", "specbox")
    t0 = build_trace("poc", 0, cfg)
    t1 = build_trace("poc", 1, cfg)
    # the bit-1 trace has exactly one extra event: the transient access
    assert len(t1) == len(t0) + 1


def test_poc_repetitions_share_their_flush_and_measure_events():
    cfg = scenario_config("poc", "specbox")
    trace = build_trace("poc", 1, cfg, reps=100)
    per_rep = len(trace) // 100
    assert per_rep == 2 * PROBE_LINES + 3
    reps = [trace[k:k + per_rep] for k in range(0, len(trace), per_rep)]
    shared = [ev for ev in reps[0] if ev.window is None]  # flushes, measures
    assert len(shared) == 2 * PROBE_LINES
    windows = set()
    for rep in reps:
        assert all(a is b for a, b in zip(rep[:PROBE_LINES] + rep[-PROBE_LINES:], shared))
        opened, load, squash = rep[PROBE_LINES:PROBE_LINES + 3]
        assert opened.window == load.window == squash.window
        windows.add(opened.window)
    assert len(windows) == 100
    # and another trace shares them too
    assert build_trace("poc", 0, cfg)[0] is trace[0]


@pytest.mark.parametrize("reps", [0, -1])
def test_reps_below_one_is_rejected(reps):
    cfg = scenario_config("table1:1", "baseline")
    with pytest.raises(ValueError, match=f"reps must be at least 1, got {reps}"):
        build_trace("table1:1", 1, cfg, reps=reps)
