"""Covert-channel scenarios and the leak analyzer.

Each scenario builds two traces that differ only in the transmitter's
secret-dependent action (bit 1: the action happens, bit 0: it does
not), runs both on a fresh engine, and compares the receiver's timing
observations class by class.  The channel leaks if any probe
classifies differently between the two bits.

Eviction-based scenarios use a set of conflict lines whose stride is
the least common multiple of the L1D and L2 set strides, so one
sequence contends in both levels at once.

The `poc` scenario is the classic transient leak end to end: flush a
256-line probe array, speculatively load the entry indexed by a secret
byte inside a window that then squashes, and time the whole array in a
permuted order.  On an unprotected hierarchy exactly the secret's line
comes back hot.  Its 256 probe addresses, 256 flushes and 256 permuted
measures are immutable, so they are built once, on first use, and every
repetition shares them: a repetition adds only its own OPEN, optional
LOAD and SQUASH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

from .cache import LINE_SIZE
from .config import SimConfig
from .engine import Engine, LatencyClass, SimReport, TimingObservation
from .trace import TraceEvent


class InvalidLine(Exception):
    """A scenario parameter does not denote a usable cache line."""


class MisalignedObservations(Exception):
    """Observation streams cannot be compared probe-for-probe."""


@dataclass
class Verdict:
    leak: bool
    evidence: list[str] = field(default_factory=list)


@dataclass
class ScenarioResult:
    name: str
    mode: str
    reports: dict[int, SimReport]
    verdict: Verdict


def analyze(obs_bit0: list[TimingObservation], obs_bit1: list[TimingObservation]) -> Verdict:
    """Compare two observation streams; leak iff any class differs."""
    if len(obs_bit0) != len(obs_bit1):
        raise MisalignedObservations(
            f"observation counts differ: {len(obs_bit0)} vs {len(obs_bit1)}"
        )
    evidence = []
    for a, b in zip(obs_bit0, obs_bit1):
        if a.addr != b.addr or a.thread != b.thread:
            raise MisalignedObservations(
                f"probe {a.index}: {a.addr:#x}/t{a.thread} vs {b.addr:#x}/t{b.thread}"
            )
        if a.klass is not b.klass:
            evidence.append(
                f"probe {a.index} {a.addr:#x}: bit0={a.klass.value}({a.latency}) "
                f"bit1={b.klass.value}({b.latency})"
            )
    return Verdict(leak=bool(evidence), evidence=evidence)


# -- trace builders ------------------------------------------------------

PROBE_BASE = 0x100000
X_BASE = 0x4000
N_CONFLICTS = 16
PROBE_LINES = 256


def conflict_stride(cfg: SimConfig) -> int:
    return math.lcm(cfg.l1d.num_sets, cfg.l2.num_sets) * LINE_SIZE


def conflict_addrs(cfg: SimConfig, base: int, count: int) -> list[int]:
    stride = conflict_stride(cfg)
    return [base + (k + 1) * stride for k in range(count)]


class _Ids:
    """Monotonic window-id source for a trace builder."""

    def __init__(self) -> None:
        self.next = 0

    def __call__(self) -> int:
        self.next += 1
        return self.next


def _flush_all(t: int, addrs: list[int]) -> list[TraceEvent]:
    return [TraceEvent.mgmt("flush", t, a) for a in addrs]


def _t1_flush_reload(cfg: SimConfig, bit: int, ids: _Ids) -> list[TraceEvent]:
    # transmitter speculatively loads X and squashes; receiver reloads X
    ev = _flush_all(0, [X_BASE])
    if bit:
        w = ids()
        ev += [TraceEvent.open(0, w), TraceEvent.load(0, X_BASE, w), TraceEvent.squash(0, w)]
    ev.append(TraceEvent.measure(0, X_BASE))
    return ev


def _t1_spec_evict_persistent(cfg: SimConfig, bit: int, ids: _Ids) -> list[TraceEvent]:
    # speculative conflict walk tries to displace a persistent line
    ys = conflict_addrs(cfg, X_BASE, N_CONFLICTS)
    ev = _flush_all(0, [X_BASE] + ys)
    ev.append(TraceEvent.load(0, X_BASE))  # committed: X is persistent
    if bit:
        w = ids()
        ev.append(TraceEvent.open(0, w))
        ev += [TraceEvent.load(0, y, w) for y in ys]
        ev.append(TraceEvent.squash(0, w))
    ev.append(TraceEvent.measure(0, X_BASE))
    return ev


def _t1_squash_evict_reinstall(cfg: SimConfig, bit: int, ids: _Ids) -> list[TraceEvent]:
    # a squashed window evicts an in-flight line; its commit restores it
    ys = conflict_addrs(cfg, X_BASE, N_CONFLICTS)
    ev = _flush_all(0, [X_BASE] + ys)
    w1 = ids()
    ev += [TraceEvent.open(0, w1), TraceEvent.load(0, X_BASE, w1)]
    if bit:
        w2 = ids()
        ev.append(TraceEvent.open(0, w2))
        ev += [TraceEvent.load(0, y, w2) for y in ys]
        ev.append(TraceEvent.squash(0, w2))
    ev.append(TraceEvent.commit(0, w1))
    ev.append(TraceEvent.measure(0, X_BASE))
    return ev


def _t1_concurrent_probe(cfg: SimConfig, bit: int, ids: _Ids) -> list[TraceEvent]:
    # receiver probes X while the transmitter's window is still open
    ev = _flush_all(1, [X_BASE])
    w = ids()
    if bit:
        ev += [TraceEvent.open(0, w), TraceEvent.load(0, X_BASE, w)]
    ev.append(TraceEvent.measure(1, X_BASE))
    if bit:
        ev.append(TraceEvent.squash(0, w))
    return ev


def _t1_crossthread_evict_inflight(cfg: SimConfig, bit: int, ids: _Ids) -> list[TraceEvent]:
    # transmitter tries to evict the receiver's own in-flight line
    ys = conflict_addrs(cfg, X_BASE, N_CONFLICTS)
    ev = _flush_all(1, [X_BASE] + ys)
    wb = ids()
    ev += [TraceEvent.open(1, wb), TraceEvent.load(1, X_BASE, wb)]
    wa = ids()
    if bit:
        ev.append(TraceEvent.open(0, wa))
        ev += [TraceEvent.load(0, y, wa) for y in ys]
    ev.append(TraceEvent.measure(1, X_BASE))
    if bit:
        ev.append(TraceEvent.squash(0, wa))
    ev.append(TraceEvent.commit(1, wb))
    return ev


def _t1_crossthread_evict_persistent(cfg: SimConfig, bit: int, ids: _Ids) -> list[TraceEvent]:
    # transmitter's speculative walk vs the receiver's persistent line
    ys = conflict_addrs(cfg, X_BASE, N_CONFLICTS)
    ev = _flush_all(1, [X_BASE] + ys)
    ev.append(TraceEvent.load(1, X_BASE))
    if bit:
        w = ids()
        ev.append(TraceEvent.open(0, w))
        ev += [TraceEvent.load(0, y, w) for y in ys]
        ev.append(TraceEvent.squash(0, w))
    ev.append(TraceEvent.measure(1, X_BASE))
    return ev


def _coh_e2s(cfg: SimConfig, bit: int, ids: _Ids) -> list[TraceEvent]:
    # speculative load would downgrade a remote exclusive line; a third
    # thread's probe distinguishes E (owner recall) from S (shared hit)
    ev = _flush_all(0, [X_BASE])
    ev.append(TraceEvent.load(1, X_BASE))  # committed: exclusive at core 1
    w = ids()
    if bit:
        ev += [TraceEvent.open(0, w), TraceEvent.load(0, X_BASE, w)]
    ev.append(TraceEvent.measure(2, X_BASE))
    if bit:
        ev.append(TraceEvent.squash(0, w))
    return ev


def _coh_inval(cfg: SimConfig, bit: int, ids: _Ids) -> list[TraceEvent]:
    # speculative store would invalidate the owner's copy; the owner's
    # own reload tells whether that happened
    ev = _flush_all(1, [X_BASE])
    ev.append(TraceEvent.load(1, X_BASE))  # committed: exclusive at core 1
    w = ids()
    if bit:
        ev += [TraceEvent.open(0, w), TraceEvent.store(0, X_BASE, w)]
    ev.append(TraceEvent.measure(1, X_BASE))
    if bit:
        ev.append(TraceEvent.squash(0, w))
    return ev


def probe_order(n: int = PROBE_LINES) -> list[int]:
    # permuted probe order so a next-line prefetcher cannot fake hits
    return [(i * 167 + 13) % n for i in range(n)]


@cache
def _poc_blocks() -> tuple[tuple[int, ...], tuple[TraceEvent, ...], tuple[TraceEvent, ...]]:
    """The PoC's probe addresses, flushes and permuted measures, shared
    by every repetition."""
    probes = tuple(PROBE_BASE + i * LINE_SIZE for i in range(PROBE_LINES))
    flushes = tuple(TraceEvent.mgmt("flush", 0, a) for a in probes)
    measures = tuple(TraceEvent.measure(0, probes[i]) for i in probe_order())
    return probes, flushes, measures


def check_secret(secret: int) -> None:
    """Raise InvalidLine unless `secret` indexes a line of the probe array."""
    if not 0 <= secret < PROBE_LINES:
        raise InvalidLine(f"secret {secret} out of range 0..{PROBE_LINES - 1}")


def _poc(cfg: SimConfig, bit: int, ids: _Ids, secret: int = 79) -> list[TraceEvent]:
    check_secret(secret)
    probes, flushes, measures = _poc_blocks()
    w = ids()
    window = [TraceEvent.open(0, w)]
    if bit:
        window.append(TraceEvent.load(0, probes[secret], w))
    window.append(TraceEvent.squash(0, w))
    return [*flushes, *window, *measures]


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    builder: object
    cores: int
    description: str


_SPECS = [
    ScenarioSpec("table1:1", _t1_flush_reload, 2, "flush+reload of a squashed speculative line"),
    ScenarioSpec("table1:2", _t1_spec_evict_persistent, 2, "speculative evictions vs a persistent line"),
    ScenarioSpec("table1:3", _t1_squash_evict_reinstall, 2, "squash-evicted line restored at commit"),
    ScenarioSpec("table1:4", _t1_concurrent_probe, 2, "cross-thread probe of an in-flight line"),
    ScenarioSpec("table1:5", _t1_crossthread_evict_inflight, 2, "cross-thread eviction of an in-flight line"),
    ScenarioSpec("table1:6", _t1_crossthread_evict_persistent, 2, "cross-thread speculative evictions vs persistent"),
    ScenarioSpec("coherence:e2s", _coh_e2s, 3, "speculative E-to-S downgrade as a channel"),
    ScenarioSpec("coherence:inval", _coh_inval, 2, "speculative store invalidation as a channel"),
    ScenarioSpec("poc", _poc, 2, "end-to-end transient leak of one secret byte"),
]

SCENARIOS = {s.name: s for s in _SPECS}

# every scenario leaks on the unprotected hierarchy and none should
# leak on the protected one
EXPECTED_LEAK = {"baseline": True, "specbox": False}


def scenario_names() -> list[str]:
    return [s.name for s in _SPECS]


def build_trace(
    name: str, bit: int, cfg: SimConfig, reps: int = 1, secret: int = 79
) -> list[TraceEvent]:
    spec = SCENARIOS.get(name)
    if spec is None:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    ids = _Ids()
    events: list[TraceEvent] = []
    for _ in range(reps):
        if name == "poc":
            events += spec.builder(cfg, bit, ids, secret)
        else:
            events += spec.builder(cfg, bit, ids)
    return events


def scenario_config(name: str, mode: str) -> SimConfig:
    spec = SCENARIOS.get(name)
    if spec is None:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")
    return SimConfig(mode=mode, cores=max(2, spec.cores)).validate()


def run_scenario(
    name: str, mode: str, reps: int = 1, secret: int = 79, cfg: SimConfig | None = None
) -> ScenarioResult:
    if cfg is None:
        cfg = scenario_config(name, mode)
    reports: dict[int, SimReport] = {}
    for bit in (0, 1):
        engine = Engine(cfg)
        engine.run(build_trace(name, bit, cfg, reps=reps, secret=secret))
        reports[bit] = engine.report
    verdict = analyze(reports[0].observations, reports[1].observations)
    return ScenarioResult(name=name, mode=mode, reports=reports, verdict=verdict)
