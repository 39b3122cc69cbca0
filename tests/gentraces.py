"""Seeded random trace generators for the fuzz and equivalence suites.

Everything is driven by an explicit random.Random so any failure
reproduces from its seed alone.  Three generators live here:

* paired_traces     -- two traces identical except for the addresses
                       touched inside windows that are later squashed
                       (the squash-invisibility fuzz).
* random_events     -- unconstrained valid event soup for invariant
                       fuzzing.
* single_thread_trace -- one-hart traces for the ownership-degeneration
                       check.
* stream_events     -- committed streams that overflow the L2, so its
                       sets and the L1Ds' stay full.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from specsim.cache import LINE_SIZE
from specsim.config import SimConfig
from specsim.trace import TraceEvent

FRESH_BASE = 0x80000


def contended_pool(cfg: SimConfig, hot: int = 8, spread: int = 8, base: int = 0x40000) -> list[int]:
    """Addresses with deliberate set collisions: `hot` lines that all map
    to one set at both L1D and L2, plus `spread` lines over consecutive
    sets.  The hot group keeps the temporary domains under constant
    eviction pressure."""
    stride = math.lcm(cfg.l1d.num_sets, cfg.l2.num_sets) * LINE_SIZE
    pool = [base + i * stride for i in range(hot)]
    pool += [base + (i + 1) * LINE_SIZE for i in range(spread)]
    return pool


# -- paired traces (squash invisibility) ----------------------------------


@dataclass
class _Win:
    wid: int
    thread: int
    doomed: bool  # will be squashed rather than committed
    touched: set[int] = field(default_factory=set)


@dataclass
class TracePair:
    left: list[TraceEvent]
    right: list[TraceEvent]
    seed: int


def paired_traces(seed: int, cfg: SimConfig, length: int = 48) -> TracePair:
    """Build two traces whose committed behaviour must be identical.

    The traces share every event except the accesses issued inside
    doomed (to-be-squashed) windows, whose addresses are drawn
    independently for each side from the same contended pool.  Two
    generation rules keep the comparison meaningful rather than
    trivially divergent:

    * a thread only measures while it has no doomed window open and the
      probed line is not in the access set of any of its own open
      windows -- otherwise the thread would be timing its own in-flight
      speculation, which no victim/prober split ever does;
    * doomed windows issue loads and instruction fetches but no stores.
      A speculative store that folds into a line another window already
      owns upgrades its write state, and that upgrade survives the
      squash; modelling store rollback through shared lines is out of
      scope here, so stores stay on the committed side of the pair.
    """
    rng = random.Random(seed)
    pool = contended_pool(cfg)
    nthreads = cfg.num_threads
    left: list[TraceEvent] = []
    right: list[TraceEvent] = []
    open_wins: list[_Win] = []
    next_wid = 1

    def both(ev: TraceEvent) -> None:
        left.append(ev)
        right.append(ev)

    def split(make) -> None:
        left.append(make(rng.choice(pool)))
        right.append(make(rng.choice(pool)))

    def measure_ok(thread: int, addr: int) -> bool:
        for w in open_wins:
            if w.thread != thread:
                continue
            if w.doomed or addr in w.touched:
                return False
        return True

    def close(w: _Win) -> None:
        if w.doomed:
            both(TraceEvent.squash(w.thread, w.wid))
        else:
            both(TraceEvent.commit(w.thread, w.wid))

    for _ in range(length):
        roll = rng.random()
        if roll < 0.14 and len(open_wins) < 5:
            t = rng.randrange(nthreads)
            w = _Win(next_wid, t, doomed=rng.random() < 0.45)
            next_wid += 1
            open_wins.append(w)
            both(TraceEvent.open(t, w.wid))
        elif roll < 0.54 and open_wins:
            w = rng.choice(open_wins)
            if w.doomed:
                if rng.random() < 0.15:
                    split(lambda a: TraceEvent.ifetch(w.thread, a, w.wid))
                else:
                    split(lambda a: TraceEvent.load(w.thread, a, w.wid))
            else:
                if rng.random() < 0.7:
                    addr = rng.choice(pool)
                else:
                    addr = FRESH_BASE + rng.randrange(64) * LINE_SIZE
                w.touched.add(addr)
                r = rng.random()
                if r < 0.15:
                    both(TraceEvent.store(w.thread, addr, w.wid))
                elif r < 0.25:
                    both(TraceEvent.ifetch(w.thread, addr, w.wid))
                elif r < 0.30:
                    both(TraceEvent.tlbmiss_load(w.thread, addr, w.wid))
                elif r < 0.34:
                    both(TraceEvent.mgmt("flush", w.thread, addr, w.wid))
                else:
                    both(TraceEvent.load(w.thread, addr, w.wid))
        elif roll < 0.70 and open_wins:
            close(open_wins.pop(rng.randrange(len(open_wins))))
        elif roll < 0.88:
            t = rng.randrange(nthreads)
            addr = rng.choice(pool)
            if measure_ok(t, addr):
                both(TraceEvent.measure(t, addr))
        else:
            t = rng.randrange(nthreads)
            addr = rng.choice(pool)
            if rng.random() < 0.2:
                both(TraceEvent.store(t, addr))
            else:
                both(TraceEvent.load(t, addr))

    while open_wins:
        close(open_wins.pop())
    # final sweep: probe the whole pool once everything has resolved
    for addr in pool:
        both(TraceEvent.measure(rng.randrange(nthreads), addr))
    return TracePair(left, right, seed)


# -- unconstrained event soup (invariant fuzzing) --------------------------


def random_events(rng: random.Random, cfg: SimConfig, count: int):
    """Yield `count` valid events with every kind represented.

    Window ids are never reused, commit/squash only target open windows
    owned by the issuing thread, and reconfiguration is only attempted
    at quiescent points; beyond that, anything goes.
    """
    pool = contended_pool(cfg, hot=10, spread=10)
    nthreads = cfg.num_threads
    open_wins: list[_Win] = []
    next_wid = 1
    emitted = 0
    while emitted < count:
        roll = rng.random()
        ev = None
        if roll < 0.10 and len(open_wins) < 6:
            t = rng.randrange(nthreads)
            w = _Win(next_wid, t, doomed=rng.random() < 0.5)
            next_wid += 1
            open_wins.append(w)
            ev = TraceEvent.open(t, w.wid)
        elif roll < 0.48 and open_wins:
            w = rng.choice(open_wins)
            addr = rng.choice(pool) if rng.random() < 0.8 else FRESH_BASE + rng.randrange(128) * LINE_SIZE
            r = rng.random()
            if r < 0.20:
                ev = TraceEvent.store(w.thread, addr, w.wid)
            elif r < 0.32:
                ev = TraceEvent.ifetch(w.thread, addr, w.wid)
            elif r < 0.38:
                ev = TraceEvent.tlbmiss_load(w.thread, addr, w.wid)
            elif r < 0.44:
                ev = TraceEvent.mgmt(rng.choice(("flush", "invd", "prefetch")), w.thread, addr, w.wid)
            else:
                ev = TraceEvent.load(w.thread, addr, w.wid)
        elif roll < 0.62 and open_wins:
            w = open_wins.pop(rng.randrange(len(open_wins)))
            if w.doomed:
                ev = TraceEvent.squash(w.thread, w.wid)
            else:
                ev = TraceEvent.commit(w.thread, w.wid)
        elif roll < 0.74:
            t = rng.randrange(nthreads)
            addr = rng.choice(pool)
            r = rng.random()
            if r < 0.25:
                ev = TraceEvent.store(t, addr)
            else:
                ev = TraceEvent.load(t, addr)
        elif roll < 0.84:
            ev = TraceEvent.measure(rng.randrange(nthreads), rng.choice(pool))
        elif roll < 0.90:
            t = rng.randrange(nthreads)
            ev = TraceEvent.mgmt(rng.choice(("flush", "invd", "prefetch")), t, rng.choice(pool))
        elif roll < 0.95:
            ev = TraceEvent.prefetch(rng.randrange(nthreads), rng.choice(pool))
        else:
            ev = TraceEvent.barrier()
        if ev is not None:
            emitted += 1
            yield ev


# -- single-hart traces (ownership degeneration) ---------------------------


def single_thread_trace(seed: int, length: int = 100) -> list[TraceEvent]:
    """A one-thread trace exercising every event kind except
    reconfiguration (which deliberately leaves unowned temporary lines
    behind and is tested on its own)."""
    rng = random.Random(seed)
    pool = [0x40000 + i * 0x800 for i in range(6)] + [0x40040 + i * LINE_SIZE for i in range(6)]
    events: list[TraceEvent] = []
    open_wins: list[_Win] = []
    next_wid = 1
    for _ in range(length):
        roll = rng.random()
        if roll < 0.14 and len(open_wins) < 4:
            w = _Win(next_wid, 0, doomed=rng.random() < 0.5)
            next_wid += 1
            open_wins.append(w)
            events.append(TraceEvent.open(0, w.wid))
        elif roll < 0.52 and open_wins:
            w = rng.choice(open_wins)
            addr = rng.choice(pool)
            r = rng.random()
            if r < 0.2:
                events.append(TraceEvent.store(0, addr, w.wid))
            elif r < 0.3:
                events.append(TraceEvent.ifetch(0, addr, w.wid))
            elif r < 0.36:
                events.append(TraceEvent.tlbmiss_load(0, addr, w.wid))
            elif r < 0.42:
                events.append(TraceEvent.mgmt(rng.choice(("flush", "prefetch")), 0, addr, w.wid))
            else:
                events.append(TraceEvent.load(0, addr, w.wid))
        elif roll < 0.66 and open_wins:
            w = open_wins.pop(rng.randrange(len(open_wins)))
            if w.doomed:
                events.append(TraceEvent.squash(0, w.wid))
            else:
                events.append(TraceEvent.commit(0, w.wid))
        elif roll < 0.82:
            events.append(TraceEvent.measure(0, rng.choice(pool)))
        elif roll < 0.90:
            events.append(TraceEvent.load(0, rng.choice(pool)))
        elif roll < 0.95:
            events.append(TraceEvent.mgmt("flush", 0, rng.choice(pool)))
        else:
            events.append(TraceEvent.prefetch(0, rng.choice(pool)))
    while open_wins:
        w = open_wins.pop()
        if w.doomed:
            events.append(TraceEvent.squash(0, w.wid))
        else:
            events.append(TraceEvent.commit(0, w.wid))
    for addr in pool:
        events.append(TraceEvent.measure(0, addr))
    return events


# -- committed streams (full sets) -----------------------------------------


def stream_events(rng: random.Random, cfg: SimConfig, count: int) -> list[TraceEvent]:
    """Committed streams from every core over twice the L2, like the
    benchmark's committed-stream on a small hierarchy.

    Each core walks its own slice of the address space in steps of one
    or two lines, now and then jumping, so every stream access fills a
    line or two (demand miss or prefetch) and the sets stay full.  A
    shared pool takes a quarter of the accesses, a quarter of them
    stores, and every probe, so RFOs shoot down and loads recall other
    cores' copies.
    """
    slice_lines = 2 * cfg.l2.num_sets * cfg.l2.ways // cfg.cores
    stream_base = 0x100000
    shared_base = 0x80000
    shared_lines = 32
    pos = [rng.randrange(slice_lines) for _ in range(cfg.cores)]
    events: list[TraceEvent] = []
    for _ in range(count):
        core = rng.randrange(cfg.cores)
        thread = core * cfg.smt
        roll = rng.random()
        if roll < 0.05:
            addr = shared_base + rng.randrange(shared_lines) * LINE_SIZE
            events.append(TraceEvent.measure(thread, addr))
            continue
        if roll < 0.30:
            addr = shared_base + rng.randrange(shared_lines) * LINE_SIZE
        else:
            if rng.random() < 0.05:
                pos[core] = rng.randrange(slice_lines)
            else:
                pos[core] = (pos[core] + rng.choice((1, 2))) % slice_lines
            addr = stream_base + (core * slice_lines + pos[core]) * LINE_SIZE
        if rng.random() < 0.25:
            events.append(TraceEvent.store(thread, addr))
        else:
            events.append(TraceEvent.load(thread, addr))
    return events
