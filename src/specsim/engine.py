"""Trace-driven multi-core hierarchy simulator.

Wires the per-level domain machinery, the ownership rules, the
inclusive directory and the notification buffer into one deterministic
engine.  Two modes:

 * ``specbox``   — speculative fills go to temporary ways, resolution
   is notification-driven, cross-thread observation is gated by owner
   masks, and coherence transitions a squash could not undo are
   delayed until commit.
 * ``baseline``  — a conventional hierarchy: every fill is persistent
   and immediate, windows resolve without touching the caches.

Latency is compositional: each level visited adds its hit latency and
a terminal memory access adds the memory latency, so with the default
numbers an L1 hit costs 1, an L2 hit 9 (17 from a remote bank) and a
full miss 209/217.  An emulated miss (ownership protection) simply
walks the same levels as a real miss, which is what makes the two
indistinguishable in both raw latency and class.

MEASURE is a timed probe: in specbox mode it runs as a one-shot
speculative window that commits immediately — the latency is sampled
while the access is in flight, exactly like a transient attacker would
— and in baseline mode it is a plain committed load.  The probe's
window never enters the window registry or the notification buffer: it
is committed on the spot, its L1 note and then its L2 note delivered
directly, or its delayed access replayed.  That leaves exactly the
state and counters of ``OPEN t w; LOAD t a w; COMMIT t w`` with an
unused window id ``w``, because the buffer is empty whenever a window
resolves and an access's L1 and L2 notes never merge; the buffer's
``pass_through`` counts what its own policy would have forced out.

``step`` checks an event before it changes anything: a rejected event
raises ``ValueError`` (the window errors ``UnknownWindow`` and
``WindowClosed`` subclass it) and leaves the engine as it was.

No access path notes a fill or an eviction: the levels' hooks do.
``step`` tests the two kinds of the flush/probe loop (MEASURE, then
MGMT) first, and the latencies, core count and prefetch flag it reads
per event are attributes set at construction (``SimConfig`` is frozen).

The per-probe :class:`TimingObservation`, the parked-fill record and
the :class:`AccessRecord` that a window logs per access and resolves as
its L1 note are ``NamedTuple``s, built by ``tuple.__new__`` at a
tuple's cost on the hot path.  An observation
stores the probed address, not its line: ``line`` is a property derived
from ``addr``, so a retained probe holds one int fewer.

Every enum member is bound once as a module constant right after its
class (``TEMPORARY, PERSISTENT = Domain``), and the simulator's modules
compare against those names, never against ``Domain.PERSISTENT``: on
CPython 3.11 ``EnumType`` defines ``__getattr__``, so a member lookup on
the class takes a slow metaclass path, about ten times a module global's
load, and a step made some 25 of them.  Members whose names clash get
distinct constants: ``HIT_CLASS`` (``LatencyClass``) beside ``HIT``
(``AccessOutcome``) and ``OP_MGMT`` (``OpKind``) beside the event
kinds.  The objects are the members themselves, so every ``is`` test
reads as before.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import NamedTuple

from .cache import (
    ADDR_MASK, EXCLUSIVE, L1D, L1I, L2, LINE_SIZE, MODIFIED, PERSISTENT, SHARED,
    CacheGeometry, CohState, Domain, LevelId,
)
from .coherence import Directory
from .config import SimConfig
from .domains import (
    EMULATED_MISS, HIT, MISS_BYPASSED, MISS_INSTALLED, PROMOTED, CacheLevel, NotQuiescent,
)
from .notifier import (
    OP_ACCESS, OP_DELAYED, OP_MGMT, OP_TLB, AccessRecord, NotificationBuffer, OpKind, WindowRegistry,
)
from .trace import (
    COMMIT, IFETCH, LOAD, MEASURE, MGMT, MGMT_OPS, OPEN, PREFETCH, SQUASH, STORE, TLBMISS_LOAD,
    TraceEvent,
)


class LatencyClass(Enum):
    HIT = "Hit"
    MISS = "Miss"
    AMBIGUOUS = "Ambiguous"


HIT_CLASS, MISS_CLASS, AMBIGUOUS_CLASS = LatencyClass


class TimingObservation(NamedTuple):
    # `index` hides tuple.index: read it as the probe's number
    index: int
    thread: int
    addr: int
    latency: int
    klass: LatencyClass

    @property
    def line(self) -> int:
        """The probed line: derived from `addr`, not stored."""
        return (self.addr & ADDR_MASK) // LINE_SIZE


@dataclass
class SimReport:
    mode: str
    observations: list[TimingObservation] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)

    def summary(self) -> str:
        parts = [f"mode={self.mode}", f"observations={len(self.observations)}"]
        for key in sorted(self.counters):
            parts.append(f"{key}={self.counters[key]}")
        return " ".join(parts)


class _Pending(NamedTuple):
    """A parked temporary fill awaiting a free way (see ownership)."""

    level: CacheLevel
    core: int
    thread: int
    window: int
    line: int
    is_store: bool


# builds a NamedTuple record without the Python frame of its generated
# __new__; the caller passes every field, in order
_new_record = tuple.__new__

# the window id of every probe: a probe's window never enters the
# registry, and step() rejects negative ids in a trace
PROBE_WINDOW = -1

# the event kinds that step() rejects without an address, or without a window
_NEEDS_ADDR = (LOAD, STORE, IFETCH, PREFETCH, MGMT, TLBMISS_LOAD, MEASURE)
_NEEDS_WINDOW = (OPEN, COMMIT, SQUASH, TLBMISS_LOAD)


class Engine:
    def __init__(self, cfg: SimConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        spec = cfg.protected
        nthreads = cfg.num_threads

        def build(params, level_id: LevelId, protect: bool) -> CacheLevel:
            geom = CacheGeometry(level_id, params.num_sets, params.ways)
            cap = params.cap_t if spec else 0
            return CacheLevel(geom, cap, nthreads, protected=spec and cfg.tos and protect)

        l1_prot = cfg.smt > 1  # private L1s need masks only when SMT shares them
        self.l1i = [build(cfg.l1i, L1I, l1_prot) for _ in range(cfg.cores)]
        self.l1d = [build(cfg.l1d, L1D, l1_prot) for _ in range(cfg.cores)]
        self.l2 = build(cfg.l2, L2, True)
        self.directory = Directory(cfg.cores)
        self.windows = WindowRegistry()
        self.nfb = NotificationBuffer(cfg.nfb_capacity)
        self._pending: list[_Pending] = []
        self.report = SimReport(mode=cfg.mode)
        # read on every event, so held here rather than read through
        # cfg (cfg.num_threads is a computed property)
        self._nthreads = nthreads
        self._smt = cfg.smt
        self._cores = cfg.cores
        self._baseline = cfg.mode == "baseline"
        self._prefetch = cfg.prefetch
        lat = cfg.latency
        self._l1_hit, self._memory = lat.l1_hit, lat.memory
        self._l2_local, self._l2_remote = lat.l2_local, lat.l2_remote
        self._hit_below = cfg.thresholds.hit_below
        self._miss_above = cfg.thresholds.miss_above
        self._hook_levels()

    # -- plumbing ------------------------------------------------------

    def _hook_levels(self) -> None:
        """Wire the levels' hooks, the one path by which displaced and
        installed lines reach the engine and the directory.  on_evict:
        the L2's counts a back-invalidation and drops the line's L1
        copies and directory entry (inclusion); core c's L1I and L1D one
        clears c's sharer bit unless c's other L1 still holds the line,
        and also serves the lines a squash or a reconfiguration drops
        from an L1.  on_fill is the directory's note_l2_fill, or its
        note_l1_fill with c bound as the first argument.
        """
        # a weak proxy: hooks holding the engine itself would make an
        # engine -> level -> hook -> engine cycle that only the cyclic
        # GC frees, so a dropped engine would outlive its successor's build
        me = weakref.proxy(self)

        def l2_evicted(line: int) -> None:
            me.report.counters["l2_back_invalidations"] += 1
            me._invalidate_l1_copies(line, me.directory.drop(line))

        self.l2.on_evict = l2_evicted
        # the other hooks hold the directory and the L1s' sets, not the
        # engine; a level calls them positionally, so a partial binding
        # the core first adds no Python frame
        directory = self.directory
        self.l2.on_fill = directory.note_l2_fill
        for core in range(self._cores):
            fill = partial(directory.note_l1_fill, core)
            pair = (self.l1i[core], self.l1d[core])
            for lv, sibling in (pair, pair[::-1]):
                lv.on_evict = _l1_evict_hook(directory, sibling, 1 << core)
                lv.on_fill = fill

    def core_of(self, thread: int) -> int:
        return thread // self._smt

    def fingerprint(self) -> tuple:
        return (
            tuple(lv.fingerprint() for lv in self.l1i),
            tuple(lv.fingerprint() for lv in self.l1d),
            self.l2.fingerprint(),
            self.directory.fingerprint(),
        )

    # -- directory upkeep ------------------------------------------------

    def _invalidate_l1_copies(self, line: int, cores: int) -> None:
        """Drop `line` from the L1I and L1D of every core in the mask
        `cores`.  Every valid L1 line has its sharer bit, so the
        directory's sharer mask names every core that can hold a copy;
        the caller clears those bits.  A line leaving the L2 takes its
        L1 copies with it (inclusion): that back-invalidation passes
        the mask that ``Directory.drop`` returns as it deletes the entry."""
        core = 0
        while cores:
            if cores & 1:
                self.l1i[core].invalidate_line(line)
                self.l1d[core].invalidate_line(line)
            cores >>= 1
            core += 1

    # -- speculative access path -----------------------------------------

    def _inflight_access(
        self, thread: int, window_id: int, line: int, is_store: bool, is_ifetch: bool
    ) -> tuple[int, bool]:
        """Run one access in flight inside window `window_id`.  Returns
        its latency and whether the coherence delay held it back without
        touching any level, to be replayed at commit; the caller logs
        the access to the window either way."""
        core = thread // self._smt
        l1 = (self.l1i if is_ifetch else self.l1d)[core]
        ctr = self.report.counters

        if is_store:
            # delayed by any remote copy, and by a locally persistent S
            # copy: that upgrade could not be rolled back on squash
            grant = MODIFIED
            delayed = self.directory.grant_store(line, core) is not None or (
                (l1.resident_domain(line) or self.l2.resident_domain(line)) is PERSISTENT
                and self.directory.state(line) is SHARED
            )
        else:
            grant = self.directory.grant_load(line, core, True)
            delayed = grant is None

        l2_lat = self._l2_local if line % self._cores == core else self._l2_remote
        if delayed:
            ctr["delayed_coherence"] += 1
            full_miss = self._l1_hit + l2_lat + self._memory
            return full_miss, True

        latency = self._l1_hit
        r1 = l1.access_inflight(line, thread, grant)
        if r1 is HIT:
            ctr["l1_hits"] += 1
        else:
            if r1 is MISS_BYPASSED:
                ctr["suspended_installs"] += 1
                self._pending.append(_new_record(_Pending, (l1, core, thread, window_id, line, is_store)))
            elif r1 is EMULATED_MISS:
                ctr["emulated_misses"] += 1
            latency += l2_lat
            r2 = self.l2.access_inflight(line, thread, grant)
            if r2 is HIT:
                ctr["l2_hits"] += 1
            else:
                latency += self._memory
                ctr["memory_fills"] += 1
                if r2 is MISS_BYPASSED:
                    ctr["suspended_installs"] += 1
                    self._pending.append(
                        _new_record(_Pending, (self.l2, core, thread, window_id, line, is_store)))
                elif r2 is EMULATED_MISS:
                    ctr["emulated_misses"] += 1

        if is_store:
            l1.set_coh_state(line, MODIFIED)
            self.l2.set_coh_state(line, MODIFIED)
            self.directory.upgrade_for_store(line, core)

        ctr["inflight_accesses"] += 1
        return latency, False

    # -- committed access path ---------------------------------------------

    def _purge_speculative_copies(self, line: int, l2_dom: Domain | None) -> None:
        """Committed accesses never consume speculative state.

        Commits always re-establish the L2 copy of their lines, so a
        temporary-labelled or absent L2 copy means every extant copy of
        the line is speculative.  Those are dropped (their windows will
        re-install at commit) and the line refetched as a clean miss,
        which keeps the committed world identical to one in which the
        speculation never happened -- most visibly the E-vs-S grant of
        the fetch that follows.  `l2_dom` is the L2 copy's domain; the
        caller has checked that there is something to drop.
        """
        if l2_dom is not None:
            self.l2.invalidate_line(line)
        self._invalidate_l1_copies(line, self.directory.drop(line))
        self.report.counters["spec_purges"] += 1

    def _committed_grant(self, line: int, core: int, is_store: bool) -> tuple[CohState, bool]:
        """Plain-MESI grant for a committed access or a commit-time fill.

        A store shoots down the L1 copies of every other core, a load
        recalls a remote E/M owner down to S; both are counted.  Returns
        the granted state and whether the requester waited on remote
        copies (which costs it a full miss).
        """
        ctr = self.report.counters
        if is_store:
            cores = self.directory.grant_store(line, core)
            if cores:
                self._invalidate_l1_copies(line, cores)
                self.directory.remove_sharers(line, cores)
                ctr["rfo_invalidations"] += cores.bit_count()
            return MODIFIED, cores is not None
        grant = self.directory.grant_load(line, core, False)
        if grant is not None:
            return grant, False
        owner = self.directory.entry(line).owner
        self.l1i[owner].set_coh_state(line, SHARED)
        self.l1d[owner].set_coh_state(line, SHARED)
        self.l2.set_coh_state(line, SHARED)
        self.directory.downgrade(line)
        ctr["owner_recalls"] += 1
        return SHARED, True

    def _committed_line_access(
        self,
        thread: int,
        line: int,
        is_store: bool,
        is_ifetch: bool,
        spec_fill: bool = False,
    ) -> int:
        core = thread // self._smt
        l1 = (self.l1i if is_ifetch else self.l1d)[core]
        ctr = self.report.counters
        l2_dom = self.l2.resident_domain(line)
        # an L1 copy implies a directory entry, so no entry and no L2
        # copy means nothing to purge
        if l2_dom is not PERSISTENT and (
            l2_dom is not None or self.directory.entry(line) is not None
        ):
            self._purge_speculative_copies(line, l2_dom)
        grant, recalled = self._committed_grant(line, core, is_store)
        if spec_fill and grant is EXCLUSIVE:
            # a speculative access never earns exclusivity, even on
            # a hierarchy that installs it right away
            grant = SHARED

        l2_lat = self._l2_local if line % self._cores == core else self._l2_remote
        latency = self._l1_hit
        if l1.access_committed(line, grant) is not MISS_INSTALLED:
            ctr["l1_hits"] += 1
        else:
            latency += l2_lat
            if self.l2.access_committed(line, grant) is not MISS_INSTALLED:
                ctr["l2_hits"] += 1
            else:
                latency += self._memory
                ctr["memory_fills"] += 1

        if is_store:
            l1.set_coh_state(line, MODIFIED)
            self.l2.set_coh_state(line, MODIFIED)
            self.directory.upgrade_for_store(line, core)

        ctr["committed_accesses"] += 1
        if self._prefetch and not is_ifetch:
            self._prefetch_line(line + 1, thread)
        # a recall waits on the remote owner: a full miss
        return self._l1_hit + l2_lat + self._memory if recalled else latency

    # -- management & prefetch ----------------------------------------------

    def _prefetch_line(self, line: int, thread: int) -> None:
        if self.directory.grant_load(line, thread // self._smt, True) is None:
            self.report.counters["prefetch_dropped"] += 1
            return
        if self.l2.install_prefetch(line, SHARED) is MISS_INSTALLED:
            self.report.counters["prefetch_fills"] += 1

    def _exec_mgmt(self, op: str, line: int, thread: int) -> None:
        if op == "prefetch":
            self._prefetch_line(line, thread)
        else:  # flush / invd: no dirty data is modelled, both invalidate
            self.l2.invalidate_line(line)
            self._invalidate_l1_copies(line, self.directory.drop(line))
            self.report.counters["lines_flushed"] += 1
        self.report.counters["mgmt_ops"] += 1

    # -- window resolution -----------------------------------------------

    def _deliver(self, thread: int, line: int, level_id: LevelId, commit: bool, is_store: bool) -> None:
        """Apply one commit (or, if not `commit`, squash) notification
        of `thread`'s window at one level."""
        core = thread // self._smt
        if level_id is L2:
            level = self.l2
        else:
            level = (self.l1i if level_id is L1I else self.l1d)[core]
        ctr = self.report.counters
        if level.cap_t == 0:
            # a level running without temporary ways has nothing to
            # resolve: notifications targeting it are suppressed
            ctr["notifications_suppressed"] += 1
            return
        if not commit:
            dropped = level.apply_squash(line, thread)
            if dropped:
                ctr["lines_squashed"] += 1
                if level_id is not L2:
                    level.on_evict(line)
                # the L1 and L2 notes of one access can drain in either
                # order (merging reorders them), so check for a fully
                # dead entry after every drop, not just the L2 one
                if self.directory.sharers(line) == 0 and self.l2.resident_domain(line) is None:
                    self.directory.drop(line)
            return

        coh = EXCLUSIVE
        if is_store:
            # however the line gets here, a committing store leaves it
            # writable by this core: another window may have replaced the
            # in-flight copy with a shared one.  The shoot-down touches
            # other cores' copies of this line only, so it goes first
            self._committed_grant(line, core, True)
            coh = MODIFIED
        elif level.resident_domain(line) is None:
            # a commit-time re-install is fetched like a committed access,
            # but kept at S so a committed line looks the same whether it
            # was promoted in place or fetched back
            coh = self._committed_grant(line, core, False)[0]
            if coh is EXCLUSIVE:
                coh = SHARED
        outcome = level.apply_commit(line, coh)
        if outcome is MISS_INSTALLED:
            ctr["rsr_reinstalls"] += 1
        elif outcome is PROMOTED:
            ctr["lines_promoted"] += 1
        if is_store:
            level.set_coh_state(line, MODIFIED)
            self.directory.upgrade_for_store(line, core)

    def _exec_deferred(self, kind: OpKind, payload, thread: int) -> None:
        """Run a logged op of `thread`'s committing window.  A MGMT
        payload is (op name, line), a TLB payload the line, a DELAYED one
        the access's AccessRecord."""
        ctr = self.report.counters
        if kind is OP_MGMT:
            self._exec_mgmt(payload[0], payload[1], thread)
            ctr["mgmt_stalled_completed"] += 1
        elif kind is OP_TLB:
            self._committed_line_access(thread, payload, False, False)
            ctr["tlb_deferred_completed"] += 1
        elif kind is OP_DELAYED:
            self._committed_line_access(thread, payload.line, payload.is_store, payload.level is L1I)
            ctr["delayed_completed"] += 1

    def _resolve(self, window_id: int, commit: bool) -> None:
        """Close a window and walk its log in program order, committing
        it or (if not `commit`) squashing it.

        Each access sends its L1 and then its L2 notification through
        the NFB: the logged record is the L1 note.  A commit executes the
        window's deferred operations, draining the NFB before each so
        that program order holds across op kinds; a squash drops them.
        The NFB is empty again when the walk ends.
        """
        rec = self.windows.close(window_id)
        self._pending = [p for p in self._pending if p.window != window_id]
        ctr = self.report.counters
        ctr["windows_committed" if commit else "windows_squashed"] += 1
        if self._baseline:
            return
        nfb = self.nfb
        thread = rec.thread
        for op, payload in rec.ops:
            if op is OP_ACCESS:
                for note in (payload, _new_record(AccessRecord, (payload.line, L2, payload.is_store))):
                    for n in nfb.offer(note):
                        self._deliver(thread, n.line, n.level, commit, n.is_store)
            elif commit:
                for n in nfb.drain():
                    self._deliver(thread, n.line, n.level, commit, n.is_store)
                self._exec_deferred(op, payload, thread)
            else:
                ctr["deferred_dropped"] += 1
        for n in nfb.drain():
            self._deliver(thread, n.line, n.level, commit, n.is_store)
        ctr["nfb_merged"] = nfb.merged
        ctr["nfb_forced_out"] = nfb.forced_out

    # -- suspended install retries -------------------------------------------

    def _retry_suspended(self) -> None:
        progress = True
        while progress:
            progress = False
            keep: list[_Pending] = []
            for p in self._pending:
                status = p.level.try_install_suspended(p.line, p.thread, p.is_store)
                if status is MISS_INSTALLED:
                    progress = True
                    self.report.counters["retried_installs"] += 1
                    if p.is_store and p.level is self.l2:
                        self.directory.upgrade_for_store(p.line, p.core)
                elif status is MISS_BYPASSED:
                    keep.append(p)
                # HIT: some other path brought the line in; drop it
            self._pending = keep

    # -- measurement -----------------------------------------------------

    def _measure(self, thread: int, addr: int) -> TimingObservation:
        line = (addr & ADDR_MASK) // LINE_SIZE
        ctr = self.report.counters
        if self._baseline:
            latency = self._committed_line_access(thread, line, False, False)
        else:
            # a one-shot window, committed on the spot (module docstring):
            # a suspended fill dies with it, as any window's does
            pending = len(self._pending)
            latency, delayed = self._inflight_access(thread, PROBE_WINDOW, line, False, False)
            del self._pending[pending:]
            ctr["windows_committed"] += 1
            nfb = self.nfb
            if delayed:
                self._exec_deferred(OP_DELAYED, _new_record(AccessRecord, (line, L1D, False)), thread)
            else:
                nfb.pass_through(2)
                self._deliver(thread, line, L1D, True, False)
                self._deliver(thread, line, L2, True, False)
            ctr["nfb_merged"] = nfb.merged
            ctr["nfb_forced_out"] = nfb.forced_out
        if latency < self._hit_below:
            klass = HIT_CLASS
        elif latency > self._miss_above:
            klass = MISS_CLASS
        else:
            klass = AMBIGUOUS_CLASS
        observations = self.report.observations
        obs = _new_record(TimingObservation, (len(observations), thread, addr, latency, klass))
        observations.append(obs)
        ctr["measures"] += 1
        return obs

    # -- public API ---------------------------------------------------------

    def reconfigure(self, level_name: str, new_cap_t: int) -> None:
        """Retune temporary capacity; only legal with no open windows."""
        if self.windows.any_open():
            raise NotQuiescent("cannot reconfigure while speculative windows are open")
        if level_name == "l2":
            for line in self.l2.reconfigure(new_cap_t):
                self._invalidate_l1_copies(line, self.directory.drop(line))
        elif level_name in ("l1i", "l1d"):
            bank = self.l1i if level_name == "l1i" else self.l1d
            for lv in bank:
                for line in lv.reconfigure(new_cap_t):
                    lv.on_evict(line)
        else:
            raise ValueError(f"unknown level {level_name!r}")
        self._retry_suspended()

    def step(self, ev: TraceEvent) -> None:
        kind = ev.kind
        thread = ev.thread
        addr = ev.addr
        window = ev.window
        # validate before anything changes, so a rejected event leaves
        # the engine exactly as it was
        if not 0 <= thread < self._nthreads:
            raise ValueError(f"thread {thread} out of range 0..{self._nthreads - 1}")
        if addr is None:
            if kind in _NEEDS_ADDR:
                raise ValueError(f"{kind.value} event has no address")
        else:
            if addr < 0:
                raise ValueError(f"address {addr} is negative")
            line = (addr & ADDR_MASK) // LINE_SIZE
        if kind is MGMT and ev.mgmt_op not in MGMT_OPS:
            raise ValueError(f"MGMT event has no mgmt_op from {MGMT_OPS}: {ev.mgmt_op!r}")
        rec = None
        if window is None:
            if kind in _NEEDS_WINDOW:
                raise ValueError(f"{kind.value} event has no window")
        else:
            if window < 0:
                # negative ids are reserved for the engine's probe windows
                raise ValueError(f"window {window} is negative")
            if kind is not OPEN:
                rec = self.windows.get_open(window)
                if rec.thread != thread:
                    raise ValueError(f"window {window} belongs to thread {rec.thread}, not {thread}")
        # the flush/probe loop's two kinds first: they are nearly every
        # event of a flush+reload attack
        if kind is MEASURE:
            self._measure(thread, addr)
        elif kind is MGMT:
            if rec is None or self._baseline:
                self._exec_mgmt(ev.mgmt_op, line, thread)
            else:
                rec.ops.append((OP_MGMT, (ev.mgmt_op, line)))
        elif kind in (LOAD, STORE, IFETCH):
            is_store = kind is STORE
            is_ifetch = kind is IFETCH
            if rec is None:
                self._committed_line_access(thread, line, is_store, is_ifetch)
            elif self._baseline:
                self._committed_line_access(thread, line, is_store, is_ifetch, spec_fill=True)
            else:
                # the logged footprint (its L1, then the L2) always spans
                # both levels, not just the ones the lookup consulted: the
                # hierarchy is inclusive, so a commit must be able to
                # repair an L2 copy torn down by a sibling window's squash
                # even when the access hit at L1, and a squash must purge
                # the L2 copy likewise
                access = _new_record(AccessRecord, (line, L1I if is_ifetch else L1D, is_store))
                delayed = self._inflight_access(thread, window, line, is_store, is_ifetch)[1]
                rec.ops.append((OP_DELAYED if delayed else OP_ACCESS, access))
        elif kind is OPEN:
            self.windows.open(window, thread)
        elif kind is COMMIT or kind is SQUASH:
            self._resolve(window, kind is COMMIT)
        elif kind is PREFETCH:
            self._prefetch_line(line, thread)
        elif kind is TLBMISS_LOAD:
            if self._baseline:
                self._committed_line_access(thread, line, False, False, spec_fill=True)
            else:
                rec.ops.append((OP_TLB, line))
                self.report.counters["tlb_deferred"] += 1
        # BARRIER: the retry sweep below is the fence
        if self._pending:
            self._retry_suspended()

    def run(self, events: list[TraceEvent]) -> SimReport:
        for ev in events:
            self.step(ev)
        return self.report


def _l1_evict_hook(directory: Directory, sibling: CacheLevel, bit: int):
    """The on_evict hook of one of a core's two L1s: once a line has
    left, clear the core's sharer `bit` unless `sibling`, the core's
    other L1, still holds the line.  One frame: it probes the sibling's
    tag index and the directory's entry map directly (a call into
    either would be a frame of its own)."""
    sets = sibling.sets
    mask = sibling.geometry.num_sets - 1
    shift = mask.bit_length()
    entry = directory._entries.get
    keep = ~bit

    def l1_evicted(line: int) -> None:
        if line >> shift not in sets[line & mask].index:
            e = entry(line)
            if e is not None:
                e.sharers &= keep

    return l1_evicted


def run_trace(events: list[TraceEvent], cfg: SimConfig) -> SimReport:
    return Engine(cfg).run(events)
