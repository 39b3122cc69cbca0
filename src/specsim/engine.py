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
— and in baseline mode it is a plain committed load.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .cache import CacheGeometry, CohState, Domain, LevelId
from .coherence import DelayedOp, Directory
from .config import SimConfig
from .domains import AccessOutcome, CacheLevel, CommitCase, NotQuiescent
from .notifier import (
    AccessRecord,
    Notification,
    NotificationBuffer,
    NotifKind,
    WindowRecord,
    WindowRegistry,
)
from .ownership import SuspendedInstall
from .trace import EventKind, TraceEvent


class LatencyClass(Enum):
    HIT = "Hit"
    MISS = "Miss"
    AMBIGUOUS = "Ambiguous"


@dataclass(frozen=True)
class TimingObservation:
    index: int
    thread: int
    addr: int
    line: int
    latency: int
    klass: LatencyClass


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


@dataclass
class _Pending:
    level: CacheLevel
    core: int
    pend: SuspendedInstall


class Engine:
    def __init__(self, cfg: SimConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        spec = cfg.protected
        nthreads = cfg.num_threads

        def build(params, level_id: LevelId, protect: bool, shared: bool) -> CacheLevel:
            geom = CacheGeometry(level_id, params.num_sets, params.ways, shared=shared)
            cap = params.cap_t if spec else 0
            return CacheLevel(geom, cap, nthreads, protected=spec and cfg.tos and protect)

        l1_prot = cfg.smt > 1  # private L1s need masks only when SMT shares them
        self.l1i = [build(cfg.l1i, LevelId.L1I, l1_prot, False) for _ in range(cfg.cores)]
        self.l1d = [build(cfg.l1d, LevelId.L1D, l1_prot, False) for _ in range(cfg.cores)]
        self.l2 = build(cfg.l2, LevelId.L2, True, True)
        self.directory = Directory(cfg.cores)
        self.windows = WindowRegistry()
        self.nfb = NotificationBuffer(cfg.nfb_capacity)
        self._pending: list[_Pending] = []
        self._synth = -1
        self.report = SimReport(mode=cfg.mode)

    # -- plumbing ------------------------------------------------------

    def core_of(self, thread: int) -> int:
        return thread // self.cfg.smt

    def _l1_for(self, thread: int, is_ifetch: bool) -> CacheLevel:
        bank = self.l1i if is_ifetch else self.l1d
        return bank[self.core_of(thread)]

    def _level_of(self, level_id: LevelId, thread: int) -> CacheLevel:
        if level_id is LevelId.L2:
            return self.l2
        if level_id is LevelId.L1I:
            return self.l1i[self.core_of(thread)]
        return self.l1d[self.core_of(thread)]

    def _l2_latency(self, core: int, line: int) -> int:
        lat = self.cfg.latency
        if line % self.cfg.cores == core:
            return lat.l2_local
        return lat.l2_remote

    def _full_miss_latency(self, core: int, line: int) -> int:
        return self.cfg.latency.l1_hit + self._l2_latency(core, line) + self.cfg.latency.memory

    def classify(self, latency: int) -> LatencyClass:
        th = self.cfg.thresholds
        if latency < th.hit_below:
            return LatencyClass.HIT
        if latency > th.miss_above:
            return LatencyClass.MISS
        return LatencyClass.AMBIGUOUS

    def fingerprint(self) -> tuple:
        return (
            tuple(lv.fingerprint() for lv in self.l1i),
            tuple(lv.fingerprint() for lv in self.l1d),
            self.l2.fingerprint(),
            self.directory.fingerprint(),
        )

    # -- directory upkeep ------------------------------------------------

    def _l1_presence_refresh(self, line: int, core: int) -> None:
        if self.l1i[core].lookup(line) is None and self.l1d[core].lookup(line) is None:
            self.directory.remove_sharer(line, core)

    def _invalidate_l1_copies(self, line: int, cores: int) -> None:
        """Drop `line` from the L1I and L1D of every core in the mask
        `cores` and clear their sharer bits.  Every valid L1 line has
        its sharer bit, so the directory's sharer mask names every core
        that can hold a copy."""
        core = 0
        while cores:
            if cores & 1:
                self.l1i[core].invalidate_line(line)
                self.l1d[core].invalidate_line(line)
                self.directory.remove_sharer(line, core)
            cores >>= 1
            core += 1

    def _back_invalidate(self, line: int) -> None:
        """Drop every L1 copy and the directory entry of a line that is
        leaving the L2 (inclusion: the L1 copies die with it)."""
        self._invalidate_l1_copies(line, self.directory.sharers(line))
        self.directory.drop(line)

    def _handle_l1_eviction(self, evicted: int | None, core: int) -> None:
        if evicted is not None:
            self._l1_presence_refresh(evicted, core)

    def _handle_l2_eviction(self, evicted: int | None) -> None:
        if evicted is not None:
            self.report.counters["l2_back_invalidations"] += 1
            self._back_invalidate(evicted)

    # -- speculative access path -----------------------------------------

    def _inflight_access(
        self, rec: WindowRecord, addr: int, is_store: bool, is_ifetch: bool
    ) -> int:
        thread, window_id = rec.thread, rec.window_id
        line = self.l2.geometry.line_of(addr)
        core = self.core_of(thread)
        l1 = self._l1_for(thread, is_ifetch)
        ctr = self.report.counters

        if is_store:
            local_dom = l1.resident_domain(line) or self.l2.resident_domain(line)
            persistent_shared = (
                local_dom is not None
                and local_dom.value == "P"
                and self.directory.state(line) is CohState.SHARED
            )
            sgrant = self.directory.grant_store(line, core, True, persistent_shared)
            delayed, grant = sgrant.delayed, sgrant.grant
        else:
            lgrant = self.directory.grant_load(line, core, True)
            delayed, grant = lgrant.delayed, lgrant.grant

        if delayed:
            ctr["delayed_coherence"] += 1
            rec.record("delayed", DelayedOp(thread, line, is_store, is_ifetch))
            return self._full_miss_latency(core, line)

        latency = self.cfg.latency.l1_hit
        r1 = l1.access_inflight(line, thread, window_id, grant, is_store)
        terminal_hit = r1.outcome is AccessOutcome.HIT
        if r1.outcome is AccessOutcome.MISS_INSTALLED:
            self._handle_l1_eviction(r1.evicted_line, core)
            self.directory.note_l1_fill(line, core, grant)
        elif r1.outcome is AccessOutcome.MISS_BYPASSED:
            ctr["suspended_installs"] += 1
            self._pending.append(_Pending(l1, core, r1.suspended))
        elif r1.outcome is AccessOutcome.EMULATED_MISS:
            ctr["emulated_misses"] += 1

        if terminal_hit:
            ctr["l1_hits"] += 1
        else:
            latency += self._l2_latency(core, line)
            r2 = self.l2.access_inflight(line, thread, window_id, grant, is_store)
            if r2.outcome is AccessOutcome.HIT:
                ctr["l2_hits"] += 1
            else:
                latency += self.cfg.latency.memory
                ctr["memory_fills"] += 1
                if r2.outcome is AccessOutcome.MISS_INSTALLED:
                    self._handle_l2_eviction(r2.evicted_line)
                    self.directory.note_l2_fill(line, grant)
                elif r2.outcome is AccessOutcome.MISS_BYPASSED:
                    ctr["suspended_installs"] += 1
                    self._pending.append(_Pending(self.l2, core, r2.suspended))
                elif r2.outcome is AccessOutcome.EMULATED_MISS:
                    ctr["emulated_misses"] += 1

        if is_store:
            l1.set_coh_state(line, CohState.MODIFIED)
            self.l2.set_coh_state(line, CohState.MODIFIED)
            self.directory.upgrade_for_store(line, core)

        # the recorded footprint (its L1, then the L2) always spans both
        # levels, not just the ones this lookup consulted: the hierarchy
        # is inclusive, so a commit must be able to repair an L2 copy torn
        # down by a sibling window's squash even when the access itself
        # hit at L1, and a squash must purge the L2 copy for the same reason
        rec.record("access", AccessRecord(line, l1.geometry.level_id, is_store))
        ctr["inflight_accesses"] += 1
        return latency

    # -- committed access path ---------------------------------------------

    def _purge_speculative_copies(self, line: int) -> None:
        """Committed accesses never consume speculative state.

        Commits always re-establish the L2 copy of their lines, so a
        temporary-labelled or absent L2 copy means every extant copy of
        the line is speculative.  Those are dropped (their windows will
        re-install at commit) and the line refetched as a clean miss,
        which keeps the committed world identical to one in which the
        speculation never happened -- most visibly the E-vs-S grant of
        the fetch that follows.
        """
        l2_dom = self.l2.resident_domain(line)
        if l2_dom is Domain.PERSISTENT:
            return
        # an L1 copy implies a directory entry, so no entry and no L2
        # copy means nothing to drop
        if l2_dom is None and self.directory.entry(line) is None:
            return
        if l2_dom is not None:
            self.l2.invalidate_line(line)
        self._back_invalidate(line)
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
            sgrant = self.directory.grant_store(line, core, False, False)
            if sgrant.invalidate_cores:
                self._invalidate_l1_copies(line, sgrant.invalidate_cores)
                ctr["rfo_invalidations"] += sgrant.invalidate_cores.bit_count()
            return sgrant.grant, sgrant.recall
        lgrant = self.directory.grant_load(line, core, False)
        if lgrant.recall:
            owner = self.directory.entry(line).owner
            self.l1i[owner].set_coh_state(line, CohState.SHARED)
            self.l1d[owner].set_coh_state(line, CohState.SHARED)
            self.l2.set_coh_state(line, CohState.SHARED)
            self.directory.downgrade(line)
            ctr["owner_recalls"] += 1
        return lgrant.grant, lgrant.recall

    def _committed_line_access(
        self,
        thread: int,
        line: int,
        is_store: bool,
        is_ifetch: bool,
        spec_fill: bool = False,
    ) -> int:
        core = self.core_of(thread)
        l1 = self._l1_for(thread, is_ifetch)
        ctr = self.report.counters
        self._purge_speculative_copies(line)
        grant, recalled = self._committed_grant(line, core, is_store)
        if spec_fill and grant is CohState.EXCLUSIVE:
            # a speculative access never earns exclusivity, even on
            # a hierarchy that installs it right away
            grant = CohState.SHARED

        latency = self.cfg.latency.l1_hit
        r1 = l1.access_committed(line, thread, grant)
        if r1.outcome is AccessOutcome.HIT:
            ctr["l1_hits"] += 1
            if r1.promoted:
                self._handle_l1_eviction(r1.evicted_line, core)
        else:
            self._handle_l1_eviction(r1.evicted_line, core)
            latency += self._l2_latency(core, line)
            r2 = self.l2.access_committed(line, thread, grant)
            if r2.outcome is AccessOutcome.HIT:
                ctr["l2_hits"] += 1
                if r2.promoted:
                    self._handle_l2_eviction(r2.evicted_line)
            else:
                latency += self.cfg.latency.memory
                ctr["memory_fills"] += 1
                self._handle_l2_eviction(r2.evicted_line)
                self.directory.note_l2_fill(line, grant)
            self.directory.note_l1_fill(line, core, grant)

        if is_store:
            l1.set_coh_state(line, CohState.MODIFIED)
            self.l2.set_coh_state(line, CohState.MODIFIED)
            self.directory.upgrade_for_store(line, core)

        ctr["committed_accesses"] += 1
        if self.cfg.prefetch and not is_ifetch:
            self._prefetch_line(line + 1, thread)
        return self._full_miss_latency(core, line) if recalled else latency

    def _committed_access(
        self, thread: int, addr: int, is_store: bool, is_ifetch: bool, spec_fill: bool = False
    ) -> int:
        return self._committed_line_access(
            thread, self.l2.geometry.line_of(addr), is_store, is_ifetch, spec_fill
        )

    # -- management & prefetch ----------------------------------------------

    def _prefetch_line(self, line: int, thread: int) -> None:
        core = self.core_of(thread)
        if self.directory.grant_load(line, core, True).delayed:
            self.report.counters["prefetch_dropped"] += 1
            return
        res = self.l2.install_prefetch(line, thread, CohState.SHARED)
        if res.outcome is AccessOutcome.MISS_INSTALLED:
            self._handle_l2_eviction(res.evicted_line)
            self.directory.note_l2_fill(line, CohState.SHARED)
            self.report.counters["prefetch_fills"] += 1

    def _exec_mgmt(self, ev: TraceEvent) -> None:
        line = self.l2.geometry.line_of(ev.addr)
        if ev.mgmt_op == "prefetch":
            self._prefetch_line(line, ev.thread)
        else:  # flush / invd: no dirty data is modelled, both invalidate
            self.l2.invalidate_line(line)
            self._back_invalidate(line)
            self.report.counters["lines_flushed"] += 1
        self.report.counters["mgmt_ops"] += 1

    # -- window resolution -----------------------------------------------

    def _deliver(self, note: Notification) -> None:
        level = self._level_of(note.level, note.thread)
        core = self.core_of(note.thread)
        ctr = self.report.counters
        if level.cap_t == 0:
            # a level running without temporary ways has nothing to
            # resolve: notifications targeting it are suppressed
            ctr["notifications_suppressed"] += 1
            return
        if note.kind is NotifKind.SQUASH:
            dropped = level.apply_squash(note.line, note.thread)
            if dropped:
                ctr["lines_squashed"] += 1
                if note.level is not LevelId.L2:
                    self._l1_presence_refresh(note.line, core)
                # the L1 and L2 notes of one access can drain in either
                # order (merging reorders them), so check for a fully
                # dead entry after every drop, not just the L2 one
                if self.directory.sharers(note.line) == 0 and self.l2.lookup(note.line) is None:
                    self.directory.drop(note.line)
            return

        coh = CohState.EXCLUSIVE
        if level.lookup(note.line) is None:
            # a commit-time re-install is fetched like a committed access,
            # but kept at S so a committed line looks the same whether it
            # was promoted in place or fetched back
            coh = self._committed_grant(note.line, core, note.is_store)[0]
            if coh is CohState.EXCLUSIVE:
                coh = CohState.SHARED
        res = level.apply_commit(note.line, note.thread, coh)
        if res.case is CommitCase.REINSTALLED:
            ctr["rsr_reinstalls"] += 1
            if note.level is LevelId.L2:
                self._handle_l2_eviction(res.evicted_line)
                self.directory.note_l2_fill(note.line, coh)
            else:
                self._handle_l1_eviction(res.evicted_line, core)
                self.directory.note_l1_fill(note.line, core, coh)
        elif res.case is CommitCase.PROMOTED:
            ctr["lines_promoted"] += 1
            if note.level is LevelId.L2:
                self._handle_l2_eviction(res.evicted_line)
            else:
                self._handle_l1_eviction(res.evicted_line, core)
        if note.is_store:
            # regardless of how the line got here (promoted in place,
            # touched, or fetched back), a committing store must leave
            # it writable by this core: another window may have replaced
            # the in-flight copy with a shared one in the meantime
            self._committed_grant(note.line, core, True)
            level.set_coh_state(note.line, CohState.MODIFIED)
            self.directory.upgrade_for_store(note.line, core)

    def _drain_nfb(self) -> None:
        for note in self.nfb.drain():
            self._deliver(note)

    def _exec_deferred(self, kind: str, payload, thread: int) -> None:
        ctr = self.report.counters
        if kind == "mgmt":
            self._exec_mgmt(payload)
            ctr["mgmt_stalled_completed"] += 1
        elif kind == "tlb":
            self._committed_access(thread, payload.addr, False, False)
            ctr["tlb_deferred_completed"] += 1
        elif kind == "delayed":
            op: DelayedOp = payload
            self._committed_line_access(op.thread, op.line, op.is_store, op.is_ifetch)
            ctr["delayed_completed"] += 1

    def _resolve(self, window_id: int, kind: NotifKind) -> None:
        """Close a window and walk its log in program order.

        Each access sends its L1 and then its L2 notification through
        the NFB.  A commit executes the window's deferred operations,
        draining the NFB before each so that program order holds across
        op kinds; a squash drops them.
        """
        rec = self.windows.close(window_id)
        self._pending = [p for p in self._pending if p.pend.window != window_id]
        commit = kind is NotifKind.COMMIT
        ctr = self.report.counters
        ctr["windows_committed" if commit else "windows_squashed"] += 1
        if self.cfg.mode == "baseline":
            return
        for op, payload in rec.ops:
            if op == "access":
                ar: AccessRecord = payload
                for level_id in (ar.l1, LevelId.L2):
                    note = Notification(window_id, rec.thread, ar.line, level_id, kind, ar.is_store)
                    for out in self.nfb.offer(note):
                        self._deliver(out)
            elif commit:
                self._drain_nfb()
                self._exec_deferred(op, payload, rec.thread)
            else:
                ctr["deferred_dropped"] += 1
        self._drain_nfb()
        ctr["nfb_merged"] = self.nfb.merged
        ctr["nfb_forced_out"] = self.nfb.forced_out

    # -- suspended install retries -------------------------------------------

    def _retry_suspended(self) -> None:
        progress = True
        while progress:
            progress = False
            keep: list[_Pending] = []
            for p in self._pending:
                status, evicted = p.level.try_install_suspended(p.pend)
                if status == "installed":
                    progress = True
                    self.report.counters["retried_installs"] += 1
                    state = CohState.MODIFIED if p.pend.is_store else CohState.SHARED
                    if p.level is self.l2:
                        self._handle_l2_eviction(evicted)
                        self.directory.note_l2_fill(p.pend.line, state)
                        if p.pend.is_store:
                            self.directory.upgrade_for_store(p.pend.line, p.core)
                    else:
                        self._handle_l1_eviction(evicted, p.core)
                        self.directory.note_l1_fill(p.pend.line, p.core, state)
                elif status == "blocked":
                    keep.append(p)
                # "present": some other path brought the line in; drop it
            self._pending = keep

    # -- measurement -----------------------------------------------------

    def _measure(self, thread: int, addr: int) -> TimingObservation:
        line = self.l2.geometry.line_of(addr)
        if self.cfg.mode == "baseline":
            latency = self._committed_access(thread, addr, False, False)
        else:
            wid = self._synth
            self._synth -= 1
            rec = self.windows.open(wid, thread)
            latency = self._inflight_access(rec, addr, False, False)
            self._resolve(wid, NotifKind.COMMIT)
        obs = TimingObservation(
            index=len(self.report.observations),
            thread=thread,
            addr=addr,
            line=line,
            latency=latency,
            klass=self.classify(latency),
        )
        self.report.observations.append(obs)
        self.report.counters["measures"] += 1
        return obs

    # -- public API ---------------------------------------------------------

    def reconfigure(self, level_name: str, new_cap_t: int) -> None:
        """Retune temporary capacity; only legal with no open windows."""
        if self.windows.any_open():
            raise NotQuiescent("cannot reconfigure while speculative windows are open")
        if level_name == "l2":
            for line in self.l2.reconfigure(new_cap_t).dropped_lines:
                self._back_invalidate(line)
        elif level_name in ("l1i", "l1d"):
            bank = self.l1i if level_name == "l1i" else self.l1d
            for core, lv in enumerate(bank):
                for line in lv.reconfigure(new_cap_t).dropped_lines:
                    self._l1_presence_refresh(line, core)
        else:
            raise ValueError(f"unknown level {level_name!r}")
        self._retry_suspended()

    def step(self, ev: TraceEvent) -> None:
        kind = ev.kind
        # validate before anything changes, so a rejected event leaves
        # the engine exactly as it was
        if not 0 <= ev.thread < self.cfg.num_threads:
            raise ValueError(f"thread {ev.thread} out of range 0..{self.cfg.num_threads - 1}")
        rec = None
        if ev.window is not None and kind is not EventKind.OPEN:
            rec = self.windows.get_open(ev.window)
            if rec.thread != ev.thread:
                raise ValueError(f"window {ev.window} belongs to thread {rec.thread}, not {ev.thread}")
        baseline = self.cfg.mode == "baseline"
        if kind is EventKind.OPEN:
            self.windows.open(ev.window, ev.thread)
        elif kind in (EventKind.LOAD, EventKind.STORE, EventKind.IFETCH):
            is_store = kind is EventKind.STORE
            is_ifetch = kind is EventKind.IFETCH
            if rec is None:
                self._committed_access(ev.thread, ev.addr, is_store, is_ifetch)
            elif baseline:
                self._committed_access(ev.thread, ev.addr, is_store, is_ifetch, spec_fill=True)
            else:
                self._inflight_access(rec, ev.addr, is_store, is_ifetch)
        elif kind is EventKind.PREFETCH:
            self._prefetch_line(self.l2.geometry.line_of(ev.addr), ev.thread)
        elif kind is EventKind.MGMT:
            if rec is None or baseline:
                self._exec_mgmt(ev)
            else:
                rec.record("mgmt", ev)
        elif kind is EventKind.TLBMISS_LOAD:
            if baseline:
                self._committed_access(ev.thread, ev.addr, False, False, spec_fill=True)
            else:
                rec.record("tlb", ev)
                self.report.counters["tlb_deferred"] += 1
        elif kind is EventKind.COMMIT:
            self._resolve(ev.window, NotifKind.COMMIT)
        elif kind is EventKind.SQUASH:
            self._resolve(ev.window, NotifKind.SQUASH)
        elif kind is EventKind.MEASURE:
            self._measure(ev.thread, ev.addr)
        elif kind is EventKind.BARRIER:
            pass  # the retry sweep below is the fence
        self._retry_suspended()

    def run(self, events: list[TraceEvent]) -> SimReport:
        for ev in events:
            self.step(ev)
        return self.report


def run_trace(events: list[TraceEvent], cfg: SimConfig) -> SimReport:
    return Engine(cfg).run(events)
