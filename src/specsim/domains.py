"""Per-level cache state machine with domain partitioning.

A :class:`CacheLevel` wraps the raw set/way arrays with the policy that
makes speculation invisible to later timing probes:

 * Every way is statically labelled temporary or persistent; the
   per-set count of temporary ways always equals the configured
   capacity, so speculative fills can never change how much space the
   persistent domain has.
 * In-flight (speculative) fills land only in temporary ways.  Within
   the temporary domain replacement is by install order; within the
   persistent domain it is LRU.  Invalid ways are always preferred.
 * Commit moves a line from the temporary domain into the persistent
   domain by swapping labels with a persistent victim, so the count
   invariant is maintained without copying data between ways.
 * Squash simply invalidates the temporary way; the label stays.

Owner masks (see :mod:`.ownership`) are maintained unconditionally so
that single-thread runs are bit-identical whether or not the ownership
protection is switched on; the `protected` flag only decides whether
non-owners are charged emulated misses and whether eviction is gated
on the mask draining.

Every line lookup here is one probe of the set's tag index (see
:class:`.cache.CacheSet`), with the set index and tag taken from the
line by a mask and a shift, and every fill picks its victim with the
set's single-pass ``select_victim``; only ``reconfigure`` and the
ownership scan walk a full ``victim_order``.  Only fills, not lookups,
grow with the associativity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .cache import CacheGeometry, CacheSet, CohState, Domain
from .ownership import AcquireResult, SuspendedInstall, ThreadOwnership


class CapacityOutOfRange(Exception):
    """Requested temporary capacity does not fit the geometry."""


class NotQuiescent(Exception):
    """Reconfiguration attempted while speculative windows are open."""


class AccessOutcome(Enum):
    HIT = "hit"
    EMULATED_MISS = "emulated_miss"
    MISS_INSTALLED = "miss_installed"
    MISS_BYPASSED = "miss_bypassed"


class CommitCase(Enum):
    PROMOTED = "promoted"          # line was temporary: relabel swap
    TOUCHED = "touched"            # line already persistent: refresh LRU
    REINSTALLED = "reinstalled"    # line absent: fresh persistent fill


@dataclass
class LevelAccess:
    """What one level did with one access."""

    outcome: AccessOutcome
    way: int | None = None
    evicted_line: int | None = None
    suspended: SuspendedInstall | None = None
    promoted: bool = False


@dataclass
class CommitResult:
    case: CommitCase
    way: int
    evicted_line: int | None = None


@dataclass
class ReconfigResult:
    dropped_lines: list[int] = field(default_factory=list)


class CacheLevel:
    """One cache level: geometry + sets + the domain/ownership policy."""

    def __init__(
        self,
        geometry: CacheGeometry,
        cap_t: int,
        num_threads: int,
        protected: bool = False,
    ) -> None:
        if not 0 <= cap_t < geometry.ways:
            raise CapacityOutOfRange(
                f"cap_t={cap_t} must satisfy 0 <= cap_t < ways={geometry.ways}"
            )
        self.geometry = geometry
        self.cap_t = cap_t
        self.protected = protected
        self.ownership = ThreadOwnership(num_threads)
        self.sets = [CacheSet(geometry.ways, cap_t) for _ in range(geometry.num_sets)]
        # num_sets is a power of two: set index and tag are a mask and a shift
        self._set_mask = geometry.num_sets - 1
        self._tag_shift = geometry.num_sets.bit_length() - 1
        self._clock = 0

    # -- bookkeeping -------------------------------------------------

    def _stamp(self) -> int:
        self._clock += 1
        return self._clock

    def lookup(self, line: int) -> tuple[int, int] | None:
        """(set_index, way) of a valid copy of `line`, or None."""
        si = line & self._set_mask
        way = self.sets[si].index.get(line >> self._tag_shift)
        if way is None:
            return None
        return si, way

    def resident_domain(self, line: int) -> Domain | None:
        cset = self.sets[line & self._set_mask]
        way = cset.index.get(line >> self._tag_shift)
        if way is None:
            return None
        return cset.ways[way].domain

    def coh_state_of(self, line: int) -> CohState:
        cset = self.sets[line & self._set_mask]
        way = cset.index.get(line >> self._tag_shift)
        if way is None:
            return CohState.INVALID
        return cset.ways[way].coh_state

    def set_coh_state(self, line: int, state: CohState) -> None:
        cset = self.sets[line & self._set_mask]
        way = cset.index.get(line >> self._tag_shift)
        if way is not None:
            cset.ways[way].coh_state = state

    # -- access paths ------------------------------------------------

    def access_inflight(
        self,
        line: int,
        thread: int,
        window: int,
        coh_state: CohState = CohState.SHARED,
        is_ifetch: bool = False,
        is_store: bool = False,
    ) -> LevelAccess:
        """Speculative access: hits observe, misses fill a temporary way.

        With the ownership protection on, a hit on a temporary line the
        thread does not yet own is reported as an emulated miss (the
        caller charges full miss latency) and the thread becomes an
        owner, so the charge happens at most once per residency.
        """
        si = line & self._set_mask
        cset = self.sets[si]
        way = cset.index.get(line >> self._tag_shift)
        if way is not None:
            if cset.ways[way].domain is Domain.PERSISTENT:
                # no touch: even replacement-state updates wait for the
                # commit notification, or a squashed hit would leave a trace
                return LevelAccess(AccessOutcome.HIT, way=way)
            if self.protected:
                res = self.ownership.check_and_acquire(cset, way, thread)
                if res is AcquireResult.ACQUIRED_EMULATED_MISS:
                    return LevelAccess(AccessOutcome.EMULATED_MISS, way=way)
            # temporary recency is install order: no touch on hit
            return LevelAccess(AccessOutcome.HIT, way=way)

        if self.cap_t == 0:
            # no temporary ways here: fall back to plain persistent fills
            way, evicted = self._install(si, line, Domain.PERSISTENT, thread, coh_state)
            return LevelAccess(AccessOutcome.MISS_INSTALLED, way=way, evicted_line=evicted)

        if self.protected:
            way = self.ownership.find_evictable(cset, thread)
            if way is None:
                return LevelAccess(
                    AccessOutcome.MISS_BYPASSED,
                    suspended=SuspendedInstall(
                        thread=thread,
                        window=window,
                        line=line,
                        set_index=si,
                        is_ifetch=is_ifetch,
                        is_store=is_store,
                    ),
                )
            evicted = self._evict_way(si, way)
            cset.install(
                way,
                line >> self._tag_shift,
                Domain.TEMPORARY,
                self.ownership.bit(thread),
                coh_state,
                self._stamp(),
            )
            return LevelAccess(AccessOutcome.MISS_INSTALLED, way=way, evicted_line=evicted)

        way, evicted = self._install(si, line, Domain.TEMPORARY, thread, coh_state)
        return LevelAccess(AccessOutcome.MISS_INSTALLED, way=way, evicted_line=evicted)

    def access_committed(
        self,
        line: int,
        thread: int,
        coh_state: CohState = CohState.EXCLUSIVE,
    ) -> LevelAccess:
        """Non-speculative access: fills are persistent, temporary hits
        are promoted on the spot (the access itself is the commit)."""
        si = line & self._set_mask
        cset = self.sets[si]
        way = cset.index.get(line >> self._tag_shift)
        if way is not None:
            if cset.ways[way].domain is Domain.PERSISTENT:
                cset.touch(way, self._stamp())
                return LevelAccess(AccessOutcome.HIT, way=way)
            evicted = self._promote(si, way)
            return LevelAccess(AccessOutcome.HIT, way=way, evicted_line=evicted, promoted=True)
        way, evicted = self._install(si, line, Domain.PERSISTENT, thread, coh_state)
        return LevelAccess(AccessOutcome.MISS_INSTALLED, way=way, evicted_line=evicted)

    def try_install_suspended(self, pending: SuspendedInstall) -> tuple[str, int | None]:
        """Retry a parked temporary fill.

        Returns ("installed", evicted_line), ("present", None) when some
        other path already brought the line in, or ("blocked", None).
        """
        cset = self.sets[pending.set_index]
        tag = pending.line >> self._tag_shift
        if tag in cset.index:
            return "present", None
        way = self.ownership.find_evictable(cset, pending.thread)
        if way is None:
            return "blocked", None
        evicted = self._evict_way(pending.set_index, way)
        coh = CohState.MODIFIED if pending.is_store else CohState.SHARED
        cset.install(
            way,
            tag,
            Domain.TEMPORARY,
            self.ownership.bit(pending.thread),
            coh,
            self._stamp(),
        )
        return "installed", evicted

    # -- window resolution -------------------------------------------

    def apply_commit(
        self,
        line: int,
        thread: int,
        coh_state: CohState = CohState.EXCLUSIVE,
    ) -> CommitResult:
        """Commit notification for `line` at this level.

        (a) line is temporary: promote it into the persistent domain.
        (b) line is already persistent: refresh its LRU position.
        (c) line is absent (lost to contention or a suspended fill):
            re-install it persistently.
        """
        si = line & self._set_mask
        cset = self.sets[si]
        way = cset.index.get(line >> self._tag_shift)
        if way is not None:
            if cset.ways[way].domain is Domain.TEMPORARY:
                evicted = self._promote(si, way)
                return CommitResult(CommitCase.PROMOTED, way=way, evicted_line=evicted)
            cset.touch(way, self._stamp())
            return CommitResult(CommitCase.TOUCHED, way=way)
        way, evicted = self._install(si, line, Domain.PERSISTENT, thread, coh_state)
        return CommitResult(CommitCase.REINSTALLED, way=way, evicted_line=evicted)

    def apply_squash(self, line: int, thread: int) -> bool:
        """Squash notification: drop the thread's claim on the line.

        Only temporary lines are affected.  If other owners remain the
        line survives with the squashing thread's bit cleared; once the
        mask drains (or for a sole owner) the way is invalidated.  The
        domain label stays put.  Returns True if the line was dropped.
        """
        cset = self.sets[line & self._set_mask]
        way = cset.index.get(line >> self._tag_shift)
        if way is None:
            return False
        meta = cset.ways[way]
        if meta.domain is Domain.PERSISTENT:
            return False
        bit = self.ownership.bit(thread)
        if meta.owner_mask == bit:
            cset.invalidate(way)
            return True
        if meta.owner_mask & bit:
            meta.owner_mask &= ~bit
        return False

    # -- management --------------------------------------------------

    def invalidate_line(self, line: int) -> bool:
        cset = self.sets[line & self._set_mask]
        way = cset.index.get(line >> self._tag_shift)
        if way is None:
            return False
        cset.invalidate(way)
        return True

    def install_prefetch(self, line: int, thread: int, coh_state: CohState) -> LevelAccess:
        """Prefetch fill: persistent, no recency refresh on a hit."""
        si = line & self._set_mask
        if line >> self._tag_shift in self.sets[si].index:
            return LevelAccess(AccessOutcome.HIT)
        way, evicted = self._install(si, line, Domain.PERSISTENT, thread, coh_state)
        return LevelAccess(AccessOutcome.MISS_INSTALLED, way=way, evicted_line=evicted)

    def reconfigure(self, new_cap_t: int) -> ReconfigResult:
        """Relabel ways so every set has exactly `new_cap_t` temporary ways.

        Growing converts the least-recently-used persistent ways,
        keeping their contents (they surface with an empty owner mask).
        Shrinking converts temporary ways, dropping any speculative
        contents rather than silently blessing them as persistent.
        """
        if not 0 <= new_cap_t < self.geometry.ways:
            raise CapacityOutOfRange(
                f"cap_t={new_cap_t} must satisfy 0 <= cap_t < ways={self.geometry.ways}"
            )
        result = ReconfigResult()
        delta = new_cap_t - self.cap_t
        for si, cset in enumerate(self.sets):
            if delta > 0:
                for way in cset.victim_order(Domain.PERSISTENT)[:delta]:
                    meta = cset.ways[way]
                    if meta.valid:
                        meta.owner_mask = 0
                    cset.relabel(way, Domain.TEMPORARY)
            elif delta < 0:
                for way in cset.victim_order(Domain.TEMPORARY)[: -delta]:
                    meta = cset.ways[way]
                    if meta.valid:
                        result.dropped_lines.append(self.geometry.line_from(si, meta.tag))
                        cset.invalidate(way)
                    cset.relabel(way, Domain.PERSISTENT)
            assert cset.count(Domain.TEMPORARY) == new_cap_t
        self.cap_t = new_cap_t
        return result

    # -- internals ---------------------------------------------------

    def _evict_way(self, set_index: int, way: int) -> int | None:
        cset = self.sets[set_index]
        meta = cset.ways[way]
        if not meta.valid:
            return None
        line = meta.tag << self._tag_shift | set_index
        cset.invalidate(way)
        return line

    def _install(
        self,
        set_index: int,
        line: int,
        domain: Domain,
        thread: int,
        coh_state: CohState,
    ) -> tuple[int, int | None]:
        cset = self.sets[set_index]
        way = cset.select_victim(domain)
        evicted = self._evict_way(set_index, way)
        mask = self.ownership.bit(thread) if domain is Domain.TEMPORARY else 0
        cset.install(way, line >> self._tag_shift, domain, mask, coh_state, self._stamp())
        return way, evicted

    def _promote(self, set_index: int, way: int) -> int | None:
        """Swap the temporary line at `way` into the persistent domain."""
        cset = self.sets[set_index]
        victim = cset.select_victim(Domain.PERSISTENT)
        evicted = self._evict_way(set_index, victim)
        cset.relabel(victim, Domain.TEMPORARY)
        cset.relabel(way, Domain.PERSISTENT)
        cset.ways[way].owner_mask = 0
        cset.touch(way, self._stamp())
        return evicted

    # -- introspection -----------------------------------------------

    def resident_lines(self, domain: Domain | None = None) -> set[int]:
        out: set[int] = set()
        for si, cset in enumerate(self.sets):
            for meta in cset.ways:
                if meta.valid and (domain is None or meta.domain is domain):
                    out.add(self.geometry.line_from(si, meta.tag))
        return out

    def fingerprint(self) -> tuple:
        return tuple(cset.snapshot() for cset in self.sets)
