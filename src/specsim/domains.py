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
   invariant is maintained without copying data between ways; the
   swap is one call, the set's ``promote``.  A committed access is its
   own commit: both run ``access_committed``.
 * Squash simply invalidates the temporary way; the label stays.

Owner masks (see :mod:`.ownership`) are maintained unconditionally so
that single-thread runs are bit-identical whether or not the ownership
protection is switched on; the `protected` flag only decides whether
non-owners are charged emulated misses and whether eviction is gated
on the mask draining.

Every line lookup here is one probe of the set's tag index (see
:class:`.cache.CacheSet`), with the set index and tag taken from the
line by a mask and a shift.  Every fill takes its victim from the set's
``select_victim`` (or the ownership scan for a gated temporary fill):
one early-exit pass over the ways, or, once the set's persistent domain
has been full, a least-key search of the set's victim keys that
executes no per-way bytecode.  Only ``reconfigure`` walks a full
``victim_order``.  Only fills, not lookups, grow with the
associativity.  Past the lookup, a committed hit is one ``CacheSet``
call (``touch``), a promotion one (``promote``) and a drop one
(``invalidate``); this module writes no way metadata itself but owner
masks and coherence states.

The paths return a plain :class:`AccessOutcome`, ``reconfigure`` the
lines it dropped.  A valid line that a fill or a promotion displaces
goes, once, to the level's ``on_evict`` hook as it leaves; every line
a fill installs then goes to ``on_fill`` with its coherence state,
both passed positionally.  The default hooks do nothing; the engine's
keep the inclusive hierarchy and the directory in step.  Lines that an
op drops on purpose (a squash, ``invalidate_line``, ``reconfigure``)
are not reported.
"""

from __future__ import annotations

from enum import Enum

from .cache import (
    EXCLUSIVE, INVALID, MODIFIED, PERSISTENT, SHARED, TEMPORARY,
    CacheGeometry, CacheSet, CohState, Domain,
)
from .ownership import ThreadOwnership


class CapacityOutOfRange(Exception):
    """Requested temporary capacity does not fit the geometry."""


class NotQuiescent(Exception):
    """Reconfiguration attempted while speculative windows are open."""


class AccessOutcome(Enum):
    """What one level did with one access, commit, prefetch or retried
    fill.  For a retry, HIT means some other path already brought the
    line in and MISS_BYPASSED that the fill is still blocked."""

    HIT = "hit"
    PROMOTED = "promoted"
    EMULATED_MISS = "emulated_miss"
    MISS_INSTALLED = "miss_installed"
    MISS_BYPASSED = "miss_bypassed"


HIT, PROMOTED, EMULATED_MISS, MISS_INSTALLED, MISS_BYPASSED = AccessOutcome


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
        self.sets = CacheSet.new_sets(geometry.num_sets, geometry.ways, cap_t)
        # num_sets is a power of two: set index and tag are a mask and a shift
        self._set_mask = geometry.num_sets - 1
        self._tag_shift = geometry.num_sets.bit_length() - 1
        self._clock = 0

    def on_evict(self, line: int) -> None:
        """Hook called with each valid line a fill or a promotion
        displaces, once the line has left; an owner of the level may
        replace it on the instance."""

    def on_fill(self, line: int, state: CohState) -> None:
        """Like ``on_evict``, for each line a fill installs and the
        state it holds; both are passed positionally."""

    # -- bookkeeping -------------------------------------------------

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
            return INVALID
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
        coh_state: CohState = SHARED,
    ) -> AccessOutcome:
        """Speculative access: hits observe, misses fill a temporary way.

        With the ownership protection on, a hit on a temporary line the
        thread does not yet own is reported as an emulated miss (the
        caller charges full miss latency) and the thread becomes an
        owner, so the charge happens at most once per residency.  A
        fill that no temporary way can take is MISS_BYPASSED: the caller
        parks it and retries it through ``try_install_suspended``.
        """
        si = line & self._set_mask
        cset = self.sets[si]
        way = cset.index.get(line >> self._tag_shift)
        if way is not None:
            if cset.ways[way].domain is PERSISTENT:
                # no touch: even replacement-state updates wait for the
                # commit notification, or a squashed hit would leave a trace
                return HIT
            if self.protected and self.ownership.check_and_acquire(cset, way, thread):
                return EMULATED_MISS
            # temporary recency is install order: no touch on hit
            return HIT

        if self.cap_t == 0:
            # no temporary ways here: fall back to plain persistent fills
            self._install(si, line, PERSISTENT, 0, coh_state)
            return MISS_INSTALLED

        # the owner bit is 1 << thread once the thread is known to be in
        # range: find_evictable checks it, or else bit() raises here
        if self.protected:
            way = self.ownership.find_evictable(cset, thread)
            if way is None:
                return MISS_BYPASSED
        else:
            way = None
            if not 0 <= thread < self.ownership.num_threads:
                self.ownership.bit(thread)
        self._install(si, line, TEMPORARY, 1 << thread, coh_state, way)
        return MISS_INSTALLED

    def access_committed(
        self,
        line: int,
        coh_state: CohState = EXCLUSIVE,
    ) -> AccessOutcome:
        """Non-speculative access, or commit notification, of `line`:
        a persistent line is a HIT (LRU refresh), a temporary one is
        PROMOTED, and an absent one (never here, or lost to contention
        or a suspended fill) is MISS_INSTALLED, persistent in `coh_state`."""
        si = line & self._set_mask
        cset = self.sets[si]
        way = cset.index.get(line >> self._tag_shift)
        if way is not None:
            self._clock += 1
            if cset.ways[way].domain is PERSISTENT:
                cset.touch(way, self._clock)
                return HIT
            evicted = cset.promote(way, self._clock)
            if evicted is not None:
                self.on_evict(evicted << self._tag_shift | si)
            return PROMOTED
        self._install(si, line, PERSISTENT, 0, coh_state)
        return MISS_INSTALLED

    # commits come in by this name, so a tracer wrapping both counts them apart
    apply_commit = access_committed

    def try_install_suspended(self, line: int, thread: int, is_store: bool) -> AccessOutcome:
        """Retry a parked temporary fill of `thread`: MISS_INSTALLED if
        it landed, HIT if some other path already brought the line in,
        MISS_BYPASSED if it is still blocked."""
        si = line & self._set_mask
        cset = self.sets[si]
        if line >> self._tag_shift in cset.index:
            return HIT
        way = self.ownership.find_evictable(cset, thread)
        if way is None:
            return MISS_BYPASSED
        coh = MODIFIED if is_store else SHARED
        # find_evictable has range-checked the thread
        self._install(si, line, TEMPORARY, 1 << thread, coh, way)
        return MISS_INSTALLED

    # -- window resolution -------------------------------------------

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
        if meta.domain is PERSISTENT:
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

    def install_prefetch(self, line: int, coh_state: CohState) -> AccessOutcome:
        """Prefetch fill: persistent, no recency refresh on a hit."""
        si = line & self._set_mask
        if line >> self._tag_shift in self.sets[si].index:
            return HIT
        self._install(si, line, PERSISTENT, 0, coh_state)
        return MISS_INSTALLED

    def reconfigure(self, new_cap_t: int) -> list[int]:
        """Relabel ways so every set has exactly `new_cap_t` temporary ways.

        Growing converts the least-recently-used persistent ways,
        keeping their contents (they surface with an empty owner mask).
        Shrinking converts temporary ways, dropping any speculative
        contents rather than silently blessing them as persistent.
        Returns the dropped lines.
        """
        if not 0 <= new_cap_t < self.geometry.ways:
            raise CapacityOutOfRange(
                f"cap_t={new_cap_t} must satisfy 0 <= cap_t < ways={self.geometry.ways}"
            )
        dropped: list[int] = []
        delta = new_cap_t - self.cap_t
        for si, cset in enumerate(self.sets):
            if delta > 0:
                for way in cset.victim_order(PERSISTENT)[:delta]:
                    meta = cset.ways[way]
                    if meta.valid:
                        meta.owner_mask = 0
                    cset.relabel(way, TEMPORARY)
            elif delta < 0:
                for way in cset.victim_order(TEMPORARY)[: -delta]:
                    meta = cset.ways[way]
                    if meta.valid:
                        dropped.append(self.geometry.line_from(si, meta.tag))
                        cset.invalidate(way)
                    cset.relabel(way, PERSISTENT)
            assert cset.count(TEMPORARY) == new_cap_t
        self.cap_t = new_cap_t
        return dropped

    # -- internals ---------------------------------------------------

    def _install(
        self,
        set_index: int,
        line: int,
        domain: Domain,
        owner_mask: int,
        coh_state: CohState,
        way: int | None = None,
    ) -> None:
        """Fill `line` into `way` (by default the set's victim way of
        `domain`); report a line it evicts, then the fill, to the hooks.
        `install` overwrites a valid way in place and returns the tag
        it displaced."""
        cset = self.sets[set_index]
        if way is None:
            way = cset.select_victim(domain)
        self._clock += 1
        evicted = cset.install(way, line >> self._tag_shift, domain, owner_mask, coh_state,
                               self._clock)
        if evicted is not None:
            self.on_evict(evicted << self._tag_shift | set_index)
        self.on_fill(line, coh_state)

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
