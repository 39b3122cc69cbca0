"""Thread-ownership tracking for temporary-domain lines.

At a cache level shared by several hardware threads, each temporary-way
carries an N-bit owner mask (N = cores x SMT ways).  A thread owns a
line once one of its in-flight operations has touched it; only owners
may observe the line as resident.  The rules:

 * An in-flight access by a non-owner behaves exactly like a miss of
   that level: the full miss-path latency is charged (once per thread
   per residency of the line) and the thread's owner bit is then set,
   so its next access is an ordinary hit.
 * Evicting a temporary line only clears the evicting thread's own
   bit.  The line is really evicted only when the mask drains to zero;
   otherwise the line survives and the evictor must look elsewhere.
 * When no temporary way in the set can be freed this way, the incoming
   install is suspended: the request is serviced without a fill and
   parked until an owner mask drains, a relabel frees a way, or the
   requesting window closes.
 * When a window commits a temporary line, the mask is cleared and the
   line moves to the persistent domain.

With a single hardware thread every mask is either empty or the
requester's own bit, so every rule degenerates to plain behaviour:
no emulated misses, no suspensions, eviction always succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .cache import CacheSet, Domain


class AcquireResult(Enum):
    OWNED_HIT = "owned_hit"
    ACQUIRED_EMULATED_MISS = "acquired_emulated_miss"


class ReleaseResult(Enum):
    EVICTED = "evicted"
    RELEASED_ONLY = "released_only"


@dataclass
class SuspendedInstall:
    """A parked temporary-domain install awaiting a free way."""

    thread: int
    window: int
    line: int
    set_index: int
    is_store: bool = False


class ThreadOwnership:
    """Owner-mask rules for one cache level."""

    def __init__(self, num_threads: int) -> None:
        if num_threads < 1:
            raise ValueError("need at least one hardware thread")
        self.num_threads = num_threads

    def bit(self, thread: int) -> int:
        if not 0 <= thread < self.num_threads:
            raise ValueError(f"thread {thread} out of range 0..{self.num_threads - 1}")
        return 1 << thread

    def check_and_acquire(self, cache_set: CacheSet, way: int, thread: int) -> AcquireResult:
        """In-flight access found a valid temporary line at `way`.

        Owners get an ordinary hit.  Anyone else is charged an emulated
        miss and becomes an owner, which bounds the charge to one per
        thread per residency of the line.
        """
        meta = cache_set.ways[way]
        assert meta.valid and meta.domain is Domain.TEMPORARY
        bit = self.bit(thread)
        if meta.owner_mask & bit:
            return AcquireResult.OWNED_HIT
        meta.owner_mask |= bit
        return AcquireResult.ACQUIRED_EMULATED_MISS

    def release_on_evict(self, cache_set: CacheSet, victim_way: int, thread: int) -> ReleaseResult:
        """Clear the evicting thread's bit on a victim candidate.

        EVICTED means the mask drained and the way may be reclaimed;
        RELEASED_ONLY means other owners remain and the line survives.
        """
        meta = cache_set.ways[victim_way]
        assert meta.valid and meta.domain is Domain.TEMPORARY
        meta.owner_mask &= ~self.bit(thread)
        if meta.owner_mask == 0:
            return ReleaseResult.EVICTED
        return ReleaseResult.RELEASED_ONLY

    def find_evictable(self, cache_set: CacheSet, thread: int) -> int | None:
        """Scan the temporary domain in victim order, releasing the
        requester's bit on each candidate, and return the first way
        whose mask drains.  None means every candidate is still owned
        by other threads and the install must be suspended."""
        for way in cache_set.victim_order(Domain.TEMPORARY):
            if not cache_set.ways[way].valid:
                return way
            if self.release_on_evict(cache_set, way, thread) is ReleaseResult.EVICTED:
                return way
        return None
