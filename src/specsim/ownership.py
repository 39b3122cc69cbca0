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

from .cache import TEMPORARY, CacheSet


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

    def check_and_acquire(self, cache_set: CacheSet, way: int, thread: int) -> bool:
        """In-flight access found a valid temporary line at `way`; return
        whether it is charged an emulated miss.

        Owners get an ordinary hit (False).  Anyone else is charged an
        emulated miss (True) and becomes an owner, which bounds the
        charge to one per thread per residency of the line.
        """
        meta = cache_set.ways[way]
        assert meta.valid and meta.domain is TEMPORARY
        bit = self.bit(thread)
        if meta.owner_mask & bit:
            return False
        meta.owner_mask |= bit
        return True

    def find_evictable(self, cache_set: CacheSet, thread: int) -> int | None:
        """Scan the temporary domain in victim order (invalid ways first,
        then by (recency, index)), releasing the requester's bit on each
        candidate, and return the first way whose mask drains.  None
        means every candidate is still owned by other threads and the
        install must be suspended.

        One pass over the ways finds the first invalid way (returned
        with no mask touched) or else the first drainable way in victim
        order.  Only then are the candidates ahead of it released, so
        the masks end as that scan would leave them.
        """
        bit = self.bit(thread)
        best = -1
        best_recency = 0
        shared: list[int] = []  # valid ways the requester co-owns with others
        ways = cache_set.ways
        for way, meta in enumerate(ways):
            if meta.domain is not TEMPORARY:
                continue
            if not meta.valid:
                return way
            mask = meta.owner_mask
            if not mask & ~bit:
                if best < 0 or meta.recency < best_recency:
                    best = way
                    best_recency = meta.recency
            elif mask & bit:
                shared.append(way)
        for way in shared:
            if best < 0 or (ways[way].recency, way) < (best_recency, best):
                ways[way].owner_mask &= ~bit
        if best < 0:
            return None
        ways[best].owner_mask = 0
        return best
