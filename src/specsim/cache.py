"""Set-associative cache structures with per-way domain labels.

Every way in a set carries, next to the usual tag/valid/coherence
metadata, a one-bit domain label that marks it as either *temporary*
(holding data brought in by in-flight, not-yet-committed operations) or
*persistent* (holding committed, architecturally visible data).  The
label belongs to the way, not the line: it is present on every way at
all times, and replacement decisions never cross a domain boundary.

Replacement is LRU within a domain.  Recency stamps are handed in by the
caller (a per-level monotonic counter), which keeps this module free of
global state and makes victim selection a pure function of the stamps.
Temporary-domain lines are stamped once at install time and never on
hit, so eviction order inside the temporary domain follows install
order.  Invalid ways are always preferred over evicting live data, and
ties are broken by the lowest way index so behaviour is deterministic.

A lookup costs the same host time whatever the associativity: every set
keeps a tag index (tag -> way of each valid way), so it is one dict
probe.  The victim for a fill is chosen in one pass over the ways
(the first invalid way of the domain, else the lowest (recency, index)).
The full eviction order is built only where a caller walks it.  Ways
that have never held a line share one read-only metadata object per
domain, so building a hierarchy allocates no per-way objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

LINE_SIZE = 64


class Domain(Enum):
    TEMPORARY = "T"
    PERSISTENT = "P"


class CohState(Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class LevelId(IntEnum):
    """Identifies a position in the hierarchy; doubles as the bit index
    used in per-access level masks."""

    L1I = 0
    L1D = 1
    L2 = 2


class DomainEmpty(Exception):
    """No way in the set carries the requested domain label."""


class InvalidWay(Exception):
    """The operation requires a valid way."""


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of one cache level. Addresses are opaque 64-bit integers;
    the line number is address // line_size, the set index is
    line % num_sets and the tag is line // num_sets."""

    level_id: LevelId
    num_sets: int
    ways: int
    shared: bool = False
    line_size: int = LINE_SIZE

    def __post_init__(self) -> None:
        if self.num_sets < 1 or self.num_sets & (self.num_sets - 1):
            raise ValueError(f"num_sets must be a power of two, got {self.num_sets}")
        if self.ways < 2:
            raise ValueError(f"ways must be >= 2, got {self.ways}")
        if self.line_size != LINE_SIZE:
            raise ValueError(f"line size is fixed at {LINE_SIZE} bytes")

    def line_of(self, address: int) -> int:
        return (address & 0xFFFF_FFFF_FFFF_FFFF) // self.line_size

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def tag(self, line: int) -> int:
        return line // self.num_sets

    def line_from(self, set_index: int, tag: int) -> int:
        return tag * self.num_sets + set_index


@dataclass(slots=True)
class CacheLineMeta:
    tag: int = 0
    valid: bool = False
    domain: Domain = Domain.PERSISTENT
    owner_mask: int = 0
    coh_state: CohState = CohState.INVALID
    recency: int = 0

    def snapshot(self) -> tuple:
        return (self.tag, self.valid, self.domain.value, self.owner_mask,
                self.coh_state.value, self.recency)


class _UnusedWay(CacheLineMeta):
    """Metadata of a way that has never held a line.  One shared
    instance per domain stands for every such way; it is read-only, and
    `install` and `relabel` replace it rather than write to it."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise TypeError("metadata of an unused way is shared and read-only")


def _unused_way(domain: Domain) -> CacheLineMeta:
    meta = CacheLineMeta(domain=domain)
    meta.__class__ = _UnusedWay  # from here on, writes raise
    return meta


_UNUSED_P = _unused_way(Domain.PERSISTENT)
_UNUSED_T = _unused_way(Domain.TEMPORARY)


class CacheSet:
    """One set: a fixed list of ways plus domain-scoped operations.

    The initial labelling puts the last cap_t ways in the temporary
    domain; every way starts invalid, with the shared metadata of an
    unused way.  Domain counts only ever change through explicit
    relabel calls.

    `index` maps the tag of every valid way to that way.  Only
    `install` and `invalidate` write a way's tag or valid bit, and both
    keep the index current, so callers may read it but never write it.
    A tag is resident in at most one way of a set.
    """

    __slots__ = ("ways", "index")

    def __init__(self, num_ways: int, cap_t: int) -> None:
        if not 0 <= cap_t < num_ways:
            raise ValueError(f"cap_t must be in [0, ways), got {cap_t}/{num_ways}")
        self.ways = [_UNUSED_P] * (num_ways - cap_t) + [_UNUSED_T] * cap_t
        self.index: dict[int, int] = {}

    def count(self, domain: Domain) -> int:
        return sum(1 for m in self.ways if m.domain is domain)

    def lookup(self, tag: int) -> tuple[int, Domain] | None:
        """Return (way index, domain) of the valid way holding tag."""
        way = self.index.get(tag)
        if way is None:
            return None
        return way, self.ways[way].domain

    def victim_order(self, domain: Domain) -> list[int]:
        """Way indices of the domain in eviction preference order:
        invalid ways first (lowest index), then valid ways by ascending
        recency stamp."""
        members = [i for i, m in enumerate(self.ways) if m.domain is domain]
        if not members:
            raise DomainEmpty(f"set has no {domain.value}-labelled way")
        invalid = [i for i in members if not self.ways[i].valid]
        valid = [i for i in members if self.ways[i].valid]
        valid.sort(key=lambda i: (self.ways[i].recency, i))
        return invalid + valid

    def select_victim(self, domain: Domain) -> int:
        """First entry of victim_order(domain), found in one pass: the
        lowest-index invalid way of the domain, else the valid way with
        the lowest (recency, index)."""
        best = -1
        best_recency = 0
        for idx, meta in enumerate(self.ways):
            if meta.domain is not domain:
                continue
            if not meta.valid:
                return idx
            if best < 0 or meta.recency < best_recency:
                best = idx
                best_recency = meta.recency
        if best < 0:
            raise DomainEmpty(f"set has no {domain.value}-labelled way")
        return best

    def touch(self, way: int, stamp: int) -> None:
        meta = self.ways[way]
        if not meta.valid:
            raise InvalidWay(f"way {way} is invalid")
        meta.recency = stamp

    def install(self, way: int, tag: int, domain: Domain, owner_mask: int,
                coh_state: CohState, stamp: int) -> None:
        index = self.index
        holder = index.get(tag, way)
        if holder != way:
            raise ValueError(f"tag {tag:#x} is already resident in way {holder}")
        meta = self.ways[way]
        if meta.valid:
            del index[meta.tag]
        elif type(meta) is _UnusedWay:
            meta = self.ways[way] = CacheLineMeta()
        index[tag] = way
        meta.tag = tag
        meta.valid = True
        meta.domain = domain
        meta.owner_mask = owner_mask
        meta.coh_state = coh_state
        meta.recency = stamp

    def invalidate(self, way: int) -> None:
        """Drop the contents of a way. The domain label is untouched."""
        meta = self.ways[way]
        if not meta.valid:
            return  # an invalid way already has no owners and state I
        del self.index[meta.tag]
        meta.valid = False
        meta.owner_mask = 0
        meta.coh_state = CohState.INVALID

    def relabel(self, way: int, domain: Domain) -> None:
        meta = self.ways[way]
        if type(meta) is _UnusedWay:
            self.ways[way] = _UNUSED_T if domain is Domain.TEMPORARY else _UNUSED_P
        else:
            meta.domain = domain

    def snapshot(self) -> tuple:
        return tuple(m.snapshot() for m in self.ways)
