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
probe.  The victim for a fill is the first invalid way of the domain,
else the valid way with the lowest (recency, index).  A pass over the
ways that stops at the first invalid one finds it, until the persistent
domain is first found full.  From then on the set keeps a victim key
per way, current through every write: -1 for an invalid persistent
way, the stamp (never negative) for a valid one, and a key above every
stamp for a temporary way.  The persistent victim is then the first
least key, found by two list scans in C, not a loop of bytecodes.  A
set whose persistent domain never fills allocates no keys.  The full
eviction order, ``victim_order``, is built only where a caller walks
it, and only ``CacheLevel.reconfigure`` does.  Ways that have never
held a line share one read-only metadata object per domain, so
building a hierarchy allocates no per-way objects; a way's first line
gets its own metadata without a Python ``__init__`` frame.

Promoting a committed line is one call, ``promote``: it picks the
persistent victim, drops its line, swaps the two ways' labels and
stamps the promoted line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

LINE_SIZE = 64
ADDR_MASK = 0xFFFF_FFFF_FFFF_FFFF  # addresses are 64-bit


class Domain(Enum):
    TEMPORARY = "T"
    PERSISTENT = "P"


TEMPORARY, PERSISTENT = Domain


class CohState(Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


MODIFIED, EXCLUSIVE, SHARED, INVALID = CohState


class LevelId(IntEnum):
    """Identifies a position in the hierarchy; doubles as the bit index
    used in per-access level masks."""

    L1I = 0
    L1D = 1
    L2 = 2


L1I, L1D, L2 = LevelId


class DomainEmpty(Exception):
    """No way in the set carries the requested domain label."""


class InvalidWay(Exception):
    """The operation requires a valid way."""


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of one cache level. Addresses are opaque 64-bit integers;
    the line number is address // LINE_SIZE, the set index is
    line % num_sets and the tag is line // num_sets."""

    level_id: LevelId
    num_sets: int
    ways: int

    def __post_init__(self) -> None:
        if self.num_sets < 1 or self.num_sets & (self.num_sets - 1):
            raise ValueError(f"num_sets must be a power of two, got {self.num_sets}")
        if self.ways < 2:
            raise ValueError(f"ways must be >= 2, got {self.ways}")

    def line_of(self, address: int) -> int:
        return (address & ADDR_MASK) // LINE_SIZE

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
    domain: Domain = PERSISTENT
    owner_mask: int = 0
    coh_state: CohState = INVALID
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


_UNUSED_P = _unused_way(PERSISTENT)
_UNUSED_T = _unused_way(TEMPORARY)

# a way's metadata built without the dataclass's Python __init__ frame;
# `install` sets every field
_new_meta = object.__new__

# the victim key of a way outside the domain (for the kept persistent
# keys, a temporary way): above every stamp, so the least key of a set
# is a way of the domain whenever the domain has one
_OUTSIDE_KEY = math.inf


class CacheSet:
    """One set: a fixed list of ways plus domain-scoped operations.

    The initial labelling puts the last cap_t ways in the temporary
    domain; every way starts invalid, with the shared metadata of an
    unused way.  Domain counts only ever change through explicit
    relabel calls (`promote` swaps two labels, so it changes none).

    `index` maps the tag of every valid way to that way.  Only
    `install`, `invalidate` and `promote` write a way's tag or valid
    bit, and all keep the index current, so callers may read it but
    never write it.  A tag is resident in at most one way of a set.

    `keys` is None until `select_victim` first finds the persistent
    domain full; from then on it holds the victim key of every way (see
    the module docstring), and `install`, `invalidate`, `touch`,
    `relabel` and `promote` keep it current.  Callers never write way
    metadata's label, valid bit or stamp themselves.
    """

    __slots__ = ("ways", "index", "keys")

    def __init__(self, num_ways: int, cap_t: int) -> None:
        if not 0 <= cap_t < num_ways:
            raise ValueError(f"cap_t must be in [0, ways), got {cap_t}/{num_ways}")
        self.ways = [_UNUSED_P] * (num_ways - cap_t) + [_UNUSED_T] * cap_t
        self.index: dict[int, int] = {}
        self.keys: list[float] | None = None

    @classmethod
    def new_sets(cls, count: int, num_ways: int, cap_t: int) -> list[CacheSet]:
        """`count` sets, each as ``CacheSet(num_ways, cap_t)`` builds it,
        without a Python ``__init__`` frame per set: a level of the
        default hierarchy has up to 2,048 of them."""
        ways = cls(num_ways, cap_t).ways  # checks cap_t
        sets = []
        new = object.__new__
        for _ in range(count):
            cset = new(cls)
            cset.ways = ways.copy()
            cset.index = {}
            cset.keys = None
            sets.append(cset)
        return sets

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
        """First entry of victim_order(domain): the lowest-index invalid
        way of the domain, else the valid way with the lowest
        (recency, index).  A persistent victim comes from the keys once
        the set has them; the first pass that finds the persistent
        domain full keeps the keys it built."""
        keys = self.keys
        if keys is None or domain is not PERSISTENT:
            for idx, meta in enumerate(self.ways):
                if meta.domain is domain and not meta.valid:
                    return idx
            # every way of the domain is valid: its keys are its stamps
            keys = [m.recency if m.domain is domain else _OUTSIDE_KEY for m in self.ways]
            if domain is PERSISTENT:
                self.keys = keys
        least = min(keys)
        if least == _OUTSIDE_KEY:
            raise DomainEmpty(f"set has no {domain.value}-labelled way")
        return keys.index(least)

    def touch(self, way: int, stamp: int) -> None:
        meta = self.ways[way]
        if not meta.valid:
            raise InvalidWay(f"way {way} is invalid")
        meta.recency = stamp
        if self.keys is not None and meta.domain is PERSISTENT:
            self.keys[way] = stamp

    def install(self, way: int, tag: int, domain: Domain, owner_mask: int,
                coh_state: CohState, stamp: int) -> int | None:
        """Fill `way` with `tag`; return the tag of the line it held, or
        None if the way was invalid."""
        index = self.index
        holder = index.get(tag, way)
        if holder != way:
            raise ValueError(f"tag {tag:#x} is already resident in way {holder}")
        meta = self.ways[way]
        evicted = None
        if meta.valid:
            evicted = meta.tag
            del index[evicted]
        elif type(meta) is _UnusedWay:
            meta = self.ways[way] = _new_meta(CacheLineMeta)
        index[tag] = way
        meta.tag = tag
        meta.valid = True
        meta.domain = domain
        meta.owner_mask = owner_mask
        meta.coh_state = coh_state
        meta.recency = stamp
        if self.keys is not None:
            self.keys[way] = stamp if domain is PERSISTENT else _OUTSIDE_KEY
        return evicted

    def invalidate(self, way: int) -> None:
        """Drop the contents of a way. The domain label is untouched."""
        meta = self.ways[way]
        if not meta.valid:
            return  # an invalid way already has no owners and state I
        del self.index[meta.tag]
        meta.valid = False
        meta.owner_mask = 0
        meta.coh_state = INVALID
        if self.keys is not None and meta.domain is PERSISTENT:
            self.keys[way] = -1

    def relabel(self, way: int, domain: Domain) -> None:
        meta = self.ways[way]
        if type(meta) is _UnusedWay:
            meta = self.ways[way] = _UNUSED_T if domain is TEMPORARY else _UNUSED_P
        else:
            meta.domain = domain
        if self.keys is not None:
            if domain is TEMPORARY:
                self.keys[way] = _OUTSIDE_KEY
            else:
                self.keys[way] = meta.recency if meta.valid else -1

    def promote(self, way: int, stamp: int) -> int | None:
        """Move the valid temporary line at `way` into the persistent
        domain by swapping labels with the persistent victim way, so
        neither domain changes size.  The victim's line, if it held
        one, is dropped and its tag returned; the promoted line loses
        its owners and is stamped `stamp`."""
        ways = self.ways
        victim = self.select_victim(PERSISTENT)
        vmeta = ways[victim]
        evicted = None
        if vmeta.valid:
            evicted = vmeta.tag
            del self.index[evicted]
            vmeta.valid = False
            vmeta.owner_mask = 0
            vmeta.coh_state = INVALID
        if type(vmeta) is _UnusedWay:
            ways[victim] = _UNUSED_T
        else:
            vmeta.domain = TEMPORARY
        meta = ways[way]
        meta.domain = PERSISTENT
        meta.owner_mask = 0
        meta.recency = stamp
        keys = self.keys
        if keys is not None:
            keys[victim] = _OUTSIDE_KEY
            keys[way] = stamp
        return evicted

    def snapshot(self) -> tuple:
        return tuple(m.snapshot() for m in self.ways)
