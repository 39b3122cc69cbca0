"""Directory-based MESI coherence with speculative delay gating.

The shared level keeps an inclusive directory: one entry per cached
line with its global state, the owning core for E/M, and a bitmask of
cores whose private L1s hold a copy.  A line nobody caches has no
entry (canonical invalid).

Speculative accesses are never allowed to generate cross-core traffic
that a later squash could not undo:

 * a speculative load of a line another core holds in E or M is
   *delayed* — serviced at full miss latency with no state change
   anywhere, and replayed as an ordinary access if the window commits;
 * a speculative store is delayed whenever any remote copy exists, and
   also when it would have to upgrade a locally persistent shared line
   (that upgrade could not be rolled back on squash);
 * speculative fills are granted S, never E, so squashing the window
   restores the directory exactly.

Committed accesses use plain MESI: loads of a remotely owned line
recall the owner and downgrade everyone to S, stores invalidate remote
copies.  Either recall costs full miss latency at the requester.

:meth:`Directory.grant_load` returns the granted state, or None when
another core holds the line in E or M: a speculative load is then
delayed, a committed one recalls the owner and takes S.
:meth:`Directory.grant_store` returns the mask of other cores' L1
copies, or None when no other core holds the line: a speculative store
is then delayed, a committed one shoots those copies down (a mask of 0
is a remote E/M owner whose L1 copy has gone) and takes M.  The
persistent-S rule is the engine's, which knows the local copy's
domain.  Directory entries are slotted and built without a Python
``__init__`` frame.  ``note_l1_fill`` takes the core first, so an L1's
fill hook can be the method with the core bound positionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import EXCLUSIVE, INVALID, MODIFIED, SHARED, CohState


@dataclass(slots=True)
class DirEntry:
    state: CohState
    owner: int | None = None
    sharers: int = 0  # bitmask of cores with an L1 copy


# a DirEntry built without the dataclass's Python __init__ frame; each
# method below that makes one sets all three fields
_new_entry = object.__new__


class Directory:
    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        self._entries: dict[int, DirEntry] = {}

    # -- queries -------------------------------------------------------

    def entry(self, line: int) -> DirEntry | None:
        return self._entries.get(line)

    def state(self, line: int) -> CohState:
        e = self._entries.get(line)
        return e.state if e is not None else INVALID

    def sharers(self, line: int) -> int:
        e = self._entries.get(line)
        return e.sharers if e is not None else 0

    # -- access decisions ----------------------------------------------

    def grant_load(self, line: int, core: int, speculative: bool) -> CohState | None:
        """The state a load of `line` by `core` takes, or None when
        another core holds the line in E or M."""
        e = self._entries.get(line)
        if e is None:
            # untracked line: committed loads take E, speculative only S
            return SHARED if speculative else EXCLUSIVE
        if e.state is SHARED:
            return SHARED
        # E or M somewhere
        return e.state if e.owner == core else None

    def grant_store(self, line: int, core: int) -> int | None:
        """The mask of other cores' L1 copies of `line`, or None when no
        other core holds it; a store takes M either way."""
        e = self._entries.get(line)
        if e is None:
            return None
        others = e.sharers & ~(1 << core)
        if others or (e.state in (EXCLUSIVE, MODIFIED) and e.owner != core):
            return others
        return None

    # -- mutations -------------------------------------------------------

    def note_l1_fill(self, core: int, line: int, state: CohState) -> None:
        entries = self._entries
        e = entries.get(line)
        if e is None:
            e = entries[line] = _new_entry(DirEntry)
            e.sharers = 1 << core
        else:
            e.sharers |= 1 << core
        e.state = state
        e.owner = core if state is EXCLUSIVE or state is MODIFIED else None

    def note_l2_fill(self, line: int, state: CohState = SHARED) -> None:
        entries = self._entries
        if line not in entries:
            e = entries[line] = _new_entry(DirEntry)
            e.state = state
            e.owner = None
            e.sharers = 0

    def remove_sharers(self, line: int, cores: int) -> None:
        """Clear the sharer bits of the cores in the mask `cores`."""
        e = self._entries.get(line)
        if e is not None:
            e.sharers &= ~cores

    def downgrade(self, line: int) -> None:
        e = self._entries.get(line)
        if e is not None:
            e.state = SHARED
            e.owner = None

    def upgrade_for_store(self, line: int, core: int) -> None:
        e = self._entries.get(line)
        if e is None:
            e = self._entries[line] = _new_entry(DirEntry)
            e.sharers = 0
        else:
            e.sharers &= 1 << core
        e.state = MODIFIED
        e.owner = core

    def drop(self, line: int) -> int:
        """Delete the line's entry; return the sharer mask it had (0 if
        there was none), the cores whose L1 copies must go with it."""
        e = self._entries.pop(line, None)
        return e.sharers if e is not None else 0

    # -- introspection ----------------------------------------------------

    def lines(self) -> list[int]:
        return sorted(self._entries)

    def fingerprint(self) -> tuple:
        return tuple(
            (line, e.state.value, e.owner, e.sharers)
            for line, e in sorted(self._entries.items())
        )

