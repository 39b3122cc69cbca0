"""Window bookkeeping and the notification filter buffer.

The core never learns how a speculative window ended; it only emits
per-line commit/squash notifications that the cache levels consume.
Two pieces live here:

 * :class:`WindowRegistry` — per-window, program-ordered log of what
   the window did (accesses, stalled management ops, deferred TLB
   fills, delayed coherence transitions).  Resolution walks this log;
   the registry holds only the logs of open windows.
 * :class:`NotificationBuffer` — a small merge buffer between the core
   and the caches.  Notes for the same (line, level) merge; on overflow
   the oldest entry is forced out first, so nothing is ever lost, only
   forwarded early.  A zero-capacity buffer degenerates to immediate
   forwarding.

A note is an :class:`AccessRecord`: a line, the level it resolves at,
and whether a store wrote it.  The window log keeps each access as its
L1 record, and resolving the window offers that record as the access's
L1 note, then the same line at the L2.  A note names no window, thread
or commit/squash kind: the engine fills the buffer only while it walks
one window's log and drains it before the walk ends, so every entry
belongs to the window being resolved and shares its fate.  Delivery
order inside one window is the order the buffer drains: FIFO, with each
access offering its L1 note before its L2 note.

An :class:`AccessRecord` is a ``NamedTuple``: immutable, hashable and
equal by value, and a tuple's cost to build.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import IntEnum
from typing import Any, NamedTuple

from .cache import LevelId


class UnknownWindow(ValueError):
    """Operation names a window id that is not open."""


class WindowClosed(ValueError):
    """Opening an id that is already open."""


class OpKind(IntEnum):
    """What a window-log entry records."""

    ACCESS = 0   # an in-flight access (its AccessRecord)
    MGMT = 1     # a stalled cache-management op
    TLB = 2      # a deferred page-walk fill
    DELAYED = 3  # an access held by the coherence delay (its AccessRecord)


OP_ACCESS, OP_MGMT, OP_TLB, OP_DELAYED = OpKind


class AccessRecord(NamedTuple):
    """One access of a window: its line, the level its note resolves
    (the access's L1 as logged, the L2 for the second note) and whether
    it stores."""

    line: int
    level: LevelId
    is_store: bool = False


class NotificationBuffer:
    """Fixed-capacity merging FIFO between core and caches."""

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, AccessRecord] = OrderedDict()
        self.merged = 0
        self.forced_out = 0

    def __len__(self) -> int:
        return len(self._entries)

    def offer(self, note: AccessRecord) -> list[AccessRecord]:
        """Queue a note; returns any entries forced out now."""
        if self.capacity == 0:
            return [note]
        key = (note.line, note.level)
        if key in self._entries:
            if note.is_store:
                # a store folding into a load note must keep its write
                # intent, or the commit walk would lose it; with the
                # entry's line and level, the store note is the merged
                # entry (an OrderedDict store keeps the entry's place)
                self._entries[key] = note
            self.merged += 1
            return []
        out: list[AccessRecord] = []
        if len(self._entries) >= self.capacity:
            _, oldest = self._entries.popitem(last=False)
            out.append(oldest)
            self.forced_out += 1
        self._entries[key] = note
        return out

    def pass_through(self, count: int) -> None:
        """Count `count` distinct notes passing through this empty buffer
        when the caller delivers them itself, in order, instead of
        offering them and draining: the notes a full buffer would force
        out on the way count as forced out, and none merge."""
        if self._entries:
            raise ValueError("pass_through needs an empty buffer")
        if self.capacity and count > self.capacity:
            self.forced_out += count - self.capacity

    def drain(self) -> list[AccessRecord]:
        out = list(self._entries.values())
        self._entries.clear()
        return out


class WindowRecord:
    """An open window: its thread and its program-ordered log of
    (OpKind, payload).  An ACCESS or DELAYED payload is the access's
    AccessRecord at its L1; the others are opaque to this module and
    executed by the engine at commit.  Every op is logged by appending
    to `ops`."""

    __slots__ = ("thread", "ops", "__weakref__")
    thread: int
    ops: list[tuple[OpKind, Any]]


class WindowRegistry:
    """The open windows by id.

    A window leaves the registry when it closes, and nothing of it is
    kept: the caller that closed it keeps the returned record for as
    long as it walks the log, naming the id again raises UnknownWindow
    just as for an id never opened, and the id may be opened afresh.
    Records reach the engine only through `get_open` and `close`, so
    nothing logs to a closed window.
    """

    def __init__(self) -> None:
        self._windows: dict[int, WindowRecord] = {}

    def open(self, window_id: int, thread: int) -> WindowRecord:
        if window_id in self._windows:
            raise WindowClosed(f"window {window_id} is already open")
        rec = object.__new__(WindowRecord)  # no __init__ frame
        rec.thread = thread
        rec.ops = []
        self._windows[window_id] = rec
        return rec

    def get_open(self, window_id: int) -> WindowRecord:
        rec = self._windows.get(window_id)
        if rec is None:
            raise UnknownWindow(f"window {window_id} is not open")
        return rec

    def close(self, window_id: int) -> WindowRecord:
        rec = self._windows.pop(window_id, None)
        if rec is None:
            raise UnknownWindow(f"window {window_id} is not open")
        return rec

    def any_open(self) -> bool:
        return bool(self._windows)
