"""Window bookkeeping and the notification filter buffer.

The core never learns how a speculative window ended; it only emits
per-line commit/squash notifications that the cache levels consume.
Two pieces live here:

 * :class:`WindowRegistry` — per-window, program-ordered log of what
   the window did (accesses, stalled management ops, deferred TLB
   fills, delayed coherence transitions).  Resolution walks this log;
   the registry holds only the logs of open windows.
 * :class:`NotificationBuffer` — a small merge buffer between the core
   and the caches.  Notifications for the same (window, line, level,
   kind) merge; distinct windows never merge.  On overflow the oldest
   entry is forced out first, so nothing is ever lost, only forwarded
   early.  A zero-capacity buffer degenerates to immediate forwarding.

Delivery order inside one window is the order the buffer drains: FIFO,
with each access offering its L1 entry before its L2 entry.

The per-access and per-note records (:class:`AccessRecord`,
:class:`Notification`) are ``NamedTuple``s: immutable, hashable and
equal by value, and a tuple's cost to build; a store folding into a
load note replaces the entry with ``_replace``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, NamedTuple

from .cache import LevelId


class UnknownWindow(Exception):
    """Operation names a window id that is not open."""


class WindowClosed(Exception):
    """Opening an id that is already open, or logging to a closed record."""


class OpKind(IntEnum):
    """What a window-log entry records."""

    ACCESS = 0   # an in-flight access (AccessRecord)
    MGMT = 1     # a stalled cache-management op
    TLB = 2      # a deferred page-walk fill
    DELAYED = 3  # an access held by the coherence delay


OP_ACCESS, OP_MGMT, OP_TLB, OP_DELAYED = OpKind


class NotifKind(IntEnum):
    # an IntEnum hashes as a plain int: the NFB hashes a kind on every offer
    COMMIT = 0
    SQUASH = 1


NOTE_COMMIT, NOTE_SQUASH = NotifKind


class Notification(NamedTuple):
    window: int
    thread: int
    line: int
    level: LevelId
    kind: NotifKind
    is_store: bool = False


class NotificationBuffer:
    """Fixed-capacity merging FIFO between core and caches."""

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, Notification] = OrderedDict()
        self.merged = 0
        self.forced_out = 0

    def __len__(self) -> int:
        return len(self._entries)

    def offer(self, note: Notification) -> list[Notification]:
        """Queue a notification; returns any entries forced out now."""
        if self.capacity == 0:
            return [note]
        key = (note.window, note.line, note.level, note.kind)
        if key in self._entries:
            old = self._entries[key]
            if note.is_store and not old.is_store:
                # a store folding into a load note must keep its
                # write intent, or the commit walk would lose it
                self._entries[key] = old._replace(is_store=True)
            self.merged += 1
            return []
        out: list[Notification] = []
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

    def drain(self) -> list[Notification]:
        out = list(self._entries.values())
        self._entries.clear()
        return out


class AccessRecord(NamedTuple):
    """One in-flight access.  Its committed footprint is its L1 (`l1`)
    and then the L2, even when the lookup hit at L1."""

    line: int
    l1: LevelId
    is_store: bool = False


@dataclass
class WindowRecord:
    window_id: int
    thread: int
    is_open: bool = True
    # program-ordered log of (OpKind, payload); an ACCESS payload is an
    # AccessRecord, the others are opaque to this module and executed
    # by the engine at commit.
    ops: list[tuple[OpKind, Any]] = field(default_factory=list)

    def record(self, kind: OpKind, payload: Any) -> None:
        if not self.is_open:
            raise WindowClosed(f"window {self.window_id} is closed")
        self.ops.append((kind, payload))


class WindowRegistry:
    """The open windows by id.

    A window leaves the registry when it closes, and nothing of it is
    kept: the caller that closed it keeps the returned record for as
    long as it walks the log, naming the id again raises UnknownWindow
    just as for an id never opened, and the id may be opened afresh.
    """

    def __init__(self) -> None:
        self._windows: dict[int, WindowRecord] = {}

    def open(self, window_id: int, thread: int) -> WindowRecord:
        if window_id in self._windows:
            raise WindowClosed(f"window {window_id} is already open")
        rec = WindowRecord(window_id=window_id, thread=thread)
        self._windows[window_id] = rec
        return rec

    def get_open(self, window_id: int) -> WindowRecord:
        rec = self._windows.get(window_id)
        if rec is None:
            raise UnknownWindow(f"window {window_id} is not open")
        return rec

    def close(self, window_id: int) -> WindowRecord:
        rec = self.get_open(window_id)
        del self._windows[window_id]
        rec.is_open = False
        return rec

    def any_open(self) -> bool:
        return bool(self._windows)
