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
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .cache import LevelId


class UnknownWindow(Exception):
    """Operation names a window id that was never opened."""


class WindowClosed(Exception):
    """Operation targets a window that already committed or squashed."""


class NotifKind(Enum):
    COMMIT = "commit"
    SQUASH = "squash"


@dataclass(frozen=True)
class Notification:
    window: int
    thread: int
    line: int
    level: LevelId
    kind: NotifKind
    is_store: bool = False

    @property
    def merge_key(self) -> tuple[int, int, LevelId, NotifKind]:
        return (self.window, self.line, self.level, self.kind)


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
        key = note.merge_key
        if key in self._entries:
            old = self._entries[key]
            if note.is_store and not old.is_store:
                # a store folding into a load note must keep its
                # write intent, or the commit walk would lose it
                self._entries[key] = dataclasses.replace(old, is_store=True)
            self.merged += 1
            return []
        out: list[Notification] = []
        if len(self._entries) >= self.capacity:
            _, oldest = self._entries.popitem(last=False)
            out.append(oldest)
            self.forced_out += 1
        self._entries[key] = note
        return out

    def drain(self) -> list[Notification]:
        out = list(self._entries.values())
        self._entries.clear()
        return out


@dataclass
class AccessRecord:
    """One in-flight access and the levels of its committed footprint
    (L1 first; spans L2 even when the lookup hit at L1)."""

    line: int
    levels: list[LevelId]
    is_store: bool = False
    is_ifetch: bool = False


@dataclass
class WindowRecord:
    window_id: int
    thread: int
    is_open: bool = True
    # program-ordered log: ("access", AccessRecord) | ("mgmt", ...)
    # | ("tlb", ...) | ("delayed", ...); non-access payloads are opaque
    # to this module and executed by the engine at commit.
    ops: list[tuple[str, Any]] = field(default_factory=list)

    def record(self, kind: str, payload: Any) -> None:
        if not self.is_open:
            raise WindowClosed(f"window {self.window_id} is closed")
        self.ops.append((kind, payload))


class WindowRegistry:
    """The open windows by id.

    A window's record leaves the registry when it closes; the caller
    that closed it keeps the returned record for as long as it walks
    the log.  Only the ids of closed windows are remembered, so naming
    one again still raises WindowClosed (never-opened ids raise
    UnknownWindow), and a closed id may be opened afresh.
    """

    def __init__(self) -> None:
        self._windows: dict[int, WindowRecord] = {}
        self._closed: set[int] = set()

    def open(self, window_id: int, thread: int) -> WindowRecord:
        if window_id in self._windows:
            raise WindowClosed(f"window {window_id} is already open")
        self._closed.discard(window_id)
        rec = WindowRecord(window_id=window_id, thread=thread)
        self._windows[window_id] = rec
        return rec

    def get_open(self, window_id: int) -> WindowRecord:
        rec = self._windows.get(window_id)
        if rec is None:
            if window_id in self._closed:
                raise WindowClosed(f"window {window_id} is closed")
            raise UnknownWindow(f"window {window_id} was never opened")
        return rec

    def close(self, window_id: int) -> WindowRecord:
        rec = self.get_open(window_id)
        del self._windows[window_id]
        self._closed.add(window_id)
        rec.is_open = False
        return rec

    def open_windows(self, thread: int | None = None) -> list[WindowRecord]:
        return [w for w in self._windows.values() if thread is None or w.thread == thread]

    def any_open(self) -> bool:
        return bool(self._windows)
