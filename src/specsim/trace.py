"""Trace event model and its line-oriented text format.

One event per line, `#` starts a comment.  Threads are written `t<N>`,
windows `w<N>` (bare integers are accepted too), addresses in hex or
decimal.  A LOAD/STORE/IFETCH with a window id executes in-flight
inside that speculative window; without one it is an ordinary
committed access.

    OPEN t0 w1
    LOAD t0 0x1040 w1          # speculative
    MGMT flush t1 0x2000       # committed cache-management op
    TLBMISS_LOAD t0 0x8000 w1  # page-walk fill, deferred to resolution
    COMMIT t0 w1
    MEASURE t1 0x1040          # timed probe, reported with its class
    BARRIER                    # drains retry queues; a scheduling fence
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class TraceParseError(Exception):
    pass


class EventKind(Enum):
    OPEN = "OPEN"
    LOAD = "LOAD"
    STORE = "STORE"
    IFETCH = "IFETCH"
    PREFETCH = "PREFETCH"
    MGMT = "MGMT"
    TLBMISS_LOAD = "TLBMISS_LOAD"
    COMMIT = "COMMIT"
    SQUASH = "SQUASH"
    MEASURE = "MEASURE"
    BARRIER = "BARRIER"


MGMT_OPS = ("flush", "invd", "prefetch")

ACCESS_KINDS = (EventKind.LOAD, EventKind.STORE, EventKind.IFETCH)


@dataclass(frozen=True)
class TraceEvent:
    kind: EventKind
    thread: int = 0
    addr: int | None = None
    window: int | None = None
    mgmt_op: str | None = None

    # -- constructors --------------------------------------------------

    @classmethod
    def open(cls, thread: int, window: int) -> "TraceEvent":
        return cls(EventKind.OPEN, thread=thread, window=window)

    @classmethod
    def load(cls, thread: int, addr: int, window: int | None = None) -> "TraceEvent":
        return cls(EventKind.LOAD, thread=thread, addr=addr, window=window)

    @classmethod
    def store(cls, thread: int, addr: int, window: int | None = None) -> "TraceEvent":
        return cls(EventKind.STORE, thread=thread, addr=addr, window=window)

    @classmethod
    def ifetch(cls, thread: int, addr: int, window: int | None = None) -> "TraceEvent":
        return cls(EventKind.IFETCH, thread=thread, addr=addr, window=window)

    @classmethod
    def prefetch(cls, thread: int, addr: int) -> "TraceEvent":
        return cls(EventKind.PREFETCH, thread=thread, addr=addr)

    @classmethod
    def mgmt(cls, op: str, thread: int, addr: int, window: int | None = None) -> "TraceEvent":
        if op not in MGMT_OPS:
            raise TraceParseError(f"unknown MGMT op {op!r}")
        return cls(EventKind.MGMT, thread=thread, addr=addr, window=window, mgmt_op=op)

    @classmethod
    def tlbmiss_load(cls, thread: int, addr: int, window: int) -> "TraceEvent":
        return cls(EventKind.TLBMISS_LOAD, thread=thread, addr=addr, window=window)

    @classmethod
    def commit(cls, thread: int, window: int) -> "TraceEvent":
        return cls(EventKind.COMMIT, thread=thread, window=window)

    @classmethod
    def squash(cls, thread: int, window: int) -> "TraceEvent":
        return cls(EventKind.SQUASH, thread=thread, window=window)

    @classmethod
    def measure(cls, thread: int, addr: int) -> "TraceEvent":
        return cls(EventKind.MEASURE, thread=thread, addr=addr)

    @classmethod
    def barrier(cls) -> "TraceEvent":
        return cls(EventKind.BARRIER)

    # -- text form -------------------------------------------------------

    def format(self) -> str:
        k = self.kind
        if k is EventKind.BARRIER:
            return "BARRIER"
        if k is EventKind.OPEN or k is EventKind.COMMIT or k is EventKind.SQUASH:
            return f"{k.value} t{self.thread} w{self.window}"
        if k is EventKind.MEASURE or k is EventKind.PREFETCH:
            return f"{k.value} t{self.thread} {self.addr:#x}"
        if k is EventKind.MGMT:
            tail = f" w{self.window}" if self.window is not None else ""
            return f"MGMT {self.mgmt_op} t{self.thread} {self.addr:#x}{tail}"
        tail = f" w{self.window}" if self.window is not None else ""
        return f"{k.value} t{self.thread} {self.addr:#x}{tail}"


# What each event kind accepts: the fewest and most tokens (a line with
# the most adds an optional trailing window), the usage text, and the
# token positions of the thread, the address and a required window
# (0: the kind has no such field).
_GRAMMAR: dict[str, tuple[EventKind, int, int, str, int, int, int]] = {
    "OPEN": (EventKind.OPEN, 3, 3, "OPEN <thread> <window>", 1, 0, 2),
    "COMMIT": (EventKind.COMMIT, 3, 3, "COMMIT <thread> <window>", 1, 0, 2),
    "SQUASH": (EventKind.SQUASH, 3, 3, "SQUASH <thread> <window>", 1, 0, 2),
    "LOAD": (EventKind.LOAD, 3, 4, "LOAD <thread> <addr> [<window>]", 1, 2, 0),
    "STORE": (EventKind.STORE, 3, 4, "STORE <thread> <addr> [<window>]", 1, 2, 0),
    "IFETCH": (EventKind.IFETCH, 3, 4, "IFETCH <thread> <addr> [<window>]", 1, 2, 0),
    "PREFETCH": (EventKind.PREFETCH, 3, 3, "PREFETCH <thread> <addr>", 1, 2, 0),
    "MEASURE": (EventKind.MEASURE, 3, 3, "MEASURE <thread> <addr>", 1, 2, 0),
    "MGMT": (EventKind.MGMT, 4, 5, "MGMT <op> <thread> <addr> [<window>]", 2, 3, 0),
    "TLBMISS_LOAD": (EventKind.TLBMISS_LOAD, 4, 4, "TLBMISS_LOAD <thread> <addr> <window>", 1, 2, 3),
    "BARRIER": (EventKind.BARRIER, 1, 1, "BARRIER", 0, 0, 0),
}


def parse_event(line: str, lineno: int = 0) -> TraceEvent | None:
    """Parse one line; returns None for blanks and comments."""
    toks = line.split("#", 1)[0].split()
    if not toks:
        return None
    spec = _GRAMMAR.get(toks[0].upper())
    if spec is None:
        raise TraceParseError(f"line {lineno}: unknown event {toks[0]!r}")
    kind, least, most, usage, t_pos, a_pos, w_pos = spec
    n = len(toks)
    if not least <= n <= most:
        raise TraceParseError(f"line {lineno}: usage: {usage}")
    op = None
    if kind is EventKind.MGMT:
        op = toks[1].lower()
        if op not in MGMT_OPS:
            raise TraceParseError(f"line {lineno}: unknown MGMT op {toks[1]!r}")
    thread = 0
    addr = window = None
    # a line with several bad fields reports the first one parsed: an
    # optional trailing window, then thread, address, required window
    what, tok = "window", toks[-1]
    try:
        if n > least:
            window = int(tok[1:] if tok[0] in "wW" else tok, 0)
        if t_pos:
            what, tok = "thread", toks[t_pos]
            thread = int(tok[1:] if tok[0] in "tT" else tok, 0)
        if a_pos:
            what, tok = "address", toks[a_pos]
            addr = int(tok, 0)
        if w_pos:
            what, tok = "window", toks[w_pos]
            window = int(tok[1:] if tok[0] in "wW" else tok, 0)
    except ValueError:
        raise TraceParseError(f"line {lineno}: bad {what} {tok!r}") from None
    return TraceEvent(kind, thread, addr, window, op)


def parse_trace(text: str) -> list[TraceEvent]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        ev = parse_event(line, lineno)
        if ev is not None:
            events.append(ev)
    return events


def format_trace(events: list[TraceEvent]) -> str:
    return "\n".join(ev.format() for ev in events) + "\n"
