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

A :class:`TraceEvent` is a ``NamedTuple``: immutable, hashable and
equal by value like a frozen dataclass, but built at the cost of a
tuple, which matters at one event per simulated instruction (the
parser builds it with ``tuple.__new__``, skipping even the generated
``__new__`` frame).  Being
immutable, one event can stand for many: :func:`parse_trace` parses
each distinct line once, and identical lines share one event object.
An event therefore carries no source line number; a caller that needs
one maps the event's index in the list to its line.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


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


(OPEN, LOAD, STORE, IFETCH, PREFETCH, MGMT, TLBMISS_LOAD, COMMIT, SQUASH, MEASURE,
 BARRIER) = EventKind


MGMT_OPS = ("flush", "invd", "prefetch")


class TraceEvent(NamedTuple):
    kind: EventKind
    thread: int = 0
    addr: int | None = None
    window: int | None = None
    mgmt_op: str | None = None

    # -- constructors --------------------------------------------------

    @classmethod
    def open(cls, thread: int, window: int) -> "TraceEvent":
        return cls(OPEN, thread=thread, window=window)

    @classmethod
    def load(cls, thread: int, addr: int, window: int | None = None) -> "TraceEvent":
        return cls(LOAD, thread=thread, addr=addr, window=window)

    @classmethod
    def store(cls, thread: int, addr: int, window: int | None = None) -> "TraceEvent":
        return cls(STORE, thread=thread, addr=addr, window=window)

    @classmethod
    def ifetch(cls, thread: int, addr: int, window: int | None = None) -> "TraceEvent":
        return cls(IFETCH, thread=thread, addr=addr, window=window)

    @classmethod
    def prefetch(cls, thread: int, addr: int) -> "TraceEvent":
        return cls(PREFETCH, thread=thread, addr=addr)

    @classmethod
    def mgmt(cls, op: str, thread: int, addr: int, window: int | None = None) -> "TraceEvent":
        if op not in MGMT_OPS:
            raise TraceParseError(f"unknown MGMT op {op!r}")
        return cls(MGMT, thread=thread, addr=addr, window=window, mgmt_op=op)

    @classmethod
    def tlbmiss_load(cls, thread: int, addr: int, window: int) -> "TraceEvent":
        return cls(TLBMISS_LOAD, thread=thread, addr=addr, window=window)

    @classmethod
    def commit(cls, thread: int, window: int) -> "TraceEvent":
        return cls(COMMIT, thread=thread, window=window)

    @classmethod
    def squash(cls, thread: int, window: int) -> "TraceEvent":
        return cls(SQUASH, thread=thread, window=window)

    @classmethod
    def measure(cls, thread: int, addr: int) -> "TraceEvent":
        return cls(MEASURE, thread=thread, addr=addr)

    @classmethod
    def barrier(cls) -> "TraceEvent":
        return cls(BARRIER)

    # -- text form -------------------------------------------------------

    def format(self) -> str:
        k = self.kind
        if k is BARRIER:
            return "BARRIER"
        if k is OPEN or k is COMMIT or k is SQUASH:
            return f"{k.value} t{self.thread} w{self.window}"
        if k is MEASURE or k is PREFETCH:
            return f"{k.value} t{self.thread} {self.addr:#x}"
        if k is MGMT:
            tail = f" w{self.window}" if self.window is not None else ""
            return f"MGMT {self.mgmt_op} t{self.thread} {self.addr:#x}{tail}"
        tail = f" w{self.window}" if self.window is not None else ""
        return f"{k.value} t{self.thread} {self.addr:#x}{tail}"


# What each event kind accepts: the fewest and most tokens (a line with
# the most adds an optional trailing window), the usage text, and the
# token positions of the thread, the address and a required window
# (0: the kind has no such field).
_GRAMMAR: dict[str, tuple[EventKind, int, int, str, int, int, int]] = {
    "OPEN": (OPEN, 3, 3, "OPEN <thread> <window>", 1, 0, 2),
    "COMMIT": (COMMIT, 3, 3, "COMMIT <thread> <window>", 1, 0, 2),
    "SQUASH": (SQUASH, 3, 3, "SQUASH <thread> <window>", 1, 0, 2),
    "LOAD": (LOAD, 3, 4, "LOAD <thread> <addr> [<window>]", 1, 2, 0),
    "STORE": (STORE, 3, 4, "STORE <thread> <addr> [<window>]", 1, 2, 0),
    "IFETCH": (IFETCH, 3, 4, "IFETCH <thread> <addr> [<window>]", 1, 2, 0),
    "PREFETCH": (PREFETCH, 3, 3, "PREFETCH <thread> <addr>", 1, 2, 0),
    "MEASURE": (MEASURE, 3, 3, "MEASURE <thread> <addr>", 1, 2, 0),
    "MGMT": (MGMT, 4, 5, "MGMT <op> <thread> <addr> [<window>]", 2, 3, 0),
    "TLBMISS_LOAD": (TLBMISS_LOAD, 4, 4, "TLBMISS_LOAD <thread> <addr> <window>", 1, 2, 3),
    "BARRIER": (BARRIER, 1, 1, "BARRIER", 0, 0, 0),
}


def _natural(text: str) -> int:
    """`int(text, 0)` for a window, a field that is never negative."""
    value = int(text, 0)
    if value < 0:
        raise ValueError(text)
    return value


def parse_event(line: str, lineno: int = 0) -> TraceEvent | None:
    """Parse one line; returns None for blanks and comments."""
    toks = (line.split("#", 1)[0] if "#" in line else line).split()
    if not toks:
        return None
    spec = _GRAMMAR.get(toks[0])
    if spec is None:
        spec = _GRAMMAR.get(toks[0].upper())
        if spec is None:
            raise TraceParseError(f"line {lineno}: unknown event {toks[0]!r}")
    kind, least, most, usage, t_pos, a_pos, w_pos = spec
    n = len(toks)
    if not least <= n <= most:
        raise TraceParseError(f"line {lineno}: usage: {usage}")
    op = None
    if kind is MGMT:
        op = toks[1].lower()
        if op not in MGMT_OPS:
            raise TraceParseError(f"line {lineno}: unknown MGMT op {toks[1]!r}")
    thread = 0
    addr = window = None
    # a line with several bad fields reports the first one parsed: an
    # optional trailing window, then thread, address, required window;
    # thread and address, on nearly every line, are parsed inline
    what, tok = "window", toks[-1]
    try:
        if n > least:
            window = _natural(tok[1:] if tok[0] in "wW" else tok)
        if t_pos:
            what, tok = "thread", toks[t_pos]
            thread = int(tok[1:] if tok[0] in "tT" else tok, 0)
            if thread < 0:
                raise ValueError(tok)
        if a_pos:
            what, tok = "address", toks[a_pos]
            addr = int(tok, 0)
            if addr < 0:
                raise ValueError(tok)
        if w_pos:
            what, tok = "window", toks[w_pos]
            window = _natural(tok[1:] if tok[0] in "wW" else tok)
    except ValueError:
        raise TraceParseError(f"line {lineno}: bad {what} {tok!r}") from None
    # tuple.__new__ builds the event without the Python frame of the
    # NamedTuple's generated __new__; the fields are in order
    return tuple.__new__(TraceEvent, (kind, thread, addr, window, op))


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse a whole trace; identical lines yield the same event object."""
    events = []
    parsed: dict[str, TraceEvent] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        ev = parsed.get(line)
        if ev is None:
            ev = parse_event(line, lineno)
            if ev is None:
                continue
            parsed[line] = ev
        events.append(ev)
    return events


def format_trace(events: list[TraceEvent]) -> str:
    return "\n".join(ev.format() for ev in events) + "\n"
