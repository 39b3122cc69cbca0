"""Unit tests for the trace text format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.trace import (
    EventKind,
    TraceEvent,
    TraceParseError,
    format_trace,
    parse_event,
    parse_trace,
)

threads = st.integers(0, 7)
addrs = st.integers(0, 2**32 - 1)
windows = st.integers(0, 999)

events = st.one_of(
    st.builds(TraceEvent.open, threads, windows),
    st.builds(TraceEvent.load, threads, addrs, st.one_of(st.none(), windows)),
    st.builds(TraceEvent.store, threads, addrs, st.one_of(st.none(), windows)),
    st.builds(TraceEvent.ifetch, threads, addrs, st.one_of(st.none(), windows)),
    st.builds(TraceEvent.prefetch, threads, addrs),
    st.builds(TraceEvent.mgmt, st.sampled_from(["flush", "invd", "prefetch"]),
              threads, addrs, st.one_of(st.none(), windows)),
    st.builds(TraceEvent.tlbmiss_load, threads, addrs, windows),
    st.builds(TraceEvent.commit, threads, windows),
    st.builds(TraceEvent.squash, threads, windows),
    st.builds(TraceEvent.measure, threads, addrs),
    st.builds(TraceEvent.barrier),
)


@given(st.lists(events, max_size=30))
@settings(max_examples=200)
def test_format_parse_round_trip(evs):
    assert parse_trace(format_trace(evs)) == evs


def test_comments_and_blanks_are_skipped():
    text = """
    # prelude
    OPEN t0 w1

    LOAD t0 0x1040 w1  # speculative
    COMMIT t0 w1
    """
    evs = parse_trace(text)
    assert [e.kind for e in evs] == [EventKind.OPEN, EventKind.LOAD, EventKind.COMMIT]


def test_bare_integers_accepted_for_thread_and_window():
    ev = parse_event("LOAD 1 4096 3")
    assert ev == TraceEvent.load(1, 4096, 3)


def test_windowless_access_is_committed():
    ev = parse_event("STORE t0 0x80")
    assert ev is not None
    assert ev.window is None


def test_unknown_kind_rejected_with_line_number():
    with pytest.raises(TraceParseError) as exc:
        parse_trace("OPEN t0 w1\nFROB t0 0x40\n")
    assert "2" in str(exc.value)


def test_missing_fields_rejected():
    with pytest.raises(TraceParseError):
        parse_event("OPEN t0")
    with pytest.raises(TraceParseError):
        parse_event("MEASURE t0")


def test_bad_mgmt_op_rejected():
    with pytest.raises(TraceParseError):
        parse_event("MGMT zap t0 0x40")


def test_bad_integer_rejected():
    with pytest.raises(TraceParseError):
        parse_event("LOAD t0 0xZZ w1")


@pytest.mark.parametrize("line, event", [
    ("load t0 0x40", TraceEvent.load(0, 0x40)),
    ("Store t1 64 w2", TraceEvent.store(1, 64, 2)),
    ("LOAD T1 0x40 W3", TraceEvent.load(1, 0x40, 3)),
    ("OPEN 2 7", TraceEvent.open(2, 7)),
    ("mgmt FLUSH t0 0x80 w1", TraceEvent.mgmt("flush", 0, 0x80, 1)),
    ("MGMT invd 3 128", TraceEvent.mgmt("invd", 3, 128)),
    ("tlbmiss_load t0 0x8000 w1", TraceEvent.tlbmiss_load(0, 0x8000, 1)),
    ("  measure t1 0x1040   # timed probe", TraceEvent.measure(1, 0x1040)),
    ("barrier#fence", TraceEvent.barrier()),
    ("\tprefetch\tt0\t0b1000000", TraceEvent.prefetch(0, 64)),
    ("   ", None),
    ("# only a comment", None),
    ("", None),
])
def test_accepted_forms(line, event):
    assert parse_event(line) == event


@pytest.mark.parametrize("line, message", [
    ("OPEN t0", "usage: OPEN <thread> <window>"),
    ("COMMIT t0 w1 w2", "usage: COMMIT <thread> <window>"),
    ("LOAD t0", "usage: LOAD <thread> <addr> [<window>]"),
    ("MEASURE t0", "usage: MEASURE <thread> <addr>"),
    ("TLBMISS_LOAD t0 0x40", "usage: TLBMISS_LOAD <thread> <addr> <window>"),
    ("MGMT flush t0", "usage: MGMT <op> <thread> <addr> [<window>]"),
    ("BARRIER t0", "usage: BARRIER"),
    ("FROB t0 0x40", "unknown event 'FROB'"),
    ("MGMT zap t0 0x40", "unknown MGMT op 'zap'"),
    ("LOAD tx 0x40", "bad thread 'tx'"),
    ("LOAD t 0x40", "bad thread 't'"),
    ("OPEN t0 wq", "bad window 'wq'"),
    ("LOAD t0 0xZZ w1", "bad address '0xZZ'"),
    ("LOAD t0 0x40 w1x", "bad window 'w1x'"),
    # an optional trailing window is checked before the other fields
    ("LOAD tx 0x40 wq", "bad window 'wq'"),
    ("TLBMISS_LOAD tx 0x40 wq", "bad thread 'tx'"),
])
def test_rejected_forms_name_their_line(line, message):
    with pytest.raises(TraceParseError) as exc:
        parse_trace(f"OPEN t0 w1\n\n{line}\n")
    assert str(exc.value) == f"line 3: {message}"
