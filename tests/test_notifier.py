"""Unit tests for notification merging and window bookkeeping."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.cache import LevelId
from specsim.notifier import (
    Notification,
    NotificationBuffer,
    NotifKind,
    UnknownWindow,
    WindowClosed,
    WindowRegistry,
)


def note(window=1, line=4, level=LevelId.L1D, kind=NotifKind.COMMIT, thread=0):
    return Notification(window, thread, line, level, kind, is_store=False)


def test_same_key_merges():
    buf = NotificationBuffer(4)
    assert buf.offer(note()) == []
    assert buf.offer(note()) == []
    assert len(buf) == 1
    assert buf.merged == 1


def test_distinct_windows_do_not_merge():
    buf = NotificationBuffer(4)
    buf.offer(note(window=1))
    buf.offer(note(window=2))
    assert len(buf) == 2
    assert buf.merged == 0


def test_distinct_kinds_do_not_merge():
    buf = NotificationBuffer(4)
    buf.offer(note(kind=NotifKind.COMMIT))
    buf.offer(note(kind=NotifKind.SQUASH))
    assert len(buf) == 2


def test_overflow_forces_out_oldest():
    buf = NotificationBuffer(2)
    first = note(line=1)
    buf.offer(first)
    buf.offer(note(line=2))
    forced = buf.offer(note(line=3))
    assert forced == [first]
    assert buf.forced_out == 1
    assert [n.line for n in buf.drain()] == [2, 3]


def test_capacity_zero_forwards_immediately():
    buf = NotificationBuffer(0)
    n = note()
    assert buf.offer(n) == [n]
    assert len(buf) == 0


def test_drain_is_fifo_and_empties():
    buf = NotificationBuffer(8)
    for line in (5, 3, 9):
        buf.offer(note(line=line))
    assert [n.line for n in buf.drain()] == [5, 3, 9]
    assert len(buf) == 0
    assert buf.drain() == []


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 5),
                          st.sampled_from([NotifKind.COMMIT, NotifKind.SQUASH])),
                max_size=60))
@settings(max_examples=200)
def test_occupancy_never_exceeds_capacity_and_nothing_is_lost(entries):
    """Whatever is offered either sits in the buffer, merged into an
    existing entry, or came back out through forcing; nothing vanishes."""
    buf = NotificationBuffer(4)
    forced_total = 0
    for window, line, kind in entries:
        forced_total += len(buf.offer(note(window=window, line=line, kind=kind)))
        assert len(buf) <= 4
    assert forced_total + len(buf) + buf.merged == len(entries)


# -- window registry ---------------------------------------------------------


def test_open_close_lifecycle():
    reg = WindowRegistry()
    reg.open(1, thread=0)
    assert reg.get_open(1).thread == 0
    rec = reg.close(1)
    assert not rec.is_open
    with pytest.raises(WindowClosed):
        reg.get_open(1)


def test_double_open_of_open_id_rejected():
    reg = WindowRegistry()
    reg.open(1, thread=0)
    with pytest.raises(WindowClosed):
        reg.open(1, thread=1)


def test_closed_id_may_be_reused():
    reg = WindowRegistry()
    reg.open(1, thread=0)
    reg.close(1)
    reg.open(1, thread=1)
    assert reg.get_open(1).thread == 1


def test_record_after_close_rejected():
    reg = WindowRegistry()
    reg.open(1, thread=0)
    rec = reg.close(1)
    with pytest.raises(WindowClosed):
        rec.record("access", object())


def test_open_windows_filters_by_thread():
    reg = WindowRegistry()
    reg.open(1, thread=0)
    reg.open(2, thread=1)
    reg.open(3, thread=0)
    assert {w.window_id for w in reg.open_windows(thread=0)} == {1, 3}
    assert reg.any_open()
    for wid in (1, 2, 3):
        reg.close(wid)
    assert not reg.any_open()


def test_closed_windows_are_released():
    """Closing drops the window's record; only the errors for its id
    remain, so a long trace holds just the windows still open."""
    reg = WindowRegistry()
    reg.open(-1, thread=1)
    closed = []
    for wid in range(10_000):
        reg.open(wid, thread=0)
        closed.append(weakref.ref(reg.close(wid)))
    gc.collect()
    assert all(ref() is None for ref in closed)
    assert [w.window_id for w in reg.open_windows()] == [-1]
    with pytest.raises(WindowClosed):
        reg.get_open(9_999)
    with pytest.raises(UnknownWindow):
        reg.get_open(10_000)
    reg.close(-1)
    assert not reg.any_open()
    reg.open(5, thread=1)
    assert reg.get_open(5).thread == 1
