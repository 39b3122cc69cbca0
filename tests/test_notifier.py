"""Unit tests for notification merging and window bookkeeping."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.cache import LevelId
from specsim.notifier import (
    AccessRecord,
    NotificationBuffer,
    UnknownWindow,
    WindowClosed,
    WindowRegistry,
)


def note(line=4, level=LevelId.L1D, is_store=False):
    return AccessRecord(line, level, is_store)


def test_same_key_merges():
    buf = NotificationBuffer(4)
    assert buf.offer(note()) == []
    assert buf.offer(note()) == []
    assert len(buf) == 1
    assert buf.merged == 1


def test_distinct_levels_do_not_merge():
    buf = NotificationBuffer(4)
    buf.offer(note(level=LevelId.L1D))
    buf.offer(note(level=LevelId.L2))
    assert len(buf) == 2
    assert buf.merged == 0


def test_store_note_merging_with_a_load_note_keeps_its_write_intent():
    """A store and a load of one line in one window merge into one
    entry that keeps the store's write intent, in either order, and
    the entry keeps its place in the FIFO."""
    load = note(line=4)
    store = note(line=4, is_store=True)
    for first, second in ((load, store), (store, load)):
        buf = NotificationBuffer(4)
        buf.offer(first)
        buf.offer(note(line=5))
        assert buf.offer(second) == []
        assert buf.merged == 1
        merged, other = buf.drain()
        assert merged == store
        assert (other.line, other.is_store) == (5, False)


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


@pytest.mark.parametrize("capacity", [0, 1, 2, 3, 16])
def test_pass_through_counts_what_offer_and_drain_would(capacity):
    for count in range(6):
        offered = NotificationBuffer(capacity)
        delivered = []
        for line in range(count):
            delivered += offered.offer(note(line=line))
        delivered += offered.drain()
        assert [n.line for n in delivered] == list(range(count))
        passed = NotificationBuffer(capacity)
        passed.pass_through(count)
        assert (passed.merged, passed.forced_out, len(passed)) == (
            offered.merged,
            offered.forced_out,
            0,
        )


def test_pass_through_needs_an_empty_buffer():
    buf = NotificationBuffer(4)
    buf.offer(note())
    with pytest.raises(ValueError):
        buf.pass_through(2)
    assert buf.forced_out == 0


def test_drain_is_fifo_and_empties():
    buf = NotificationBuffer(8)
    for line in (5, 3, 9):
        buf.offer(note(line=line))
    assert [n.line for n in buf.drain()] == [5, 3, 9]
    assert len(buf) == 0
    assert buf.drain() == []


@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from([LevelId.L1D, LevelId.L2]),
                          st.booleans()),
                max_size=60))
@settings(max_examples=200)
def test_occupancy_never_exceeds_capacity_and_nothing_is_lost(entries):
    """Whatever is offered either sits in the buffer, merged into an
    existing entry, or came back out through forcing; nothing vanishes."""
    buf = NotificationBuffer(4)
    forced_total = 0
    for line, level, is_store in entries:
        forced_total += len(buf.offer(note(line, level, is_store)))
        assert len(buf) <= 4
    assert forced_total + len(buf) + buf.merged == len(entries)


# -- window registry ---------------------------------------------------------


def test_open_close_lifecycle():
    reg = WindowRegistry()
    reg.open(1, thread=0)
    assert reg.get_open(1).thread == 0
    assert reg.close(1).thread == 0
    with pytest.raises(UnknownWindow, match="window 1 is not open"):
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


def test_any_open_until_every_window_closes():
    reg = WindowRegistry()
    reg.open(1, thread=0)
    reg.open(2, thread=1)
    reg.open(3, thread=0)
    assert [reg.get_open(wid).thread for wid in (1, 2, 3)] == [0, 1, 0]
    for wid in (1, 2, 3):
        assert reg.any_open()
        reg.close(wid)
    assert not reg.any_open()


def test_closed_windows_are_released():
    """Closing drops the window's record, so a long trace holds just
    the windows still open; a closed id reads as one never opened."""
    reg = WindowRegistry()
    reg.open(-1, thread=1)
    closed = []
    for wid in range(10_000):
        reg.open(wid, thread=0)
        closed.append(weakref.ref(reg.close(wid)))
    gc.collect()
    assert all(ref() is None for ref in closed)
    assert reg.get_open(-1).thread == 1
    with pytest.raises(UnknownWindow):
        reg.get_open(9_999)
    with pytest.raises(UnknownWindow):
        reg.get_open(10_000)
    reg.close(-1)
    assert not reg.any_open()
    reg.open(5, thread=1)
    assert reg.get_open(5).thread == 1


def test_registry_keeps_nothing_of_closed_windows():
    reg = WindowRegistry()
    for wid in range(10_000):
        reg.open(wid, thread=0)
        reg.close(wid)
    assert not reg.any_open()
    # no container in the registry holds anything once every window closed
    assert all(not value for value in vars(reg).values())
    for wid in (0, 9_999):
        with pytest.raises(UnknownWindow, match=f"window {wid} is not open"):
            reg.close(wid)
