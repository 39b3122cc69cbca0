"""Stateful check that a rejected event leaves the engine as it was.

A hypothesis state machine steps one engine through valid events,
mixed with invalid ones: a window another thread owns, a window that
is closed or was never opened, a thread out of range, a negative
address or window id, a field the event's kind needs left out, and
opening a window that is already open.  After every step that raises,
the cache and directory fingerprint, the counters, the observations,
the open windows with their logs and the notification buffer are
unchanged.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from specsim.engine import Engine
from specsim.notifier import UnknownWindow, WindowClosed
from specsim.trace import MGMT_OPS, EventKind, TraceEvent

from conftest import small_config
from gentraces import contended_pool

K = EventKind
REJECTED = (ValueError, UnknownWindow, WindowClosed)

# every kind that names a window, built for (thread, addr, window)
IN_WINDOW = [
    lambda t, a, w: TraceEvent.load(t, a, w),
    lambda t, a, w: TraceEvent.store(t, a, w),
    lambda t, a, w: TraceEvent.ifetch(t, a, w),
    lambda t, a, w: TraceEvent.mgmt("flush", t, a, w),
    lambda t, a, w: TraceEvent.tlbmiss_load(t, a, w),
]
WINDOWED = IN_WINDOW + [
    lambda t, a, w: TraceEvent.commit(t, w),
    lambda t, a, w: TraceEvent.squash(t, w),
]
COMMITTED = [
    lambda t, a: TraceEvent.load(t, a),
    lambda t, a: TraceEvent.store(t, a),
    lambda t, a: TraceEvent.ifetch(t, a),
    lambda t, a: TraceEvent.prefetch(t, a),
    lambda t, a: TraceEvent.mgmt("invd", t, a),
    lambda t, a: TraceEvent.measure(t, a),
]
# an event of each kind with a field it needs left out
MISSING = [
    TraceEvent(K.LOAD, thread=0),
    TraceEvent(K.STORE, thread=0),
    TraceEvent(K.IFETCH, thread=0),
    TraceEvent(K.PREFETCH, thread=0),
    TraceEvent(K.MEASURE, thread=0),
    TraceEvent(K.MGMT, thread=0, mgmt_op="flush"),
    TraceEvent(K.MGMT, thread=0, addr=0x40),
    TraceEvent(K.OPEN, thread=0),
    TraceEvent(K.COMMIT, thread=0),
    TraceEvent(K.SQUASH, thread=0),
    TraceEvent(K.TLBMISS_LOAD, thread=0, addr=0x40),
]
# the same, for the kinds that may name a window, still lacking a field
# once the window is filled in
MISSING_IN_WINDOW = [
    TraceEvent(K.LOAD, thread=0),
    TraceEvent(K.STORE, thread=0),
    TraceEvent(K.IFETCH, thread=0),
    TraceEvent(K.TLBMISS_LOAD, thread=0),
    TraceEvent(K.MGMT, thread=0, mgmt_op="invd"),
    TraceEvent(K.MGMT, thread=0, addr=0x40),
]
assert "clean" not in MGMT_OPS


class StepAtomicity(RuleBasedStateMachine):
    @initialize(mode=st.sampled_from(["specbox", "baseline"]), smt=st.sampled_from([1, 2]))
    def build(self, mode, smt):
        self.cfg = small_config(mode=mode, smt=smt)
        self.eng = Engine(self.cfg)
        self.pool = contended_pool(self.cfg, hot=6, spread=6)
        self.nthreads = self.cfg.num_threads
        self.open_windows: dict[int, int] = {}  # window id -> thread
        self.closed: list[int] = []
        self.next_wid = 1

    # -- what a rejected step must leave alone -------------------------

    def snapshot(self):
        eng = self.eng
        windows = {w: (eng.windows.get_open(w).thread, len(eng.windows.get_open(w).ops))
                   for w in self.open_windows}
        return (eng.fingerprint(), dict(eng.report.counters), list(eng.report.observations),
                windows, eng.windows.any_open(), len(eng.nfb))

    def reject(self, ev: TraceEvent) -> None:
        before = self.snapshot()
        with pytest.raises(REJECTED):
            self.eng.step(ev)
        assert self.snapshot() == before, ev
        # nor did it open a window, or reopen a closed one
        for w in {*self.closed, ev.window} - {None, *self.open_windows}:
            with pytest.raises(UnknownWindow):
                self.eng.windows.get_open(w)

    @invariant()
    def registry_matches_the_model(self):
        if hasattr(self, "eng"):
            assert self.eng.windows.any_open() == bool(self.open_windows)
            assert len(self.eng.nfb) == 0

    # -- valid events --------------------------------------------------

    @rule(data=st.data())
    def open_window(self, data):
        thread = data.draw(st.integers(0, self.nthreads - 1))
        wid = self.next_wid
        self.next_wid += 1
        self.eng.step(TraceEvent.open(thread, wid))
        self.open_windows[wid] = thread

    @precondition(lambda self: self.open_windows)
    @rule(data=st.data())
    def windowed_access(self, data):
        wid = data.draw(st.sampled_from(sorted(self.open_windows)))
        make = data.draw(st.sampled_from(IN_WINDOW))
        self.eng.step(make(self.open_windows[wid], data.draw(st.sampled_from(self.pool)), wid))

    @rule(data=st.data())
    def committed_access(self, data):
        make = data.draw(st.sampled_from(COMMITTED))
        thread = data.draw(st.integers(0, self.nthreads - 1))
        self.eng.step(make(thread, data.draw(st.sampled_from(self.pool))))

    @precondition(lambda self: self.open_windows)
    @rule(data=st.data(), commit=st.booleans())
    def resolve(self, data, commit):
        wid = data.draw(st.sampled_from(sorted(self.open_windows)))
        thread = self.open_windows.pop(wid)
        self.eng.step((TraceEvent.commit if commit else TraceEvent.squash)(thread, wid))
        self.closed.append(wid)

    # -- invalid events ------------------------------------------------

    @precondition(lambda self: self.open_windows)
    @rule(data=st.data())
    def foreign_window(self, data):
        wid = data.draw(st.sampled_from(sorted(self.open_windows)))
        owner = self.open_windows[wid]
        thread = data.draw(st.integers(0, self.nthreads - 1).filter(lambda t: t != owner))
        make = data.draw(st.sampled_from(WINDOWED))
        self.reject(make(thread, data.draw(st.sampled_from(self.pool)), wid))

    @rule(data=st.data(), closed=st.booleans())
    def window_not_open(self, data, closed):
        if closed and self.closed:
            wid = data.draw(st.sampled_from(self.closed))
        else:
            wid = self.next_wid + data.draw(st.integers(0, 3))
        make = data.draw(st.sampled_from(WINDOWED))
        thread = data.draw(st.integers(0, self.nthreads - 1))
        self.reject(make(thread, data.draw(st.sampled_from(self.pool)), wid))

    @rule(data=st.data(), extra=st.integers(0, 5))
    def thread_out_of_range(self, data, extra):
        thread = self.nthreads + extra
        addr = data.draw(st.sampled_from(self.pool))
        windows = sorted(self.open_windows) + [self.next_wid]
        wid = data.draw(st.sampled_from(windows))
        ev = data.draw(st.sampled_from(
            [make(thread, addr, wid) for make in WINDOWED]
            + [make(thread, addr) for make in COMMITTED]
            + [TraceEvent.open(thread, self.next_wid)]))
        self.reject(ev)

    @rule(data=st.data(), addr=st.integers(-(1 << 40), -1))
    def negative_address(self, data, addr):
        thread = data.draw(st.integers(0, self.nthreads - 1))
        events = [make(thread, addr) for make in COMMITTED]
        owned = sorted(w for w, t in self.open_windows.items() if t == thread)
        if owned:
            wid = data.draw(st.sampled_from(owned))
            events += [make(thread, addr, wid) for make in IN_WINDOW]
        self.reject(data.draw(st.sampled_from(events)))

    @rule(data=st.data(), wid=st.integers(-5, -1))
    def negative_window(self, data, wid):
        thread = data.draw(st.integers(0, self.nthreads - 1))
        make = data.draw(st.sampled_from(WINDOWED))
        ev = data.draw(st.sampled_from(
            [make(thread, data.draw(st.sampled_from(self.pool)), wid), TraceEvent.open(thread, wid)]))
        self.reject(ev)

    @rule(data=st.data(), in_window=st.booleans())
    def missing_field(self, data, in_window):
        if in_window and self.open_windows:
            wid = data.draw(st.sampled_from(sorted(self.open_windows)))
            ev = data.draw(st.sampled_from(MISSING_IN_WINDOW))
            ev = ev._replace(thread=self.open_windows[wid], window=wid)
        else:
            ev = data.draw(st.sampled_from(MISSING))
        self.reject(ev)

    @rule(data=st.data(), op=st.sampled_from([None, "clean"]))
    def bad_mgmt_op(self, data, op):
        thread = data.draw(st.integers(0, self.nthreads - 1))
        self.reject(TraceEvent(K.MGMT, thread=thread, addr=self.pool[0], mgmt_op=op))

    @precondition(lambda self: self.open_windows)
    @rule(data=st.data())
    def reopen_open_window(self, data):
        wid = data.draw(st.sampled_from(sorted(self.open_windows)))
        self.reject(TraceEvent.open(self.open_windows[wid], wid))


StepAtomicity.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
test_rejected_steps_change_nothing = StepAtomicity.TestCase
