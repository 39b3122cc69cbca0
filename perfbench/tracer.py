"""Span tracer for the benchmark's traced run.

The tracer wraps specsim's public functions from outside (it replaces
the attribute on the module or class and puts the original back
afterwards), so the simulator itself carries no tracing code.  Each
call becomes a span: id, parent span id, name, start and end in host
nanoseconds.  All spans of one run share the run id written in the
span file's header.  Spans stay in memory as flat int64 arrays and are
written out once, when the run ends; past MAX_SPANS (40 MB of spans)
later spans are counted but not kept, which the header records.

Self time is a span's duration minus the time its child spans cover;
it is accumulated as spans close, so the per-name totals need no pass
over the span list.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from specsim import attacks, cache, coherence, domains, engine, notifier, ownership
from specsim import trace as trace_mod

# (metric prefix, owner, attribute): the calls into each layer that the
# traced run times.  The benchmark calls parse_trace, build_trace and
# analyze through their modules, so patching the module attribute
# reaches them; the rest are methods looked up on their classes.
TARGETS = [
    ("trace.parse_trace", trace_mod, "parse_trace"),
    ("engine.build", engine.Engine, "__init__"),
    ("engine.step", engine.Engine, "step"),
    ("cache.lookup", cache.CacheSet, "lookup"),
    ("cache.victim_order", cache.CacheSet, "victim_order"),
    ("domains.lookup", domains.CacheLevel, "lookup"),
    ("domains.access_committed", domains.CacheLevel, "access_committed"),
    ("domains.invalidate_line", domains.CacheLevel, "invalidate_line"),
    ("domains.install_prefetch", domains.CacheLevel, "install_prefetch"),
    ("domains.access_inflight", domains.CacheLevel, "access_inflight"),
    ("domains.apply_commit", domains.CacheLevel, "apply_commit"),
    ("domains.apply_squash", domains.CacheLevel, "apply_squash"),
    ("domains.try_install_suspended", domains.CacheLevel, "try_install_suspended"),
    ("ownership.check_and_acquire", ownership.ThreadOwnership, "check_and_acquire"),
    ("ownership.find_evictable", ownership.ThreadOwnership, "find_evictable"),
    ("notifier.offer", notifier.NotificationBuffer, "offer"),
    ("notifier.drain", notifier.NotificationBuffer, "drain"),
    ("notifier.open", notifier.WindowRegistry, "open"),
    ("notifier.close", notifier.WindowRegistry, "close"),
    ("coherence.grant_load", coherence.Directory, "grant_load"),
    ("coherence.grant_store", coherence.Directory, "grant_store"),
    ("attacks.build_trace", attacks, "build_trace"),
    ("attacks.analyze", attacks, "analyze"),
]

SPAN_FIELDS = ("span_id", "parent_id", "name_index", "start_ns", "end_ns")
MAX_SPANS = 1_000_000


class Tracer:
    def __init__(self, run_id: str, names: set[str] | None = None) -> None:
        self.run_id = run_id
        self.targets = [t for t in TARGETS if names is None or t[0] in names]
        self.names = [t[0] for t in self.targets]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.spans = array("q")  # SPAN_FIELDS, flattened
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._last_id = 0

    def _wrap(self, idx: int, fn):
        stack, spans, calls, self_ns = self._stack, self.spans, self.calls, self.self_ns
        clock = time.perf_counter_ns
        room = MAX_SPANS * len(SPAN_FIELDS)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._last_id += 1
            frame = [tracer._last_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if len(spans) < room:
                    spans.extend((frame[0], parent, idx, t0, t1))

        return traced

    @contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in self.targets]
        try:
            for idx, (owner, attr, fn) in enumerate(originals):
                setattr(owner, attr, self._wrap(idx, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def durations_us(self, name: str) -> list[float]:
        idx = self.names.index(name)
        s = self.spans
        return [(s[i + 4] - s[i + 3]) / 1000 for i in range(0, len(s), 5) if s[i + 2] == idx]

    def write(self, path: Path) -> None:
        """Header line of JSON, then the spans as raw native int64s."""
        kept = len(self.spans) // len(SPAN_FIELDS)
        header = {"run_id": self.run_id, "names": self.names, "fields": SPAN_FIELDS,
                  "spans": kept, "not_kept": self._last_id - kept}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            self.spans.tofile(f)
