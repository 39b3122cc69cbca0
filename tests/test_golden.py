"""Golden digests that pin the model.

Each case steps a fixed trace through an engine and hashes what the
run leaves behind: every observation, the sorted counters and the final
``Engine.fingerprint()`` (every level's ways and the directory).  The
``random_events`` soups run a small hierarchy; the 100-repetition PoC
runs the flush/probe loop on the default 2 MB one.  A change meant to
keep the model leaves all of them alone.  A change that moves the model
on purpose updates the digests here and records the old and new values
in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from specsim.attacks import build_trace, scenario_config
from specsim.config import LevelParams
from specsim.engine import Engine

from conftest import small_config
from gentraces import random_events, stream_events

SOUP_EVENTS = 3000
SOUP_L2 = LevelParams(8192, 8, 2)

# (mode, smt) -> (observations, counters, fingerprint) digests
GOLDEN = {
    ("specbox", 1): ("92effca2c58beb9d", "d9b50a9caea5f83f", "0ee8b667a33a1f18"),
    ("specbox", 2): ("964236c70d616dcb", "73cd770f4468672b", "ef3215484f5529b0"),
    ("baseline", 1): ("742fd7445f279d86", "b946eed2cf84e085", "743e4d7df630fea5"),
    ("baseline", 2): ("056807522a647110", "d7fde6cd2cb324fc", "1d7c9e58e64f667d"),
}

POC_REPS = 100

# mode -> digests of the PoC with the secret load (bit 1)
GOLDEN_POC = {
    "specbox": ("7aa291c207589781", "2d1b59a4873a9d09", "8fcae3442904e243"),
    "baseline": ("d2e25f178ad299a1", "316a563e5585b4af", "7ae44a8cc29d8db4"),
}

STREAM_EVENTS = 4000

# mode -> digests of the committed stream
GOLDEN_STREAM = {
    "specbox": ("855caaa109f8844a", "1260c433023b6b4f", "b06e479e742d23d8"),
    "baseline": ("d52c0436607c7a51", "a9d915861aa05e74", "73c5482b1c462322"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def soup_config(mode: str, smt: int):
    # an L2 of 16 sets of 8 ways: the soup's hot lines overflow one set,
    # so L2 evictions, back-invalidations and parked fills all take part
    return small_config(mode=mode, cores=2, smt=smt, prefetch=True).replaced(l2=SOUP_L2)


def soup_events(cfg, smt: int) -> list:
    return list(random_events(random.Random(1000 + smt), cfg, SOUP_EVENTS))


def engine_digests(eng: Engine) -> tuple[str, str, str]:
    report = eng.report
    observations = "".join(
        f"{o.index} {o.thread} {o.addr:#x} {o.line:#x} {o.latency} {o.klass.value}\n"
        for o in report.observations
    )
    counters = "".join(f"{k}={v}\n" for k, v in sorted(report.counters.items()))
    return _digest(observations), _digest(counters), _digest(repr(eng.fingerprint()))


def stream_config(mode: str):
    return small_config(mode=mode, cores=4, prefetch=True)


def stream_trace(cfg) -> list:
    return stream_events(random.Random(7), cfg, STREAM_EVENTS)


def run_digests(mode: str, smt: int) -> tuple[str, str, str]:
    cfg = soup_config(mode, smt)
    eng = Engine(cfg)
    eng.run(soup_events(cfg, smt))
    return engine_digests(eng)


@pytest.mark.parametrize("mode, smt", sorted(GOLDEN))
def test_model_matches_its_golden_digests(mode, smt):
    assert run_digests(mode, smt) == GOLDEN[mode, smt]


@pytest.mark.parametrize("mode", sorted(GOLDEN_POC))
def test_poc_matches_its_golden_digests(mode):
    cfg = scenario_config("poc", mode)
    eng = Engine(cfg)
    eng.run(build_trace("poc", 1, cfg, reps=POC_REPS))
    assert engine_digests(eng) == GOLDEN_POC[mode]


@pytest.mark.parametrize("mode", sorted(GOLDEN_STREAM))
def test_stream_matches_its_golden_digests(mode):
    cfg = stream_config(mode)
    eng = Engine(cfg)
    eng.run(stream_trace(cfg))
    assert engine_digests(eng) == GOLDEN_STREAM[mode]
