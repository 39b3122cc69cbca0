"""The benchmark's three workloads: input generators, timed rounds, checks.

A workload is a config, a generator that turns ``--seed`` into inputs,
a round that runs those inputs through specsim's public API (the part
that is timed), and checks that look at what the round produced (run
after the clock stops).  Every round of one run does exactly the same
work, so rounds can be repeated until the run's time is up.

Inputs for the two trace mixes are text in the trace format, so each
round goes through ``parse_trace`` exactly like ``specsim run`` does.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from specsim import attacks
from specsim import trace as trace_mod
from specsim.cache import LINE_SIZE, CohState, Domain
from specsim.config import LevelParams, SimConfig
from specsim.engine import Engine, LatencyClass, TimingObservation

# -- round results -------------------------------------------------------------


@dataclass
class RoundResult:
    """What one round leaves behind for metrics, counters and checks.

    Engines are summarised as they finish (counters summed), so a round
    that builds forty engines does not keep forty hierarchies alive.
    """

    events: int = 0
    observations: list[TimingObservation] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    engine: Engine | None = None  # kept only by single-engine workloads
    extra: dict = field(default_factory=dict)

    def absorb(self, eng: Engine, events: int) -> None:
        """Add one finished engine's events, probes and counters."""
        self.events += events
        self.observations += eng.report.observations
        ctr = Counter(eng.report.counters)
        # report.counters only refreshes the NFB totals on a commit, so
        # read them from the buffer itself
        ctr["nfb_merged"] = eng.nfb.merged
        ctr["nfb_forced_out"] = eng.nfb.forced_out
        # WindowRegistry has no public size; closed windows stay in it
        ctr["windows_retained"] = len(eng.windows._windows)
        ctr["directory_entries"] = len(eng.directory.lines())
        self.counters.update(ctr)


def observation_hash(observations: list[TimingObservation]) -> str:
    h = hashlib.sha256()
    for o in observations:
        h.update(f"{o.thread} {o.addr:#x} {o.latency} {o.klass.value}\n".encode())
    return h.hexdigest()[:16]


def _run_text(text: str, cfg: SimConfig) -> tuple[Engine, int]:
    events = trace_mod.parse_trace(text)
    eng = Engine(cfg)
    eng.run(events)
    return eng, len(events)


# -- structural invariants (shared by the two mixes) -----------------------------


def invariant_errors(eng: Engine) -> list[str]:
    """Domain split, NFB drain, inclusion, sharer bits and single owner."""
    errors: list[str] = []
    cfg = eng.cfg
    for lv in (*eng.l1i, *eng.l1d, eng.l2):
        for si, cset in enumerate(lv.sets):
            n = cset.count(Domain.TEMPORARY)
            if n != lv.cap_t:
                errors.append(f"{lv.geometry.level_id.name} set {si}: {n} temporary ways, cap_t {lv.cap_t}")
                break
    if len(eng.nfb) != 0:
        errors.append(f"NFB holds {len(eng.nfb)} notifications at the end")
    writers: dict[int, set[int]] = defaultdict(set)
    for core in range(cfg.cores):
        for lv in (eng.l1i[core], eng.l1d[core]):
            for si, cset in enumerate(lv.sets):
                for meta in cset.ways:
                    if not meta.valid:
                        continue
                    line = lv.geometry.line_from(si, meta.tag)
                    if eng.l2.lookup(line) is None:
                        errors.append(f"core {core} L1 line {line:#x} not valid in L2")
                    if not eng.directory.sharers(line) >> core & 1:
                        errors.append(f"core {core} L1 line {line:#x} lacks its sharer bit")
                    if meta.coh_state in (CohState.EXCLUSIVE, CohState.MODIFIED):
                        writers[line].add(core)
    for line, cores in writers.items():
        if len(cores) > 1:
            errors.append(f"line {line:#x} held E/M by cores {sorted(cores)}")
    for line, state, owner, sharers in eng.directory.fingerprint():
        if state in ("E", "M") and (owner is None or sharers & ~(1 << owner)):
            errors.append(f"directory line {line:#x} {state} owner {owner} sharers {sharers:#b}")
    return errors[:10]


# -- spec-contended ----------------------------------------------------------------
#
# Four harts (2 cores x SMT 2) on the small geometry the fuzz gates use,
# so a few dozen lines already contend.  Twenty hot lines share one set
# at every level (more than the 16 L2 ways), which keeps the temporary
# domains full, owner masks contested and installs suspended.

CONTENDED_EVENTS = 30_000
CONTENDED_HOT = 20        # committed work, one set at every level
CONTENDED_SPEC_HOT = 8    # windows that squash, one set of their own
CONTENDED_SPREAD = 24
CONTENDED_FRESH = 256
SPEC_SET = 7              # L1D set (line % 8) that only squashing windows touch
HOT_BASE = 0x40000
SPEC_SPREAD_BASE = 0x60000
FRESH_BASE = 0x80000
SPEC_FRESH_BASE = 0xA0000


def contended_config(mode: str = "specbox") -> SimConfig:
    return SimConfig(
        mode=mode,
        cores=2,
        smt=2,
        l1i=LevelParams(4096, 4, 2),   # 16 sets
        l1d=LevelParams(4096, 8, 2),   # 8 sets
        l2=LevelParams(32768, 16, 3),  # 32 sets
    ).validate()


@dataclass
class _Win:
    wid: int
    thread: int
    doomed: bool  # squashes rather than commits
    touched: set[int] = field(default_factory=set)


def contended_traces(seed: int, count: int = CONTENDED_EVENTS) -> tuple[str, str]:
    """A mixed speculative trace and its twin.

    The twin differs only in the addresses that windows doomed to
    squash touch.  Those windows issue loads, fetches and TLB-miss
    loads, never stores, and only to lines of their own pool, which
    maps to sets (L1D set SPEC_SET and the L1I/L2 sets above it) that
    nothing committed touches; probes cover both pools.  A hart probes,
    and issues committed accesses, only while it has no doomed window
    open, and probes only lines its own open windows have not touched:
    a program's own later instructions are not an observer of its
    squashed speculation.  Each hart has at most one window open.
    CHANGES.md records, as FOUND lines, the mixes outside these rules
    whose twins diverge.
    """
    rng = random.Random(seed)
    cfg = contended_config()
    stride = math.lcm(cfg.l1d.num_sets, cfg.l2.num_sets, cfg.l1i.num_sets) * LINE_SIZE
    sets = cfg.l1d.num_sets

    def lines(base: int, n: int, spec: bool) -> list[int]:
        first = base // LINE_SIZE
        picked = [k for k in range(first, first + 2 * n * sets)
                  if (k % sets == SPEC_SET) is spec]
        return [k * LINE_SIZE for k in picked[:n]]

    hot = [HOT_BASE + i * stride for i in range(CONTENDED_HOT)]
    spec_hot = [HOT_BASE + SPEC_SET * LINE_SIZE + i * stride for i in range(CONTENDED_SPEC_HOT)]
    pool = hot + lines(HOT_BASE + LINE_SIZE, CONTENDED_SPREAD, False)
    spec_pool = spec_hot + lines(SPEC_SPREAD_BASE, CONTENDED_SPREAD, True)
    fresh = lines(FRESH_BASE, CONTENDED_FRESH, False)
    spec_fresh = lines(SPEC_FRESH_BASE, CONTENDED_FRESH, True)
    probe_pool = pool + spec_pool
    nthreads = cfg.num_threads
    left: list[str] = []
    right: list[str] = []
    open_wins: dict[int, _Win] = {}  # by thread
    next_wid = 1

    def both(line: str) -> None:
        left.append(line)
        right.append(line)

    def pick(warm: list[int], cold: list[int], p_cold: float) -> int:
        return rng.choice(cold if rng.random() < p_cold else warm)

    def close(w: _Win) -> None:
        both(f"{'SQUASH' if w.doomed else 'COMMIT'} t{w.thread} w{w.wid}")

    while len(left) < count:
        roll = rng.random()
        t = rng.randrange(nthreads)
        w = open_wins.get(t)
        if roll < 0.14:
            if w is None:
                w = open_wins[t] = _Win(next_wid, t, doomed=rng.random() < 0.45)
                next_wid += 1
                both(f"OPEN t{t} w{w.wid}")
        elif roll < 0.54:
            if w is None:
                continue
            r = rng.random()
            if w.doomed:
                op = "IFETCH" if r < 0.1 else "TLBMISS_LOAD" if r < 0.2 else "LOAD"
                for side in (left, right):
                    side.append(f"{op} t{t} {pick(spec_pool, spec_fresh, 0.2):#x} w{w.wid}")
                continue
            addr = pick(pool, fresh, 0.25)
            w.touched.add(addr)
            op = ("STORE" if r < 0.16 else "IFETCH" if r < 0.26 else "TLBMISS_LOAD" if r < 0.33
                  else "MGMT flush" if r < 0.37 else "LOAD")
            both(f"{op} t{t} {addr:#x} w{w.wid}")
        elif roll < 0.66:
            if w is not None:
                close(open_wins.pop(t))
        elif roll < 0.84:
            addr = rng.choice(probe_pool)
            if w is None or (not w.doomed and addr not in w.touched):
                both(f"MEASURE t{t} {addr:#x}")
        elif w is None or not w.doomed:
            addr = rng.choice(pool)
            r = rng.random()
            op = ("STORE" if r < 0.2 else "LOAD" if r < 0.8 else "MGMT flush" if r < 0.88
                  else "PREFETCH" if r < 0.94 else "MGMT prefetch" if r < 0.97 else None)
            both(f"{op} t{t} {addr:#x}" if op else "BARRIER")
    for w in open_wins.values():
        close(w)
    for addr in probe_pool:
        both(f"MEASURE t{rng.randrange(nthreads)} {addr:#x}")
    return "\n".join(left) + "\n", "\n".join(right) + "\n"


def contended_generate(seed: int) -> dict:
    main, twin = contended_traces(seed)
    return {"text": main, "twin": twin}


def contended_round(inputs: dict) -> RoundResult:
    res = RoundResult()
    eng, n = _run_text(inputs["text"], contended_config())
    res.absorb(eng, n)
    res.engine = eng
    return res


def contended_check(inputs: dict, res: RoundResult) -> list[str]:
    errors = invariant_errors(res.engine)
    twin, _ = _run_text(inputs["twin"], contended_config())
    if twin.report.observations != res.observations:
        errors.append("specbox: twin trace with different squashed addresses changed the observations")
    errors += squash_check_teeth(inputs)
    return errors


def squash_check_teeth(inputs: dict) -> list[str]:
    """The twin comparison must see the difference on the leaky hierarchy."""
    cfg = contended_config("baseline")
    a, _ = _run_text(inputs["text"], cfg)
    b, _ = _run_text(inputs["twin"], cfg)
    if a.report.observations == b.report.observations:
        return ["baseline: twin traces gave identical observations; the check has no teeth"]
    return []


# -- committed-stream ----------------------------------------------------------------
#
# Four cores, default geometry (2 MB L2), next-line prefetcher on.  Each
# core streams through its own 1 MB slice in steps of one or two lines,
# so the working set is twice the L2 and every stream access fills one
# or two lines (demand miss or prefetch): the L2 is full after about a
# third of the trace and its sets stay full.  A shared 64 KB pool takes
# a quarter of the accesses, so stores there shoot down other cores'
# copies and loads recall other cores' exclusive lines.

STREAM_EVENTS = 64_000
STREAM_CORES = 4
STREAM_BASE = 0x1000_0000
STREAM_SLICE_LINES = (1 << 20) // LINE_SIZE
SHARED_BASE = 0x0800_0000
SHARED_LINES = 1024


def stream_config() -> SimConfig:
    return SimConfig(mode="specbox", cores=STREAM_CORES, smt=1, prefetch=True).validate()


def stream_generate(seed: int, count: int = STREAM_EVENTS) -> dict:
    rng = random.Random(seed)
    lines: list[str] = []
    pos = [rng.randrange(STREAM_SLICE_LINES) for _ in range(STREAM_CORES)]
    tally = Counter()
    for _ in range(count):
        core = rng.randrange(STREAM_CORES)
        roll = rng.random()
        if roll < 0.05:
            addr = SHARED_BASE + rng.randrange(SHARED_LINES) * LINE_SIZE
            lines.append(f"MEASURE t{core} {addr:#x}")
            tally["probes"] += 1
            continue
        if roll < 0.30:
            addr = SHARED_BASE + rng.randrange(SHARED_LINES) * LINE_SIZE
        else:
            if rng.random() < 0.05:
                pos[core] = rng.randrange(STREAM_SLICE_LINES)
            else:
                pos[core] = (pos[core] + rng.choice((1, 2))) % STREAM_SLICE_LINES
            addr = STREAM_BASE + (core * STREAM_SLICE_LINES + pos[core]) * LINE_SIZE
        if rng.random() < 0.25:
            lines.append(f"STORE t{core} {addr:#x}")
            tally["stores"] += 1
        else:
            lines.append(f"LOAD t{core} {addr:#x}")
            tally["loads"] += 1
    return {"text": "\n".join(lines) + "\n", "tally": tally}


def stream_round(inputs: dict) -> RoundResult:
    res = RoundResult()
    eng, n = _run_text(inputs["text"], stream_config())
    res.absorb(eng, n)
    res.engine = eng
    return res


def probe_latency_errors(cfg: SimConfig, observations: list[TimingObservation]) -> list[str]:
    """Each probe costs L1, or L1 + bank, or L1 + bank + memory, where the
    bank is local when the line interleaves to the probing core; its
    class follows from the thresholds alone."""
    lat, th = cfg.latency, cfg.thresholds
    errors = []
    for o in observations:
        core = o.thread // cfg.smt
        bank = lat.l2_local if o.line % cfg.cores == core else lat.l2_remote
        sums = (lat.l1_hit, lat.l1_hit + bank, lat.l1_hit + bank + lat.memory)
        if o.latency not in sums:
            errors.append(f"probe {o.index}: latency {o.latency} not in {sums}")
        want = (
            LatencyClass.HIT if o.latency < th.hit_below
            else LatencyClass.MISS if o.latency > th.miss_above
            else LatencyClass.AMBIGUOUS
        )
        if o.klass is not want:
            errors.append(f"probe {o.index}: class {o.klass.value}, thresholds say {want.value}")
        if len(errors) >= 10:
            break
    return errors


def stream_check(inputs: dict, res: RoundResult) -> list[str]:
    errors = invariant_errors(res.engine)
    errors += probe_latency_errors(res.engine.cfg, res.observations)
    tally, ctr = inputs["tally"], res.counters
    # a probe held by the coherence delay replays as a committed access
    # when its one-shot window commits
    want = {
        "committed_accesses": tally["loads"] + tally["stores"] + ctr["delayed_completed"],
        "measures": tally["probes"],
        "windows_committed": tally["probes"],
        "inflight_accesses": tally["probes"] - ctr["delayed_coherence"],
        "delayed_completed": ctr["delayed_coherence"],
    }
    for key, value in want.items():
        if ctr[key] != value:
            errors.append(f"counter {key} = {ctr[key]}, generator expects {value}")
    if len(res.observations) != tally["probes"]:
        errors.append(f"{len(res.observations)} observations for {tally['probes']} probes")
    return errors


# -- attack-suite ----------------------------------------------------------------------
#
# The work the c2/c3 gates do: every scenario under both modes, the
# 100-repetition proof of concept under both modes, and one more
# protected run with a second secret.  Each run builds fresh engines
# with the default 2 MB L2.  The seed picks the two secrets.

POC_REPS = 100


def attack_config() -> SimConfig:
    return attacks.scenario_config(attacks.scenario_names()[0], "baseline")


def attack_generate(seed: int) -> dict:
    rng = random.Random(seed)
    secret = rng.randrange(attacks.PROBE_LINES)
    other = (secret + 1 + rng.randrange(attacks.PROBE_LINES - 1)) % attacks.PROBE_LINES
    return {"secret": secret, "other": other}


def _attack_pair(res: RoundResult, name: str, mode: str, reps: int, secret: int):
    cfg = attacks.scenario_config(name, mode)
    obs = {}
    for bit in (0, 1):
        events = attacks.build_trace(name, bit, cfg, reps=reps, secret=secret)
        eng = Engine(cfg)
        eng.run(events)
        res.absorb(eng, len(events))
        obs[bit] = eng.report.observations
    return attacks.analyze(obs[0], obs[1]), obs


def attack_round(inputs: dict) -> RoundResult:
    res = RoundResult()
    secret = inputs["secret"]
    verdicts = {}
    for name in attacks.scenario_names():
        for mode in ("baseline", "specbox"):
            verdicts[(name, mode, 1)], _ = _attack_pair(res, name, mode, 1, secret)
    poc = {}
    for mode in ("baseline", "specbox"):
        verdicts[("poc", mode, POC_REPS)], poc[mode] = _attack_pair(res, "poc", mode, POC_REPS, secret)
    cfg = attacks.scenario_config("poc", "specbox")
    events = attacks.build_trace("poc", 1, cfg, reps=POC_REPS, secret=inputs["other"])
    eng = Engine(cfg)
    eng.run(events)
    res.absorb(eng, len(events))
    res.extra = {"verdicts": verdicts, "poc": poc, "other": eng.report.observations}
    return res


def attack_check(inputs: dict, res: RoundResult) -> list[str]:
    errors = []
    for (name, mode, reps), verdict in res.extra["verdicts"].items():
        if verdict.leak is not attacks.EXPECTED_LEAK[mode]:
            errors.append(f"{name} x{reps} under {mode}: leak={verdict.leak}")
    hot = attacks.PROBE_BASE + inputs["secret"] * LINE_SIZE
    base = res.extra["poc"]["baseline"][1]
    hits = {o.addr for o in base if o.klass is LatencyClass.HIT}
    if hits != {hot}:
        errors.append(f"baseline poc: hit lines {sorted(hits)}, expected only {hot:#x}")
    if sum(1 for o in base if o.klass is LatencyClass.HIT) != POC_REPS:
        errors.append("baseline poc: the secret line is not hot in every repetition")
    prot = res.extra["poc"]["specbox"][1]
    if any(o.klass is not LatencyClass.MISS for o in prot):
        errors.append("specbox poc: a probe did not miss")
    if prot != res.extra["other"]:
        errors.append("specbox poc: observations depend on the secret")
    return errors


@dataclass(frozen=True)
class Workload:
    config: object
    generate: object
    run_round: object
    check: object


WORKLOADS = {
    "spec-contended": Workload(contended_config, contended_generate, contended_round, contended_check),
    "committed-stream": Workload(stream_config, stream_generate, stream_round, stream_check),
    "attack-suite": Workload(attack_config, attack_generate, attack_round, attack_check),
}
