"""Command-line front end.

Subcommands:

  run          simulate a trace file and print timing observations
  attack       run covert-channel scenarios and report leak verdicts
  poc          end-to-end secret-byte recovery demo
  replay-fig2  six-step single-set walkthrough of the domain machinery
  sweep        vary a level's temporary capacity and re-check a scenario
"""

from __future__ import annotations

import argparse
import sys

from .attacks import (
    EXPECTED_LEAK,
    PROBE_BASE,
    InvalidLine,
    ScenarioResult,
    check_secret,
    run_scenario,
    scenario_config,
    scenario_names,
)
from .cache import LINE_SIZE, CacheGeometry, Domain, LevelId
from .config import ConfigError, LevelParams, SimConfig, load_config
from .domains import AccessOutcome, CacheLevel
from .engine import Engine, LatencyClass
from .notifier import UnknownWindow, WindowClosed
from .trace import TraceParseError, parse_event


# -- the single-set walkthrough -------------------------------------------
#
# One 8-way set with two temporary ways (6 and 7).  Three speculative
# loads contend for the temporary ways, then one line commits from
# outside the cache, one commits in place, and one squashes.  The
# expected way-by-way state after each step pins down victim order,
# promotion relabeling and squash behaviour exactly.

_P, _T = Domain.PERSISTENT.value, Domain.TEMPORARY.value

WALKTHROUGH_STEPS = [
    ("load A (speculative)", [(_P, None)] * 6 + [(_T, 0), (_T, None)]),
    ("load B (speculative)", [(_P, None)] * 6 + [(_T, 0), (_T, 1)]),
    ("load C evicts A (oldest install)", [(_P, None)] * 6 + [(_T, 2), (_T, 1)]),
    ("commit A (absent: re-install)", [(_P, 0)] + [(_P, None)] * 5 + [(_T, 2), (_T, 1)]),
    ("commit B (promote, way 1 relabeled)", [(_P, 0), (_T, None)] + [(_P, None)] * 4 + [(_T, 2), (_P, 1)]),
    ("squash C (invalidate, label stays)", [(_P, 0), (_T, None)] + [(_P, None)] * 4 + [(_T, None), (_P, 1)]),
]


def _set_state(level: CacheLevel) -> list[tuple[str, int | None]]:
    return [
        (m.domain.value, m.tag if m.valid else None) for m in level.sets[0].ways
    ]


def run_walkthrough() -> tuple[list[tuple[str, bool, list, list]], int]:
    """Drive the walkthrough; returns (per-step results, reinstall count)."""
    geom = CacheGeometry(LevelId.L1D, num_sets=1, ways=8)
    level = CacheLevel(geom, cap_t=2, num_threads=1)
    a, b, c = 0, 1, 2
    reinstalls = 0
    results = []

    def check(name: str, expected) -> None:
        got = _set_state(level)
        results.append((name, got == expected, got, expected))

    level.access_inflight(a, 0)
    check(WALKTHROUGH_STEPS[0][0], WALKTHROUGH_STEPS[0][1])
    level.access_inflight(b, 0)
    check(WALKTHROUGH_STEPS[1][0], WALKTHROUGH_STEPS[1][1])
    level.access_inflight(c, 0)
    check(WALKTHROUGH_STEPS[2][0], WALKTHROUGH_STEPS[2][1])
    if level.apply_commit(a) is AccessOutcome.MISS_INSTALLED:
        reinstalls += 1
    check(WALKTHROUGH_STEPS[3][0], WALKTHROUGH_STEPS[3][1])
    if level.apply_commit(b) is AccessOutcome.MISS_INSTALLED:
        reinstalls += 1
    check(WALKTHROUGH_STEPS[4][0], WALKTHROUGH_STEPS[4][1])
    level.apply_squash(c, 0)
    check(WALKTHROUGH_STEPS[5][0], WALKTHROUGH_STEPS[5][1])
    return results, reinstalls


def _cmd_replay(args) -> int:
    results, reinstalls = run_walkthrough()
    ok = True
    for name, match, got, expected in results:
        ok &= match
        status = "ok" if match else "MISMATCH"
        print(f"[{status}] {name}")
        print(f"    state: {_fmt_ways(got)}")
        if not match:
            print(f" expected: {_fmt_ways(expected)}")
    print(f"re-install count: {reinstalls} (expected 1)")
    ok &= reinstalls == 1
    print("walkthrough " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def _fmt_ways(state) -> str:
    cells = []
    for i, (dom, tag) in enumerate(state):
        content = "-" if tag is None else f"L{tag}"
        cells.append(f"w{i}:{dom}/{content}")
    return " ".join(cells)


# -- run ------------------------------------------------------------------


def _build_config(args) -> SimConfig:
    cfg = load_config(args.config) if args.config else SimConfig()
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    # 0 is a value to validate, not an absent option
    if args.cores is not None:
        overrides["cores"] = args.cores
    if args.smt is not None:
        overrides["smt"] = args.smt
    if args.no_tos:
        overrides["tos"] = False
    if args.prefetch:
        overrides["prefetch"] = True
    return cfg.replaced(**overrides) if overrides else cfg.validate()


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    try:
        with open(args.trace) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    engine = Engine(cfg)
    # step line by line, so an event the engine rejects names its line
    for lineno, line in enumerate(text.splitlines(), start=1):
        ev = parse_event(line, lineno)
        if ev is None:
            continue
        try:
            engine.step(ev)
        except (ValueError, UnknownWindow, WindowClosed) as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            return 1
    report = engine.report
    if not args.quiet:
        for o in report.observations:
            print(
                f"probe[{o.index}] t{o.thread} {o.addr:#x} -> "
                f"{o.latency} cycles ({o.klass.value})"
            )
    print(report.summary())
    return 0


# -- attack / poc ----------------------------------------------------------


def _print_result(res: ScenarioResult, verbose: bool) -> None:
    flag = "LEAK" if res.verdict.leak else "no leak"
    print(f"{res.name:<16} mode={res.mode:<8} {flag}")
    if verbose or res.verdict.leak:
        for line in res.verdict.evidence[:8]:
            print(f"    {line}")
        extra = len(res.verdict.evidence) - 8
        if extra > 0:
            print(f"    ... and {extra} more differing probes")


def _cmd_attack(args) -> int:
    check_secret(args.secret)  # before any scenario prints its verdict
    names = scenario_names() if args.scenario == "all" else [args.scenario]
    modes = ("baseline", "specbox") if args.mode == "both" else (args.mode,)
    ok = True
    for name in names:
        for mode in modes:
            res = run_scenario(name, mode, reps=args.reps, secret=args.secret)
            _print_result(res, args.verbose)
            if args.check and res.verdict.leak != EXPECTED_LEAK[mode]:
                ok = False
                print(f"    UNEXPECTED: wanted leak={EXPECTED_LEAK[mode]} in {mode}")
    return 0 if ok else 1


def _recovered_bytes(res: ScenarioResult) -> list[int]:
    hot = set()
    for o in res.reports[1].observations:
        if o.klass is LatencyClass.HIT:
            hot.add((o.addr - PROBE_BASE) // LINE_SIZE)
    return sorted(hot)


def _cmd_poc(args) -> int:
    check_secret(args.secret)  # before any mode prints its result
    for mode in ("baseline", "specbox"):
        res = run_scenario("poc", mode, reps=args.reps, secret=args.secret)
        hot = _recovered_bytes(res)
        if len(hot) == 1:
            print(f"{mode:<8}: recovered secret byte {hot[0]} ({hot[0]:#04x})")
        elif hot:
            print(f"{mode:<8}: ambiguous signal, {len(hot)} hot lines: {hot}")
        else:
            print(f"{mode:<8}: no signal (0 hot lines)")
    return 0


# -- sweep -----------------------------------------------------------------


def _cmd_sweep(args) -> int:
    try:
        caps = [int(c) for c in args.caps.split(",")]
    except ValueError:
        print(f"error: --caps takes comma-separated integers, got {args.caps!r}", file=sys.stderr)
        return 1
    base = scenario_config(args.scenario, "specbox")
    params = getattr(base, args.level)
    # every cap is validated before any scenario prints its verdict
    cfgs = [base.replaced(**{args.level: LevelParams(params.size_bytes, params.ways, cap)})
            for cap in caps]
    for cap, cfg in zip(caps, cfgs):
        res = run_scenario(args.scenario, "specbox", reps=args.reps, cfg=cfg)
        flag = "LEAK" if res.verdict.leak else "no leak"
        print(f"{args.level} cap_t={cap}: {flag}")
    return 0


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="specsim",
        description="trace-driven simulator for speculation-transparent caches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a trace file")
    p_run.add_argument("trace", help="trace file (see the trace module for the grammar)")
    p_run.add_argument("--config", help="INI config file")
    p_run.add_argument("--mode", choices=("baseline", "specbox"))
    p_run.add_argument("--cores", type=int)
    p_run.add_argument("--smt", type=int)
    p_run.add_argument("--no-tos", action="store_true", help="disable ownership protection")
    p_run.add_argument("--prefetch", action="store_true", help="enable next-line prefetcher")
    p_run.add_argument("--quiet", action="store_true", help="summary only")
    p_run.set_defaults(func=_cmd_run)

    p_att = sub.add_parser("attack", help="run covert-channel scenarios")
    p_att.add_argument(
        "scenario",
        choices=scenario_names() + ["all"],
        help="scenario name, or 'all'",
    )
    p_att.add_argument("--mode", choices=("baseline", "specbox", "both"), default="both")
    p_att.add_argument("--reps", type=int, default=1)
    p_att.add_argument("--secret", type=int, default=79)
    p_att.add_argument("--verbose", action="store_true", help="print all evidence")
    p_att.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless baseline leaks and specbox does not",
    )
    p_att.set_defaults(func=_cmd_attack)

    p_poc = sub.add_parser("poc", help="secret-byte recovery demo")
    p_poc.add_argument("--reps", type=int, default=1)
    p_poc.add_argument("--secret", type=int, default=79)
    p_poc.set_defaults(func=_cmd_poc)

    p_rep = sub.add_parser("replay-fig2", help="single-set domain walkthrough")
    p_rep.set_defaults(func=_cmd_replay)

    p_sw = sub.add_parser("sweep", help="temporary-capacity sweep")
    p_sw.add_argument("--scenario", default="table1:2", choices=scenario_names())
    p_sw.add_argument("--level", default="l2", choices=("l1i", "l1d", "l2"))
    p_sw.add_argument("--caps", default="0,1,2,3")
    p_sw.add_argument("--reps", type=int, default=1)
    p_sw.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceParseError, InvalidLine, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
