"""Smoke tests for the command-line front end."""

from __future__ import annotations

import dataclasses

import pytest

from specsim.cli import main, run_walkthrough
from specsim.config import (
    ConfigError, LatencyParams, LevelParams, SimConfig, ThresholdParams, load_config,
)


def test_replay_walkthrough_passes(capsys):
    assert main(["replay-fig2"]) == 0
    out = capsys.readouterr().out
    assert "walkthrough PASSED" in out
    assert "re-install count: 1" in out


def test_run_walkthrough_states_match():
    results, reinstalls = run_walkthrough()
    assert len(results) == 6
    for name, match, got, expected in results:
        assert match, f"{name}: {got} != {expected}"
    assert reinstalls == 1


def test_run_command_reports_observations(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("LOAD t0 0x1000\nMEASURE t0 0x1000\nMEASURE t1 0x1000\n")
    assert main(["run", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "probe[0]" in out
    assert "(Hit)" in out


def test_attack_check_single_scenario(capsys):
    assert main(["attack", "table1:1", "--check"]) == 0
    out = capsys.readouterr().out
    assert "LEAK" in out
    assert "no leak" in out


def test_poc_recovers_byte_in_baseline_only(capsys):
    assert main(["poc", "--secret", "113"]) == 0
    out = capsys.readouterr().out
    assert "baseline: recovered secret byte 113" in out
    assert "specbox : no signal" in out


def test_sweep_shows_capacity_threshold(capsys):
    assert main(["sweep", "--scenario", "table1:1", "--level", "l2", "--caps", "0,2"]) == 0
    out = capsys.readouterr().out
    assert "cap_t=0: LEAK" in out
    assert "cap_t=2: no leak" in out


def test_bad_trace_file_reports_error(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("FROB t0 0x1000\n")
    assert main(["run", str(trace)]) == 1
    assert "error" in capsys.readouterr().err


def test_rejected_event_names_its_trace_line(tmp_path, capsys):
    trace = tmp_path / "steal.trace"
    trace.write_text(
        "OPEN t0 w1\n"
        "LOAD t0 0x1000 w1\n"
        "# t1 tries to commit t0's window\n"
        "COMMIT t1 w1\n"
    )
    assert main(["run", str(trace)]) == 1
    captured = capsys.readouterr()
    # the fourth line of the file, not the third event
    assert captured.err == "error: line 4: window 1 belongs to thread 0, not 1\n"
    assert captured.out == ""


@pytest.mark.parametrize("option", ["cores", "smt"])
def test_zero_core_or_thread_override_is_rejected(tmp_path, capsys, option):
    trace = tmp_path / "t.trace"
    trace.write_text("MEASURE t0 0x1000\n")
    assert main(["run", str(trace), f"--{option}", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {option} must be >= 1\n"
    assert captured.out == ""


def test_zero_ways_is_a_config_error_not_a_crash(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^l2: need at least 2 ways$"):
        LevelParams(1024, 0, 0).validate("l2")
    ini = tmp_path / "zero.ini"
    ini.write_text("[l2]\nways = 0\n")
    trace = tmp_path / "t.trace"
    trace.write_text("MEASURE t0 0x1000\n")
    assert main(["run", str(trace), "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: l2: need at least 2 ways\n"
    assert captured.out == ""


FULL_INI = """\
[sim]
mode = baseline
cores = 4
smt = 2
nfb_capacity = 8
tos = off
prefetch = yes

[l1i]
size_kb = 16
ways = 2
cap_t = 1

[l1d]
size_kb = 32
ways = 4
cap_t = 3

[l2]
size_kb = 1024
ways = 8
cap_t = 5

[latency]
l1_hit = 2
l2_local = 9
l2_remote = 18
memory = 300

[thresholds]
hit_below = 40
miss_above = 160
"""


def _leaves(cfg) -> dict:
    """Every scalar field of a config, keyed by its path."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out.update({f"{f.name}.{k}": v for k, v in _leaves(value).items()})
        else:
            out[f.name] = value
    return out


def test_ini_setting_every_key_loads_the_config_it_names(tmp_path):
    expected = SimConfig(
        mode="baseline", cores=4, smt=2,
        l1i=LevelParams(16 * 1024, 2, 1),
        l1d=LevelParams(32 * 1024, 4, 3),
        l2=LevelParams(1024 * 1024, 8, 5),
        latency=LatencyParams(l1_hit=2, l2_local=9, l2_remote=18, memory=300),
        thresholds=ThresholdParams(hit_below=40, miss_above=160),
        nfb_capacity=8, tos=False, prefetch=True,
    )
    # the file sets every key: no field keeps its default
    defaults = _leaves(SimConfig())
    assert sorted(k for k, v in _leaves(expected).items() if v == defaults[k]) == []
    ini = tmp_path / "full.ini"
    ini.write_text(FULL_INI)
    assert load_config(str(ini)) == expected


@pytest.mark.parametrize("section, key, raw", [("l2", "ways", "abc"), ("l1d", "size_kb", "1.5")])
def test_non_integer_level_value_is_a_config_error(tmp_path, capsys, section, key, raw):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {raw}\n")
    trace = tmp_path / "t.trace"
    trace.write_text("MEASURE t0 0x1000\n")
    assert main(["run", str(trace), "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {section}: bad value for {key}: {raw!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("[sim]\njunk = 3\n", "sim: unknown key 'junk'"),
    ("[l2]\nway = 4\n", "l2: unknown key 'way'"),
    ("[l2]\nways = 4\n[l3]\nways = 4\n", "l3: unknown section"),
    ("[l3]\n", "l3: unknown section"),
], ids=["sim-key", "level-key", "section", "empty-section"])
def test_unknown_ini_section_or_key_is_a_config_error(tmp_path, capsys, text, message):
    """A misspelt key or section is an error line, not a silent default."""
    ini = tmp_path / "typo.ini"
    ini.write_text(text)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_config(str(ini))
    trace = tmp_path / "t.trace"
    trace.write_text("MEASURE t0 0x1000\n")
    assert main(["run", str(trace), "--config", str(ini)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_ini_default_keys_are_not_unknown_where_inherited(tmp_path):
    """configparser copies `[DEFAULT]` keys into every section: a level
    key there sets the level, and `[sim]` or `[latency]` do not reject it."""
    ini = tmp_path / "default.ini"
    ini.write_text("[DEFAULT]\nways = 4\n[sim]\ncores = 3\n[l2]\ncap_t = 1\n"
                   "[latency]\nmemory = 250\n")
    cfg = load_config(str(ini))
    assert (cfg.cores, cfg.latency.memory) == (3, 250)
    assert (cfg.l2.ways, cfg.l2.cap_t) == (4, 1)


@pytest.mark.parametrize("argv, message", [
    (["poc", "--secret", "300"], "error: secret 300 out of range 0..255\n"),
    (["poc", "--secret", "256"], "error: secret 256 out of range 0..255\n"),
    (["poc", "--secret", "-1"], "error: secret -1 out of range 0..255\n"),
    (["attack", "poc", "--secret", "-1"], "error: secret -1 out of range 0..255\n"),
    # checked before any scenario runs, whether or not it uses the secret
    (["attack", "all", "--secret", "256"], "error: secret 256 out of range 0..255\n"),
    (["attack", "all", "--secret", "-1"], "error: secret -1 out of range 0..255\n"),
    (["attack", "table1:1", "--secret", "256"], "error: secret 256 out of range 0..255\n"),
    (["sweep", "--caps", "1,x"], "error: --caps takes comma-separated integers, got '1,x'\n"),
    # every cap is checked before the first verdict prints
    (["sweep", "--caps", "0,16"], "error: l2: cap_t 16 must be in [0, ways)\n"),
    (["sweep", "--level", "l1i", "--caps", "1,4"], "error: l1i: cap_t 4 must be in [0, ways)\n"),
], ids=["poc-secret", "poc-secret-256", "poc-secret-neg", "attack-secret", "attack-all-secret-256",
        "attack-all-secret-neg", "attack-one-secret-256", "sweep-caps", "sweep-cap-l2", "sweep-cap-l1i"])
def test_bad_argument_is_an_error_line_not_a_traceback(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


@pytest.mark.parametrize("reps", ["0", "-1"])
@pytest.mark.parametrize("argv", [["poc"], ["attack", "table1:1"], ["sweep"]], ids=["poc", "attack", "sweep"])
def test_reps_below_one_is_an_error_line(capsys, argv, reps):
    assert main(argv + ["--reps", reps]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: reps must be at least 1, got {reps}\n"
    assert captured.out == ""
