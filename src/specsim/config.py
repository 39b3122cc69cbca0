"""Simulation parameters and the INI loader.

Defaults model a small CMP: per-core 32KB/4-way L1I and 64KB/8-way L1D,
a shared banked 2MB/16-way L2 with an inclusive directory, 64B lines.
Temporary-domain capacities default to 2/2/3 ways.  Latencies are flat
per level; a full miss to memory lands far above the miss threshold
and an L1/L2 hit far below it, leaving a wide ambiguous band in
between so classification is robust to small perturbations.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field

from .cache import LINE_SIZE


class ConfigError(Exception):
    pass


MODES = ("specbox", "baseline")


@dataclass(frozen=True)
class LevelParams:
    size_bytes: int
    ways: int
    cap_t: int

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * LINE_SIZE)

    def validate(self, name: str) -> None:
        # ways first: the size check divides by it
        if self.ways < 2:
            raise ConfigError(f"{name}: need at least 2 ways")
        if self.size_bytes <= 0 or self.size_bytes % (self.ways * LINE_SIZE):
            raise ConfigError(f"{name}: size {self.size_bytes} not a multiple of ways*line")
        sets = self.num_sets
        if sets & (sets - 1):
            raise ConfigError(f"{name}: num_sets {sets} must be a power of two")
        if not 0 <= self.cap_t < self.ways:
            raise ConfigError(f"{name}: cap_t {self.cap_t} must be in [0, ways)")


@dataclass(frozen=True)
class LatencyParams:
    l1_hit: int = 1
    l2_local: int = 8
    l2_remote: int = 16
    memory: int = 200


@dataclass(frozen=True)
class ThresholdParams:
    hit_below: int = 50
    miss_above: int = 150


@dataclass(frozen=True)
class SimConfig:
    mode: str = "specbox"
    cores: int = 2
    smt: int = 1
    l1i: LevelParams = LevelParams(32 * 1024, 4, 2)
    l1d: LevelParams = LevelParams(64 * 1024, 8, 2)
    l2: LevelParams = LevelParams(2 * 1024 * 1024, 16, 3)
    latency: LatencyParams = field(default_factory=LatencyParams)
    thresholds: ThresholdParams = field(default_factory=ThresholdParams)
    nfb_capacity: int = 16
    tos: bool = True
    prefetch: bool = False

    @property
    def num_threads(self) -> int:
        return self.cores * self.smt

    @property
    def protected(self) -> bool:
        return self.mode == "specbox"

    def validate(self) -> "SimConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.cores < 1:
            raise ConfigError("cores must be >= 1")
        if self.smt < 1:
            raise ConfigError("smt must be >= 1")
        if self.nfb_capacity < 0:
            raise ConfigError("nfb_capacity must be >= 0")
        for name in ("l1i", "l1d", "l2"):
            getattr(self, name).validate(name)
        th = self.thresholds
        if not 0 < th.hit_below <= th.miss_above:
            raise ConfigError("thresholds: need 0 < hit_below <= miss_above")
        return self

    def replaced(self, **kwargs) -> "SimConfig":
        return dataclasses.replace(self, **kwargs).validate()


def _get(section, key: str, default, conv):
    """`section[key]` converted by `conv`, or `default` if the key is absent."""
    if key not in section:
        return default
    raw = section[key]
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"{section.name}: bad value for {key}: {raw!r}") from exc


def _bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _level_from_ini(cp: configparser.ConfigParser, section: str, base: LevelParams) -> LevelParams:
    if not cp.has_section(section):
        return base
    sec = cp[section]
    return LevelParams(
        size_bytes=_get(sec, "size_kb", base.size_bytes // 1024, int) * 1024,
        ways=_get(sec, "ways", base.ways, int),
        cap_t=_get(sec, "cap_t", base.cap_t, int),
    )


def load_config(path: str) -> SimConfig:
    """Read an INI config file; unspecified keys keep their defaults."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    base = SimConfig()
    sim = cp["sim"] if cp.has_section("sim") else {}
    lat = cp["latency"] if cp.has_section("latency") else {}
    th = cp["thresholds"] if cp.has_section("thresholds") else {}

    cfg = SimConfig(
        mode=_get(sim, "mode", base.mode, str),
        cores=_get(sim, "cores", base.cores, int),
        smt=_get(sim, "smt", base.smt, int),
        l1i=_level_from_ini(cp, "l1i", base.l1i),
        l1d=_level_from_ini(cp, "l1d", base.l1d),
        l2=_level_from_ini(cp, "l2", base.l2),
        latency=LatencyParams(
            l1_hit=_get(lat, "l1_hit", base.latency.l1_hit, int),
            l2_local=_get(lat, "l2_local", base.latency.l2_local, int),
            l2_remote=_get(lat, "l2_remote", base.latency.l2_remote, int),
            memory=_get(lat, "memory", base.latency.memory, int),
        ),
        thresholds=ThresholdParams(
            hit_below=_get(th, "hit_below", base.thresholds.hit_below, int),
            miss_above=_get(th, "miss_above", base.thresholds.miss_above, int),
        ),
        nfb_capacity=_get(sim, "nfb_capacity", base.nfb_capacity, int),
        tos=_get(sim, "tos", base.tos, _bool),
        prefetch=_get(sim, "prefetch", base.prefetch, _bool),
    )
    return cfg.validate()
