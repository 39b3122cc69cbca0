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


def _bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


# a key's value is converted by the type of its field's default
_CONVERT = {bool: _bool, int: int, str: str}


def _from_ini(cp: configparser.ConfigParser, name: str, base):
    """`base` with every field that section `name` sets, which is then
    removed from `cp`.  A field that holds parameters of its own reads
    the section of its name, and `size_bytes` is set in kilobytes as
    `size_kb`.  A key that no field reads is an error, unless it comes
    from `[DEFAULT]`, which every section inherits."""
    sec = cp[name] if cp.has_section(name) else {}
    unknown = set(sec).difference(cp.defaults())
    values = {}
    for f in dataclasses.fields(base):
        default = getattr(base, f.name)
        if dataclasses.is_dataclass(default):
            values[f.name] = _from_ini(cp, f.name, default)
            continue
        key = "size_kb" if f.name == "size_bytes" else f.name
        unknown.discard(key)
        if key not in sec:
            continue
        raw = sec[key]
        try:
            value = _CONVERT[type(default)](raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: bad value for {key}: {raw!r}") from exc
        values[f.name] = value * 1024 if key == "size_kb" else value
    if unknown:
        raise ConfigError(f"{name}: unknown key {min(unknown)!r}")
    cp.remove_section(name)
    return dataclasses.replace(base, **values)


def load_config(path: str) -> SimConfig:
    """Read an INI config file; unspecified keys keep their defaults.
    `[sim]` holds SimConfig's own fields, and each parameter group
    (`[l1i]`, `[l1d]`, `[l2]`, `[latency]`, `[thresholds]`) its own; a
    misspelt section or key is an error, not a silent default."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    cfg = _from_ini(cp, "sim", SimConfig())
    stray = cp.sections()  # _from_ini removed every section it read
    if stray:
        raise ConfigError(f"{stray[0]}: unknown section")
    return cfg.validate()
