"""Experiment configuration: defaults, JSON loading, full-report validation.

Every number must be a JSON number, an `int` or a `float` as `json.loads`
yields them, so that a valid config always serializes in `config_digest`.
Task constants, weights and the committee size are then checked by
building `TaskParams`, `WeightConfig` and `ConsensusConfig` from them, and
each `ValueError` becomes one diagnostic prefixed by its key; this module
states only the rules no parameter type owns. The CLI's `--seed` and
`--trace` replace their keys before the check, so a flag fails as its key
does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

from .._numbers import index
from ..consensus import ConsensusConfig
from .._task import TaskParams
from ..reputation import WeightConfig

__all__ = [
    "ConsensusBlock",
    "ExperimentConfig",
    "ConfigError",
    "validate_config",
    "config_digest",
]

# the config keys that TaskParams takes, under the same names
_TASK_FIELDS = tuple(f.name for f in dataclasses.fields(TaskParams))
# the WeightConfig fields that each list key spells out, in order
_WEIGHT_FIELDS = {"gammas": ("gamma1", "gamma2", "gamma3"), "alphas": ("alpha1", "alpha2")}


class ConfigError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class ConsensusBlock:
    n: int = ConsensusConfig.n
    l: int = ConsensusConfig.l
    threshold: float = 0.45
    slots: int = 15


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    # task and incentive parameters
    n_types: int = 7
    f_local: float = TaskParams.f_local
    kappa: float = TaskParams.kappa
    s_bits: float = TaskParams.s_bits
    r_bps: float | tuple[float, ...] = TaskParams.r_bps
    eps_cap: float = TaskParams.eps_cap
    rho: float = TaskParams.rho
    e_price: float = TaskParams.e_price
    f_max: float = TaskParams.f_max
    # reputation weighting
    gammas: tuple[float, float, float] = (WeightConfig.gamma1, WeightConfig.gamma2,
                                          WeightConfig.gamma3)
    alphas: tuple[float, float] = (WeightConfig.alpha1, WeightConfig.alpha2)
    # simulated population
    misbehaving: int = 10
    population: int = 50
    arrivals: int = 100_000
    profile_hour: int = 9
    collusion_seeds: int = 100
    consensus: ConsensusBlock = field(default_factory=ConsensusBlock)
    trace_path: str | None = None

    def task_params(self) -> TaskParams:
        return TaskParams(**{name: getattr(self, name) for name in _TASK_FIELDS})

    def weight_config(self) -> WeightConfig:
        return WeightConfig(*self.gammas, *self.alphas)


_TOP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_CONSENSUS_KEYS = {f.name for f in dataclasses.fields(ConsensusBlock)}


def validate_config(path: str | None, **overrides) -> ExperimentConfig:
    """Parse and range-check a JSON config file, with `overrides` replacing
    its keys before the check.

    A missing path or an empty file yields the defaults. Raises
    ConfigError listing every violation found.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError([f"cannot read config: {exc}"]) from None
        if text.strip():
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError([f"config is not valid JSON: {exc}"]) from None
            if not isinstance(raw, dict):
                raise ConfigError(["config root must be a JSON object"])
    return _build({**raw, **overrides})


def _build(raw: dict) -> ExperimentConfig:
    problems = [f"unknown key {key!r}" for key in sorted(set(raw) - _TOP_KEYS)]
    # every JSON list becomes the tuple its field declares, so that a valid
    # config is hashable and TaskParams takes its per-type rates as they are
    fields = {k: tuple(v) if isinstance(v, list) else v
              for k, v in raw.items() if k in _TOP_KEYS}
    cons_raw = fields.pop("consensus", {})
    if not isinstance(cons_raw, dict):
        problems.append("consensus must be an object")
        cons_raw = {}
    problems += [f"unknown consensus key {key!r}"
                 for key in sorted(set(cons_raw) - _CONSENSUS_KEYS)]
    consensus = ConsensusBlock(**{k: v for k, v in cons_raw.items() if k in _CONSENSUS_KEYS})
    cfg = ExperimentConfig(consensus=consensus, **fields)

    problems += _check_ranges(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def _is_int(value) -> bool:
    # a JSON integer, not the wider whole-number rule: every value must
    # serialize in config_digest, which a numpy int does not, and a bool
    # (true/false) is never a count
    return type(value) is int


def _is_number(value) -> bool:
    # a JSON number, not the wider real rule, for the same reasons; its
    # range and finiteness are checked by the rule of its key
    return type(value) is int or type(value) is float


def _check_ranges(cfg: ExperimentConfig) -> list[str]:
    out: list[str] = []

    def build(key: str, make, *args, **kwargs) -> None:
        try:
            make(*args, **kwargs)
        except ValueError as exc:
            out.append(f"{key}: {exc}")

    def numbers(key: str, *values) -> bool:
        bad = [value for value in values if not _is_number(value)]
        if bad:
            out.append(f"{key}: {bad[0]!r} is not a JSON number")
        return not bad

    def at_least(name: str, value, low: int) -> None:
        if not _is_int(value) or value < low:
            out.append(f"{name} must be an integer >= {low} (got {value!r})")

    def loop_count(name: str, value) -> None:
        # a count that sizes a loop must also fit an index, as the layers require
        if not (_is_int(value) and value >= 1 and index(value)):
            out.append(f"{name} must be an integer >= 1 that fits an index, at most "
                       f"sys.maxsize (got {value!r})")

    at_least("n_types", cfg.n_types, 2)
    loop_count("arrivals", cfg.arrivals)
    at_least("population", cfg.population, 1)
    loop_count("collusion_seeds", cfg.collusion_seeds)
    if not _is_int(cfg.seed) or not 0 <= cfg.seed < 2**64:
        out.append(f"seed must be an unsigned 64-bit integer (got {cfg.seed!r})")
    if not (_is_int(cfg.misbehaving) and index(cfg.misbehaving)):
        # it sizes the list of misbehaving names, so it must fit an index too
        out.append(f"misbehaving must be an integer >= 0 that fits an index, at most "
                   f"sys.maxsize (got {cfg.misbehaving!r})")
    elif _is_int(cfg.population) and cfg.misbehaving > cfg.population:
        out.append("misbehaving cannot exceed population")
    if not _is_int(cfg.profile_hour) or not 0 <= cfg.profile_hour <= 23:
        out.append(f"profile_hour must be an integer in 0..23 (got {cfg.profile_hour!r})")

    for name in _TASK_FIELDS:
        if name != "r_bps" and numbers(name, getattr(cfg, name)):
            build(name, TaskParams, **{name: getattr(cfg, name)})
    if isinstance(cfg.r_bps, tuple):
        for i, rate in enumerate(cfg.r_bps):
            if numbers(f"r_bps[{i}]", rate):
                build(f"r_bps[{i}]", TaskParams, r_bps=rate)
        if _is_int(cfg.n_types) and len(cfg.r_bps) != cfg.n_types:
            out.append(f"r_bps must list one rate per type: got {len(cfg.r_bps)} "
                       f"for n_types={cfg.n_types}")
    elif numbers("r_bps", cfg.r_bps):
        build("r_bps", TaskParams, r_bps=cfg.r_bps)

    for key, names in _WEIGHT_FIELDS.items():
        value = getattr(cfg, key)
        if not (isinstance(value, tuple) and len(value) == len(names)):
            out.append(f"{key} must list {len(names)} numbers (got {value!r})")
        elif numbers(key, *value):
            build(key, WeightConfig, **dict(zip(names, value)))

    c = cfg.consensus
    sizes = {"n": c.n, "l": c.l}
    out += [f"consensus.{key} must be an integer (got {value!r})"
            for key, value in sizes.items() if not _is_int(value)]
    if all(map(_is_int, sizes.values())):
        build("consensus", ConsensusConfig, c.n, c.l)
    if not _is_number(c.threshold) or not 0.0 <= c.threshold <= 1.0:
        out.append(f"consensus.threshold must be in [0, 1] (got {c.threshold!r})")
    loop_count("consensus.slots", c.slots)

    if cfg.trace_path is not None and not (
        isinstance(cfg.trace_path, str) and os.path.isfile(cfg.trace_path)
    ):
        out.append(f"trace_path does not exist: {cfg.trace_path!r}")
    return out


def config_digest(cfg: ExperimentConfig) -> str:
    body = json.dumps(dataclasses.asdict(cfg), sort_keys=True,
                      separators=(",", ":"), default=list)
    return hashlib.sha256(body.encode()).hexdigest()[:16]
