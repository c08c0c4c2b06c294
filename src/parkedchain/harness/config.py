"""Experiment configuration: defaults, JSON loading, full-report validation."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

__all__ = [
    "ConsensusBlock",
    "ExperimentConfig",
    "ConfigError",
    "validate_config",
    "config_digest",
]


class ConfigError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class ConsensusBlock:
    n: int = 10
    l: int = 3
    threshold: float = 0.45
    slots: int = 15


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    # task and incentive parameters
    n_types: int = 7
    f_local: float = 0.5e9
    kappa: float = 1.0e4
    s_bits: float = 4.0e6
    r_bps: float = 5.5e6
    eps_cap: float = 1e-28
    rho: float = 0.1
    e_price: float = 0.1
    f_max: float = 3.0e9
    # reputation weighting
    gammas: tuple[float, float, float] = (0.3, 0.4, 0.3)
    alphas: tuple[float, float] = (10.0, 1.5)
    # simulated population
    misbehaving: int = 10
    population: int = 50
    arrivals: int = 100_000
    profile_hour: int = 9
    collusion_seeds: int = 100
    consensus: ConsensusBlock = field(default_factory=ConsensusBlock)
    trace_path: str | None = None


_TOP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_CONSENSUS_KEYS = {f.name for f in dataclasses.fields(ConsensusBlock)}


def validate_config(path: str | None) -> ExperimentConfig:
    """Parse and range-check a JSON config file.

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
    return _build(raw)


def _build(raw: dict) -> ExperimentConfig:
    problems: list[str] = []
    for key in sorted(set(raw) - _TOP_KEYS):
        problems.append(f"unknown key {key!r}")

    fields = {k: v for k, v in raw.items() if k in _TOP_KEYS}
    cons_raw = fields.pop("consensus", {})
    if not isinstance(cons_raw, dict):
        problems.append("consensus must be an object")
        cons_raw = {}
    for key in sorted(set(cons_raw) - _CONSENSUS_KEYS):
        problems.append(f"unknown consensus key {key!r}")
    cons_fields = {k: v for k, v in cons_raw.items() if k in _CONSENSUS_KEYS}

    for name in ("gammas", "alphas"):
        if isinstance(fields.get(name), list):
            fields[name] = tuple(fields[name])

    try:
        cfg = dataclasses.replace(
            ExperimentConfig(), consensus=ConsensusBlock(**cons_fields), **fields
        )
    except TypeError as exc:
        raise ConfigError(problems + [f"bad config structure: {exc}"]) from None

    problems += _check_ranges(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false is never a count
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_ranges(cfg: ExperimentConfig) -> list[str]:
    out: list[str] = []

    def positive(name: str, value) -> None:
        if not _is_real(value) or not value > 0:
            out.append(f"{name} must be positive (got {value!r})")

    def at_least(name: str, value, low: int) -> None:
        if not _is_int(value) or value < low:
            out.append(f"{name} must be an integer >= {low} (got {value!r})")

    at_least("n_types", cfg.n_types, 2)
    positive("f_local", cfg.f_local)
    positive("kappa", cfg.kappa)
    positive("s_bits", cfg.s_bits)
    positive("eps_cap", cfg.eps_cap)
    positive("rho", cfg.rho)
    positive("e_price", cfg.e_price)
    positive("f_max", cfg.f_max)
    at_least("arrivals", cfg.arrivals, 1)
    at_least("population", cfg.population, 1)
    at_least("collusion_seeds", cfg.collusion_seeds, 1)
    per_type = isinstance(cfg.r_bps, (tuple, list))
    rates = cfg.r_bps if per_type else (cfg.r_bps,)
    for i, r in enumerate(rates):
        positive(f"r_bps[{i}]" if len(rates) > 1 else "r_bps", r)
    if per_type and _is_int(cfg.n_types) and len(rates) != cfg.n_types:
        out.append(f"r_bps must list one rate per type: got {len(rates)} "
                   f"for n_types={cfg.n_types}")

    if not _is_int(cfg.seed) or not 0 <= cfg.seed < 2**64:
        out.append(f"seed must be an unsigned 64-bit integer (got {cfg.seed!r})")
    if not _is_int(cfg.misbehaving) or cfg.misbehaving < 0:
        out.append(f"misbehaving must be a nonnegative integer (got {cfg.misbehaving!r})")
    elif _is_int(cfg.population) and cfg.misbehaving > cfg.population:
        out.append("misbehaving cannot exceed population")
    if not _is_int(cfg.profile_hour) or not 0 <= cfg.profile_hour <= 23:
        out.append(f"profile_hour must be an integer in 0..23 (got {cfg.profile_hour!r})")

    def weights(value, size: int) -> bool:
        return (isinstance(value, tuple) and len(value) == size
                and all(_is_real(w) for w in value))

    if not weights(cfg.gammas, 3) or any(g < 0 for g in cfg.gammas):
        out.append("gammas must be three nonnegative weights")
    elif abs(sum(cfg.gammas) - 1.0) > 1e-9:
        out.append(f"gammas must sum to 1 (got {sum(cfg.gammas)!r})")
    if not weights(cfg.alphas, 2) or not (cfg.alphas[0] > 0 and cfg.alphas[1] >= 0):
        out.append("alphas must be two coefficients with alpha1 > 0 and alpha2 >= 0")

    c = cfg.consensus
    l_ok = _is_int(c.l) and c.l >= 0
    if not l_ok:
        out.append(f"consensus.l must be a nonnegative integer (got {c.l!r})")
    if not _is_int(c.n) or c.n < 3 * (c.l if l_ok else 0) + 1:
        out.append(f"consensus.n must satisfy n >= 3l+1 (got n={c.n!r}, l={c.l!r})")
    if not _is_real(c.threshold) or not 0.0 <= c.threshold <= 1.0:
        out.append(f"consensus.threshold must be in [0, 1] (got {c.threshold!r})")
    if not _is_int(c.slots) or c.slots < 1:
        out.append(f"consensus.slots must be a positive integer (got {c.slots!r})")

    if cfg.trace_path is not None and not (
        isinstance(cfg.trace_path, str) and os.path.isfile(cfg.trace_path)
    ):
        out.append(f"trace_path does not exist: {cfg.trace_path!r}")
    return out


def config_digest(cfg: ExperimentConfig) -> str:
    body = json.dumps(dataclasses.asdict(cfg), sort_keys=True,
                      separators=(",", ":"), default=list)
    return hashlib.sha256(body.encode()).hexdigest()[:16]
