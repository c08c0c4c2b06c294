"""Seeded end-to-end experiment runners emitting CSV-ready tables.

Each scenario maps a simulation question onto one table with a fixed
column schema:

  arrival-histogram     hour, count, fraction
  reputation-decay      slot, scheme, honest, misbehaving
  detection-rate        slot, sl_rate, lr_rate
  collusion             threshold, sl_correct, lr_correct
  contract-feasibility  type, theta, item, u_pv, is_choice
  utility-vs-hour       hour, scheme, u_sr, u_pv
  utility-vs-type       type, theta, beta, scheme, f_hz, pi, u_pv, u_sr_term

Tables are deterministic functions of (config, seed): rerunning writes
byte-identical CSV. A runner imports `parking` and `contract_opt` itself, so
that a scenario loads scipy only if it classifies vehicles or solves menus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..consensus import collusion_experiment, decay_experiment, detection_experiment
from .config import ConfigError, ExperimentConfig, config_digest

if TYPE_CHECKING:      # the annotations' names; a runner imports what it runs
    from .. import contract_opt, parking

__all__ = ["ResultTable", "SCENARIOS", "run_scenario"]

SCHEME_ORDER = ("LC", "LIA", "LA", "SA", "linear")


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple]
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.provenance:
            raise ValueError("a result table must carry provenance")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match columns")

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def provenance_text(self) -> str:
        return "".join(f"{k}={self.provenance[k]}\n"
                       for k in sorted(self.provenance))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _provenance(name: str, cfg: ExperimentConfig) -> dict[str, str]:
    from .. import __version__
    return {
        "scenario": name,
        "config": config_digest(cfg),
        "seed": str(cfg.seed),
        "version": __version__,
    }


def run_scenario(name: str, cfg: ExperimentConfig) -> ResultTable:
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        ) from None
    return runner(cfg)


# -- population plumbing -----------------------------------------------------

def _arrivals(cfg: ExperimentConfig) -> tuple[parking.Arrivals, str]:
    """Arrivals from the configured trace, else the synthetic bimodal
    population, with the provenance 'source' value naming which."""
    from .. import parking
    if cfg.trace_path is not None:
        try:
            return parking.ingest_trace(cfg.trace_path), f"trace:{cfg.trace_path}"
        except ValueError as exc:
            raise ConfigError([f"bad trace {cfg.trace_path!r}: {exc}"]) from None
    mixture = parking.GammaMixtureParams()
    return parking.synthesize_population(mixture, cfg.arrivals, cfg.seed), "synthetic"


def _hour_problem(cfg: ExperimentConfig, arrivals, hour: int) -> contract_opt.ContractProblem:
    from .. import contract_opt, parking
    profile = parking.hourly_type_profile(arrivals, hour, parking.GammaMixtureParams(),
                                          cfg.n_types)
    return contract_opt.ContractProblem(profile, cfg.task_params())


def _profile_hour_problem(cfg: ExperimentConfig) -> contract_opt.ContractProblem:
    from .. import parking
    try:
        return _hour_problem(cfg, _arrivals(cfg)[0], cfg.profile_hour)
    except parking.NobodyParked:
        raise ConfigError([f"nobody is parked at profile_hour {cfg.profile_hour}"]) from None


def _solve_all(problem: contract_opt.ContractProblem) -> dict[str, contract_opt.ContractMenu]:
    from .. import contract_opt
    menus = {
        "LC": contract_opt.solve_complete_info(problem),
        "LIA": contract_opt.solve_lagrangian_iterative(problem),
        "LA": contract_opt.solve_local_asymmetric(problem),
    }
    menus["SA"], p_star = contract_opt.stackelberg_baseline(problem)
    menus["linear"] = contract_opt.linear_pricing_baseline(problem, p_star)[0]
    return menus


def _require_misbehaving(name: str, cfg: ExperimentConfig) -> None:
    """The reputation scenarios score a misbehaving cohort, so it must exist."""
    if cfg.misbehaving < 1:
        raise ConfigError([f"{name} needs misbehaving >= 1 (got {cfg.misbehaving})"])


# -- scenarios ----------------------------------------------------------------

def _arrival_histogram(cfg: ExperimentConfig) -> ResultTable:
    arrivals, source = _arrivals(cfg)
    hist = np.bincount(arrivals.hours, minlength=24).tolist()
    rows = [(hour, hist[hour], hist[hour] / len(arrivals)) for hour in range(24)]
    prov = _provenance("arrival-histogram", cfg)
    prov["source"] = source
    return ResultTable(("hour", "count", "fraction"), rows, prov)


def _reputation_decay(cfg: ExperimentConfig) -> ResultTable:
    _require_misbehaving("reputation-decay", cfg)
    rows = decay_experiment(cfg.population, cfg.misbehaving, cfg.consensus.slots,
                            cfg.seed, cfg.weight_config())
    return ResultTable(("slot", "scheme", "honest", "misbehaving"), rows,
                       _provenance("reputation-decay", cfg))


def _detection_rate(cfg: ExperimentConfig) -> ResultTable:
    _require_misbehaving("detection-rate", cfg)
    if cfg.population <= cfg.misbehaving:
        raise ConfigError([
            "detection-rate needs population > misbehaving so that at least "
            f"one honest node rates (got population={cfg.population}, "
            f"misbehaving={cfg.misbehaving})"
        ])
    sl, lr = detection_experiment(
        population=cfg.population, misbehaving_count=cfg.misbehaving,
        threshold=cfg.consensus.threshold, slots=cfg.consensus.slots,
        seed=cfg.seed, weight_config=cfg.weight_config(),
    )
    rows = [(slot, sl[slot], lr[slot]) for slot in range(len(sl))]
    return ResultTable(("slot", "sl_rate", "lr_rate"), rows,
                       _provenance("detection-rate", cfg))


def _collusion(cfg: ExperimentConfig) -> ResultTable:
    thresholds = [round(0.05 * k, 2) for k in range(1, 13)]
    rows = collusion_experiment(thresholds, seeds=cfg.collusion_seeds,
                                seed_base=cfg.seed, weight_config=cfg.weight_config())
    return ResultTable(("threshold", "sl_correct", "lr_correct"), rows,
                       _provenance("collusion", cfg))


def _contract_feasibility(cfg: ExperimentConfig) -> ResultTable:
    """Self-selection table: utility of every (true type, menu item) pair."""
    from .. import contract_opt
    problem = _profile_hour_problem(cfg)
    menu = contract_opt.solve_lagrangian_iterative(problem)
    rows = []
    for j, theta in enumerate(problem.profile.thetas):
        utilities = [
            contract_opt.pv_utility(theta, f, pi, problem.params)
            for f, pi in menu.items
        ]
        # bunched items are byte-identical, so ties mark every copy
        best = max(utilities)
        for k, u in enumerate(utilities):
            rows.append((j + 1, theta, k + 1, u, u == best))
    prov = _provenance("contract-feasibility", cfg)
    prov["hour"] = str(cfg.profile_hour)
    return ResultTable(("type", "theta", "item", "u_pv", "is_choice"), rows, prov)


def _utility_vs_hour(cfg: ExperimentConfig) -> ResultTable:
    from .. import contract_opt, parking
    arrivals, _ = _arrivals(cfg)
    rows = []
    for hour in range(24):
        try:
            problem = _hour_problem(cfg, arrivals, hour)
        except parking.NobodyParked:
            continue  # an hour without parked vehicles has no market and no rows
        menus = _solve_all(problem)
        for scheme in SCHEME_ORDER:
            menu = menus[scheme]
            rows.append((
                hour, scheme,
                contract_opt.sr_expected_utility(menu, problem),
                contract_opt.pv_expected_utility(menu, problem),
            ))
    return ResultTable(("hour", "scheme", "u_sr", "u_pv"), rows,
                       _provenance("utility-vs-hour", cfg))


def _utility_vs_type(cfg: ExperimentConfig) -> ResultTable:
    from .. import contract_opt
    problem = _profile_hour_problem(cfg)
    menus = _solve_all(problem)
    rows = []
    for scheme in SCHEME_ORDER:
        menu = menus[scheme]
        terms = contract_opt.sr_utility_terms(menu, problem)
        for j, (theta, beta) in enumerate(
            zip(problem.profile.thetas, problem.profile.betas)
        ):
            f, pi = menu.fs[j], menu.pis[j]
            rows.append((
                j + 1, theta, beta, scheme, f, pi,
                contract_opt.pv_utility(theta, f, pi, problem.params),
                terms[j],
            ))
    prov = _provenance("utility-vs-type", cfg)
    prov["hour"] = str(cfg.profile_hour)
    return ResultTable(
        ("type", "theta", "beta", "scheme", "f_hz", "pi", "u_pv", "u_sr_term"),
        rows, prov,
    )


_RUNNERS = {
    "arrival-histogram": _arrival_histogram,
    "reputation-decay": _reputation_decay,
    "detection-rate": _detection_rate,
    "collusion": _collusion,
    "contract-feasibility": _contract_feasibility,
    "utility-vs-hour": _utility_vs_hour,
    "utility-vs-type": _utility_vs_type,
}
SCENARIOS = tuple(_RUNNERS)
