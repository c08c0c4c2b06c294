"""Parking-duration statistics and contract-type classification.

Parking durations follow a two-component Gamma mixture (a short-term and a
long-term parker population) whose parameters may vary with arrival hour.
The conditional probability that a parked vehicle stays at least tau more
hours, given it has already been parked t_p hours, is the survival ratio of
the mixture; sorting those probabilities over the currently parked
population and quantile-binning them yields the discrete type profile the
contract optimizer consumes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc

__all__ = [
    "HourMixture",
    "GammaMixtureParams",
    "PVState",
    "TypeProfile",
    "ArrivalRecord",
    "DEFAULT_MIXTURE",
    "density",
    "survival",
    "stay_probability",
    "leave_probability",
    "classify_types",
    "ingest_trace",
    "synthesize_population",
    "sample_arrival_hours",
    "surviving_population",
    "hourly_type_profile",
]

_TOL = 1e-9


@dataclass(frozen=True)
class HourMixture:
    """Six mixture parameters for one arrival hour."""

    h_short: float
    h_long: float
    shape_short: float
    shape_long: float
    scale_short: float
    scale_long: float

    def __post_init__(self) -> None:
        if abs(self.h_short + self.h_long - 1.0) > _TOL:
            raise ValueError("mixture weights must sum to 1")
        if self.h_short < 0 or self.h_long < 0:
            raise ValueError("mixture weights must be nonnegative")
        for name in ("shape_short", "shape_long", "scale_short", "scale_long"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def mean(self) -> float:
        return (
            self.h_short * self.shape_short * self.scale_short
            + self.h_long * self.shape_long * self.scale_long
        )


# Illustrative defaults, not fitted to any real lot: errands vs commuters.
DEFAULT_MIXTURE = HourMixture(
    h_short=0.6,
    h_long=0.4,
    shape_short=2.0,
    shape_long=6.0,
    scale_short=0.75,
    scale_long=1.5,
)


@dataclass(frozen=True)
class GammaMixtureParams:
    """Per-arrival-hour mixture table; hours not listed fall back to default."""

    default: HourMixture = DEFAULT_MIXTURE
    per_hour: dict[int, HourMixture] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for hour in self.per_hour:
            if not 0 <= hour <= 23:
                raise ValueError(f"arrival hour {hour} outside 0..23")

    def at(self, arrival_hour: int) -> HourMixture:
        return self.per_hour.get(arrival_hour, self.default)

    @classmethod
    def load(cls, path: str) -> "GammaMixtureParams":
        """Parameter file: JSON keyed by arrival hour (or "default")."""
        with open(path) as fh:
            raw = json.load(fh)
        default = DEFAULT_MIXTURE
        per_hour = {}
        for key, fields in raw.items():
            mixture = HourMixture(**fields)
            if key == "default":
                default = mixture
            else:
                per_hour[int(key)] = mixture
        return cls(default=default, per_hour=per_hour)


@dataclass(frozen=True)
class PVState:
    """A parked vehicle at query time."""

    pv_id: int
    arrival_hour: int
    parked_hours: float
    horizon: float

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_hour <= 23:
            raise ValueError("arrival_hour outside 0..23")
        if self.parked_hours < 0:
            raise ValueError("parked_hours must be >= 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")


@dataclass(frozen=True)
class TypeProfile:
    """Sorted stay-probability types and their population shares."""

    thetas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.thetas) != len(self.betas) or not self.thetas:
            raise ValueError("thetas and betas must be nonempty and equal length")
        for th in self.thetas:
            if not 0.0 < th <= 1.0:
                raise ValueError(f"type value {th} outside (0, 1]")
        for hi, lo in zip(self.thetas[1:], self.thetas):
            if hi <= lo:
                raise ValueError("type values must be strictly ascending")
        if any(b < 0 for b in self.betas):
            raise ValueError("type probabilities must be nonnegative")
        if abs(sum(self.betas) - 1.0) > _TOL:
            raise ValueError("type probabilities must sum to 1")

    @property
    def n_types(self) -> int:
        return len(self.thetas)


@dataclass(frozen=True)
class ArrivalRecord:
    """One vehicle's arrival hour and total parking duration."""

    hour: int
    duration: float

    def __post_init__(self) -> None:
        if not 0 <= self.hour <= 23:
            raise ValueError("arrival hour outside 0..23")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")


def _gamma_pdf(t: float, shape: float, scale: float) -> float:
    return (
        t ** (shape - 1.0)
        * math.exp(-t / scale)
        / (math.gamma(shape) * scale**shape)
    )


def density(t_p: float, t_a: int, params: GammaMixtureParams) -> float:
    """First-order density of the parking duration for arrival hour t_a."""
    if t_p <= 0:
        raise ValueError("duration must be positive")
    m = params.at(t_a)
    return m.h_short * _gamma_pdf(t_p, m.shape_short, m.scale_short) + m.h_long * _gamma_pdf(
        t_p, m.shape_long, m.scale_long
    )


def survival(x: float, mixture: HourMixture) -> float:
    """P[duration > x] under the mixture, via regularized upper Gammas."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return (
        mixture.h_short * float(gammaincc(mixture.shape_short, x / mixture.scale_short))
        + mixture.h_long * float(gammaincc(mixture.shape_long, x / mixture.scale_long))
    )


def stay_probability(pv: PVState, params: GammaMixtureParams) -> float:
    """P[stays >= horizon more hours | already parked parked_hours]."""
    m = params.at(pv.arrival_hour)
    denom = survival(pv.parked_hours, m)
    if denom <= 0.0:
        raise ValueError(
            f"parked duration {pv.parked_hours} h is beyond the mixture's "
            "numeric support (survival underflowed to 0)"
        )
    p = survival(pv.parked_hours + pv.horizon, m) / denom
    # ratio of survivals of nested events; clamp fp dust only
    return min(p, 1.0)


def leave_probability(pv: PVState, params: GammaMixtureParams) -> float:
    """Complement: P[leaves within the horizon | already parked]."""
    return 1.0 - stay_probability(pv, params)


def classify_types(
    pvs: list[PVState], params: GammaMixtureParams, n_types: int
) -> TypeProfile:
    """Quantile-bin the population's stay probabilities into a TypeProfile.

    Each bin contributes its mean stay probability as the type value and its
    population share as the type probability. Bins whose means fail to
    ascend strictly (duplicate survival values) are merged, so the returned
    profile may have fewer than n_types effective types.
    """
    if not pvs:
        raise ValueError("population must be nonempty")
    if n_types < 2:
        raise ValueError("need at least 2 types")
    probs = np.sort([stay_probability(pv, params) for pv in pvs])
    thetas: list[float] = []
    betas: list[float] = []
    for chunk in np.array_split(probs, n_types):
        if chunk.size == 0:
            continue
        thetas.append(float(chunk.mean()))
        betas.append(chunk.size / probs.size)
    i = 0
    while i < len(thetas) - 1:
        if thetas[i + 1] <= thetas[i] + 1e-12:
            merged = betas[i] + betas[i + 1]
            thetas[i] = (thetas[i] * betas[i] + thetas[i + 1] * betas[i + 1]) / merged
            betas[i] = merged
            del thetas[i + 1], betas[i + 1]
        else:
            i += 1
    return TypeProfile(tuple(thetas), tuple(betas))


def ingest_trace(path: str) -> tuple[list[int], list[ArrivalRecord]]:
    """Read `arrival_hour,duration_hours` rows.

    Returns the 24-bin arrival histogram and the parsed records. Any
    malformed row rejects the whole file, naming the row number, and so
    does a file without data rows.
    """
    histogram = [0] * 24
    records: list[ArrivalRecord] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and not _is_number(row[0])):
                continue  # blank line or header
            try:
                hour = int(row[0])
                duration = float(row[1])
                rec = ArrivalRecord(hour, duration)
            except (IndexError, ValueError) as exc:
                raise ValueError(f"malformed trace row {lineno}: {row!r}") from exc
            histogram[rec.hour] += 1
            records.append(rec)
    if not records:
        raise ValueError("trace has no data rows")
    return histogram, records


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def sample_arrival_hours(rng: np.random.Generator, count: int) -> np.ndarray:
    """Synthetic bimodal arrival profile: morning peak at 9, noon shoulder."""
    which = rng.random(count)
    hours = np.where(
        which < 0.55,
        rng.normal(9.0, 1.6, size=count),
        rng.normal(12.5, 2.4, size=count),
    )
    return np.clip(hours, 3.0, 21.0)


def synthesize_population(
    params: GammaMixtureParams,
    count: int,
    seed: int,
    arrival_sampler=sample_arrival_hours,
) -> list[ArrivalRecord]:
    """Sample arrivals and mixture durations, deterministically per seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    hours = np.floor(arrival_sampler(rng, count)).astype(int)
    records = []
    for hour in hours:
        m = params.at(int(hour))
        if rng.random() < m.h_short:
            duration = rng.gamma(m.shape_short, m.scale_short)
        else:
            duration = rng.gamma(m.shape_long, m.scale_long)
        # Gamma variates are continuous; 0.0 would need measure-zero luck,
        # but guard the ArrivalRecord invariant anyway
        records.append(ArrivalRecord(int(hour), max(duration, 1e-12)))
    return records


def surviving_population(
    records: list[ArrivalRecord], hour: int, horizon: float = 1.0
) -> list[PVState]:
    """Vehicles still parked at the given hour of a cyclic day."""
    parked = []
    for idx, rec in enumerate(records):
        parked_hours = float((hour - rec.hour) % 24)
        if rec.duration > parked_hours:
            parked.append(PVState(idx, rec.hour, parked_hours, horizon))
    return parked


def hourly_type_profile(
    records: list[ArrivalRecord],
    hour: int,
    params: GammaMixtureParams,
    n_types: int,
    horizon: float = 1.0,
) -> TypeProfile:
    return classify_types(surviving_population(records, hour, horizon), params, n_types)
