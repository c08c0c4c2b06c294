"""Parking-duration statistics and contract-type classification.

Parking durations follow a two-component Gamma mixture (a short-term and a
long-term parker population) whose parameters may vary with arrival hour.
The conditional probability that a parked vehicle stays at least tau more
hours, given it has already been parked t_p hours, is the survival ratio of
the mixture; sorting those probabilities over the currently parked
population and quantile-binning them yields the discrete type profile the
contract optimizer consumes.

Populations are columns: `Arrivals` (hour and duration arrays) and the
`Parked` set that `surviving_population` selects at one query hour, where a
vehicle's arrival hour fixes its parked hours and so its stay probability.
`stay_probabilities` runs the stay kernel once per arrival hour present and
fills the rows from a 24-entry table; the scalar `stay_probability` scores
one `PVState` through the same kernel, bit for bit. The kernel is one
`gammaincc` call over both components at both ends of the horizon, weighed
and divided in Python floats; the array `survival` at the two ends is its
bit-for-bit reference.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc

from ._numbers import real, whole

__all__ = [
    "HourMixture",
    "GammaMixtureParams",
    "PVState",
    "Parked",
    "TypeProfile",
    "Arrivals",
    "NobodyParked",
    "DEFAULT_MIXTURE",
    "density",
    "survival",
    "stay_probability",
    "stay_probabilities",
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
        if not all(map(real, vars(self).values())):
            raise ValueError("mixture parameters must be finite real numbers")
        # stored as Python floats, so the stay kernel's scalar arithmetic is
        # float64 whatever number type a parameter came in as
        for name, value in vars(self).items():
            object.__setattr__(self, name, float(value))
        if not abs(self.h_short + self.h_long - 1.0) <= _TOL:
            raise ValueError("mixture weights must sum to 1")
        if not (self.h_short >= 0 and self.h_long >= 0):
            raise ValueError("mixture weights must be nonnegative")
        for name in ("shape_short", "shape_long", "scale_short", "scale_long"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


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
    """Per-arrival-hour mixture table, keyed by integer hours in 0..23;
    hours not listed fall back to default."""

    default: HourMixture = DEFAULT_MIXTURE
    per_hour: dict[int, HourMixture] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for hour in self.per_hour:
            if not _is_hour(hour):
                raise ValueError(f"arrival hour {hour!r} is not an integer in 0..23")

    def at(self, arrival_hour: int) -> HourMixture:
        return self.per_hour.get(arrival_hour, self.default)


@dataclass(frozen=True)
class PVState:
    """A parked vehicle at query time: an integer arrival hour in 0..23, a
    finite `parked_hours` >= 0 and a finite `horizon` > 0."""

    pv_id: int
    arrival_hour: int
    parked_hours: float
    horizon: float

    def __post_init__(self) -> None:
        # plain Python: numpy's per-call overhead would dominate one vehicle's checks
        if not _is_hour(self.arrival_hour):
            raise ValueError("arrival_hour is not an integer in 0..23")
        if not (real(self.parked_hours) and self.parked_hours >= 0):
            raise ValueError("parked_hours must be a finite real number >= 0")
        if not (real(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be a finite real number > 0")


def _is_hour(hour) -> bool:
    """Whether `hour` is an hour of the day: a whole number in 0..23."""
    return whole(hour) and 0 <= hour <= 23


def _check_query_hour(hour) -> None:
    if not _is_hour(hour):
        raise ValueError("query hour is not an integer in 0..23")


def _columns(obj, **dtypes) -> None:
    """Store the named fields of a frozen dataclass as arrays of the given
    dtypes; a float column is never truncated to an int one, and a bool
    column is never read as numbers."""
    for name, dtype in dtypes.items():
        column = np.asarray(getattr(obj, name))
        if column.size and (column.dtype.kind == "b"
                            or not np.can_cast(column.dtype, dtype, "same_kind")):
            raise ValueError(f"{name} must hold {np.dtype(dtype).name} values")
        object.__setattr__(obj, name, column.astype(dtype))


@dataclass(frozen=True, eq=False)
class Arrivals:
    """Each vehicle's arrival hour (0..23) and total parking duration in
    hours (positive, finite): vehicle i is row i of both columns."""

    hours: np.ndarray
    durations: np.ndarray

    def __post_init__(self) -> None:
        _columns(self, hours=np.int64, durations=np.float64)
        if self.hours.ndim != 1 or self.hours.shape != self.durations.shape:
            raise ValueError("hours and durations must be 1-D and of equal length")
        bad_hour = (self.hours < 0) | (self.hours > 23)
        bad = bad_hour | ~((0 < self.durations) & (self.durations < math.inf))
        if bad.any():
            i = int(np.argmax(bad))
            what = ("arrival hour outside 0..23" if bad_hour[i]
                    else "duration must be positive and finite")
            raise _InvalidArrival(i, f"{what} (vehicle {i})")

    def __len__(self) -> int:
        return len(self.hours)


class _InvalidArrival(ValueError):
    """Arrivals rejected; `index` is the first offending vehicle."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, eq=False)
class Parked:
    """The vehicles parked at one query `hour` in 0..23, as columns: row i is
    `parked[i]`, a PVState parked (hour - arrival_hour[i]) % 24 hours with the
    shared `horizon`. `pv_id` is the vehicle's row in its `Arrivals`."""

    pv_id: np.ndarray
    arrival_hour: np.ndarray
    hour: int
    horizon: float = 1.0

    def __post_init__(self) -> None:
        _columns(self, pv_id=np.int64, arrival_hour=np.int64)
        if not (self.pv_id.ndim == 1 and self.pv_id.shape == self.arrival_hour.shape):
            raise ValueError("parked columns must be 1-D and of equal length")
        if ((self.arrival_hour < 0) | (self.arrival_hour > 23)).any():
            raise ValueError("arrival_hour is not an integer in 0..23")
        _check_query_hour(self.hour)
        if not (real(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be a finite real number > 0")

    def __len__(self) -> int:
        return len(self.pv_id)

    def __getitem__(self, i: int) -> PVState:
        """Row `i`, a whole number; negative rows count from the end."""
        if type(i) is not int:
            if not whole(i):
                raise ValueError(f"a parked row index must be a whole number, got {i!r}")
            i = int(i)
        a = int(self.arrival_hour[i])
        return PVState(int(self.pv_id[i]), a, float((self.hour - a) % 24), float(self.horizon))


class NobodyParked(ValueError):
    """A parked set to classify is empty."""


@dataclass(frozen=True)
class TypeProfile:
    """Sorted stay-probability types and their population shares."""

    thetas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.thetas) != len(self.betas) or not self.thetas:
            raise ValueError("thetas and betas must be nonempty and equal length")
        for th in self.thetas:
            if not (real(th) and 0.0 < th <= 1.0):
                raise ValueError(f"type value {th} outside (0, 1]")
        for hi, lo in zip(self.thetas[1:], self.thetas):
            if hi <= lo:
                raise ValueError("type values must be strictly ascending")
        if not all(real(b) and b >= 0 for b in self.betas):
            raise ValueError("type probabilities must be finite and nonnegative")
        if abs(sum(self.betas) - 1.0) > _TOL:
            raise ValueError("type probabilities must sum to 1")

    @property
    def n_types(self) -> int:
        return len(self.thetas)


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


def survival(x, mixture: HourMixture):
    """P[duration > x] under the mixture, via regularized upper Gammas;
    `x` is a float or an array."""
    if (np.asarray(x) < 0).any():
        raise ValueError("x must be >= 0")
    return (
        mixture.h_short * gammaincc(mixture.shape_short, x / mixture.scale_short)
        + mixture.h_long * gammaincc(mixture.shape_long, x / mixture.scale_long)
    )


def _stay(parked_hours: float, horizon: float, m: HourMixture) -> float:
    """The stay probability under one mixture, for `parked_hours` >= 0.

    One `gammaincc` call takes both components at both ends of the horizon;
    the survivals are then weighed and divided in Python floats, the same
    IEEE operations as `survival` on the two ends, so bit for bit its ratio.
    """
    later = parked_hours + horizon
    short_now, short_later, long_now, long_later = gammaincc(
        (m.shape_short, m.shape_short, m.shape_long, m.shape_long),
        (parked_hours / m.scale_short, later / m.scale_short,
         parked_hours / m.scale_long, later / m.scale_long),
    ).tolist()
    denom = m.h_short * short_now + m.h_long * long_now
    if denom <= 0.0:
        raise ValueError(
            f"parked duration {parked_hours} h is beyond the mixture's "
            "numeric support (survival underflowed to 0)"
        )
    # ratio of survivals of nested events; clamp fp dust only
    return min((m.h_short * short_later + m.h_long * long_later) / denom, 1.0)


def stay_probability(pv: PVState, params: GammaMixtureParams) -> float:
    """P[stays >= horizon more hours | already parked parked_hours]."""
    return _stay(pv.parked_hours, pv.horizon, params.at(pv.arrival_hour))


def leave_probability(pv: PVState, params: GammaMixtureParams) -> float:
    """Complement: P[leaves within the horizon | already parked]."""
    return 1.0 - stay_probability(pv, params)


def stay_probabilities(parked: Parked, params: GammaMixtureParams) -> np.ndarray:
    """`stay_probability` of every parked vehicle, in row order.

    A row's arrival hour fixes its parked hours and mixture, and the
    horizon is shared, so the kernel runs once per arrival hour present
    and a 24-entry table fills the rows.
    """
    table = np.empty(24)
    for a in np.flatnonzero(np.bincount(parked.arrival_hour, minlength=24)).tolist():
        table[a] = _stay(float((parked.hour - a) % 24), float(parked.horizon), params.at(a))
    return table[parked.arrival_hour]


def classify_types(parked: Parked, params: GammaMixtureParams, n_types: int) -> TypeProfile:
    """Quantile-bin the population's stay probabilities into a TypeProfile.

    Each bin contributes its mean stay probability as the type value and its
    population share as the type probability. Bins whose means fail to
    ascend strictly (duplicate survival values) are merged, so the returned
    profile may have fewer than n_types effective types. An empty parked
    set raises `NobodyParked`.
    """
    if not len(parked):
        raise NobodyParked("population must be nonempty")
    if not (whole(n_types) and n_types >= 2):
        raise ValueError(f"need a whole number of at least 2 types, got {n_types!r}")
    probs = np.sort(stay_probabilities(parked, params))
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


def ingest_trace(path: str) -> Arrivals:
    """Read `arrival_hour,duration_hours` rows into `Arrivals`.

    Any malformed row rejects the whole file, naming the row number, and so
    does a file without data rows.
    """
    hours: list[int] = []
    durations: list[float] = []
    linenos: list[int] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and not _is_number(row[0])):
                continue  # blank line or header
            try:
                hours.append(int(row[0]))
                durations.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"malformed trace row {lineno}: {row!r}") from exc
            linenos.append(lineno)
    if not linenos:
        raise ValueError("trace has no data rows")
    try:
        return Arrivals(np.array(hours), np.array(durations))
    except _InvalidArrival as exc:
        raise ValueError(f"malformed trace row {linenos[exc.index]}: {exc}") from exc


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


def synthesize_population(params: GammaMixtureParams, count: int, seed: int) -> Arrivals:
    """Sample arrivals and mixture durations, deterministically per seed
    (a whole number >= 0: None would draw fresh entropy)."""
    if not (whole(count) and count >= 1):
        raise ValueError(f"count must be a whole number >= 1, got {count!r}")
    if not (whole(seed) and seed >= 0):
        raise ValueError(f"seed must be a whole number >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    hours = np.floor(sample_arrival_hours(rng, count)).astype(int)
    mixtures = [(m.h_short, m.shape_short, m.scale_short, m.shape_long, m.scale_long)
                for m in map(params.at, range(24))]
    random, gamma = rng.random, rng.gamma
    durations = np.empty(count)
    # one vehicle at a time, a uniform and then a gamma: the draws interleave
    # on one stream, so their order fixes every seeded output
    for i, hour in enumerate(hours.tolist()):
        h_short, shape_short, scale_short, shape_long, scale_long = mixtures[hour]
        durations[i] = (gamma(shape_short, scale_short) if random() < h_short
                        else gamma(shape_long, scale_long))
    # Gamma variates are continuous; 0.0 would need measure-zero luck,
    # but guard the Arrivals invariant anyway
    return Arrivals(hours, np.maximum(durations, 1e-12))


def surviving_population(arrivals: Arrivals, hour: int, horizon: float = 1.0) -> Parked:
    """Vehicles still parked at `hour` (an integer in 0..23) of a cyclic day."""
    _check_query_hour(hour)    # before any arithmetic, so "9" and None fail alike
    parked_hours = ((hour - np.arange(24.0)) % 24)[arrivals.hours]  # a 24-entry table
    pv_id = np.flatnonzero(arrivals.durations > parked_hours)
    return Parked(pv_id, arrivals.hours[pv_id], hour, horizon)


def hourly_type_profile(
    arrivals: Arrivals,
    hour: int,
    params: GammaMixtureParams,
    n_types: int,
    horizon: float = 1.0,
) -> TypeProfile:
    return classify_types(surviving_population(arrivals, hour, horizon), params, n_types)
