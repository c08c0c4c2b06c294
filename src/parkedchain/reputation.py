"""Multi-weight subjective-logic reputation.

Nodes rate each other through repeated interactions. Each (rater, target)
pair accumulates per-slot evidence segments; segments are combined into a
local opinion using three weights (interaction familiarity, power-law
timeliness, arrival-hour similarity), recommendations from other raters are
synthesized with the same weights, and local + synthesized opinions are
fused into a final opinion whose expected value is the node's reputation.

A linear exponential-moving-average tracker is provided as the comparison
baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Opinion",
    "WeightConfig",
    "ReputationView",
    "VACUOUS",
    "local_opinion",
    "reputation_value",
    "familiarity_weight",
    "timeliness_weight",
    "similarity_weight",
    "overall_weight",
    "synthesize_recommended",
    "fuse_final",
    "average_final_reputation",
    "linear_reputation_baseline",
    "ReputationEngine",
    "LinearReputationTracker",
]

# Evidence prior weight of the standard beta-evidence mapping.
EVIDENCE_PRIOR_WEIGHT = 2.0

_SUM_TOL = 1e-9

# Linear baseline: EMA weight of the newest outcome, and the value before any.
_LR_SMOOTHING = 0.2
_LR_INITIAL = 0.5


@dataclass(frozen=True)
class Opinion:
    """A subjective-logic opinion (belief, disbelief, uncertainty, base rate)."""

    belief: float
    disbelief: float
    uncertainty: float
    base_rate: float = 0.5

    def __post_init__(self) -> None:
        for name in ("belief", "disbelief", "uncertainty", "base_rate"):
            val = getattr(self, name)
            if not (-_SUM_TOL <= val <= 1.0 + _SUM_TOL):
                raise ValueError(f"{name}={val!r} outside [0, 1]")
        total = self.belief + self.disbelief + self.uncertainty
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"belief+disbelief+uncertainty={total!r} != 1")


VACUOUS = Opinion(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class WeightConfig:
    """Mixing coefficients for the three reputation-segment weights."""

    gamma1: float = 0.3
    gamma2: float = 0.4
    gamma3: float = 0.3
    alpha1: float = 10.0
    alpha2: float = 1.5

    def __post_init__(self) -> None:
        gammas = (self.gamma1, self.gamma2, self.gamma3)
        if not all(math.isfinite(w) for w in (*gammas, self.alpha1, self.alpha2)):
            raise ValueError("gamma and alpha coefficients must be finite")
        if any(g < 0 for g in gammas):
            raise ValueError("gamma coefficients must be nonnegative")
        if abs(sum(gammas) - 1.0) > _SUM_TOL:
            raise ValueError("gamma coefficients must sum to 1")
        if self.alpha1 <= 0 or self.alpha2 < 0:
            raise ValueError("alpha1 > 0 and alpha2 >= 0 required")


@dataclass
class ReputationView:
    """Snapshot of one target's reputation from every rater's standpoint."""

    target: str
    slot: int
    final_values: dict[str, float]

    @property
    def average(self) -> float:
        return average_final_reputation(list(self.final_values.values()))


def local_opinion(positives: int, negatives: int, prior: float = 0.5) -> Opinion:
    """Map positive/negative evidence counts to an opinion.

    Standard beta-evidence mapping with prior weight W: with P positive and
    Q negative observations, b = P/(P+Q+W), d = Q/(P+Q+W), u = W/(P+Q+W).
    No evidence yields the vacuous opinion.
    """
    total = positives + negatives + EVIDENCE_PRIOR_WEIGHT
    return Opinion(positives / total, negatives / total,
                   EVIDENCE_PRIOR_WEIGHT / total, prior)


def reputation_value(o: Opinion) -> float:
    """Expected value of an opinion: g = b + u * a."""
    return o.belief + o.uncertainty * o.base_rate


def familiarity_weight(p_ij: float, peer_counts: list[float]) -> float:
    """Interaction count with the target relative to the rater's peer average."""
    if not peer_counts:
        raise ValueError("peer_counts must be nonempty")
    if any(c < 0 for c in peer_counts):
        raise ValueError("interaction counts must be nonnegative")
    mean = sum(peer_counts) / len(peer_counts)
    if mean == 0:
        raise ValueError("no interaction history: all peer counts are zero")
    return p_ij / mean


def timeliness_weight(t: int, t_ij: int, cfg: WeightConfig) -> float:
    """Power-law decay of an opinion's weight with its age in slots."""
    if t <= t_ij:
        raise ValueError(f"opinion slot {t_ij} not in the past of slot {t}")
    return cfg.alpha1 * (t - t_ij) ** (-cfg.alpha2)


def similarity_weight(t_i_a: float, t_j_a: float) -> float:
    """Behavioral similarity from arrival-hour proximity: 1/(1+|dt|)."""
    if t_i_a < 0 or t_j_a < 0:
        raise ValueError("arrival hours must be nonnegative")
    return 1.0 / (1.0 + abs(t_i_a - t_j_a))


def overall_weight(x: float, y: float, z: float, cfg: WeightConfig) -> float:
    return cfg.gamma1 * x + cfg.gamma2 * y + cfg.gamma3 * z


def synthesize_recommended(opinions: list[tuple[float, Opinion]]) -> Opinion:
    """Weighted average of recommended opinions (components and base rates)."""
    if not opinions:
        raise ValueError("no recommendations to synthesize")
    total_w = sum(w for w, _ in opinions)
    if total_w <= 0:
        raise ValueError("total recommendation weight must be positive")
    b = sum(w * o.belief for w, o in opinions) / total_w
    d = sum(w * o.disbelief for w, o in opinions) / total_w
    u = sum(w * o.uncertainty for w, o in opinions) / total_w
    a = sum(w * o.base_rate for w, o in opinions) / total_w
    return Opinion(b, d, u, a)


def fuse_final(local: Opinion, syn: Opinion) -> Opinion:
    """Consensus fusion of the local and synthesized opinions.

    Weighs each side by the other's uncertainty; the local base rate is
    carried through. Undefined when both operands are dogmatic (u = 0).
    """
    ul, us = local.uncertainty, syn.uncertainty
    # vacuous operands are exact neutral elements; short-circuit so the
    # identity holds bit for bit instead of up to rounding in den
    if us == 1.0 and ul == 1.0:
        return Opinion(0.0, 0.0, 1.0, local.base_rate)
    if us == 1.0:
        return Opinion(local.belief, local.disbelief, local.uncertainty,
                       local.base_rate)
    if ul == 1.0:
        return Opinion(syn.belief, syn.disbelief, syn.uncertainty,
                       local.base_rate)
    den = us + ul - us * ul
    if den <= 0:
        raise ValueError("fusion undefined: both opinions are dogmatic (u=0)")
    b = (local.belief * us + syn.belief * ul) / den
    d = (local.disbelief * us + syn.disbelief * ul) / den
    u = (us * ul) / den
    return Opinion(b, d, u, local.base_rate)


def average_final_reputation(finals: list[float]) -> float:
    """Arithmetic mean of per-rater final reputation values."""
    if not finals:
        raise ValueError("need at least one rater")
    return sum(finals) / len(finals)


def linear_reputation_baseline(history: list[float]) -> float:
    """EMA of outcome indicators: the linear comparison scheme."""
    value = _LR_INITIAL
    for outcome in history:
        value = (1.0 - _LR_SMOOTHING) * value + _LR_SMOOTHING * outcome
    return value


class ReputationEngine:
    """Bookkeeping for multi-weight subjective-logic reputation over slots.

    Interactions are counted in one integer array ``[slot, rater, target,
    (pos, neg)]``, nodes indexed in registration order. A target's
    reputation at slot t is assembled from slots <= t only, in four steps:
    segment opinions weighted by (familiarity, timeliness, similarity) give
    each rater's local opinion; other raters' locals are synthesized with the
    same weights; local and synthesized opinions are fused; the fused values
    are averaged over raters.
    """

    def __init__(self, cfg: WeightConfig | None = None, base_rate: float = 0.5):
        if not 0.0 <= base_rate <= 1.0:
            raise ValueError(f"base_rate={base_rate!r} outside [0, 1]")
        self.cfg = cfg or WeightConfig()
        self.base_rate = base_rate
        self.arrival_hours: dict[str, float] = {}
        self._index: dict[str, int] = {}
        self._evidence = np.zeros((0, 0, 0, 2), dtype=np.int64)

    def register(self, node: str, arrival_hour: float) -> None:
        self._index.setdefault(node, len(self._index))
        self.arrival_hours[node] = arrival_hour

    def _grown(self, slots: int) -> np.ndarray:
        """The evidence array, grown to hold `slots` slots and every node."""
        ev = self._evidence
        n = len(self._index)
        if slots > ev.shape[0] or n > ev.shape[1]:
            grown = np.zeros((max(slots, ev.shape[0]), n, n, 2), dtype=np.int64)
            grown[: ev.shape[0], : ev.shape[1], : ev.shape[2]] = ev
            self._evidence = ev = grown
        return ev

    def record_outcomes(
        self, slot: int, rater: str, target: str, positives: int, negatives: int
    ) -> None:
        if not (positives or negatives):
            return
        if rater == target:
            raise ValueError("rater and target must be distinct")
        if positives < 0 or negatives < 0:
            raise ValueError("outcome counts must be >= 0")
        if slot < 0:
            raise ValueError("slot must be >= 0")
        try:
            i, j = self._index[rater], self._index[target]
        except KeyError:
            raise KeyError("both rater and target must be registered") from None
        ev = self._grown(slot + 1)
        if positives:
            ev[slot, i, j, 0] += positives
        if negatives:
            ev[slot, i, j, 1] += negatives

    def view(self, target: str, at: int, raters: list[str] | None = None) -> ReputationView:
        """Every rater's final reputation value for `target` from slots <= `at`."""
        if raters is None:
            raters = [n for n in sorted(self.arrival_hours) if n != target]
        try:
            t = self._index[target]
            rows = np.array([self._index[r] for r in raters], dtype=np.intp)
        except KeyError:
            raise KeyError("target and raters must be registered") from None
        cfg = self.cfg
        ev = self._grown(0)
        slots = max(0, min(at + 1, ev.shape[0]))
        hist = ev[:slots]

        # segment opinions, [slot, rater]
        pos, neg = hist[:, rows, t, 0], hist[:, rows, t, 1]
        total = pos + neg + EVIDENCE_PRIOR_WEIGHT
        present = total > EVIDENCE_PRIOR_WEIGHT
        segments = np.stack(
            [pos / total, neg / total, EVIDENCE_PRIOR_WEIGHT / total,
             np.full(total.shape, self.base_rate)], axis=-1)
        _check_opinions(segments, present)

        # familiarity counts interactions up to `at`: with this target
        # relative to the mean over the targets the rater has met
        pairs = hist.sum(axis=0)[rows]
        counts = pairs[..., 0] + pairs[..., 1]
        met = np.count_nonzero(counts, axis=1)
        mean = np.divide(counts.sum(axis=1), met, out=np.ones(len(rows)), where=met > 0)
        x = counts[:, t] / mean
        # interactions in the current slot are treated as one slot old
        y = np.array([timeliness_weight(at, min(s, at - 1), cfg) for s in range(slots)])
        has = present.any(axis=0)
        hour = self.arrival_hours[target]
        z = np.array([
            similarity_weight(self.arrival_hours[r], hour) if h else 0.0
            for r, h in zip(raters, has.tolist())
        ])
        w = (cfg.gamma1 * x + cfg.gamma2 * y[:, None]) + cfg.gamma3 * z
        w = np.where(present, w, 0.0)

        # each rater's local opinion, and its weight as a recommender: the
        # weight of its last segment
        local = _weighted_mean(
            np.add.reduce(w[..., None] * segments, axis=0), np.add.reduce(w, axis=0),
            has, self.base_rate)
        if slots:
            last = slots - 1 - np.argmax(present[::-1], axis=0)
            recommend = w[last, np.arange(len(rows))]
        else:
            recommend = np.zeros(len(rows))

        # [other, rater]: every other rater with evidence recommends its local
        others = rows[:, None] != rows[None, :]
        m = np.where(others, recommend[:, None], 0.0)
        syn = _weighted_mean(
            np.add.reduce(m[..., None] * local[:, None, :], axis=0),
            np.add.reduce(m, axis=0), (others & has[:, None]).any(axis=0), self.base_rate)

        # consensus fusion with fuse_final's vacuous short-circuits
        ul, us = local[:, 2], syn[:, 2]
        ul_vacuous, us_vacuous = ul == 1.0, us == 1.0
        den = us + ul - us * ul
        fused = ~(ul_vacuous | us_vacuous)
        if (fused & (den <= 0)).any():
            raise ValueError("fusion undefined: both opinions are dogmatic (u=0)")
        with np.errstate(divide="ignore", invalid="ignore"):
            final = np.stack([
                (local[:, 0] * us + syn[:, 0] * ul) / den,
                (local[:, 1] * us + syn[:, 1] * ul) / den,
                (us * ul) / den,
                local[:, 3],
            ], axis=1)
        final[ul_vacuous, :3] = syn[ul_vacuous, :3]
        final[us_vacuous, :3] = local[us_vacuous, :3]
        final[ul_vacuous & us_vacuous, :3] = (0.0, 0.0, 1.0)
        _check_opinions(np.stack([local, syn, final]), True)
        values = final[:, 0] + final[:, 2] * final[:, 3]
        return ReputationView(target, at, dict(zip(raters, values.tolist())))

    def average_reputation(
        self, target: str, at: int, raters: list[str] | None = None
    ) -> float:
        return self.view(target, at, raters).average


def _check_opinions(ops: np.ndarray, where: np.ndarray) -> None:
    """Opinion's validation, in bulk, of the [..., (b, d, u, a)] cells in `where`."""
    in_range = ((-_SUM_TOL <= ops) & (ops <= 1.0 + _SUM_TOL)).all(axis=-1)
    closed = ~(np.abs(ops[..., 0] + ops[..., 1] + ops[..., 2] - 1.0) > _SUM_TOL)
    bad = where & ~(in_range & closed)
    if bad.any():
        Opinion(*ops[bad][0].tolist())   # raises Opinion's own ValueError


def _weighted_mean(
    sums: np.ndarray, weights: np.ndarray, has: np.ndarray, base_rate: float
) -> np.ndarray:
    """synthesize_recommended on [row, (b, d, u, a)] weighted sums; rows
    without recommendations are vacuous."""
    if (has & (weights <= 0)).any():
        raise ValueError("total recommendation weight must be positive")
    out = np.empty(sums.shape)
    out[:] = (0.0, 0.0, 1.0, base_rate)
    np.divide(sums, weights[:, None], out=out, where=has[:, None])
    return out


class LinearReputationTracker:
    """Per-pair EMA over per-slot mean outcomes: the linear baseline scheme."""

    def __init__(self) -> None:
        self._values: dict[tuple[str, str], float] = {}

    def update(self, rater: str, target: str, positives: int, negatives: int) -> None:
        total = positives + negatives
        if total == 0:
            return
        key = (rater, target)
        prev = self._values.get(key, _LR_INITIAL)
        mean_outcome = positives / total
        self._values[key] = (1.0 - _LR_SMOOTHING) * prev + _LR_SMOOTHING * mean_outcome

    def value(self, rater: str, target: str) -> float:
        return self._values.get((rater, target), _LR_INITIAL)

    def average_reputation(self, target: str, raters: list[str]) -> float:
        if not raters:
            raise ValueError("need at least one rater")
        return sum(self.value(r, target) for r in raters) / len(raters)

