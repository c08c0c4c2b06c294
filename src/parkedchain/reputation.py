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

import numbers
import sys
from dataclasses import dataclass
from itertools import repeat

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

# The most outcomes of one kind that one (slot, rater, target) evidence cell
# holds, or that one write carries. The largest sum a view takes, a rater's
# interactions over every slot and target, is then below 2**32 * slots *
# nodes, so it can leave int64 only when slots * nodes > 2**31: an evidence
# array of slots * nodes * nodes * 2 > 2**33 int64 cells, 64 GiB.
_MAX_COUNT = 2**31 - 1
_PAST_MAX = f"a stored outcome count would pass {_MAX_COUNT}"

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
        for w in (*gammas, self.alpha1, self.alpha2):
            # bounded by magnitude, as an int past the float range is finite
            if (isinstance(w, bool) or not isinstance(w, numbers.Real)
                    or not abs(w) <= sys.float_info.max):
                raise ValueError(f"gammas and alphas must be finite numbers (got {w!r})")
        if any(g < 0 for g in gammas):
            raise ValueError(f"gammas must be nonnegative (got {gammas!r})")
        if abs(sum(gammas) - 1.0) > _SUM_TOL:
            raise ValueError(f"gammas must sum to 1 (got {sum(gammas)!r})")
        if self.alpha1 <= 0 or self.alpha2 < 0:
            raise ValueError("alpha1 > 0 and alpha2 >= 0 required "
                             f"(got {self.alpha1!r}, {self.alpha2!r})")


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
    (pos, neg)]``, nodes indexed in registration order. ``record_outcomes``
    adds one pair's counts; ``record_slot`` adds a whole slot's rows with
    one fancy-indexed add. A target's reputation at slot t is assembled
    from slots <= t only, in four steps: segment opinions weighted by
    (familiarity, timeliness, similarity) give each rater's local opinion;
    other raters' locals are synthesized with the same weights; local and
    synthesized opinions are fused; the fused values are averaged over
    raters. ``view`` does this for one target and ``average_reputations``
    for many at once, sharing the slot sum, the timeliness table and the
    rater indices between them.
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

    def _pair(
        self, slot: int, rater: str, target: str, positives: int, negatives: int
    ) -> tuple[int, int]:
        """Indices of a pair with nonzero counts, after every check of a write."""
        if rater == target:
            raise ValueError("rater and target must be distinct")
        if positives < 0 or negatives < 0:
            raise ValueError("outcome counts must be >= 0")
        if slot < 0:
            raise ValueError("slot must be >= 0")
        try:
            return self._index[rater], self._index[target]
        except KeyError:
            raise KeyError("both rater and target must be registered") from None

    def record_outcomes(
        self, slot: int, rater: str, target: str, positives: int, negatives: int
    ) -> None:
        if (type(positives) is not int or type(negatives) is not int   # fast path first
                or positives > _MAX_COUNT or negatives > _MAX_COUNT):
            _require_counts(np.array((positives, negatives)))
        if not (positives or negatives):
            return
        i, j = self._pair(slot, rater, target, positives, negatives)
        # a cell that holds counts already existed, so a rejected write
        # grows the array by no slot
        cell = self._grown(slot + 1)[slot, i, j]
        stored_pos, stored_neg = cell.tolist()
        if stored_pos + positives > _MAX_COUNT or stored_neg + negatives > _MAX_COUNT:
            raise ValueError(_PAST_MAX)
        cell[0] = stored_pos + positives
        cell[1] = stored_neg + negatives

    def record_slot(self, slot: int, rows: list[tuple[str, str, int, int]]) -> None:
        """record_outcomes for every (rater, target, positives, negatives) row
        of one slot, in one write.

        A pair may occur at most once. Rows with no outcomes are skipped, as
        record_outcomes skips them; any other row that record_outcomes would
        reject, or a repeated pair, raises that row's error and writes nothing.
        """
        if not rows:
            return
        i, j, counts = _columns(rows, self._index)
        keep = counts.any(axis=1)
        if not keep.all():
            rows = [row for row, k in zip(rows, keep.tolist()) if k]
            i, j, counts = i[keep], j[keep], counts[keep]
        if (slot < 0 or min(i.min(initial=0), j.min(initial=0), counts.min(initial=0)) < 0
                or (i == j).any() or _repeats(i, j, len(self._index))):
            _first_bad_row(rows, lambda row: self._pair(slot, *row))
        if rows:
            ev = self._grown(slot + 1)
            # as in record_outcomes, only a cell that existed can be too full
            summed = ev[slot, i, j] + counts
            if (summed > _MAX_COUNT).any():
                raise ValueError(_PAST_MAX)
            ev[slot, i, j] = summed

    def view(self, target: str, at: int, raters: list[str] | None = None) -> ReputationView:
        """Every rater's final reputation value for `target` from slots <= `at`."""
        if raters is None:
            raters = [n for n in sorted(self.arrival_hours) if n != target]
        values = self._final_values([target], at, raters)[0]
        return ReputationView(target, at, dict(zip(raters, values.tolist())))

    def average_reputations(self, targets: list[str], at: int, raters: list[str]) -> np.ndarray:
        """Each target's average reputation from slots <= `at`, rated by
        `raters` minus the target itself.

        Entry k is ``view(targets[k], at, [r for r in raters if r !=
        targets[k]]).average``, bit for bit; `raters` must be distinct.
        """
        if len(set(raters)) < len(raters):
            raise ValueError("raters must be distinct")
        values = self._final_values(targets, at, raters).tolist()
        return np.array([
            average_final_reputation([v for r, v in zip(raters, row) if r != target])
            for target, row in zip(targets, values)
        ])

    def _final_values(self, targets: list[str], at: int, raters: list[str]) -> np.ndarray:
        """[target, rater] expected values of the fused opinions from slots <= `at`.

        A rater that is also the target has no evidence about itself, so it
        contributes zero weight to every other rater's synthesized opinion
        and leaves their values as if it were absent.
        """
        try:
            cols = np.array([self._index[t] for t in targets], dtype=np.intp)
            rows = np.array([self._index[r] for r in raters], dtype=np.intp)
        except KeyError:
            raise KeyError("target and raters must be registered") from None
        cfg = self.cfg
        ev = self._grown(0)
        slots = max(0, min(at + 1, ev.shape[0]))
        hist = ev[:slots]

        # segment opinions, [target, slot, (b, d, u, a), rater]: the rater
        # axis is innermost so that the products below run along it
        pair = np.ascontiguousarray(hist[:, :, cols][:, rows].transpose(2, 0, 1, 3))
        pos, neg = pair[..., 0], pair[..., 1]
        total = pos + neg + EVIDENCE_PRIOR_WEIGHT
        present = total > EVIDENCE_PRIOR_WEIGHT
        segments = np.stack(
            [pos / total, neg / total, EVIDENCE_PRIOR_WEIGHT / total,
             np.full(total.shape, self.base_rate)], axis=2)
        _check_opinions(np.moveaxis(segments, 2, -1), present)

        # familiarity counts interactions up to `at`: with the target
        # relative to the mean over the targets the rater has met
        pairs = hist.sum(axis=0)[rows]
        counts = pairs[..., 0] + pairs[..., 1]
        met = np.count_nonzero(counts, axis=1)
        mean = np.divide(counts.sum(axis=1), met, out=np.ones(len(rows)), where=met > 0)
        x = counts[:, cols].T / mean
        # interactions in the current slot are treated as one slot old
        y = np.array([timeliness_weight(at, min(s, at - 1), cfg) for s in range(slots)])
        has = present.any(axis=1)
        # similarity_weight, for the raters with evidence
        rater_hours = np.array([self.arrival_hours[r] for r in raters], dtype=float)
        target_hours = np.array([self.arrival_hours[t] for t in targets], dtype=float)
        if (has & ((rater_hours < 0) | (target_hours[:, None] < 0))).any():
            raise ValueError("arrival hours must be nonnegative")
        z = np.where(has, 1.0 / (1.0 + np.abs(rater_hours - target_hours[:, None])), 0.0)
        w = (cfg.gamma1 * x[:, None] + cfg.gamma2 * y[:, None]) + cfg.gamma3 * z[:, None]
        w = np.where(present, w, 0.0)

        # each rater's local opinion, and its weight as a recommender: the
        # weight of its last segment
        local = _weighted_mean(segments, w, has, self.base_rate)
        if slots:
            last = slots - 1 - np.argmax(present[:, ::-1], axis=1)
            recommend = np.take_along_axis(w, last[:, None], axis=1)[:, 0]
        else:
            recommend = np.zeros((len(cols), len(rows)))

        # [target, other, rater]: every other rater with evidence recommends
        # its local
        others = rows[:, None] != rows[None, :]
        m = np.where(others, recommend[..., None], 0.0)
        syn = _weighted_mean(local[..., None], m, (others & has[..., None]).any(axis=1),
                             self.base_rate)

        # consensus fusion with fuse_final's vacuous short-circuits
        ul, us = local[..., 2], syn[..., 2]
        ul_vacuous, us_vacuous = ul == 1.0, us == 1.0
        den = us + ul - us * ul
        fused = ~(ul_vacuous | us_vacuous)
        if (fused & (den <= 0)).any():
            raise ValueError("fusion undefined: both opinions are dogmatic (u=0)")
        with np.errstate(divide="ignore", invalid="ignore"):
            final = np.stack([
                (local[..., 0] * us + syn[..., 0] * ul) / den,
                (local[..., 1] * us + syn[..., 1] * ul) / den,
                (us * ul) / den,
                local[..., 3],
            ], axis=-1)
        final[ul_vacuous, :3] = syn[ul_vacuous, :3]
        final[us_vacuous, :3] = local[us_vacuous, :3]
        final[ul_vacuous & us_vacuous, :3] = (0.0, 0.0, 1.0)
        _check_opinions(np.stack([local, syn, final]), True)
        return final[..., 0] + final[..., 2] * final[..., 3]


def _check_opinions(ops: np.ndarray, where: np.ndarray) -> None:
    """Opinion's validation, in bulk, of the [..., (b, d, u, a)] cells in `where`."""
    in_range = ((-_SUM_TOL <= ops) & (ops <= 1.0 + _SUM_TOL)).all(axis=-1)
    closed = ~(np.abs(ops[..., 0] + ops[..., 1] + ops[..., 2] - 1.0) > _SUM_TOL)
    bad = where & ~(in_range & closed)
    if bad.any():
        Opinion(*ops[bad][0].tolist())   # raises Opinion's own ValueError


def _weighted_mean(
    values: np.ndarray, weights: np.ndarray, has: np.ndarray, base_rate: float
) -> np.ndarray:
    """synthesize_recommended over axis 1 of [t, k, (b, d, u, a), r] values
    with [t, k, r] weights, giving [t, r, (b, d, u, a)]; cells without
    recommendations are vacuous.

    Each [t, :, r] cell's weights are first scaled by the power of two that
    brings the largest into [0.5, 1). In the normal range that is exact and
    leaves every mean bit for bit as it was; it keeps subnormal weights
    from losing the opinions' closure, and huge ones from overflowing the sums.
    """
    _, exponent = np.frexp(weights.max(axis=1, keepdims=True, initial=0.0))
    weights = np.ldexp(weights, -exponent)
    sums = np.add.reduce(weights[:, :, None] * values, axis=1).transpose(0, 2, 1)
    totals = np.add.reduce(weights, axis=1)
    if (has & (totals <= 0)).any():
        raise ValueError("total recommendation weight must be positive")
    out = np.empty(sums.shape)
    out[:] = (0.0, 0.0, 1.0, base_rate)
    np.divide(sums, totals[..., None], out=out, where=has[..., None])
    return out


def _columns(rows: list, index: dict[str, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rater indices, target indices (-1 for a name not in `index`) and
    [row, (positives, negatives)] counts of (rater, target, pos, neg) rows."""
    raters, targets, pos, neg = zip(*rows)
    counts = _require_counts(np.array((pos, neg)))
    i = np.fromiter(map(index.get, raters, repeat(-1)), np.intp, len(rows))
    j = np.fromiter(map(index.get, targets, repeat(-1)), np.intp, len(rows))
    return i, j, counts.astype(np.int64, copy=False).T


def _require_counts(counts: np.ndarray) -> np.ndarray:
    """`counts`, if every outcome count in it is a whole number no greater
    than _MAX_COUNT: the one count rule of every reputation write."""
    if counts.dtype.kind not in "biu" or (counts > _MAX_COUNT).any():
        raise ValueError(f"outcome counts must be whole numbers no greater than {_MAX_COUNT}")
    return counts


def _repeats(i: np.ndarray, j: np.ndarray, n: int) -> bool:
    """Whether a pair of indices in [0, n) occurs twice in (i, j)."""
    pairs = np.sort(i * n + j)
    return bool((pairs[1:] == pairs[:-1]).any())


def _first_bad_row(rows: list, check) -> None:
    """Raise the error of the first row that `check` rejects or whose
    (rater, target) pair repeats an earlier row's."""
    seen = set()
    for row in rows:
        check(row)
        pair = (row[0], row[1])
        if pair in seen:
            raise ValueError(f"pair {pair!r} occurs twice in one batch")
        seen.add(pair)


class LinearReputationTracker:
    """Per-pair EMA over per-slot mean outcomes: the linear baseline scheme.

    Values live in one float array ``[rater, target]``, nodes indexed in
    order of first appearance and every cell starting at 0.5. Each update
    is ``(1 - s) * prev + s * (positives / total)`` with s = 0.2;
    ``update_many`` applies it to one slot's rows with one fancy-indexed
    write.
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._values = np.full((0, 0), _LR_INITIAL)

    def update(self, rater: str, target: str, positives: int, negatives: int) -> None:
        self.update_many([(rater, target, positives, negatives)])

    def update_many(self, rows: list[tuple[str, str, int, int]]) -> None:
        """update for every (rater, target, positives, negatives) row of one
        slot in one write; rows with no outcomes are skipped, and a pair may
        occur at most once among the rest."""
        if not rows:
            return
        index = self._index
        i, j, counts = _columns(rows, index)
        if (i < 0).any() or (j < 0).any():
            for rater, target, *_ in rows:
                index.setdefault(rater, len(index))
                index.setdefault(target, len(index))
            grown = np.full((len(index), len(index)), _LR_INITIAL)
            grown[: len(self._values), : len(self._values)] = self._values
            self._values = grown
            i, j, counts = _columns(rows, index)
        total = counts.sum(axis=1)
        keep = total != 0
        if not keep.all():
            rows = [row for row, k in zip(rows, keep.tolist()) if k]
            i, j, counts, total = i[keep], j[keep], counts[keep], total[keep]
        if _repeats(i, j, len(index)):
            _first_bad_row(rows, lambda row: None)
        self._values[i, j] = ((1.0 - _LR_SMOOTHING) * self._values[i, j]
                              + _LR_SMOOTHING * (counts[:, 0] / total))

    def value(self, rater: str, target: str) -> float:
        index = self._index
        if rater not in index or target not in index:
            return _LR_INITIAL
        return float(self._values[index[rater], index[target]])

    def average_reputation(self, target: str, raters: list[str]) -> float:
        if not raters:
            raise ValueError("need at least one rater")
        t = self._index.get(target)
        column = [] if t is None else self._values[:, t].tolist()
        values = [_LR_INITIAL if t is None or i is None else column[i]
                  for i in map(self._index.get, raters)]
        # Python's left-to-right sum: numpy's pairwise sum would change the bits
        return sum(values) / len(raters)
