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
import sys
from dataclasses import dataclass

import numpy as np

from ._numbers import real, whole

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
# The engine's prior: the base rate of every opinion it forms.
_BASE_RATE = 0.5

_SUM_TOL = 1e-9

# The most outcomes of one kind that one (slot, rater, target) evidence cell
# holds, or that one write carries. The largest sum a view takes, a rater's
# interactions over every slot and target, is then below 2**32 * slots *
# nodes, so it can leave int64 only when slots * nodes > 2**31: an evidence
# array of slots * nodes * nodes * 2 > 2**33 int64 cells, 64 GiB.
_MAX_COUNT = 2**31 - 1
_PAST_MAX = f"a stored outcome count would pass {_MAX_COUNT}"
_COUNT_RULE = (f"outcome counts must be whole numbers, not bools, >= 0 and no greater than "
               f"{_MAX_COUNT}")
_UNREGISTERED = "target and raters must be registered"
# An evidence cell's int64 (positives, negatives) as one item: numpy scatters
# whole items faster than rows of two.
_CELL = np.dtype((np.void, 16))

# Binary exponents of a zero weight, and the lowest of a timeliness weight:
# both far below any weight that can count next to another, and int32 (as
# frexp's exponents are, and ldexp's fast loop takes) with room for a sum
# of the two.
_ZERO_EXP = np.int32(-(2**30))
_LOG2_FLOOR = -(2.0**28)

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
            if not real(w):
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
    if not (real(t_i_a) and real(t_j_a) and t_i_a >= 0 and t_j_a >= 0):
        raise ValueError("arrival hours must be nonnegative and finite")
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
    (pos, neg)]``, nodes named by strings and indexed in registration
    order. ``record_block`` adds a slot's ``[target, rater, (pos, neg)]``
    count array through the slot's flat ``rater * n + target`` cells (one
    take, one add, one scatter), and ``record_outcomes`` one pair's counts. A
    target's reputation at slot t is assembled from slots <= t only, in
    four steps: segment opinions
    weighted by (familiarity, timeliness, similarity) give each rater's
    local opinion; other raters' locals are synthesized with the same
    weights; local and synthesized opinions are fused; the fused values
    are averaged over raters. ``view`` does this for one target and
    ``average_reputations`` for many at once, sharing the slot sum, the
    timeliness table and the rater indices between them.
    """

    def __init__(self, cfg: WeightConfig | None = None):
        self.cfg = cfg or WeightConfig()
        self.arrival_hours: dict[str, float] = {}
        self._index: dict[str, int] = {}
        self._evidence = np.zeros((0, 0, 0, 2), dtype=np.int64)
        self._slots = 0

    def register(self, node: str, arrival_hour: float) -> None:
        _check_name(node)
        # the one check of the hours a view reads
        if not (real(arrival_hour) and arrival_hour >= 0):
            raise ValueError(f"arrival hours must be nonnegative and finite (got {arrival_hour!r})")
        self._index.setdefault(node, len(self._index))
        self.arrival_hours[node] = arrival_hour

    def _grown(self, slots: int) -> np.ndarray:
        """The evidence array, grown to hold `slots` slots and every node;
        the slot axis at least doubles when it grows, and a view reads only
        the `_slots` slots written."""
        ev = self._evidence
        n = len(self._index)
        if slots > self._slots:
            self._slots = slots
        if slots > ev.shape[0] or n > ev.shape[1]:
            held = max(slots, 2 * ev.shape[0]) if slots > ev.shape[0] else ev.shape[0]
            grown = np.zeros((held, n, n, 2), dtype=np.int64)
            grown[: ev.shape[0], : ev.shape[1], : ev.shape[2]] = ev
            self._evidence = ev = grown
        return ev

    def record_outcomes(
        self, slot: int, rater: str, target: str, positives: int, negatives: int
    ) -> None:
        """record_block of the one cell (rater, target, positives, negatives)."""
        try:
            i, j = self._index.get(rater, -1), self._index.get(target, -1)
        except TypeError:    # an unhashable name is in no roster
            i = j = -1
        # fast path: a cell that passes every check is written here; any
        # other cell takes record_block's, which raises the cell's error
        if not (type(positives) is int and type(negatives) is int
                and 0 <= positives <= _MAX_COUNT and 0 <= negatives <= _MAX_COUNT
                and i >= 0 and j >= 0 and i != j and type(slot) is int and slot >= 0):
            self.record_block(slot, [rater], [target], _cell(positives, negatives))
            return
        if not (positives or negatives):
            return
        # a slot already written and a roster the array holds need no
        # _grown; a cell that holds counts already existed, so a rejected
        # write grows the array by no slot
        ev = self._evidence
        if slot >= self._slots or len(self._index) > ev.shape[1]:
            ev = self._grown(slot + 1)
        pos = ev.item(slot, i, j, 0) + positives
        neg = ev.item(slot, i, j, 1) + negatives
        if pos > _MAX_COUNT or neg > _MAX_COUNT:
            raise ValueError(_PAST_MAX)
        ev[slot, i, j, 0] = pos
        ev[slot, i, j, 1] = neg

    def record_block(
        self, slot: int, raters: list[str], targets: list[str], counts: np.ndarray
    ) -> None:
        """Add counts[t, r] to the (raters[r], targets[t]) cell of `slot`
        in one write, under _checked_block's cell rule; the slot must be a
        whole number >= 0, not a bool. A rejected write raises the first bad
        cell's error, or else the slot's, and writes nothing."""
        counts, (i, j) = _checked_block(raters, targets, counts, self._index)
        _check_slot(slot)
        self._add([slot], i, j, counts)

    def _add(self, slots, i: np.ndarray, j: np.ndarray, counts: np.ndarray) -> None:
        """Add the checked [cell, (positives, negatives)] counts to the
        (i, j) cells of each of the distinct `slots`, slot by slot: one
        take, one add and one scatter, the array grown at most once."""
        if not len(counts):
            return
        ev = self._grown(max(slots) + 1)
        n = ev.shape[1]
        # the [(slot * n + rater) * n + target, (pos, neg)] cells, a view
        flat = ev.reshape(-1, 2)
        cells = ((np.asarray(slots, dtype=np.intp)[:, None] * n + i) * n + j).ravel()
        summed = flat.take(cells, axis=0)
        summed += counts
        # as in record_outcomes, only a cell that existed can be too full
        if (summed > _MAX_COUNT).any():
            raise ValueError(_PAST_MAX)
        flat.view(_CELL)[cells, 0] = summed.view(_CELL)[:, 0]

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
        targets[k]]).average``, bit for bit.
        """
        values = self._final_values(targets, at, raters).tolist()
        return np.array([
            average_final_reputation([v for r, v in zip(raters, row) if r != target])
            for target, row in zip(targets, values)
        ])

    def _final_values(self, targets: list[str], at: int, raters: list[str]) -> np.ndarray:
        """[target, rater] expected values of the fused opinions from slots <= `at`.

        A rater that is also the target has no evidence about itself, so it
        contributes zero weight to every other rater's synthesized opinion
        and leaves their values as if it were absent. `raters` must be
        distinct, and at least one.
        """
        _check_lists(targets=targets, raters=raters)
        if not raters:
            raise ValueError("need at least one rater")
        try:
            if len(set(raters)) < len(raters):
                raise ValueError("raters must be distinct")
            cols = np.array([self._index[t] for t in targets], dtype=np.intp)
            rows = np.array([self._index[r] for r in raters], dtype=np.intp)
        except (KeyError, TypeError):    # an unhashable name is in no roster
            raise KeyError(_UNREGISTERED) from None
        if not (whole(at) and at >= 0):
            raise ValueError(f"at must be >= 0, a whole number and not a bool (got {at!r})")
        cfg = self.cfg
        ev = self._grown(0)
        slots = max(0, min(at + 1, self._slots))
        hist = ev[:slots]

        # segment opinions, [target, slot, (b, d, u, a), rater]: the rater
        # axis is innermost so that the products below run along it
        pair = np.ascontiguousarray(
            hist.take(cols, axis=2).take(rows, axis=1).transpose(2, 0, 1, 3))
        pos, neg = pair[..., 0], pair[..., 1]
        total = pos + neg + EVIDENCE_PRIOR_WEIGHT
        present = total > EVIDENCE_PRIOR_WEIGHT
        segments = np.empty((len(cols), slots, 4, len(rows)))
        np.divide(pos, total, out=segments[:, :, 0])
        np.divide(neg, total, out=segments[:, :, 1])
        np.divide(EVIDENCE_PRIOR_WEIGHT, total, out=segments[:, :, 2])
        segments[:, :, 3] = _BASE_RATE
        _check_opinions(segments, present, axis=2)

        # familiarity counts interactions up to `at`: with the target
        # relative to the mean over the targets the rater has met
        pairs = hist.sum(axis=0)[rows]
        counts = pairs[..., 0] + pairs[..., 1]
        met = np.count_nonzero(counts, axis=1)
        mean = np.divide(counts.sum(axis=1), met, out=np.ones(len(rows)), where=met > 0)
        x = counts[:, cols].T / mean
        has = present.any(axis=1)
        # similarity_weight, for the raters with evidence
        rater_hours = np.array([self.arrival_hours[r] for r in raters], dtype=float)
        target_hours = np.array([self.arrival_hours[t] for t in targets], dtype=float)
        z = np.where(has, 1.0 / (1.0 + np.abs(rater_hours - target_hours[:, None])), 0.0)
        # interactions in the current slot are treated as one slot old
        y = np.array([timeliness_weight(at, min(s, at - 1), cfg) for s in range(slots)])
        y_frac, y_exp = np.frexp(y)
        lost = y < sys.float_info.min
        if lost.any():
            # below the normal range the weight's bits come from its logarithm
            ages = at - np.minimum(np.arange(slots), at - 1)[lost]
            log2_y = np.maximum(math.log2(cfg.alpha1) - cfg.alpha2 * np.log2(ages),
                                _LOG2_FLOOR)
            y_exp[lost] = np.floor(log2_y) + 1
            y_frac[lost] = np.exp2(log2_y - y_exp[lost])
        # a rater's weights are scaled by the power of two of the largest
        # term of its newest segment, so that none leaves the float range:
        # exact in the normal range, where _weighted_mean scales them again
        a, b, c = cfg.gamma1 * x, cfg.gamma2 * y_frac, cfg.gamma3 * z
        b_exp = np.where(present, (_exponent(b) + y_exp)[:, None], _ZERO_EXP)
        scale = np.maximum(np.maximum(_exponent(a), b_exp.max(axis=1, initial=_ZERO_EXP)),
                           _exponent(c))
        with np.errstate(over="ignore"):   # in slots after a rater's evidence
            w = ((np.ldexp(a, -scale)[:, None]
                  + np.ldexp(b[:, None], y_exp[:, None] - scale[:, None]))
                 + np.ldexp(c, -scale)[:, None])
        w = np.where(present, w, 0.0)

        # [target, rater, (b, d, u, a)] local, synthesized and final opinions,
        # in one array so that they are checked without a copy
        opinions = np.empty((3, len(cols), len(rows), 4))
        local, syn, final = opinions

        # each rater's local opinion, and its weight as a recommender: the
        # weight of its last segment, times 2**scale
        _weighted_mean(segments, w, has, local)
        if slots:
            last = slots - 1 - np.argmax(present[:, ::-1], axis=1)
            recommend = np.take_along_axis(w, last[:, None], axis=1)[:, 0]
        else:
            recommend = np.zeros((len(cols), len(rows)))

        # [target, other, rater]: every other rater with evidence recommends
        # its local, its weight scaled by the power of two of the largest
        # other recommender's: the top one's, or for the top one the runner-up's
        rec_exp = np.where(has, _exponent(recommend) + scale, _ZERO_EXP)
        is_top = rows[None, :] == rows[np.argmax(rec_exp, axis=1)][:, None]
        first = rec_exp.max(axis=1, keepdims=True)
        second = np.where(is_top, _ZERO_EXP, rec_exp).max(axis=1, keepdims=True)
        others = rows[:, None] != rows[None, :]
        m = np.where(others, np.ldexp(recommend, np.minimum(scale - first, 0))[..., None], 0.0)
        t, r = np.nonzero(is_top)
        m[t, :, r] = np.where(others[:, r].T,
                              np.ldexp(recommend[t], np.minimum(scale[t] - second[t], 0)), 0.0)
        _weighted_mean(local[..., None], m, (others & has[..., None]).any(axis=1), syn)

        # consensus fusion with fuse_final's vacuous short-circuits
        ul, us = local[..., 2], syn[..., 2]
        ul_vacuous, us_vacuous = ul == 1.0, us == 1.0
        den = us + ul - us * ul
        fused = ~(ul_vacuous | us_vacuous)
        if (fused & (den <= 0)).any():
            raise ValueError("fusion undefined: both opinions are dogmatic (u=0)")
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(local[..., 0] * us + syn[..., 0] * ul, den, out=final[..., 0])
            np.divide(local[..., 1] * us + syn[..., 1] * ul, den, out=final[..., 1])
            np.divide(us * ul, den, out=final[..., 2])
        final[..., 3] = local[..., 3]
        final[ul_vacuous, :3] = syn[ul_vacuous, :3]
        final[us_vacuous, :3] = local[us_vacuous, :3]
        final[ul_vacuous & us_vacuous, :3] = (0.0, 0.0, 1.0)
        _check_opinions(opinions, True)
        return final[..., 0] + final[..., 2] * final[..., 3]


def _check_opinions(ops: np.ndarray, where, axis: int = -1) -> None:
    """Opinion's validation, in bulk, of the cells in `where` of `ops`,
    whose `axis` holds the components (b, d, u, a)."""
    b, d, u, _ = np.moveaxis(ops, axis, 0)
    off = np.abs(b + d + u - 1.0)
    # most often every cell is an opinion, which two extremes show (NaN fails them)
    if (ops.min(initial=0.0) >= -_SUM_TOL and ops.max(initial=0.0) <= 1.0 + _SUM_TOL
            and off.max(initial=0.0) <= _SUM_TOL):
        return
    in_range = ((-_SUM_TOL <= ops) & (ops <= 1.0 + _SUM_TOL)).all(axis=axis)
    bad = where & ~(in_range & ~(off > _SUM_TOL))
    if bad.any():
        Opinion(*np.moveaxis(ops, axis, -1)[bad][0].tolist())   # raises Opinion's own ValueError


def _exponent(v: np.ndarray) -> np.ndarray:
    """frexp's binary exponent of each v > 0, and _ZERO_EXP for v == 0."""
    return np.where(v > 0, np.frexp(v)[1], _ZERO_EXP)


def _weighted_mean(
    values: np.ndarray, weights: np.ndarray, has: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """synthesize_recommended over axis 1 of [t, k, (b, d, u, a), r] values
    with [t, k, r] weights, written to the [t, r, (b, d, u, a)] array `out`
    and returned; cells without recommendations are vacuous.

    Each [t, :, r] cell's weights are first scaled by the power of two that
    brings the largest into [0.5, 1). In the normal range that is exact and
    leaves every mean bit for bit as it was; it keeps subnormal weights
    from losing the opinions' closure, and huge ones from overflowing the sums.
    Every sum adds its k terms in index order, as synthesize_recommended does.
    """
    _, exponent = np.frexp(weights.max(axis=1, keepdims=True, initial=0.0))
    weights = np.ldexp(weights, -exponent)
    sums = _sum_in_order(weights[:, :, None] * values).transpose(0, 2, 1)
    totals = _sum_in_order(weights)
    if (has & (totals <= 0)).any():
        raise ValueError("total recommendation weight must be positive")
    out[:] = (0.0, 0.0, 1.0, _BASE_RATE)
    np.divide(sums, totals[..., None], out=out, where=has[..., None])
    return out


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """x summed over axis 1, adding in index order. numpy's reduce sums
    pairwise along the innermost axis it loops over: axis 1 itself when
    every later axis has length 1. There an accumulation adds in order."""
    x = np.ascontiguousarray(x)
    if x.shape[1] > 1 and math.prod(x.shape[2:]) == 1:
        return np.add.accumulate(x, axis=1)[:, -1]
    return np.add.reduce(x, axis=1)


def _cell(positives, negatives) -> np.ndarray:
    """The one-cell block of a scalar write. A count that is not a whole
    number is rejected here: an int array would read a bool as 0 or 1."""
    if not (whole(positives) and whole(negatives)):
        raise ValueError(_COUNT_RULE)
    return np.array([[[positives, negatives]]])


def _check_name(node) -> None:
    """The name rule of both rosters: a node is named by a string."""
    if not isinstance(node, str):
        raise ValueError(f"node names must be strings, got {node!r}")


def _check_lists(**lists) -> None:
    """The rule of every argument that lists names: a bare str is no list,
    though it would read as one name per character."""
    for what, names in lists.items():
        if isinstance(names, str):
            raise ValueError(f"{what} must be a list of names, not the str {names!r}")


def _check_slot(slot) -> None:
    """The slot rule of every engine write: a whole number >= 0, not a bool."""
    if not (whole(slot) and slot >= 0):
        raise ValueError(f"slot must be >= 0, a whole number and not a bool (got {slot!r})")


def _checked_block(
    raters: list[str], targets: list[str], counts: np.ndarray, index: dict[str, int],
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The int64 [cell, (positives, negatives)] counts of the cells with
    outcomes of the [target, rater, (positives, negatives)] array `counts`,
    and their (rater, target) ids in the roster `index`: the one cell rule
    of every reputation write.

    Neither name list may be a bare str (_check_lists). The array must
    hold integers, each in [0, _MAX_COUNT]. Cells whose counts are both 0
    are then skipped unchecked; the rest go through _checked_cells.
    """
    _check_lists(raters=raters, targets=targets)
    shape = (len(targets), len(raters), 2)
    if not isinstance(counts, np.ndarray) or counts.shape != shape:
        raise ValueError(f"counts must be an array shaped {shape}, one cell per "
                         "(target, rater)")
    if (counts.dtype.kind not in "iu"
            or counts.min(initial=0) < 0 or counts.max(initial=0) > _MAX_COUNT):
        raise ValueError(_COUNT_RULE)
    counts = counts.reshape(-1, 2).astype(np.int64, copy=False)
    kept = np.flatnonzero(counts[:, 0] | counts[:, 1])
    if len(kept) < len(counts):
        counts = counts.take(kept, axis=0)
    return counts, _checked_cells(raters, targets, kept, _ids(raters, index),
                                  _ids(targets, index), len(index))


def _checked_cells(
    raters: list[str], targets: list[str], cells: np.ndarray,
    rater_ids: np.ndarray, target_ids: np.ndarray, roster_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rater and target ids of the flat `cells` of a [target, rater]
    table, given each name's id (_ids) in a roster of `roster_size`
    names; cell k is raters[k % R] rating targets[k // R], R = len(raters).

    Each cell must have a rater other than its target, a (rater, target)
    pair no other cell has, and both names in the roster; the first bad
    cell raises its error. When no rater and no target repeats, every pair
    is distinct and the ids are not sorted.
    """
    t, r = np.divmod(cells, len(raters))
    i, j = rater_ids[r], target_ids[t]
    try:
        repeats = len(set(raters)) < len(raters) or len(set(targets)) < len(targets)
    except TypeError:    # an unhashable name: every pair is compared
        repeats = True
    if len(i) and (min(i.min(), j.min()) < 0 or (i == j).any()
                   or repeats and (np.diff(np.sort(i * roster_size + j)) == 0).any()):
        seen = set()
        for p, q in zip(r.tolist(), t.tolist()):
            rater, target = raters[p], targets[q]
            if rater == target:
                raise ValueError("rater and target must be distinct")
            if rater_ids[p] < 0 or target_ids[q] < 0:
                raise KeyError("both rater and target must be registered")
            if (rater, target) in seen:
                raise ValueError(f"pair {(rater, target)!r} occurs twice in one batch")
            seen.add((rater, target))
    return i, j


def _ids(names: list[str], index: dict[str, int]) -> np.ndarray:
    """Each name's id in the roster `index`, or -1 for a name outside it."""
    return np.array([_id(index, name) for name in names], dtype=np.intp)


def _id(index: dict[str, int], name) -> int:
    """name's id in the roster `index`, or -1: an unhashable name is in no roster."""
    try:
        return index.get(name, -1)
    except TypeError:
        return -1


class LinearReputationTracker:
    """Per-pair EMA over per-slot mean outcomes: the linear baseline scheme.

    The roster is fixed at construction: values live in one float array
    ``[rater, target]``, nodes named by strings, indexed in the order given
    and every cell starting at 0.5, and a write or read naming a node
    outside the roster raises ``KeyError``, as the engine's do. Each update
    is ``(1 - s) * prev + s * (positives / total)`` with s = 0.2;
    ``update_block`` applies it to a slot's ``[target, rater, (pos, neg)]``
    count array through the flat ``rater * n + target`` cells, and
    ``update`` to one pair.
    """

    def __init__(self, nodes) -> None:
        nodes = list(nodes)
        for node in nodes:
            _check_name(node)
        self._index = {node: i for i, node in enumerate(dict.fromkeys(nodes))}
        self._values = np.full((len(self._index), len(self._index)), _LR_INITIAL)

    def update(self, rater: str, target: str, positives: int, negatives: int) -> None:
        """update_block of the one cell (rater, target, positives, negatives)."""
        self.update_block([rater], [target], _cell(positives, negatives))

    def update_block(self, raters: list[str], targets: list[str], counts: np.ndarray) -> None:
        """Update the (raters[r], targets[t]) cell by counts[t, r] for
        every cell of one slot in one write, under _checked_block's cell
        rule. A rejected write changes nothing."""
        counts, (i, j) = _checked_block(raters, targets, counts, self._index)
        self._apply(i, j, counts)

    def _apply(self, i: np.ndarray, j: np.ndarray, counts: np.ndarray) -> None:
        """Update the (i, j) cells by the checked [cell, (positives,
        negatives)] counts."""
        total = counts[:, 0] + counts[:, 1]
        values = self._values.reshape(-1)    # [rater * n + target], a view
        cells = i * len(self._index) + j
        values[cells] = ((1.0 - _LR_SMOOTHING) * values.take(cells)
                         + _LR_SMOOTHING * (counts[:, 0] / total))

    def value(self, rater: str, target: str) -> float:
        try:
            return float(self._values[self._index[rater], self._index[target]])
        except (KeyError, TypeError):    # an unhashable name is in no roster
            raise KeyError(_UNREGISTERED) from None

    def average_reputation(self, target: str, raters: list[str]) -> float:
        """Mean value of `target` over `raters`, which must be distinct."""
        _check_lists(raters=raters)
        if not raters:
            raise ValueError("need at least one rater")
        try:
            if len(set(raters)) < len(raters):
                raise ValueError("raters must be distinct")
            column = self._values[:, self._index[target]].tolist()
            # Python's left-to-right sum: numpy's pairwise sum would change the bits
            return sum(column[self._index[r]] for r in raters) / len(raters)
        except (KeyError, TypeError):    # an unhashable name is in no roster
            raise KeyError(_UNREGISTERED) from None
