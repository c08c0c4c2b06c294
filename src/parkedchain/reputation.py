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

import csv
from dataclasses import dataclass, field

__all__ = [
    "Opinion",
    "InteractionRecord",
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
    "load_history",
    "dump_history",
]

# Evidence prior weight of the standard beta-evidence mapping.
EVIDENCE_PRIOR_WEIGHT = 2.0

_SUM_TOL = 1e-9


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

    @property
    def value(self) -> float:
        return reputation_value(self)


VACUOUS = Opinion(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class InteractionRecord:
    """One rated interaction (or an aggregated count of identical ones)."""

    rater: str
    target: str
    slot: int
    positive: bool
    count: int = 1

    def __post_init__(self) -> None:
        if self.rater == self.target:
            raise ValueError("rater and target must be distinct")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.slot < 0:
            raise ValueError("slot must be >= 0")


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
    local: dict[str, Opinion] = field(default_factory=dict)
    synthesized: dict[str, Opinion] = field(default_factory=dict)
    final: dict[str, Opinion] = field(default_factory=dict)
    final_values: dict[str, float] = field(default_factory=dict)

    @property
    def average(self) -> float:
        return average_final_reputation(list(self.final_values.values()))


def local_opinion(history: list[InteractionRecord], prior: float = 0.5) -> Opinion:
    """Map positive/negative evidence counts to an opinion.

    Standard beta-evidence mapping with prior weight W: with P positive and
    Q negative observations, b = P/(P+Q+W), d = Q/(P+Q+W), u = W/(P+Q+W).
    Empty history yields the vacuous opinion.
    """
    pos = sum(r.count for r in history if r.positive)
    neg = sum(r.count for r in history if not r.positive)
    total = pos + neg + EVIDENCE_PRIOR_WEIGHT
    return Opinion(pos / total, neg / total, EVIDENCE_PRIOR_WEIGHT / total, prior)


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


def linear_reputation_baseline(
    history: list[float], smoothing: float = 0.2, initial: float = 0.5
) -> float:
    """EMA of outcome indicators: the linear comparison scheme."""
    value = initial
    for outcome in history:
        value = (1.0 - smoothing) * value + smoothing * outcome
    return value


class ReputationEngine:
    """Bookkeeping for multi-weight subjective-logic reputation over slots.

    Interactions are stored as per-slot evidence segments per (rater, target)
    pair. A target's reputation at slot t is assembled in four steps:
    segment opinions weighted by (familiarity, timeliness, similarity) give
    each rater's local opinion; other raters' locals are synthesized with the
    same weights; local and synthesized opinions are fused; the fused values
    are averaged over raters.
    """

    def __init__(self, cfg: WeightConfig | None = None, base_rate: float = 0.5):
        self.cfg = cfg or WeightConfig()
        self.base_rate = base_rate
        self.arrival_hours: dict[str, float] = {}
        # (rater, target) -> slot -> [pos, neg]
        self._segments: dict[tuple[str, str], dict[int, list[int]]] = {}
        # rater -> target -> total interaction count (familiarity source)
        self._counts: dict[str, dict[str, int]] = {}

    def register(self, node: str, arrival_hour: float) -> None:
        self.arrival_hours[node] = arrival_hour

    def record(self, rec: InteractionRecord) -> None:
        if rec.rater not in self.arrival_hours or rec.target not in self.arrival_hours:
            raise KeyError("both rater and target must be registered")
        seg = self._segments.setdefault((rec.rater, rec.target), {})
        cell = seg.setdefault(rec.slot, [0, 0])
        cell[0 if rec.positive else 1] += rec.count
        self._counts.setdefault(rec.rater, {})
        self._counts[rec.rater][rec.target] = (
            self._counts[rec.rater].get(rec.target, 0) + rec.count
        )

    def record_outcomes(
        self, slot: int, rater: str, target: str, positives: int, negatives: int
    ) -> None:
        if positives:
            self.record(InteractionRecord(rater, target, slot, True, positives))
        if negatives:
            self.record(InteractionRecord(rater, target, slot, False, negatives))

    def _familiarity(self, rater: str, target: str) -> float:
        counts = self._counts.get(rater, {})
        if not counts:
            return 0.0
        return familiarity_weight(counts.get(target, 0), list(counts.values()))

    def _segment_weight(self, rater: str, target: str, slot: int, at: int) -> float:
        x = self._familiarity(rater, target)
        # interactions in the current slot are treated as one slot old
        y = timeliness_weight(at, min(slot, at - 1), self.cfg)
        z = similarity_weight(self.arrival_hours[rater], self.arrival_hours[target])
        return overall_weight(x, y, z, self.cfg)

    def local(self, rater: str, target: str, at: int) -> Opinion:
        """Weighted aggregate of the pair's per-slot segment opinions."""
        segments = self._segments.get((rater, target), {})
        weighted: list[tuple[float, Opinion]] = []
        for slot, (pos, neg) in sorted(segments.items()):
            if slot > at:
                continue
            total = pos + neg + EVIDENCE_PRIOR_WEIGHT
            seg_op = Opinion(
                pos / total, neg / total, EVIDENCE_PRIOR_WEIGHT / total, self.base_rate
            )
            weighted.append((self._segment_weight(rater, target, slot, at), seg_op))
        if not weighted:
            return Opinion(0.0, 0.0, 1.0, self.base_rate)
        return synthesize_recommended(weighted)

    def view(self, target: str, at: int, raters: list[str] | None = None) -> ReputationView:
        if raters is None:
            raters = [n for n in sorted(self.arrival_hours) if n != target]
        view = ReputationView(target=target, slot=at)
        for rater in raters:
            view.local[rater] = self.local(rater, target, at)
        for rater in raters:
            recs: list[tuple[float, Opinion]] = []
            for other in raters:
                if other == rater:
                    continue
                seg = self._segments.get((other, target), {})
                past = [s for s in seg if s <= at]
                if not past:
                    continue
                y = timeliness_weight(at, min(max(past), at - 1), self.cfg)
                w = overall_weight(
                    self._familiarity(other, target),
                    y,
                    similarity_weight(
                        self.arrival_hours[other], self.arrival_hours[target]
                    ),
                    self.cfg,
                )
                recs.append((w, view.local[other]))
            if recs:
                syn = synthesize_recommended(recs)
            else:
                syn = Opinion(0.0, 0.0, 1.0, self.base_rate)
            fin = fuse_final(view.local[rater], syn)
            view.synthesized[rater] = syn
            view.final[rater] = fin
            view.final_values[rater] = reputation_value(fin)
        return view

    def average_reputation(
        self, target: str, at: int, raters: list[str] | None = None
    ) -> float:
        return self.view(target, at, raters).average


class LinearReputationTracker:
    """Per-pair EMA over per-slot mean outcomes: the linear baseline scheme."""

    def __init__(self, smoothing: float = 0.2, initial: float = 0.5):
        self.smoothing = smoothing
        self.initial = initial
        self._values: dict[tuple[str, str], float] = {}

    def update(self, rater: str, target: str, positives: int, negatives: int) -> None:
        total = positives + negatives
        if total == 0:
            return
        key = (rater, target)
        prev = self._values.get(key, self.initial)
        mean_outcome = positives / total
        self._values[key] = (
            (1.0 - self.smoothing) * prev + self.smoothing * mean_outcome
        )

    def value(self, rater: str, target: str) -> float:
        return self._values.get((rater, target), self.initial)

    def average_reputation(self, target: str, raters: list[str]) -> float:
        if not raters:
            raise ValueError("need at least one rater")
        return sum(self.value(r, target) for r in raters) / len(raters)


def load_history(path: str) -> list[InteractionRecord]:
    """Read interaction records from CSV columns slot,rater,target,outcome."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for lineno, row in enumerate(reader, start=2):
            outcome = row.get("outcome")
            if outcome not in ("0", "1"):
                raise ValueError(
                    f"row {lineno}: outcome must be 0 or 1, got {outcome!r}"
                )
            try:
                slot = int(row["slot"])
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"row {lineno}: bad slot {row.get('slot')!r}") from None
            records.append(
                InteractionRecord(
                    rater=row["rater"],
                    target=row["target"],
                    slot=slot,
                    positive=outcome == "1",
                )
            )
    return records


def dump_history(records: list[InteractionRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "rater", "target", "outcome"])
        for rec in records:
            for _ in range(rec.count):
                writer.writerow(
                    [rec.slot, rec.rater, rec.target, 1 if rec.positive else 0]
                )
