"""Opinion algebra, evidence weighting, and the reputation engine."""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parkedchain import reputation
from parkedchain.reputation import (
    VACUOUS,
    LinearReputationTracker,
    Opinion,
    ReputationEngine,
    WeightConfig,
    average_final_reputation,
    familiarity_weight,
    fuse_final,
    linear_reputation_baseline,
    local_opinion,
    overall_weight,
    reputation_value,
    similarity_weight,
    synthesize_recommended,
    timeliness_weight,
)


@st.composite
def opinions(draw, max_uncertainty=1.0):
    b = draw(st.floats(0.0, 1.0, allow_nan=False))
    d = draw(st.floats(0.0, 1.0 - b, allow_nan=False))
    u = 1.0 - b - d
    if u > max_uncertainty:
        b, d, u = b + u - max_uncertainty, d, max_uncertainty
    a = draw(st.floats(0.0, 1.0, allow_nan=False))
    return Opinion(b, d, u, a)


class TestOpinion:
    def test_components_must_close(self):
        with pytest.raises(ValueError):
            Opinion(0.5, 0.5, 0.5)

    def test_components_must_be_bounded(self):
        with pytest.raises(ValueError):
            Opinion(1.2, -0.2, 0.0)

    def test_value_full_belief(self):
        assert reputation_value(Opinion(1.0, 0.0, 0.0, 0.5)) == 1.0

    def test_value_full_uncertainty_is_base_rate(self):
        assert reputation_value(Opinion(0.0, 0.0, 1.0, 0.5)) == 0.5

    def test_value_mixed(self):
        assert reputation_value(Opinion(0.5, 0.3, 0.2, 0.5)) == pytest.approx(0.6)


class TestLocalOpinion:
    def test_no_evidence_is_vacuous(self):
        o = local_opinion(0, 0)
        assert (o.belief, o.disbelief, o.uncertainty) == (0.0, 0.0, 1.0)

    def test_eight_positives(self):
        o = local_opinion(8, 0)
        assert (o.belief, o.disbelief, o.uncertainty) == (0.8, 0.0, 0.2)

    def test_symmetric_evidence(self):
        o = local_opinion(4, 4)
        assert (o.belief, o.disbelief, o.uncertainty) == (0.4, 0.4, 0.2)

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_positive_evidence_never_lowers_belief(self, p, q):
        base, more = local_opinion(p, q), local_opinion(p + 1, q)
        assert more.belief >= base.belief
        assert more.disbelief <= base.disbelief


class TestWeights:
    def test_familiarity_average_peer(self):
        assert familiarity_weight(5, [5, 5, 5]) == 1.0

    def test_familiarity_above_average(self):
        assert familiarity_weight(10, [2, 4, 6, 8, 5]) == pytest.approx(2.0)

    def test_familiarity_no_interactions(self):
        assert familiarity_weight(0, [1, 2, 3]) == 0.0

    def test_familiarity_rejects_dead_history(self):
        with pytest.raises(ValueError):
            familiarity_weight(0, [0, 0, 0])

    def test_timeliness_gap_four(self):
        cfg = WeightConfig()
        assert timeliness_weight(5, 1, cfg) == pytest.approx(1.25)

    def test_timeliness_gap_one(self):
        assert timeliness_weight(3, 2, WeightConfig()) == pytest.approx(10.0)

    def test_timeliness_degenerate_exponent(self):
        cfg = WeightConfig(alpha1=1.0, alpha2=1e-300)
        # exponent ~0: any gap weighs (almost exactly) 1
        assert timeliness_weight(9, 2, cfg) == pytest.approx(1.0)

    @pytest.mark.parametrize("weights", [
        {"alpha1": float("inf")},
        {"alpha2": float("nan")},
        {"gamma1": float("nan"), "gamma2": 0.4, "gamma3": 0.3},
    ], ids=["alpha1-inf", "alpha2-nan", "gamma1-nan"])
    def test_rejects_non_finite_coefficients(self, weights):
        with pytest.raises(ValueError, match="finite"):
            WeightConfig(**weights)

    def test_timeliness_rejects_future(self):
        with pytest.raises(ValueError):
            timeliness_weight(3, 3, WeightConfig())

    def test_similarity(self):
        assert similarity_weight(9, 9) == 1.0
        assert similarity_weight(9, 11) == pytest.approx(1 / 3)
        assert similarity_weight(0, 9) == pytest.approx(0.1)

    def test_overall_weight_of_ones(self):
        assert overall_weight(1, 1, 1, WeightConfig()) == pytest.approx(1.0)

    def test_overall_weight_mixed(self):
        w = overall_weight(2, 1.25, 1 / 3, WeightConfig())
        assert w == pytest.approx(1.2)

    def test_overall_weight_projection(self):
        cfg = WeightConfig(gamma1=1.0, gamma2=0.0, gamma3=0.0)
        assert overall_weight(7, 3, 9, cfg) == 7.0

    @given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 1))
    def test_overall_weight_linear_in_each_factor(self, x, y, z):
        cfg = WeightConfig()
        w0 = overall_weight(x, y, z, cfg)
        assert overall_weight(2 * x, y, z, cfg) == pytest.approx(w0 + cfg.gamma1 * x)


class TestSynthesize:
    def test_single_recommender_passthrough(self):
        o = Opinion(0.6, 0.2, 0.2, 0.4)
        s = synthesize_recommended([(3.0, o)])
        assert (s.belief, s.disbelief, s.uncertainty, s.base_rate) == \
            pytest.approx((o.belief, o.disbelief, o.uncertainty, o.base_rate))

    def test_equal_weight_mean(self):
        s = synthesize_recommended(
            [(1.0, Opinion(0.6, 0.2, 0.2)), (1.0, Opinion(0.4, 0.4, 0.2))]
        )
        assert (s.belief, s.disbelief, s.uncertainty) == \
            pytest.approx((0.5, 0.3, 0.2))

    def test_zero_weight_annihilates(self):
        keep = Opinion(0.6, 0.2, 0.2)
        s = synthesize_recommended([(2.0, keep), (0.0, Opinion(0.0, 0.9, 0.1))])
        assert s.belief == pytest.approx(keep.belief)

    def test_rejects_empty_and_weightless(self):
        with pytest.raises(ValueError):
            synthesize_recommended([])
        with pytest.raises(ValueError):
            synthesize_recommended([(0.0, VACUOUS)])

    @given(st.lists(st.tuples(st.floats(0.01, 5), opinions()), min_size=1, max_size=6))
    def test_closure(self, weighted):
        s = synthesize_recommended(weighted)
        assert abs(s.belief + s.disbelief + s.uncertainty - 1.0) < 1e-9


class TestFuse:
    def test_vacuous_neutrality(self):
        o = Opinion(0.6, 0.2, 0.2, 0.4)
        f = fuse_final(o, VACUOUS)
        assert (f.belief, f.disbelief, f.uncertainty) == \
            (o.belief, o.disbelief, o.uncertainty)

    def test_pinned_fusion(self):
        f = fuse_final(Opinion(0.6, 0.2, 0.2), Opinion(0.5, 0.3, 0.2))
        assert f.belief == pytest.approx(0.22 / 0.36)
        assert f.disbelief == pytest.approx(0.10 / 0.36)
        assert f.uncertainty == pytest.approx(0.04 / 0.36)
        assert f.belief + f.disbelief + f.uncertainty == pytest.approx(1.0)

    def test_commutes_with_vacuous_operand(self):
        o = Opinion(0.3, 0.5, 0.2, 0.7)
        a = fuse_final(o, VACUOUS)
        b = fuse_final(VACUOUS, o)
        assert (a.belief, a.disbelief, a.uncertainty) == \
            (b.belief, b.disbelief, b.uncertainty)

    def test_dogmatic_pair_rejected(self):
        with pytest.raises(ValueError):
            fuse_final(Opinion(1.0, 0.0, 0.0), Opinion(0.0, 1.0, 0.0))

    @given(opinions(), opinions())
    def test_closure_and_uncertainty_reduction(self, lo, so):
        if lo.uncertainty == 0.0 and so.uncertainty == 0.0:
            return
        f = fuse_final(lo, so)
        assert abs(f.belief + f.disbelief + f.uncertainty - 1.0) < 1e-9
        if lo.uncertainty < 1.0 and so.uncertainty < 1.0:
            assert f.uncertainty <= min(lo.uncertainty, so.uncertainty) + 1e-12


class TestAverages:
    def test_single(self):
        assert average_final_reputation([0.5]) == 0.5

    def test_mean(self):
        assert average_final_reputation([0.2, 0.4, 0.6]) == pytest.approx(0.4)

    def test_idempotent_on_constant(self):
        assert average_final_reputation([0.37] * 9) == pytest.approx(0.37)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_final_reputation([])


class TestLinearBaseline:
    def test_empty_history_is_prior(self):
        assert linear_reputation_baseline([]) == 0.5

    def test_one_positive(self):
        assert linear_reputation_baseline([1.0]) == pytest.approx(0.6)

    def test_positive_stream_limit(self):
        assert linear_reputation_baseline([1.0] * 200) > 0.999


class TestEngine:
    def build(self):
        eng = ReputationEngine()
        for node, hour in (("i", 9), ("k", 10), ("j", 9), ("m", 12)):
            eng.register(node, hour)
        return eng

    def test_view_opinions_close(self):
        eng = self.build()
        for slot in range(3):
            eng.record_outcomes(slot, "i", "j", 4, 1)
            eng.record_outcomes(slot, "k", "j", 3, 2)
        view = eng.view("j", at=3)
        assert all(0.0 <= v <= 1.0 for v in view.final_values.values())
        assert 0.0 <= view.average <= 1.0

    def test_view_checks_every_opinion(self, monkeypatch):
        # local and synthesized opinions that do not close must be rejected,
        # though the view builds no Opinion for them
        eng = self.build()
        eng.record_outcomes(0, "i", "j", 4, 1)
        weighted_mean = reputation._weighted_mean

        def skewed(*args):
            out = weighted_mean(*args)
            out[..., 0] += 0.1
            return out

        monkeypatch.setattr(reputation, "_weighted_mean", skewed)
        with pytest.raises(ValueError, match="!= 1"):
            eng.view("j", at=1)

    @pytest.mark.parametrize("base_rate", [-0.1, 1.5, math.nan])
    def test_base_rate_checked_at_construction(self, base_rate):
        with pytest.raises(ValueError, match="base_rate"):
            ReputationEngine(base_rate=base_rate)

    def test_more_positive_evidence_scores_higher(self):
        eng = self.build()
        for slot in range(4):
            eng.record_outcomes(slot, "i", "j", 5, 0)
            eng.record_outcomes(slot, "k", "j", 5, 0)
            eng.record_outcomes(slot, "i", "m", 1, 4)
            eng.record_outcomes(slot, "k", "m", 1, 4)
        raters = ["i", "k"]
        good, bad = eng.average_reputations(["j", "m"], at=4, raters=raters)
        assert good > bad

    def test_past_slot_ignores_later_evidence(self):
        # familiarity at slot 3 must not see slot-7 evidence about m
        eng = self.build()
        for slot in range(3):
            eng.record_outcomes(slot, "i", "j", 4, 1)
            eng.record_outcomes(slot, "i", "m", 2, 3)
            eng.record_outcomes(slot, "k", "j", 3, 2)
        view = eng.view("j", at=3)
        eng.record_outcomes(7, "i", "m", 9, 0)
        assert eng.view("j", at=3) == view

    def test_unregistered_node_rejected(self):
        eng = self.build()
        with pytest.raises(KeyError):
            eng.record_outcomes(0, "i", "x", 1, 0)
        with pytest.raises(KeyError):
            eng.view("j", at=1, raters=["x"])

    def test_reads_need_a_rater(self):
        eng = self.build()
        alone = ReputationEngine()
        alone.register("i", 9)
        tracker = LinearReputationTracker(eng.arrival_hours)
        reads = [lambda: eng.view("i", 1, raters=[]),
                 lambda: eng.average_reputations(["i", "k"], 1, raters=[]),
                 lambda: alone.view("i", 1),
                 lambda: tracker.average_reputation("i", [])]
        for read in reads:
            with pytest.raises(ValueError, match="^need at least one rater$"):
                read()

    @pytest.mark.parametrize("slot", [1.5, 1.0, True, np.True_, -1, "1", None])
    def test_write_slot_must_be_a_whole_number(self, slot):
        # a whole number >= 0, Python's or numpy's, and not a bool
        eng, cell = self.build(), np.array([[[1, 0]]])
        for write in (lambda: eng.record_outcomes(slot, "i", "j", 1, 0),
                      lambda: eng.record_outcomes(slot, "i", "j", 0, 0),
                      lambda: eng.record_block(slot, ["i"], ["j"], cell)):
            with pytest.raises(ValueError, match=f"slot must be .*got {slot!r}"):
                write()
        assert eng._evidence.size == 0
        eng.record_outcomes(np.int64(2), "i", "j", 1, 0)
        eng.record_block(np.uint8(2), ["i"], ["j"], cell)
        assert eng._evidence[2].sum() == 2

    @pytest.mark.parametrize("at", [math.nan, 1.5, 2.0, True, "2", None, -1, np.int64(-2)])
    def test_view_at_must_be_a_whole_number(self, at):
        # the slot rule of the writes: a whole number >= 0, not a bool
        eng = self.build()
        eng.record_outcomes(0, "i", "j", 4, 1)
        for read in (lambda: eng.view("j", at=at),
                     lambda: eng.average_reputations(["j"], at, ["i", "k"])):
            with pytest.raises(ValueError, match=f"at must be >= 0, .*got {re.escape(repr(at))}"):
                read()
        # a view of slot 0 holds slot 0's evidence, which counts as one slot old
        assert set(eng.view("j", at=0, raters=["k"]).final_values.values()) == {0.5}
        assert eng.view("j", at=0).final_values["i"] != 0.5
        assert eng.view("j", at=np.int64(1)) == eng.view("j", at=1)

    def test_view_reads_only_the_written_slots(self, monkeypatch):
        # after writes to slots 0-2 the array holds 4; a view still weighs
        # 3 slots, however far ahead the array has grown
        eng = self.build()
        for slot in range(3):
            eng.record_outcomes(slot, "i", "j", 4, 1)
        assert eng._evidence.shape[0] == 4
        ages = []
        monkeypatch.setattr(reputation, "timeliness_weight",
                            lambda t, t_ij, cfg: ages.append(t - t_ij) or 1.0)
        eng.view("j", at=10)
        assert ages == [10, 9, 8]

    def test_unknown_target_is_neutral(self):
        eng = self.build()
        assert eng.average_reputations(["j"], at=1, raters=["i"])[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("alpha1", [5e-324, 1e-320, 1e308])
    def test_extreme_alpha1_cancels(self, alpha1):
        # with the timeliness weight alone, alpha1 scales every weight alike
        # and cancels from the means, so a subnormal or huge one reads as 1
        values = []
        for a in (alpha1, 1.0):
            eng = ReputationEngine(WeightConfig(0.0, 1.0, 0.0, a, 0.5))
            for node, hour in (("i", 9), ("k", 10), ("j", 9), ("m", 12)):
                eng.register(node, hour)
            for slot in range(4):
                eng.record_outcomes(slot, "i", "j", 4, 1)
                eng.record_outcomes(slot, "k", "j", 1, 3)
                eng.record_outcomes(slot, "m", "j", 2, 2)
            values.append(eng.view("j", at=4).final_values)
        assert values[0] == pytest.approx(values[1], rel=1e-12)

    def test_weights_below_the_float_range_still_count(self):
        # alpha2 = 400 takes a ten-slot-old timeliness weight (10 * 10**-400)
        # below the float range; alone, and shared by two raters, it must
        # still weigh its segment, not fail as weightless
        eng = ReputationEngine(WeightConfig(0, 1, 0, 10.0, 400.0))
        for node in ("i", "j", "k"):
            eng.register(node, 9)
        eng.record_outcomes(0, "i", "j", 3, 1)
        assert eng.view("j", at=10, raters=["i"]).final_values == pytest.approx(
            eng.view("j", at=1, raters=["i"]).final_values)
        eng.record_outcomes(0, "k", "j", 1, 4)
        assert eng.view("j", at=10).final_values == pytest.approx(
            eng.view("j", at=1).final_values)
        # at slot 30 the two segments' weights are both below the float
        # range, in the ratio (29/30)**400
        eng.record_outcomes(1, "k", "j", 4, 1)
        local = synthesize_recommended([(1.0, local_opinion(4, 1)),
                                        ((29 / 30) ** 400, local_opinion(1, 4))])
        assert eng.view("j", at=30, raters=["k"]).final_values["k"] == pytest.approx(
            reputation_value(local), rel=1e-12)

    def test_recommendation_below_the_float_range_still_counts(self):
        # m's evidence is new and i's ten slots old: i's recommendation
        # weighs 10**-400 of m's, and is still the only one m receives
        eng = ReputationEngine(WeightConfig(0, 1, 0, 10.0, 400.0))
        for node in ("i", "j", "m"):
            eng.register(node, 9)
        eng.record_outcomes(0, "i", "j", 3, 1)
        eng.record_outcomes(9, "m", "j", 0, 4)
        old, new = local_opinion(3, 1), local_opinion(0, 4)
        assert eng.view("j", at=10).final_values == pytest.approx({
            "i": reputation_value(fuse_final(old, new)),
            "m": reputation_value(fuse_final(new, old))})

    def test_tracker_matches_scalar_baseline(self):
        # one rater, whole-slot outcomes: the tracker must reduce to the EMA
        tr = LinearReputationTracker(["i", "j"])
        tr.update("i", "j", 5, 0)
        tr.update("i", "j", 0, 5)
        expect = linear_reputation_baseline([1.0, 0.0])
        assert tr.value("i", "j") == pytest.approx(expect)


def reference_view(evidence, hours, target, at, raters, cfg, base_rate):
    """Every rater's final value in one view, from the public scalar helpers.

    `evidence` maps (rater, target, slot) to [positives, negatives]; only
    slots <= at count, familiarity included.
    """
    def segments(rater, tgt):
        return sorted((s, pq) for (r, t, s), pq in evidence.items()
                      if r == rater and t == tgt and s <= at and sum(pq))

    def weight(rater, slot):
        met = {}
        for (r, t, s), (p, q) in evidence.items():
            if r == rater and s <= at and p + q:
                met[t] = met.get(t, 0) + p + q
        x = familiarity_weight(met.get(target, 0), list(met.values()))
        y = timeliness_weight(at, min(slot, at - 1), cfg)
        z = similarity_weight(hours[rater], hours[target])
        return overall_weight(x, y, z, cfg)

    vacuous = Opinion(0.0, 0.0, 1.0, base_rate)
    local, recommend = {}, {}
    for rater in raters:
        weighted = []
        for slot, (p, q) in segments(rater, target):
            weighted.append((weight(rater, slot), local_opinion(p, q, base_rate)))
        local[rater] = synthesize_recommended(weighted) if weighted else vacuous
        if weighted:
            recommend[rater] = weighted[-1][0]
    values = {}
    for rater in raters:
        recs = [(recommend[o], local[o]) for o in raters
                if o != rater and o in recommend]
        synthesized = synthesize_recommended(recs) if recs else vacuous
        values[rater] = reputation_value(fuse_final(local[rater], synthesized))
    return values


@st.composite
def histories(draw):
    n = draw(st.integers(2, 8))
    nodes = [f"n{i}" for i in range(n)]
    hours = {node: draw(st.floats(0.0, 23.0)) for node in nodes}
    cells = draw(st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, 6), st.integers(0, 6)),
        max_size=30,
    ))
    target = draw(st.sampled_from(nodes))
    # None for every other node; often one rater, whose slots alone are summed
    raters = draw(st.none() | st.lists(st.sampled_from(nodes), min_size=1, max_size=1)
                  | st.lists(st.sampled_from(nodes), min_size=1, unique=True))
    # and the first rater rates every node slot after slot, which a short
    # random list seldom holds
    first = nodes.index((raters or [node for node in nodes if node != target])[0])
    cells += [(slot, first, j, draw(st.integers(0, 6)), draw(st.integers(0, 6)))
              for slot in range(draw(st.sampled_from(range(13)))) for j in range(n)]
    evidence = {}
    for slot, i, j, p, q in cells:
        if i != j:
            cell = evidence.setdefault((nodes[i], nodes[j], slot), [0, 0])
            cell[0] += p
            cell[1] += q
    # a read slot is a whole number >= 0; sampled_from draws slot counts and
    # read slots evenly, where integers() favours the small ones
    at = draw(st.sampled_from(range(13)))
    cfg = draw(st.sampled_from([
        WeightConfig(),
        WeightConfig(0.5, 0.2, 0.3, 3.0, 0.7),
        WeightConfig(1.0, 0.0, 0.0, 1.0, 0.0),
        WeightConfig(0.0, 0.0, 1.0, 10.0, 4.0),
    ]))
    base_rate = draw(st.sampled_from([0.5, 0.0, 0.3, 1.0]))
    return nodes, hours, evidence, target, raters, at, cfg, base_rate


class TestEngineMatchesScalarReference:
    @settings(deadline=None, max_examples=300)
    @given(histories())
    def test_view_is_bit_identical(self, case):
        nodes, hours, evidence, target, raters, at, cfg, base_rate = case
        eng = ReputationEngine(cfg, base_rate)
        for node in nodes:
            eng.register(node, hours[node])
        for (rater, tgt, slot), (p, q) in evidence.items():
            eng.record_outcomes(slot, rater, tgt, p, q)
        view = eng.view(target, at, raters)
        if raters is None:
            raters = [n for n in nodes if n != target]
        values = reference_view(evidence, hours, target, at, raters, cfg, base_rate)
        assert view.final_values == values

    def test_one_rater_over_twelve_slots_is_bit_identical(self):
        # with one rater a weight total sums along the slot axis alone,
        # which numpy's reduce adds pairwise from eight terms on; the
        # reference adds left to right
        evidence = {("i", "j", s): [s % 2 + 1, 3 * s % 4] for s in range(12)}
        evidence.update({("i", "k", s): [1, 1] for s in range(0, 12, 2)})
        hours = {"i": 8, "j": 11, "k": 9}
        eng = ReputationEngine()
        for node, hour in hours.items():
            eng.register(node, hour)
        for (rater, target, slot), (p, q) in evidence.items():
            eng.record_outcomes(slot, rater, target, p, q)
        values = reference_view(evidence, hours, "j", 12, ["i"], WeightConfig(), 0.5)
        assert eng.view("j", 12, ["i"]).final_values == values
        assert eng.average_reputations(["j"], 12, ["i"]).tolist() == [values["i"]]



@st.composite
def slot_batches(draw):
    """Registered nodes and, per slot, rows with each (rater, target) pair
    at most once; counts may be zero."""
    n = draw(st.integers(2, 7))
    nodes = [f"n{i}" for i in range(n)]
    pairs = [(r, t) for r in nodes for t in nodes if r != t]
    batches = []
    for slot in draw(st.lists(st.integers(0, 11), max_size=5)):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        batches.append((slot, [(r, t, draw(st.integers(0, 9)), draw(st.integers(0, 9)))
                               for r, t in chosen]))
    return nodes, batches


def rows_block(rows):
    """(raters, targets, counts) of the block whose diagonal holds `rows`,
    (rater, target, positives, negatives) each, in order, and whose other
    cells have no outcomes."""
    n = len(rows)
    values = np.array([row[2:] for row in rows], dtype=None if rows else np.int64).reshape(n, 2)
    counts = np.zeros((n, n, 2), dtype=values.dtype)
    counts[np.arange(n), np.arange(n)] = values
    return [row[0] for row in rows], [row[1] for row in rows], counts


class TestBatchedWrites:
    @staticmethod
    def engine(nodes, cfg=None, base_rate=0.5):
        eng = ReputationEngine(cfg, base_rate)
        for i, node in enumerate(nodes):
            eng.register(node, 8 + i % 5)
        return eng

    @settings(deadline=None, max_examples=200)
    @given(slot_batches())
    def test_slot_write_equals_row_writes(self, case):
        nodes, batches = case
        batched, single = self.engine(nodes), self.engine(nodes)
        tr_batched, tr_single = LinearReputationTracker(nodes), LinearReputationTracker(nodes)
        history: dict[tuple[str, str], list[float]] = {}
        for slot, rows in batches:
            batched.record_block(slot, *rows_block(rows))
            tr_batched.update_block(*rows_block(rows))
            for rater, target, p, q in rows:
                single.record_outcomes(slot, rater, target, p, q)
                tr_single.update(rater, target, p, q)
                if p + q:
                    history.setdefault((rater, target), []).append(p / (p + q))
        # the evidence array, whole (shape included)
        assert batched._evidence.shape == single._evidence.shape
        assert (batched._evidence == single._evidence).all()
        for r in nodes:
            for t in nodes:
                value = tr_batched.value(r, t)
                assert value == tr_single.value(r, t)
                assert value == linear_reputation_baseline(history.get((r, t), []))

    @settings(deadline=None, max_examples=100)
    @given(slot_batches(), st.data())
    def test_many_target_average_equals_views(self, case, data):
        nodes, batches = case
        cfg = data.draw(st.sampled_from([
            WeightConfig(), WeightConfig(0.5, 0.2, 0.3, 3.0, 0.7),
            WeightConfig(0.0, 0.0, 1.0, 10.0, 4.0)]))
        eng = self.engine(nodes, cfg, data.draw(st.sampled_from([0.5, 0.0, 0.3])))
        for slot, rows in batches:
            eng.record_block(slot, *rows_block(rows))
        raters = data.draw(st.lists(st.sampled_from(nodes), min_size=1, unique=True))
        targets = data.draw(st.lists(st.sampled_from(nodes), min_size=1))
        at = data.draw(st.integers(0, 13))
        if any(raters == [t] for t in targets):
            # a target that is the only rater leaves nobody to score it
            with pytest.raises(ValueError, match="at least one rater"):
                eng.average_reputations(targets, at, raters)
            return
        scores = eng.average_reputations(targets, at, raters)
        assert scores.tolist() == [
            eng.view(t, at, [r for r in raters if r != t]).average for t in targets]

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_many_target_average_matches_scalar_reference(self, data):
        # long histories, and one rater or many: at 8 or more slots or
        # raters a reduction along a contiguous axis would switch numpy to
        # pairwise summation and change the last bits
        n = data.draw(st.integers(2, 12))
        nodes = [f"n{i}" for i in range(n)]
        hours = {node: 8 + i % 5 for i, node in enumerate(nodes)}
        # dense histories, so that many slots and raters carry evidence
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        density = data.draw(st.sampled_from([0.2, 0.6, 1.0]))
        evidence = {
            (r, t, slot): [int(c) for c in rng.integers(0, 7, size=2)]
            for slot in range(data.draw(st.sampled_from(range(1, 13))))
            for r in nodes for t in nodes if r != t and rng.random() < density
        }
        cfg = data.draw(st.sampled_from([WeightConfig(), WeightConfig(0.5, 0.2, 0.3, 3.0, 0.7)]))
        eng = self.engine(nodes, cfg)
        for (rater, target, slot), (p, q) in evidence.items():
            eng.record_outcomes(slot, rater, target, p, q)
        # often one rater, whose slots alone are summed
        raters = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=1)
                           | st.lists(st.sampled_from(nodes), min_size=1, unique=True))
        # a target that is the only rater would leave nobody to score it
        scored = [node for node in nodes if raters != [node]]
        targets = data.draw(st.lists(st.sampled_from(scored), min_size=1, max_size=4))
        at = data.draw(st.sampled_from(range(13)))
        expected = [average_final_reputation(list(reference_view(
            evidence, hours, t, at, [r for r in raters if r != t], cfg, 0.5).values()))
            for t in targets]
        assert eng.average_reputations(targets, at, raters).tolist() == expected

    def test_many_target_average_rejects_repeated_raters(self):
        eng = self.engine(["i", "j", "k"])
        with pytest.raises(ValueError, match="distinct"):
            eng.average_reputations(["k"], 1, ["i", "j", "i"])

    BAD_ROWS = {
        "self-rating": (("n0", "n0", 1, 0), ValueError, "distinct"),
        "negative-count": (("n0", "n1", 2, -1), ValueError, ">= 0"),
        "unregistered": (("n0", "x", 1, 0), KeyError, "registered"),
        "fractional-count": (("n0", "n1", 1.5, 0), ValueError, "whole numbers"),
        "count-past-bound": (("n0", "n1", 0, 2**31), ValueError, "no greater than"),
        "bool-count": (("n0", "n1", True, False), ValueError, "not bools"),
        # in a batch of int rows, an array reads the bool as 1
        "mixed-bool": (("n0", "n1", 3, np.True_), ValueError, "not bools"),
    }

    @settings(deadline=None, max_examples=100)
    @given(slot_batches(), st.sampled_from(sorted(BAD_ROWS)), st.data())
    def test_all_writers_reject_the_same_rows(self, case, kind, data):
        # the engine's two writers and the tracker's two raise the row's
        # error for a bad row, alone or in a slot's block, and write
        # nothing; a name outside the roster included
        nodes, batches = case
        rows = batches[0][1] if batches else []
        bad, error, match = self.BAD_ROWS[kind]
        eng, tracker = self.engine(nodes), LinearReputationTracker(nodes)
        eng.record_block(2, *rows_block(rows))
        tracker.update_block(*rows_block(rows))
        evidence, values = eng._evidence.copy(), tracker._values.copy()
        mixed = rows[:]
        mixed.insert(data.draw(st.integers(0, len(rows))), bad)
        writes = [lambda: eng.record_outcomes(3, *bad), lambda: tracker.update(*bad)]
        if "bool" not in kind:
            # an integer array holds no bool: TestBlockWrites rejects bool arrays
            writes += [lambda: eng.record_block(3, *rows_block(mixed)),
                       lambda: tracker.update_block(*rows_block(mixed))]
        errors = set()
        for write in writes:
            with pytest.raises(error, match=match) as raised:
                write()
            errors.add((type(raised.value), str(raised.value)))
        assert len(errors) == 1
        assert eng._evidence.shape == evidence.shape and (eng._evidence == evidence).all()
        assert (tracker._values == values).all()

    def test_names_outside_the_roster_rejected_by_both_schemes(self):
        # both schemes rate a fixed roster: every write and read naming
        # another node raises KeyError and leaves every array as it was
        eng, tracker = self.engine(["i", "j", "k"]), LinearReputationTracker(["i", "j", "k"])
        eng.record_outcomes(1, "i", "j", 2, 1)
        tracker.update("i", "j", 2, 1)
        evidence, values = eng._evidence.copy(), tracker._values.copy()
        one = np.array([[[1, 0]]])
        for rater, target in (("x", "j"), ("i", "x")):
            calls = [lambda: eng.record_outcomes(1, rater, target, 1, 0),
                     lambda: eng.record_block(1, [rater], [target], one),
                     lambda: tracker.update(rater, target, 1, 0),
                     lambda: tracker.update_block([rater], [target], one),
                     lambda: eng.view(target, 1, [rater]),
                     lambda: eng.average_reputations([target], 1, [rater]),
                     lambda: tracker.value(rater, target),
                     lambda: tracker.average_reputation(target, [rater])]
            for call in calls[:4]:
                with pytest.raises(KeyError):
                    call()
            # every read in the engine's words
            for call in calls[4:]:
                with pytest.raises(KeyError, match="^'target and raters must be registered'$"):
                    call()
        assert eng._evidence.shape == evidence.shape and (eng._evidence == evidence).all()
        assert (tracker._values == values).all()
        assert list(eng._index) == list(tracker._index) == ["i", "j", "k"]

    def test_unhashable_names_are_unregistered(self):
        # a name that cannot be a dict key is in no roster: each call raises
        # the KeyError it raises for an unregistered name, not TypeError
        eng, tracker = self.engine(["a", "b"]), LinearReputationTracker(["a", "b"])
        one = np.array([[[1, 0]]])
        calls = [lambda name: eng.record_outcomes(1, name, "b", 1, 0),
                 lambda name: eng.record_outcomes(1, "a", name, 1, 0),
                 lambda name: eng.record_block(1, [name], ["b"], one),
                 lambda name: eng.view(name, 1, ["b"]),
                 lambda name: eng.view("a", 1, [name, "b"]),
                 lambda name: eng.average_reputations([name], 1, ["b"]),
                 lambda name: tracker.update(name, "b", 1, 0),
                 lambda name: tracker.update_block(["a"], [name], one),
                 lambda name: tracker.value("a", name),
                 lambda name: tracker.average_reputation("a", [name])]
        for call in calls:
            with pytest.raises(KeyError) as unregistered:
                call("x")
            for name in (["a"], {"a": 1}, {"b"}):
                with pytest.raises(KeyError) as unhashable:
                    call(name)
                assert str(unhashable.value) == str(unregistered.value)
        assert not eng._evidence.any() and (tracker._values == 0.5).all()
        # an unhashable name in a cell without outcomes is skipped unchecked,
        # as an unregistered one is
        eng.record_block(1, ["a", ["x"]], ["b"], np.array([[[1, 0], [0, 0]]]))
        assert eng._evidence.sum() == 1

    def test_tracker_rejects_self_ratings_and_negative_counts(self):
        tracker = LinearReputationTracker(["a", "b", "c", "d"])
        for row in [("a", "b", 5, -4), ("a", "a", 1, 0), ("a", "b", 2, -2)]:
            with pytest.raises(ValueError):
                tracker.update(*row)
            with pytest.raises(ValueError):
                tracker.update_block(*rows_block([("c", "d", 1, 0), row]))
        assert (tracker._values == 0.5).all()

    @pytest.mark.parametrize("hour", [-1, -0.5, math.nan, math.inf])
    def test_register_checks_the_hour(self, hour):
        eng = self.engine(["i", "j"])
        for node in ("x", "i"):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                eng.register(node, hour)
        assert eng.arrival_hours == {"i": 8, "j": 9} and list(eng._index) == ["i", "j"]
        with pytest.raises(ValueError, match="nonnegative and finite"):
            similarity_weight(hour, 9.0)

    @pytest.mark.parametrize("name", [5, None, b"i", ("i",), ["i"]])
    def test_names_must_be_strings(self, name):
        # a rejected name is named, and registers nothing
        eng = self.engine(["i", "j"])
        for build in (lambda: eng.register(name, 9.0),
                      lambda: LinearReputationTracker(["i", name])):
            with pytest.raises(ValueError, match=f"must be strings, got {re.escape(repr(name))}$"):
                build()
        assert eng.arrival_hours == {"i": 8, "j": 9} and list(eng._index) == ["i", "j"]

    @settings(deadline=None, max_examples=100)
    @given(slot_batches(), st.data())
    def test_slot_write_rejects_repeated_pair_and_negative_slot(self, case, data):
        nodes, batches = case
        recorded = [[row for row in rows if row[2] or row[3]] for _, rows in batches]
        rows = next((rows for rows in recorded if rows), [("n0", "n1", 1, 1)])
        eng, tracker = self.engine(nodes), LinearReputationTracker(nodes)
        with pytest.raises(ValueError, match="slot must be >= 0"):
            eng.record_block(-1, *rows_block(rows))
        repeated = rows + [data.draw(st.sampled_from(rows))[:2] + (1, 0)]
        with pytest.raises(ValueError, match="twice"):
            eng.record_block(3, *rows_block(repeated))
        with pytest.raises(ValueError, match="twice"):
            tracker.update_block(*rows_block(repeated))
        assert not eng._evidence.any()
        assert all(tracker.value(r, t) == 0.5 for r in nodes for t in nodes)

    def test_fractional_counts_rejected(self):
        eng, tracker = self.engine(["i", "j"]), LinearReputationTracker(["i", "j"])
        with pytest.raises(ValueError, match="whole numbers"):
            eng.record_block(0, *rows_block([("i", "j", 0.5, 1)]))
        with pytest.raises(ValueError, match="whole numbers"):
            tracker.update("i", "j", 0.5, 0.5)
        for counts in [(0.5, 0), (2.7, 0), (1, 0.0)]:
            with pytest.raises(ValueError, match="whole numbers"):
                eng.record_outcomes(0, "i", "j", *counts)
        assert not eng._evidence.any()

    @pytest.mark.parametrize("counts", [(2**62, 0), (0, 2**63), (2**70, 0), (2**31, 1)])
    def test_counts_past_the_bound_rejected(self, counts):
        eng, tracker = self.engine(["i", "j"]), LinearReputationTracker(["i", "j"])
        for write in (lambda: eng.record_outcomes(0, "i", "j", *counts),
                      lambda: eng.record_block(1, *rows_block([("i", "j", *counts)])),
                      lambda: tracker.update_block(*rows_block([("i", "j", *counts)]))):
            with pytest.raises(ValueError, match="no greater than 2147483647"):
                write()
        assert eng._evidence.size == 0 and tracker.value("i", "j") == 0.5

    def test_stored_counts_stay_within_the_bound(self):
        top = 2**31 - 1
        eng = self.engine(["i", "j", "k"])
        eng.record_outcomes(0, "i", "j", top, 0)
        eng.record_block(1, ["i", "k"], ["j"], np.array([[[0, top], [top, top]]]))
        before = eng._evidence.copy()
        with pytest.raises(ValueError, match="would pass 2147483647"):
            eng.record_outcomes(0, "i", "j", 1, 1)
        with pytest.raises(ValueError, match="would pass 2147483647"):
            eng.record_block(1, *rows_block([("j", "i", 1, 0), ("i", "j", 0, 1)]))
        assert (eng._evidence == before).all()
        # full cells: the view still matches the scalar reference bit for bit
        evidence = {("i", "j", 0): [top, 0], ("i", "j", 1): [0, top], ("k", "j", 1): [top, top]}
        hours = {"i": 8, "j": 9, "k": 10}
        assert eng.view("j", at=2, raters=["i", "k"]).final_values == reference_view(
            evidence, hours, "j", 2, ["i", "k"], WeightConfig(), 0.5)

    def test_rows_without_outcomes_are_skipped_unchecked(self):
        # only the count rule (whole and bounded) and the slot are checked
        # before a cell with both counts 0 is skipped
        eng = self.engine(["i", "j"])
        eng.record_block(0, ["i", "x"], ["i", "j"], np.zeros((2, 2, 2), dtype=np.int64))
        eng.record_outcomes(0, "i", "i", 0, 0)
        eng.record_outcomes(0, "x", "j", 0, 0)
        assert eng._evidence.size == 0


@st.composite
def blocks(draw):
    """Registered nodes and one slot's [target, rater, (pos, neg)] counts,
    often with bad cells: a name never registered, a repeated name (a
    self-rating or a pair twice), negative or too large counts, or a count
    dtype that is bool or float."""
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 4)))]
    names = st.sampled_from(nodes + ["x"])
    raters = draw(st.lists(names, min_size=1, max_size=4))
    targets = draw(st.lists(names, min_size=1, max_size=3))
    values = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5, -1, 2**31]),
                           min_size=2 * len(targets) * len(raters),
                           max_size=2 * len(targets) * len(raters)))
    dtype = draw(st.sampled_from([np.int64, np.int64, np.int32, np.uint8, np.bool_, np.float64]))
    counts = np.array(values).astype(dtype).reshape(len(targets), len(raters), 2)
    return nodes, raters, targets, counts


class TestBlockWrites:
    @staticmethod
    def attempt(write, state):
        """The (type, message) of the error `write` raises, or None; a
        rejected write must leave `state()` as it was."""
        before = state()
        try:
            write()
        except (ValueError, KeyError) as err:
            assert state() == before
            return type(err), str(err)
        return None

    @settings(deadline=None, max_examples=300)
    @given(blocks())
    def test_block_writes_equal_cell_writes(self, case):
        # record_block and update_block write what record_outcomes and
        # update write cell by cell, target by target. A block with a bad
        # cell raises what its cells raise one by one: any cell's count
        # error first, as the count rule covers the whole array, then in
        # cell order each cell's other error or a pair already seen among
        # the cells with outcomes
        nodes, raters, targets, counts = case
        cells = [(rater, target, *counts[t, r].tolist())
                 for t, target in enumerate(targets) for r, rater in enumerate(raters)]
        eng, tracker = TestBatchedWrites.engine(nodes), LinearReputationTracker(nodes)
        eng.record_outcomes(1, "n0", "n1", 2, 1)
        tracker.update("n1", "n0", 1, 1)

        def evidence(eng):
            return lambda: (eng._evidence.shape, eng._evidence.tobytes())

        def values(tracker):
            return lambda: (dict(tracker._index), tracker._values.tobytes())

        def expected(alone):
            counted = [error for error in alone if error and "outcome counts" in error[1]]
            if counted:
                return counted[0]
            seen = set()
            for (rater, target, p, q), error in zip(cells, alone):
                if error:
                    return error
                if p or q:
                    if (rater, target) in seen:
                        return ValueError, f"pair {(rater, target)!r} occurs twice in one batch"
                    seen.add((rater, target))
            return None

        for scheme, state, block_write, cell_write in (
            (eng, evidence, lambda w: w.record_block(3, raters, targets, counts),
             lambda w, cell: w.record_outcomes(3, *cell)),
            (tracker, values, lambda w: w.update_block(raters, targets, counts),
             lambda w, cell: w.update(*cell)),
        ):
            block, by_cells = scheme, copy.deepcopy(scheme)
            alone = []
            for cell in cells:
                alone_scheme = copy.deepcopy(by_cells)
                alone.append(self.attempt(lambda: cell_write(alone_scheme, cell),
                                          state(alone_scheme)))
            error = expected(alone)
            assert self.attempt(lambda: block_write(block), state(block)) == error
            if error is None:
                for cell in cells:
                    cell_write(by_cells, cell)
            assert state(block)() == state(by_cells)()

    @pytest.mark.parametrize("counts", [np.zeros((2, 2, 2), dtype=np.int64),
                                        np.zeros((1, 2), dtype=np.int64),
                                        [[[0, 0], [1, 0]]]])
    def test_block_must_be_an_array_of_the_cells(self, counts):
        eng, tracker = TestBatchedWrites.engine(["i", "j"]), LinearReputationTracker(["i", "j"])
        for write in (lambda: eng.record_block(0, ["i", "j"], ["j"], counts),
                      lambda: tracker.update_block(["i", "j"], ["j"], counts)):
            with pytest.raises(ValueError, match=r"shaped \(1, 2, 2\)"):
                write()
        assert eng._evidence.size == 0 and (tracker._values == 0.5).all()

    @pytest.mark.parametrize("case", ["past-capacity", "registered-after", "deep-copy"])
    def test_cell_writes_equal_block_writes(self, case):
        # record_outcomes writes a cell of a slot and roster the array
        # already holds without growing it; each write leaves the array,
        # its shape and the written-slot count as record_block's does
        def state(eng):
            return eng._evidence.shape, eng._evidence.tobytes(), eng._slots

        by_cell, by_block = (TestBatchedWrites.engine(["i", "j", "k"]) for _ in range(2))
        writes = [(0, "i", "j", 2, 1), (0, "j", "i", 1, 0)]
        if case == "past-capacity":
            # slots 1 and 2 double the one-slot array twice, slot 3 fits it
            # but is past the written slots, slot 9 grows it to 10, and
            # slots 5 and 9 then fit
            writes += [(1, "k", "j", 0, 2), (2, "i", "k", 1, 1), (3, "k", "i", 4, 0),
                       (9, "j", "k", 1, 0), (5, "i", "k", 2, 0), (9, "j", "k", 0, 3)]
        for slot, rater, target, pos, neg in writes:
            by_cell.record_outcomes(slot, rater, target, pos, neg)
            by_block.record_block(slot, [rater], [target], np.array([[[pos, neg]]]))
            assert state(by_cell) == state(by_block)
        if case == "registered-after":
            # ids 0 and 1 fit the array, but the roster no longer does
            for eng in (by_cell, by_block):
                eng.register("m", 11)
            writes = [(0, "i", "j", 1, 1), (0, "m", "i", 3, 0), (1, "j", "m", 0, 1)]
        elif case == "deep-copy":
            originals = [(eng, state(eng)) for eng in (by_cell, by_block)]
            by_cell, by_block = copy.deepcopy(by_cell), copy.deepcopy(by_block)
            writes = [(0, "i", "j", 1, 1), (1, "k", "j", 2, 0), (0, "k", "i", 1, 0)]
        for slot, rater, target, pos, neg in writes:
            by_cell.record_outcomes(slot, rater, target, pos, neg)
            by_block.record_block(slot, [rater], [target], np.array([[[pos, neg]]]))
            assert state(by_cell) == state(by_block)
        if case == "deep-copy":
            assert all(state(eng) == before for eng, before in originals)
        assert by_cell.view("j", 2) == by_block.view("j", 2)
