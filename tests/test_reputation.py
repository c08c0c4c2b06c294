"""Opinion algebra, evidence weighting, and the reputation engine."""

import math

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
            out[:, 0] += 0.1
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
        good = eng.average_reputation("j", at=4, raters=raters)
        bad = eng.average_reputation("m", at=4, raters=raters)
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

    def test_unknown_target_is_neutral(self):
        eng = self.build()
        assert eng.average_reputation("j", at=1, raters=["i"]) == pytest.approx(0.5)

    def test_tracker_matches_scalar_baseline(self):
        # one rater, whole-slot outcomes: the tracker must reduce to the EMA
        tr = LinearReputationTracker()
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
    evidence = {}
    for slot, i, j, p, q in draw(st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, 6), st.integers(0, 6)),
        max_size=30,
    )):
        if i != j:
            cell = evidence.setdefault((nodes[i], nodes[j], slot), [0, 0])
            cell[0] += p
            cell[1] += q
    target = draw(st.sampled_from(nodes))
    raters = draw(st.none() | st.lists(st.sampled_from(nodes), min_size=1, unique=True))
    at = draw(st.integers(-1, 9))
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

