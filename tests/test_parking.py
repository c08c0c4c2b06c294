"""Dual-Gamma stay statistics, type classification, trace plumbing."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from parkedchain import parking
from parkedchain.parking import (
    DEFAULT_MIXTURE,
    Arrivals,
    GammaMixtureParams,
    HourMixture,
    Parked,
    PVState,
    TypeProfile,
    _stay,
    classify_types,
    density,
    hourly_type_profile,
    ingest_trace,
    leave_probability,
    stay_probability,
    stay_probabilities,
    survival,
    surviving_population,
    synthesize_population,
)

EXP_MIX = HourMixture(h_short=1.0, h_long=0.0, shape_short=1.0,
                      shape_long=1.0, scale_short=2.0, scale_long=1.0)


def exp_params(scale=2.0):
    m = HourMixture(1.0, 0.0, 1.0, 1.0, scale, 1.0)
    return GammaMixtureParams(default=m)


def as_parked(arrival_hours, hour, horizon=1.0):
    """The vehicles of the given arrival hours parked at query `hour`,
    vehicle i in row i."""
    return Parked(np.arange(len(arrival_hours)), arrival_hours, hour, horizon)


def memoryless(stays, horizon=1.0):
    """Per-hour exponential mixtures under which a vehicle that arrived at
    hour a stays `horizon` more hours with probability stays[a], however
    long it has been parked."""
    return GammaMixtureParams(per_hour={
        a: HourMixture(1.0, 0.0, 1.0, 1.0, -horizon / math.log(p), 1.0)
        for a, p in enumerate(stays)})


class TestDensity:
    def test_exponential_special_case(self):
        params = exp_params(scale=2.0)
        assert density(2.0, 9, params) == pytest.approx(0.5 * math.exp(-1.0))

    def test_integrates_to_one(self):
        params = GammaMixtureParams()
        total, err = integrate.quad(lambda t: density(t, 9, params), 1e-12, 200)
        assert abs(total - 1.0) < 1e-6

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(0)
        params = GammaMixtureParams()
        for t in rng.uniform(1e-9, 50, size=1000):
            assert density(float(t), 0, params) >= 0.0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            density(0.0, 9, GammaMixtureParams())


class TestStayProbability:
    def test_vanishing_horizon(self):
        pv = PVState(1, 9, parked_hours=2.0, horizon=1e-12)
        assert stay_probability(pv, GammaMixtureParams()) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_closed_form(self):
        params = exp_params(scale=2.0)
        pv = PVState(1, 9, parked_hours=3.0, horizon=1.5)
        assert stay_probability(pv, params) == pytest.approx(
            math.exp(-1.5 / 2.0), abs=1e-12
        )

    def test_memoryless_exponential(self):
        params = exp_params(scale=2.0)
        early = stay_probability(PVState(1, 9, 1.0, 1.0), params)
        late = stay_probability(PVState(1, 9, 5.0, 1.0), params)
        assert abs(early - late) < 1e-9

    def test_monotone_in_horizon(self):
        params = GammaMixtureParams()
        probs = [
            stay_probability(PVState(1, 9, 2.0, tau), params)
            for tau in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        params = GammaMixtureParams()
        for _ in range(1000):
            pv = PVState(1, int(rng.integers(24)),
                         float(rng.uniform(0, 10)), float(rng.uniform(0.1, 5)))
            ps = stay_probability(pv, params)
            po = leave_probability(pv, params)
            assert abs(ps + po - 1.0) < 1e-12

    def test_matches_direct_integral_form(self):
        # quadrature of the density is the unrearranged survival ratio
        params = GammaMixtureParams()
        pv = PVState(1, 9, parked_hours=2.5, horizon=1.5)
        upper, _ = integrate.quad(lambda t: density(t, 9, params), pv.parked_hours, 400)
        both, _ = integrate.quad(
            lambda t: density(t, 9, params), pv.parked_hours + pv.horizon, 400
        )
        assert stay_probability(pv, params) == pytest.approx(both / upper, abs=1e-9)

    def test_beyond_numeric_support(self):
        with pytest.raises(ValueError, match=r"^parked duration 800.0 h is beyond the "
                           r"mixture's numeric support \(survival underflowed to 0\)$"):
            stay_probability(PVState(1, 9, 800.0, 1.0), exp_params(scale=1.0))


class TestMonteCarloOracle:
    def test_conditional_frequency(self):
        rng = np.random.default_rng(7)
        params = GammaMixtureParams()
        m = params.at(9)
        n = 500_000
        pick = rng.random(n) < m.h_short
        durations = np.where(
            pick,
            rng.gamma(m.shape_short, m.scale_short, size=n),
            rng.gamma(m.shape_long, m.scale_long, size=n),
        )
        pv = PVState(1, 9, parked_hours=2.0, horizon=1.0)
        alive = durations > pv.parked_hours
        est = (durations > pv.parked_hours + pv.horizon).sum() / alive.sum()
        assert stay_probability(pv, params) == pytest.approx(est, abs=2e-3)


class TestClassifyTypes:
    def test_quantile_split_pin(self):
        params = memoryless((0.2, 0.4, 0.6, 0.8))
        profile = classify_types(as_parked([0, 1, 2, 3], 9), params, 2)
        assert profile.thetas == pytest.approx((0.3, 0.7))
        assert profile.betas == pytest.approx((0.5, 0.5))

    def test_identical_population_collapses(self):
        params = exp_params()
        profile = classify_types(as_parked([9] * 8, 10), params, 4)
        assert profile.n_types == 1
        assert profile.betas == (1.0,)

    def test_thetas_strictly_ascending(self):
        rng = np.random.default_rng(5)
        params = GammaMixtureParams()
        for hour, horizon in ((15, 1.7), (4, 0.5), (22, 3.0)):
            pvs = as_parked(rng.integers(24, size=60), hour, horizon)
            for n in (2, 3, 5, 7):
                profile = classify_types(pvs, params, n)
                assert all(b > a for a, b in zip(profile.thetas, profile.thetas[1:]))
                assert sum(profile.betas) == pytest.approx(1.0)

    def test_refinement_preserves_weighted_mean(self):
        rng = np.random.default_rng(11)
        params = GammaMixtureParams()
        pvs = as_parked(rng.integers(24, size=90), 17)
        means = [
            sum(t * b for t, b in zip(p.thetas, p.betas))
            for p in (classify_types(pvs, params, n) for n in (2, 3, 6))
        ]
        assert means[0] == pytest.approx(means[1], abs=1e-12)
        assert means[1] == pytest.approx(means[2], abs=1e-12)

    def test_rejects_empty_and_single_bin(self):
        with pytest.raises(ValueError):
            classify_types(surviving_population(Arrivals([8], [1.0]), 20),
                           GammaMixtureParams(), 2)
        with pytest.raises(ValueError):
            classify_types(as_parked([9], 10), GammaMixtureParams(), 1)


class TestIngestTrace:
    def test_single_record(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("arrival_hour,duration_hours\n9,4.0\n")
        arrivals = ingest_trace(str(path))
        hist = np.bincount(arrivals.hours, minlength=24)
        assert hist[9] == 1 and sum(hist) == 1
        assert arrivals.hours.tolist() == [9] and arrivals.durations.tolist() == [4.0]

    def test_row_count_conserved(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = [
            f"{int(rng.integers(24))},{float(rng.uniform(0.5, 9)):.3f}"
            for _ in range(500)
        ]
        path = tmp_path / "trace.csv"
        path.write_text("arrival_hour,duration_hours\n" + "\n".join(rows) + "\n")
        arrivals = ingest_trace(str(path))
        hist = np.bincount(arrivals.hours, minlength=24)
        assert sum(hist) == len(arrivals) == 500

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("arrival_hour,duration_hours\n9,4.0\n25,1.0\n")
        with pytest.raises(ValueError, match="row 3"):
            ingest_trace(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("arrival_hour,duration_hours\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest_trace(str(path))

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
    def test_duration_must_be_positive_and_finite(self, duration):
        with pytest.raises(ValueError, match="duration"):
            Arrivals([9], [duration])


class TestSynthesizePopulation:
    def test_deterministic(self):
        params = GammaMixtureParams()
        a = synthesize_population(params, 500, seed=42)
        b = synthesize_population(params, 500, seed=42)
        assert np.array_equal(a.hours, b.hours) and np.array_equal(a.durations, b.durations)

    def test_durations_positive(self):
        records = synthesize_population(GammaMixtureParams(), 2000, seed=1)
        assert all(records.durations > 0)

    def test_duration_moments(self):
        params = GammaMixtureParams()
        m = params.at(9)
        records = synthesize_population(params, 10_000, seed=9)
        durations = records.durations
        want = m.h_short * m.shape_short * m.scale_short \
            + m.h_long * m.shape_long * m.scale_long
        # mixture second moment for the 3-sigma band
        second = m.h_short * m.shape_short * (m.shape_short + 1) * m.scale_short**2 \
            + m.h_long * m.shape_long * (m.shape_long + 1) * m.scale_long**2
        sigma = math.sqrt((second - want**2) / len(durations))
        assert abs(durations.mean() - want) < 3 * sigma


class TestHourlyProfile:
    def test_profile_is_valid_and_reasonable(self):
        params = GammaMixtureParams()
        records = synthesize_population(params, 20_000, seed=4)
        profile = hourly_type_profile(records, 9, params, 5)
        assert 2 <= profile.n_types <= 5
        assert all(0 < t <= 1 for t in profile.thetas)
        assert sum(profile.betas) == pytest.approx(1.0)

    def test_survivors_parked_before_query_hour(self):
        records = Arrivals([8, 20], [5.0, 5.0])
        pvs = surviving_population(records, 10, horizon=1.0)
        # the 20:00 arrival wraps to the next day and is not yet parked at 10:00
        assert pvs.arrival_hour.tolist() == [8]
        assert pvs[0].parked_hours == pytest.approx(2.0)


# SHA-256 of repr([(thetas, betas), ...]) over the 24 hourly profiles of the
# default 100k-arrival population at seed 0, recorded from the per-vehicle
# scalar classification; the columnar path must reproduce it bit for bit
PROFILES_100K_SEED0 = "2fb7e187058d1bdf1e9338265dd702542676138cc8186b0ea8ab7d73793d3fca"


def test_hourly_profiles_pinned():
    params = GammaMixtureParams()
    arrivals = synthesize_population(params, 100_000, seed=0)
    profiles = [hourly_type_profile(arrivals, hour, params, 7) for hour in range(24)]
    text = repr([(p.thetas, p.betas) for p in profiles])
    assert hashlib.sha256(text.encode()).hexdigest() == PROFILES_100K_SEED0


class TestColumns:
    def test_row_is_the_vehicle_in_arrivals(self):
        pvs = surviving_population(Arrivals([20, 8, 9], [5.0, 5.0, 0.5]), 10, horizon=2.0)
        assert len(pvs) == 1
        assert pvs[0] == PVState(pv_id=1, arrival_hour=8, parked_hours=2.0, horizon=2.0)

    # each PVState rule, and the Parked rule that holds every row to it: a
    # row's parked hours come from the query hour
    @pytest.mark.parametrize("row, parked, rule", [
        ((0, 24, 1.0, 1.0), ([24], 10, 1.0), "arrival_hour"),
        ((0, 9, -1.0, 1.0), ([9], -1, 1.0), "query hour"),
        ((0, 9, 1.0, 0.0), ([9], 10, 0.0), "horizon"),
        ((0, 9.5, 1.0, 1.0), ([9.5], 10, 1.0), "arrival_hour"),
        ((0, 9, math.nan, 1.0), ([9], math.nan, 1.0), "query hour"),
        ((0, 9, 1.0, math.nan), ([9], 10, math.nan), "horizon"),
        ((0, True, 1.0, 1.0), ([True], 10, 1.0), "arrival_hour"),
        ((0, np.True_, 1.0, 1.0), (np.array([True]), 10, 1.0), "arrival_hour"),
    ], ids=["hour", "parked", "horizon", "fractional-hour", "nan-parked", "nan-horizon",
            "bool-hour", "numpy-bool-hour"])
    def test_parked_keeps_pvstate_rules(self, row, parked, rule):
        with pytest.raises(ValueError):
            PVState(*row)
        with pytest.raises(ValueError, match=rule):
            Parked([0], *parked)

    @pytest.mark.parametrize("hour", [24, 9.5, -1, [9], True, np.True_, "9", None],
                             ids=["24", "9.5", "-1", "list", "bool", "numpy-bool", "string",
                                  "none"])
    def test_query_hour_rules(self, hour):
        # a query hour is never taken mod 24 (33 is not hour 9), True is not
        # hour 1, and the hour is checked before any arithmetic
        with pytest.raises(ValueError, match="query hour"):
            Parked([0], [9], hour)
        with pytest.raises(ValueError, match="query hour"):
            surviving_population(Arrivals([9], [5.0]), hour)

    @pytest.mark.parametrize("hours, durations", [
        ([9.5], [1.0]), ([10**30], [1.0]), ([9, 10], [1.0]), ([[9]], [[1.0]]),
        ([True], [1.0]),
    ], ids=["float-hour", "huge-hour", "lengths", "2-d", "bool-hour"])
    def test_malformed_columns_rejected(self, hours, durations):
        with pytest.raises(ValueError):
            Arrivals(hours, durations)
        with pytest.raises(ValueError):
            Parked(np.zeros(np.shape(durations), int), hours, 10)

    def test_one_kernel_call_per_arrival_hour(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _stay(*args)

        monkeypatch.setattr(parking, "_stay", counted)
        parked = surviving_population(synthesize_population(GammaMixtureParams(), 2000, 3), 12)
        stay_probabilities(parked, GammaMixtureParams())
        assert len(calls) == len(set(parked.arrival_hour.tolist())) > 1


class TestMixtureRules:
    FIELDS = ("h_short", "h_long", "shape_short", "shape_long", "scale_short", "scale_long")

    @pytest.mark.parametrize("field", FIELDS)
    def test_nan_parameter_rejected(self, field):
        values = dict(zip(self.FIELDS, (0.6, 0.4, 2.0, 6.0, 0.75, 1.5)), **{field: math.nan})
        with pytest.raises(ValueError):
            HourMixture(**values)

    @pytest.mark.parametrize("hour", [9.5, 0.5])
    def test_fractional_hour_key_rejected(self, hour):
        # no vehicle arrives at a fractional hour, so such a mixture is never used
        with pytest.raises(ValueError, match="integer"):
            GammaMixtureParams(per_hour={hour: EXP_MIX})


def mixtures():
    return st.builds(
        lambda h, a, b, c, d: HourMixture(h, 1.0 - h, a, b, c, d),
        st.floats(0.0, 1.0), st.floats(0.5, 8.0), st.floats(0.5, 8.0),
        st.floats(0.2, 3.0), st.floats(0.2, 3.0),
    )


def _per_vehicle_population(params: GammaMixtureParams, count: int, seed: int):
    """The reference for synthesize_population: its per-vehicle loop as it
    read before the mixture table, one `params.at` per vehicle and each
    duration written into an array."""
    rng = np.random.default_rng(seed)
    hours = np.floor(parking.sample_arrival_hours(rng, count)).astype(int)
    durations = np.empty(count)
    for i, hour in enumerate(hours.tolist()):
        m = params.at(hour)
        if rng.random() < m.h_short:
            durations[i] = rng.gamma(m.shape_short, m.scale_short)
        else:
            durations[i] = rng.gamma(m.shape_long, m.scale_long)
    return hours, np.maximum(durations, 1e-12)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    default=st.one_of(st.just(DEFAULT_MIXTURE), mixtures()),
    # the arrival hours are 3..21, so overrides there are the ones drawn on
    per_hour=st.dictionaries(st.integers(0, 23), mixtures(), max_size=8),
    count=st.one_of(st.integers(1, 50), st.integers(1, 5_000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_population_matches_the_per_vehicle_reference(default, per_hour, count, seed):
    """Same hours and durations byte for byte, per-hour overrides included."""
    params = GammaMixtureParams(default=default, per_hour=per_hour)
    arrivals = synthesize_population(params, count, seed)
    hours, durations = _per_vehicle_population(params, count, seed)
    assert arrivals.hours.tobytes() == hours.tobytes()
    assert arrivals.durations.tobytes() == durations.tobytes()


@settings(deadline=None, max_examples=150)
@given(
    # few arrival hours, so that many rows share one, mixed with any hours
    arrival_hours=st.lists(st.one_of(st.integers(0, 23), st.sampled_from([8, 9])),
                           min_size=1, max_size=60),
    hour=st.integers(0, 23),
    horizon=st.one_of(st.floats(0.05, 6.0), st.sampled_from([0.5, 1.0])),
    default=mixtures(),
    per_hour=st.dictionaries(st.integers(0, 23), mixtures(), max_size=4),
)
@example(  # a vehicle parked 0 hours, one parked 23 and a per-hour mixture
    arrival_hours=[9, 8, 9, 10, 8, 9], hour=9, horizon=1.0,
    default=DEFAULT_MIXTURE, per_hour={8: EXP_MIX},
)
def test_columnar_stay_matches_scalar(arrival_hours, hour, horizon, default, per_hour):
    """Row i is vehicle i's PVState at the query hour, and the array path
    equals the scalar reference on every row with ==, per-hour mixtures
    included."""
    params = GammaMixtureParams(default=default, per_hour=per_hour)
    parked = Parked(np.arange(len(arrival_hours)) + 100, arrival_hours, hour, horizon)
    rows = [parked[i] for i in range(len(parked))]
    assert rows == [PVState(i + 100, a, float((hour - a) % 24), horizon)
                    for i, a in enumerate(arrival_hours)]
    assert stay_probabilities(parked, params).tolist() == [stay_probability(pv, params)
                                                          for pv in rows]


def _survival_ratio(parked_hours, horizon, m):
    """The stay kernel's reference: the array `survival` at both ends of the
    horizon, then the clamped ratio; None where the survival underflows."""
    denom, numer = survival(np.array([parked_hours, parked_hours + horizon]), m)
    return float(min(numer / denom, 1.0)) if denom > 0.0 else None


@settings(deadline=None, max_examples=300)
@given(
    # scales down to 0.005 reach the underflow within 60 parked hours
    m=st.builds(lambda h, a, b, c, d: HourMixture(h, 1.0 - h, a, b, c, d),
                st.floats(0.0, 1.0), st.floats(0.5, 8.0), st.floats(0.5, 8.0),
                st.floats(0.005, 3.0), st.floats(0.005, 3.0)),
    parked_hours=st.floats(0.0, 60.0),
    horizon=st.floats(0.0, 10.0, exclude_min=True),
)
@example(m=DEFAULT_MIXTURE, parked_hours=40.0, horizon=1.0)
@example(m=HourMixture(0.3, 0.7, 2.0, 6.0, 0.005, 0.01), parked_hours=20.0, horizon=1.0)
# float32 parameters: the kernel's scalar arithmetic is float64 all the same
@example(m=HourMixture(*map(np.float32, (0.25, 0.75, 2.0, 6.0, 0.75, 1.5))),
         parked_hours=3.3, horizon=1.0)
def test_stay_kernel_is_the_survival_ratio_bit_for_bit(m, parked_hours, horizon):
    """`_stay`, `stay_probability` and `stay_probabilities` equal the
    survival-ratio reference bit for bit, and raise its underflow error."""
    params = GammaMixtureParams(default=m)
    scalar = [lambda: _stay(parked_hours, horizon, m),
              lambda: stay_probability(PVState(0, 9, parked_hours, horizon), params)]
    expected = _survival_ratio(parked_hours, horizon, m)
    for call in scalar:
        if expected is None:
            with pytest.raises(ValueError, match="survival underflowed to 0"):
                call()
        else:
            assert call().hex() == expected.hex()
    # one row per arrival hour: parked 0 to 23 hours at query hour 0
    rows = Parked(np.arange(24), np.arange(24), 0, horizon)
    expected = [_survival_ratio(float(-a % 24), horizon, m) for a in range(24)]
    if None in expected:
        with pytest.raises(ValueError, match="survival underflowed to 0"):
            stay_probabilities(rows, params)
    else:
        assert [p.hex() for p in stay_probabilities(rows, params).tolist()] == [
            p.hex() for p in expected]
