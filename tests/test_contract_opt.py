"""Screening-contract utilities, solvers, and baselines."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq, minimize

from parkedchain.contract_opt import (
    ContractMenu,
    ContractProblem,
    InfeasibleProblem,
    TaskParams,
    linear_pricing_baseline,
    pv_expected_utility,
    pv_utility,
    solve_complete_info,
    solve_lagrangian_iterative,
    solve_local_asymmetric,
    sr_expected_utility,
    sr_utility_terms,
    stackelberg_baseline,
)
from parkedchain import contract_opt
from parkedchain.contract_opt import (
    _brent,
    _energy_cost,
    _gains,
    _pool_objective,
    _price_game,
    _price_value,
    _price_values,
    _time_saved,
)
from parkedchain.parking import TypeProfile

from _oracles import check_feasibility, grid_oracle, sr_reward_derivative

DEFAULT_PARAMS = TaskParams()


def problem_of(thetas, betas, **overrides) -> ContractProblem:
    params = TaskParams(**overrides) if overrides else DEFAULT_PARAMS
    return ContractProblem(TypeProfile(tuple(thetas), tuple(betas)), params)


def random_problem(rng: np.random.Generator, n: int) -> ContractProblem:
    thetas = np.sort(rng.uniform(0.15, 0.98, size=n))
    while np.any(np.diff(thetas) < 1e-3):
        thetas = np.sort(rng.uniform(0.15, 0.98, size=n))
    betas = rng.dirichlet(np.ones(n))
    return problem_of(tuple(float(t) for t in thetas),
                      tuple(float(b) for b in betas))


class TestTaskParams:
    @pytest.mark.parametrize("name, value", [
        ("kappa", math.inf), ("f_local", math.inf), ("rho", math.nan),
        ("r_bps", math.inf), ("r_bps", (5e6, math.inf)),
        ("e_price", True), ("f_max", "3e9"),
    ])
    def test_rejects_non_finite_or_non_numeric(self, name, value):
        with pytest.raises(ValueError, match=name):
            TaskParams(**{name: value})


def test_problem_needs_a_rate_per_type():
    # one rate short once raised IndexError from the time gain's constants;
    # a rate to spare serves a profile whose bins merged
    with pytest.raises(ValueError, match=r"r_bps lists 1 rates for 2 types, got \(5000000.0,\)"):
        problem_of((0.3, 0.6), (0.5, 0.5), r_bps=(5e6,))
    assert problem_of((0.3, 0.6), (0.5, 0.5), r_bps=(5e6, 6e6, 7e6)).n_types == 2


@pytest.mark.parametrize("overrides", [
    {"f_local": 1e-300}, {"kappa": 1e300, "s_bits": 1e10}, {"r_bps": (5e6, 1e-320)},
])
def test_an_infinite_time_gain_is_infeasible(overrides):
    # every menu would be worth infinity, and the minimisers would subtract them
    with pytest.raises(InfeasibleProblem, match="time gain"):
        problem_of((0.3, 0.6), (0.5, 0.5), **overrides)


class TestUtilityLayer:
    def test_time_saved_pin(self):
        params = TaskParams(rho=0.1, kappa=1e4, s_bits=4e6,
                            f_local=0.5e9, r_bps=5e6)
        assert _time_saved(1e9, params) == pytest.approx(3.92)

    def test_energy_cost_pin(self):
        params = TaskParams(kappa=1e4, s_bits=4e6, eps_cap=1e-28, e_price=0.1)
        assert _energy_cost(1e9, params) == pytest.approx(0.4)

    def test_pv_utility_pin(self):
        params = TaskParams(kappa=1e4, s_bits=4e6, eps_cap=1e-28, e_price=0.1)
        assert pv_utility(0.5, 1e9, math.e - 1.0, params) == pytest.approx(0.1)

    def test_pv_utility_number_types_agree(self):
        # ints and numpy numbers read as the floats they equal, and the
        # checked call as LIA's unchecked core
        params = TaskParams()
        floats = pv_utility(0.5, 2e9, 3.0, params)
        assert pv_utility(np.float64(0.5), 2_000_000_000, 3, params) == floats
        assert pv_utility(0.5, 2e9, np.int64(3), params) == floats
        assert contract_opt._pv_utility(0.5, 2e9, 3.0, params) == floats

    def test_pv_utility_computes_in_float64(self):
        # a float32 frequency reads as the float64 it equals
        params = TaskParams()
        got = pv_utility(0.5, np.float32(2e9), 3.0, params)
        assert type(got) is float and got == pv_utility(0.5, 2e9, 3.0, params)

    @pytest.mark.parametrize("f", [-1.0, -5e-324, np.float32(-2e9)])
    def test_pv_utility_rejects_a_negative_frequency(self, f):
        with pytest.raises(ValueError) as rejected:
            pv_utility(0.5, f, 3.0, TaskParams())
        assert str(rejected.value) == f"f_j must be a frequency >= 0, got {f!r}"

    @pytest.mark.parametrize("items", [1, 3])
    def test_menu_needs_one_item_per_type(self, items):
        problem = problem_of((0.4, 0.8), (0.5, 0.5))
        menu = ContractMenu((1e9,) * items, (1.0,) * items, "s")
        for evaluate in (sr_expected_utility, sr_utility_terms, pv_expected_utility):
            with pytest.raises(ValueError, match=f"menu has {items} items for 2 types"):
                evaluate(menu, problem)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize("field", ["fs", "pis"])
    def test_menu_entries_fail_the_comparisons(self, field, bad):
        # a menu is checked by comparisons alone, which NaN and -inf fail
        fields = {"fs": (1.0,), "pis": (1.0,), field: (bad,)}
        with pytest.raises(ValueError, match="nonnegative"):
            ContractMenu(fields["fs"], fields["pis"], "s")

    def test_sr_expected_utility_pin(self):
        params = TaskParams(rho=0.1, kappa=1e4, s_bits=4e6,
                            f_local=0.5e9, r_bps=5e6)
        problem = ContractProblem(TypeProfile((1.0,), (1.0,)), params)
        menu = ContractMenu((1e9,), (1.0,), scheme="pinned")
        assert sr_expected_utility(menu, problem) == pytest.approx(2.92)

    def test_opted_out_items_contribute_nothing(self):
        problem = problem_of((0.4, 0.8), (0.5, 0.5))
        menu = ContractMenu((0.0, 1e9), (0.0, 1.0), scheme="partial")
        terms = sr_utility_terms(menu, problem)
        assert terms[0] == 0.0
        assert pv_utility(0.4, 0.0, 0.0, problem.params) == 0.0


class TestFeasibilityCheck:
    def test_zero_menu_is_feasible(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        menu = ContractMenu((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), scheme="zero")
        assert check_feasibility(menu, problem).feasible

    def test_perturbation_flags_exact_pair(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        menu = solve_local_asymmetric(problem)
        # adjacent IC binds for type 2, so any sweetening of item 1 beyond
        # the tolerance pulls type 2 over; stay under type 3's strict slack
        theta3 = problem.profile.thetas[2]
        slack3 = pv_utility(theta3, menu.fs[2], menu.pis[2], problem.params) \
            - pv_utility(theta3, menu.fs[0], menu.pis[0], problem.params)
        assert slack3 > 1e-4
        pis = list(menu.pis)
        pis[0] += min(0.02, slack3 / 2)
        bad = ContractMenu(menu.fs, tuple(pis), scheme="perturbed")
        report = check_feasibility(bad, problem)
        assert [(j, k) for j, k, _ in report.ic_violations] == [(1, 0)]

    def test_ir_violation_reported_per_type(self):
        problem = problem_of((0.3, 0.6), (0.5, 0.5))
        menu = ContractMenu((1e9, 1.2e9), (0.0, 0.0), scheme="unpaid")
        report = check_feasibility(menu, problem)
        assert not report.feasible
        assert [j for j, _ in report.ir_violations] == [0, 1]
        assert all(deficit < 0 for _, deficit in report.ir_violations)


class TestRewardDerivative:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, 3)
        beta1, theta1 = problem.profile.betas[0], problem.profile.thetas[0]

        def u_sr_first_term(pi):
            x = theta1 * math.log1p(pi)
            f = math.sqrt(x / problem.params.energy_coeff)
            return beta1 * (_time_saved(f, problem.params, 0) - pi)

        pi = float(rng.uniform(0.5, 3.0))
        h = 1e-6
        fd = (u_sr_first_term(pi + h) - u_sr_first_term(pi - h)) / (2 * h)
        assert sr_reward_derivative(problem, 0, pi) == pytest.approx(fd, rel=1e-5)


class TestCompleteInfo:
    def test_every_type_pinned_to_zero_utility(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        menu = solve_complete_info(problem)
        for theta, f, pi in zip(problem.profile.thetas, menu.fs, menu.pis):
            assert abs(pv_utility(theta, f, pi, problem.params)) < 1e-10

    def test_reward_is_interior_optimum(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        menu = solve_complete_info(problem)
        for j, pi in enumerate(menu.pis):
            assert abs(sr_reward_derivative(problem, j, pi)) < 1e-8

    def test_respects_frequency_cap(self):
        problem = problem_of((0.9, 0.95), (0.5, 0.5), f_max=1.1e9)
        menu = solve_complete_info(problem)
        assert all(f <= 1.1e9 + 1e-6 for f in menu.fs)
        for theta, f, pi in zip(problem.profile.thetas, menu.fs, menu.pis):
            assert abs(pv_utility(theta, f, pi, problem.params)) < 1e-10


class TestLocalAsymmetric:
    def test_first_type_matches_complete_info(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        la = solve_local_asymmetric(problem)
        lc = solve_complete_info(problem)
        assert la.fs[0] == pytest.approx(lc.fs[0], rel=1e-10)
        assert la.pis[0] == pytest.approx(lc.pis[0], rel=1e-10)

    def test_menu_is_feasible(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        menu = solve_local_asymmetric(problem)
        assert check_feasibility(menu, problem).feasible

    def test_adjacent_ic_binds_downward(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        menu = solve_local_asymmetric(problem)
        for j in range(1, 3):
            theta = problem.profile.thetas[j]
            own = pv_utility(theta, menu.fs[j], menu.pis[j], problem.params)
            down = pv_utility(theta, menu.fs[j - 1], menu.pis[j - 1], problem.params)
            assert own == pytest.approx(down, abs=1e-9)

    def test_rewards_near_zero_pass_the_residual_check(self):
        """Rewards near 6e-5 need a relative root tolerance: an absolute
        1e-13 leaves type 3's reward derivative above the 1e-10 check."""
        problem = problem_of((0.72, 0.78, 0.83), (0.4, 0.25, 0.35),
                             rho=1e-7, e_price=0.01)
        menu = solve_local_asymmetric(problem)
        assert max(menu.pis) < 1e-4
        assert check_feasibility(menu, problem).feasible

    @settings(max_examples=25)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_random_instances_stay_feasible(self, seed, n):
        problem = random_problem(np.random.default_rng(seed), n)
        menu = solve_local_asymmetric(problem)
        assert check_feasibility(menu, problem).feasible


class TestLagrangianIterative:
    def test_first_type_ir_binds(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        menu = solve_lagrangian_iterative(problem)
        theta1 = problem.profile.thetas[0]
        assert abs(pv_utility(theta1, menu.fs[0], menu.pis[0], problem.params)) < 1e-8

    def test_never_below_local_asymmetric(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        lia = sr_expected_utility(solve_lagrangian_iterative(problem), problem)
        la = sr_expected_utility(solve_local_asymmetric(problem), problem)
        assert lia >= la - 1e-9

    def test_never_above_complete_info(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        lia = sr_expected_utility(solve_lagrangian_iterative(problem), problem)
        lc = sr_expected_utility(solve_complete_info(problem), problem)
        assert lia <= lc + 1e-9

    def test_single_type_degenerates_to_complete_info(self):
        problem = problem_of((0.7,), (1.0,))
        lia = solve_lagrangian_iterative(problem)
        lc = solve_complete_info(problem)
        assert lia.fs[0] == pytest.approx(lc.fs[0], rel=1e-10)
        assert lia.meta.get("degenerate_single_type") is True

    def test_ironing_produces_feasible_pooled_menu(self):
        # clustered low types with heavy tail mass force a non-monotone chain
        problem = problem_of((0.70, 0.701, 0.95), (0.05, 0.95 - 0.05, 0.05))
        menu = solve_lagrangian_iterative(problem)
        assert check_feasibility(menu, problem).feasible
        la = sr_expected_utility(solve_local_asymmetric(problem), problem)
        assert sr_expected_utility(menu, problem) >= la - 1e-9

    @pytest.mark.parametrize("eps_cap", [1e-8, 1e-12])
    def test_overflowing_ironed_rewards_leave_a_feasible_menu(self, eps_cap):
        # this chain's ironed rewards leave the float range, so it yields no
        # candidate; LA's menu always is one
        problem = ContractProblem(random_problem(np.random.default_rng(2), 4).profile,
                                  TaskParams(eps_cap=eps_cap))
        menu = solve_lagrangian_iterative(problem)
        assert check_feasibility(menu, problem).feasible
        la = sr_expected_utility(solve_local_asymmetric(problem), problem)
        assert sr_expected_utility(menu, problem) >= la - 1e-9

    def test_bunched_items_are_identical(self):
        problem = problem_of((0.70, 0.701, 0.95), (0.05, 0.90, 0.05))
        menu = solve_lagrangian_iterative(problem)
        bunches = menu.meta.get("bunches") or []
        for lo, hi in bunches:
            for j in range(lo, hi):
                assert menu.fs[j] == menu.fs[j + 1]
                assert menu.pis[j] == menu.pis[j + 1]


class TestGridOracle:
    def test_solver_not_worse_than_exhaustive_grid(self):
        problem = problem_of((0.4, 0.8), (0.5, 0.5))
        menu = solve_lagrangian_iterative(problem)
        lc = solve_complete_info(problem)
        f_hi = max(lc.fs) * 1.3
        pi_hi = max(lc.pis) * 1.3
        f_grid = np.linspace(f_hi / 20, f_hi, 20)
        pi_grid = np.linspace(pi_hi / 20, pi_hi, 20)
        oracle = grid_oracle(problem, f_grid, pi_grid)
        assert sr_expected_utility(menu, problem) >= oracle.meta["u_sr"] - 1e-9

    def test_oracle_menu_is_feasible(self):
        problem = problem_of((0.4, 0.8), (0.5, 0.5))
        lc = solve_complete_info(problem)
        f_grid = np.linspace(1e8, max(lc.fs) * 1.2, 12)
        pi_grid = np.linspace(0.05, max(lc.pis) * 1.2, 12)
        oracle = grid_oracle(problem, f_grid, pi_grid)
        assert check_feasibility(oracle, problem).feasible


class TestBaselines:
    def test_stackelberg_single_price(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        menu, price = stackelberg_baseline(problem)
        assert price > 0
        assert menu.scheme == "stackelberg"
        participating = [f for f in menu.fs if f > 0]
        assert participating

    def test_linear_pricing_exhausts_sr_utility(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        menu, price = linear_pricing_baseline(problem, stackelberg_baseline(problem)[1])
        assert price > 0
        assert abs(sr_expected_utility(menu, problem)) < 1e-6

    def test_linear_pricing_maximizes_pv_side(self):
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        lin_menu, _ = linear_pricing_baseline(problem, stackelberg_baseline(problem)[1])
        lin = pv_expected_utility(lin_menu, problem)
        for solver in (solve_complete_info, solve_local_asymmetric,
                       solve_lagrangian_iterative):
            other = pv_expected_utility(solver(problem), problem)
            assert lin >= other - 1e-9

    @pytest.mark.parametrize("p_star", [1e-320, 5e-324])
    def test_linear_pricing_underflowing_price_is_infeasible(self, p_star):
        # 4 * energy_coeff * p_star underflows to 0 at the default constants
        problem = problem_of((0.3, 0.6, 0.9), (0.2, 0.3, 0.5))
        with pytest.raises(InfeasibleProblem, match="underflows to 0"):
            linear_pricing_baseline(problem, p_star)

    @pytest.mark.parametrize("overrides", [
        {"eps_cap": 1e-320},   # 4 * energy_coeff * price underflows to 0
        {"f_max": 1e-300},     # ks / f overflows: every grid value is -inf
        {"e_price": 1e300},    # energy_coeff overflows: every grid value is NaN
    ])
    def test_degenerate_task_constants_are_infeasible(self, overrides):
        problem = problem_of((0.3, 0.5, 0.9), (0.3, 0.3, 0.4), **overrides)
        with pytest.raises(InfeasibleProblem):
            stackelberg_baseline(problem)


PRICE_GRID = np.logspace(-14, -4, 400)   # stackelberg_baseline's coarse scan


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# the random family LIA's overflow was measured on: n = 2..7 and four
# log-uniform constants
BASELINE_FAMILY = {"eps_cap": (1e-32, 1e-8), "f_max": (1e8, 3e10),
                   "e_price": (1e-3, 10.0), "rho": (1e-2, 1e2)}
TASK_CONSTANTS = ("rho", "kappa", "s_bits", "f_local", "eps_cap", "e_price", "f_max")


@st.composite
def pricing_problems(draw, min_types: int, baseline_family: bool = False):
    """A random profile of min_types..7 types and task constants that are
    either the Baseline family's or log-uniform over 1e-300..1e300, where
    the SR's utility reaches +-inf and NaN. An infinite time gain is not a
    problem, so it is filtered out."""
    n = draw(st.integers(min_types, 7))
    profile = random_problem(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n).profile
    if baseline_family and draw(st.booleans()):
        params = TaskParams(**{name: draw(log_uniform(*bounds))
                               for name, bounds in BASELINE_FAMILY.items()})
    else:
        anywhere = log_uniform(1e-300, 1e300)
        params = TaskParams(**{name: draw(anywhere) for name in TASK_CONSTANTS},
                            r_bps=draw(anywhere | st.tuples(*[anywhere] * n)))
    try:
        return ContractProblem(profile, params)
    except InfeasibleProblem:
        assume(False)


@settings(max_examples=300)
@given(problem=pricing_problems(min_types=1))
@example(problem=problem_of((0.3, 0.5, 0.9), (0.3, 0.3, 0.4), f_max=1e-300))
@example(problem=problem_of((0.3, 0.5, 0.9), (0.3, 0.3, 0.4), e_price=1e300))
@example(problem=problem_of((0.3, 0.9), (0.5, 0.5), rho=1e300, f_local=1e-5))
def test_price_grid_pass_is_the_scalar_value_bit_for_bit(problem):
    """SA's one array pass over its price grid gives `_price_value` at
    every grid price byte for byte, +-inf and NaN included, and raises
    InfeasibleProblem where the scalar path does."""
    game = _price_game(problem)
    value = _price_value(game)
    try:
        expected = np.array([value(float(p)) for p in PRICE_GRID])
    except InfeasibleProblem:
        with pytest.raises(InfeasibleProblem, match="underflows"):
            _price_values(game, PRICE_GRID)
        return
    assert _price_values(game, PRICE_GRID).tobytes() == expected.tobytes()


@settings(max_examples=150)
@given(problem=pricing_problems(min_types=2, baseline_family=True))
def test_stackelberg_ends_in_a_menu_or_infeasible(problem):
    """No other error and no warning (warnings are errors under pytest)."""
    try:
        menu, price = stackelberg_baseline(problem)
    except InfeasibleProblem:
        return
    assert menu.scheme == "stackelberg" and price >= 0



def _pinned_problems() -> list[ContractProblem]:
    """40 seeded problems: n = 1..7, four frequency caps, per-type link
    rates on every fourth, and a heavy near-duplicate second type on every
    third with n >= 3 (which forces the Lagrangian solver to bunch)."""
    rng = np.random.default_rng(1018)
    out = []
    for i in range(40):
        n = 1 + i % 7
        thetas = np.sort(rng.uniform(0.15, 0.98, size=n))
        while np.any(np.diff(thetas) < 1e-2):
            thetas = np.sort(rng.uniform(0.15, 0.98, size=n))
        betas = rng.dirichlet(np.ones(n))
        if n >= 3 and i % 3 == 0:
            thetas[1] = thetas[0] + 1e-3
            betas = np.full(n, 0.1 / (n - 1))
            betas[1] = 0.9
        r_bps = (tuple(float(r) for r in rng.uniform(4e6, 7e6, size=n))
                 if i % 4 == 1 else 5.5e6)
        params = TaskParams(f_max=(0.8e9, 1.1e9, 1.25e9, 3e9)[i % 4], r_bps=r_bps)
        out.append(ContractProblem(
            TypeProfile(tuple(float(t) for t in thetas), tuple(float(b) for b in betas)),
            params))
    return out


def test_solver_menus_pinned():
    """Every solver's menu, meta and price on a seeded corpus, bit for bit.
    The corpus reaches one-type problems, f_max clamps in LC and in LA's
    upward items, and ironed Lagrangian menus."""
    digest = hashlib.sha256()
    clamped_lc = clamped_la = ironed = single = 0
    for problem in _pinned_problems():
        f_max = problem.params.f_max
        lc = solve_complete_info(problem)
        la = solve_local_asymmetric(problem)
        lia = solve_lagrangian_iterative(problem)
        sa, p_star = stackelberg_baseline(problem)
        linear, price = linear_pricing_baseline(problem, p_star)
        for menu, menu_price in ((lc, None), (la, None), (lia, None),
                                 (sa, p_star), (linear, price)):
            digest.update(repr((menu.scheme, menu.fs, menu.pis,
                                sorted(menu.meta.items()), menu_price)).encode())
        clamped_lc += f_max in lc.fs
        clamped_la += f_max in la.fs[1:]
        ironed += bool(lia.meta.get("bunches"))
        single += problem.n_types == 1
    assert min(clamped_lc, clamped_la, ironed, single) > 0
    assert digest.hexdigest() == "71bf850151b4a9915ab3e9faa31716257a64fd0c2378e2c923c5e420baf1195e"


def test_stackelberg_scans_its_grid_without_the_scalar_value(monkeypatch):
    """The 400-price scan is one array pass: the scalar closure serves the
    refine and the final pick only, on every pinned problem."""
    calls = []
    scalar_value = contract_opt._price_value

    def counted(*args):
        value = scalar_value(*args)

        def wrapped(price):
            calls.append(price)
            return value(price)
        return wrapped

    monkeypatch.setattr(contract_opt, "_price_value", counted)
    for problem in _pinned_problems():
        calls.clear()
        stackelberg_baseline(problem)
        assert 0 < len(calls) <= 60


def full_constraint_oracle(problem: ContractProblem) -> ContractMenu:
    """The SR-optimal menu by SLSQP, over (u, v) = (x / (A f_max^2), ln(1 + pi))
    where x = A f^2 is the PV's energy.

    A PV's utility theta_j v_k - x_k is linear in (x, v), so all n IR and
    n(n - 1) IC constraints are linear, and the SR objective
    sum_j beta_j theta_j (rho (ks/f_local - s/r_j) - rho ks/f_j - e^v_j + 1)
    is concave: a local optimum is global. No constraint is dropped and no
    binding pattern is assumed. The start is the pooled menu u = 1/2,
    v = x / theta_1, which every constraint admits.
    """
    n, params = problem.n_types, problem.params
    thetas = np.asarray(problem.thetas)
    weights = np.asarray(problem.betas) * thetas
    x_max = params.energy_coeff * params.f_max ** 2
    ks = params.kappa * params.s_bits
    gains = np.array([params.rho * (ks / params.f_local - params.s_bits / params.r_of(j))
                      for j in range(n)])
    slope = params.rho * ks / params.f_max  # rho ks / f_j = slope / sqrt(u_j)

    def loss(z):
        return -float(weights @ (gains - slope / np.sqrt(z[:n]) - np.expm1(z[n:])))

    def loss_grad(z):
        return np.concatenate([-0.5 * weights * slope * z[:n] ** -1.5, weights * np.exp(z[n:])])

    # row (j, k) >= 0: type j's utility from its own item less that from
    # item k (k = j: less nothing, so IR)
    rows = np.zeros((n, n, 2 * n))
    for j in range(n):
        for k in range(n):
            rows[j, k, [j, n + j]] += (-x_max, thetas[j])
            if k != j:
                rows[j, k, [k, n + k]] += (x_max, -thetas[j])
    rows = rows.reshape(n * n, 2 * n)
    start = np.concatenate([np.full(n, 0.5), np.full(n, 0.5 * x_max / thetas[0])])
    result = minimize(loss, start, jac=loss_grad, method="SLSQP",
                      bounds=[(1e-12, 1.0)] * n + [(0.0, None)] * n,
                      constraints={"type": "ineq", "fun": lambda z: rows @ z,
                                   "jac": lambda z: rows},
                      options={"ftol": 1e-14, "maxiter": 1000})
    # 8: no descent left at machine precision, which tight ftol reaches
    assert result.status in (0, 8), result.message
    u, v = result.x[:n], result.x[n:]
    return ContractMenu(tuple((params.f_max * np.sqrt(u)).tolist()),
                        tuple(np.expm1(v).tolist()), "full_constraint_oracle")


# grid_oracle's points per axis by type count: its menus grow as points**(2n),
# so a finer grid on three types would take seconds
ORACLE_GRID_POINTS = {1: 30, 2: 20, 3: 10}


def assert_oracle_bounds(problem: ContractProblem, lia: ContractMenu) -> None:
    """The full-constraint oracle's menu is feasible at 1e-9, and its SR
    utility is at least LIA's less 1e-9 relative, and at least the cheap
    grid optimum's less 1e-9 where there is one."""
    oracle = full_constraint_oracle(problem)
    report = check_feasibility(oracle, problem, tol=1e-9)
    assert report.feasible, (problem, report)
    value, lia_value = sr_expected_utility(oracle, problem), sr_expected_utility(lia, problem)
    assert value >= lia_value - 1e-9 * abs(lia_value), (problem, value, lia_value)
    points = ORACLE_GRID_POINTS.get(problem.n_types)
    if points:
        lc = solve_complete_info(problem)
        f_hi = min(max(lc.fs) * 1.3, problem.params.f_max)
        pi_hi = max(lc.pis) * 1.3
        grid = grid_oracle(problem, np.linspace(f_hi / points, f_hi, points),
                           np.linspace(pi_hi / points, pi_hi, points))
        assert value >= grid.meta["u_sr"] - 1e-9, (problem, value, grid.meta["u_sr"])


def test_full_constraint_oracle_bounds_suite50(suite50):
    for case in suite50["cases"]:
        assert_oracle_bounds(case["problem"], case["lia"])


def test_full_constraint_oracle_bounds_pinned_corpus():
    for problem in _pinned_problems():
        assert_oracle_bounds(problem, solve_lagrangian_iterative(problem))


# every (xtol, rtol) the solvers pass: _solve_foc's two (the chain uses the
# first), the linear tariff's, and the polish's, whose rtol is brentq's default
BRENT_TOLERANCES = [(1e-13, 8.9e-16), (1e-300, 8.9e-16), (1e-18, 8.9e-16), (0.5, None)]


def _root_or_error(solve):
    try:
        return solve()
    except Exception as exc:  # any error: its type and text are what is compared
        return type(exc), str(exc)


@settings(max_examples=300)
@given(root=st.floats(-1e6, 1e6), below=st.integers(-12, 12), above=st.integers(-12, 12),
       straddle=st.booleans(), cubic=st.floats(0.0, 10.0), sign=st.sampled_from([1.0, -1.0]),
       tolerances=st.sampled_from(BRENT_TOLERANCES))
def test_brent_matches_public_brentq(root, below, above, straddle, cubic, sign, tolerances):
    """The compiled-kernel helper returns brentq's root with ==, or raises
    its error, on monotone functions over tiny to huge brackets (a bracket
    that does not straddle the root has no sign change)."""
    a = root - 10.0 ** below if straddle else root + 10.0 ** below
    b = root + 10.0 ** above

    def f(x):
        d = x - root
        return sign * (d + cubic * d ** 3)

    xtol, rtol = tolerances
    if rtol is None:
        ours = _root_or_error(lambda: _brent(f, a, b, xtol))
        public = _root_or_error(lambda: brentq(f, a, b, xtol=xtol, maxiter=500))
    else:
        ours = _root_or_error(lambda: _brent(f, a, b, xtol, rtol))
        public = _root_or_error(lambda: brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=500))
    assert ours == public


@pytest.mark.parametrize("f, a, b, xtol, error", [
    (lambda x: x + 1.0, 0.0, 1.0, 1e-13, ValueError),
    (lambda x: 1.0 if x > 0 else -1.0, -1.0, 1.0, 1e-300, RuntimeError),
    (lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5, 0.0, 1.0, 1e-13, ValueError),
], ids=["no-sign-change", "no-convergence", "nan-residual"])
def test_brent_fails_as_public_brentq(f, a, b, xtol, error):
    with pytest.raises(error) as public:
        brentq(f, a, b, xtol=xtol, rtol=8.9e-16, maxiter=500)
    with pytest.raises(error) as ours:
        _brent(f, a, b, xtol, 8.9e-16)
    assert type(ours.value) is type(public.value)
    assert str(ours.value) == str(public.value)


def _rescored_pool(common, idx, trial_vals, trial_blocks, problem):
    """Reference ironing objective: rebuild the whole menu and its rewards
    from scratch on each call, then score every type."""
    n = problem.n_types
    params = problem.params
    full = [0.0] * n
    for b, v in zip(trial_blocks, trial_vals):
        for k in b:
            full[k] = v
    for k in idx:
        full[k] = common
    if any(x <= 0 for x in full):
        return math.inf
    a_cap = params.energy_coeff
    pis = []
    v_cum = 0.0
    for j, f in enumerate(full):
        if j == 0:
            v_cum = a_cap * f * f / problem.thetas[0]
        else:
            v_cum += a_cap * (f * f - full[j - 1] ** 2) / problem.thetas[j]
        pis.append(math.expm1(v_cum))
    total = 0.0
    for k in range(n):
        total += problem.betas[k] * problem.thetas[k] * (
            _time_saved(full[k], params, k) - pis[k]
        )
    return -total


def test_pool_objective_matches_rescoring():
    """The cached ironing objective equals the rescored one with ==, for a
    pool at every start and end position of ascending and non-ascending
    menus, at Python and numpy frequencies (the minimiser passes numpy
    scalars) and at nonpositive ones. The solvers' corpora never grow a
    pool past its first violating pair, so this is what checks such pools."""
    rng = np.random.default_rng(14)
    infinite = 0
    for i in range(120):
        n = 1 + i % 7
        problem = random_problem(rng, n)
        if i % 3 == 1:
            rates = tuple(float(r) for r in rng.uniform(4e6, 7e6, size=n))
            problem = ContractProblem(problem.profile, TaskParams(r_bps=rates))
        fs = rng.uniform(0.3e9, 3e9, size=n)
        full = [float(f) for f in (np.sort(fs) if i % 2 else fs)]
        if i % 10 == 9:
            full[int(rng.integers(n))] = 0.0
        for start in range(n):
            for stop in range(start + 1, n + 1):
                rest = [k for k in range(n) if not start <= k < stop]
                objective = _pool_objective(full, start, stop, problem, _gains(problem))
                for common in (float(rng.uniform(0.3e9, 3e9)),
                               np.float64(rng.uniform(0.3e9, 3e9)),
                               full[start - 1] if start else 1.0, 0.0):
                    expected = _rescored_pool(common, range(start, stop),
                                              [full[k] for k in rest],
                                              [[k] for k in rest], problem)
                    assert objective(common) == expected
                    infinite += expected == math.inf
    assert infinite > 0
