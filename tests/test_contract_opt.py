"""Screening-contract utilities, solvers, and baselines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parkedchain.contract_opt import (
    ContractMenu,
    ContractProblem,
    TaskParams,
    check_feasibility,
    energy_cost,
    grid_oracle,
    linear_pricing_baseline,
    pv_expected_utility,
    pv_utility,
    solve_complete_info,
    solve_lagrangian_iterative,
    solve_local_asymmetric,
    sr_expected_utility,
    sr_reward_derivative,
    sr_utility_terms,
    stackelberg_baseline,
    time_saved,
)
from parkedchain.parking import TypeProfile

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


class TestUtilityLayer:
    def test_time_saved_pin(self):
        params = TaskParams(rho=0.1, kappa=1e4, s_bits=4e6,
                            f_local=0.5e9, r_bps=5e6)
        assert time_saved(1e9, params) == pytest.approx(3.92)

    def test_energy_cost_pin(self):
        params = TaskParams(kappa=1e4, s_bits=4e6, eps_cap=1e-28, e_price=0.1)
        assert energy_cost(1e9, params) == pytest.approx(0.4)

    def test_pv_utility_pin(self):
        params = TaskParams(kappa=1e4, s_bits=4e6, eps_cap=1e-28, e_price=0.1)
        assert pv_utility(0.5, 1e9, math.e - 1.0, params) == pytest.approx(0.1)

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
            return beta1 * (time_saved(f, problem.params, 0) - pi)

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

    @settings(max_examples=25, deadline=None)
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

