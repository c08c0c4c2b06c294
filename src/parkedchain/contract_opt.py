"""Screening-contract design for compute offloading.

A service requester (SR) buys CPU cycles from parked vehicles (PVs) whose
willingness to stay is private information. The SR posts a menu of
(frequency, reward) items, one per type; solvers here produce that menu
under different information assumptions:

- complete information benchmark (per-type surplus extraction),
- locally optimal asymmetric-information menu (sequential first-order
  conditions with binding participation and adjacent incentive constraints),
- the Lagrangian iterative solver (grid scan over the top type's frequency,
  backward multiplier recursion, monotonicity repair by bunching),
- a posted-unit-price game and a zero-margin linear-pricing rule as
  comparison baselines,
- a brute-force grid oracle for small instances.

A PV values a reward pi at v(pi) = ln(1 + pi), so every inverse the
solvers need has a closed form. Menu items with f = 0 denote no
participation and contribute zero utility to both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .parking import TypeProfile

__all__ = [
    "TaskParams",
    "ContractProblem",
    "ContractMenu",
    "FeasibilityReport",
    "InfeasibleProblem",
    "time_saved",
    "energy_cost",
    "pv_utility",
    "sr_expected_utility",
    "sr_utility_terms",
    "pv_expected_utility",
    "sr_reward_derivative",
    "check_feasibility",
    "solve_complete_info",
    "solve_local_asymmetric",
    "solve_lagrangian_iterative",
    "grid_oracle",
    "stackelberg_baseline",
    "linear_pricing_baseline",
]

_FOC_TOL = 1e-10


class InfeasibleProblem(RuntimeError):
    """Raised when a solver cannot produce a feasible menu."""


@dataclass(frozen=True)
class TaskParams:
    """Physical and economic constants of one offloading task."""

    rho: float = 0.1           # profit per unit time saved
    kappa: float = 1e4         # CPU cycles per bit
    s_bits: float = 4e6        # task size (500 decimal KB)
    f_local: float = 0.5e9     # SR's own CPU frequency, Hz
    r_bps: float | tuple[float, ...] = 5.5e6   # link rate per type, bits/s
    eps_cap: float = 1e-28     # effective switched capacitance
    e_price: float = 0.1       # price per Joule
    f_max: float = 3e9         # PV CPU frequency cap, Hz

    def __post_init__(self) -> None:
        for name in ("rho", "kappa", "s_bits", "f_local", "eps_cap", "e_price", "f_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        rs = self.r_bps if isinstance(self.r_bps, tuple) else (self.r_bps,)
        if any(r <= 0 for r in rs):
            raise ValueError("link rates must be strictly positive")

    @property
    def energy_coeff(self) -> float:
        """e * kappa * s * eps: coefficient of f^2 in the PV's energy cost."""
        return self.e_price * self.kappa * self.s_bits * self.eps_cap

    def r_of(self, j: int) -> float:
        if isinstance(self.r_bps, tuple):
            return self.r_bps[j]
        return self.r_bps


@dataclass(frozen=True)
class ContractProblem:
    profile: TypeProfile
    params: TaskParams = TaskParams()

    @property
    def n_types(self) -> int:
        return self.profile.n_types

    @property
    def thetas(self) -> tuple[float, ...]:
        return self.profile.thetas

    @property
    def betas(self) -> tuple[float, ...]:
        return self.profile.betas


@dataclass(frozen=True)
class ContractMenu:
    """Solved (f_j, pi_j) pairs plus solver metadata."""

    fs: tuple[float, ...]
    pis: tuple[float, ...]
    scheme: str
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if len(self.fs) != len(self.pis) or not self.fs:
            raise ValueError("fs and pis must be nonempty and equal length")
        if any(f < 0 for f in self.fs) or any(p < -1e-12 for p in self.pis):
            raise ValueError("frequencies and rewards must be nonnegative")

    @property
    def items(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.fs, self.pis))

    def check_monotone(self, f_max: float, require_pi: bool = True) -> None:
        """0 <= f_1 <= ... <= f_N <= f_max; pi ascends where f strictly does.

        The pi check applies to screening menus, where it follows from
        incentive compatibility; the complete-information benchmark is
        exempt (its per-type rewards are independent and typically descend).
        """
        prev_f = 0.0
        for f in self.fs:
            if f < prev_f - 1e-6:
                raise ValueError("frequencies must be ascending")
            prev_f = f
        if self.fs[-1] > f_max * (1 + 1e-12):
            raise ValueError("top frequency exceeds f_max")
        if require_pi:
            for j in range(1, len(self.fs)):
                if self.fs[j] > self.fs[j - 1] + 1e-9 and self.pis[j] < self.pis[j - 1] - 1e-9:
                    raise ValueError("rewards must ascend where frequencies do")


def time_saved(f_j: float, params: TaskParams, j: int = 0) -> float:
    """Offloading time gain, in profit units, for type j's frequency."""
    if f_j <= 0:
        raise ValueError("frequency must be positive")
    ks = params.kappa * params.s_bits
    return params.rho * (ks / params.f_local - ks / f_j - params.s_bits / params.r_of(j))


def energy_cost(f_j: float, params: TaskParams) -> float:
    if f_j < 0:
        raise ValueError("frequency must be nonnegative")
    return params.energy_coeff * f_j * f_j


def pv_utility(theta_j: float, f_j: float, pi_j: float, params: TaskParams) -> float:
    """Expected reward value minus energy cost for one type and item."""
    return theta_j * math.log1p(pi_j) - energy_cost(f_j, params)


def sr_utility_terms(menu: ContractMenu, problem: ContractProblem) -> list[float]:
    terms = []
    for j, (f, pi) in enumerate(menu.items):
        if f <= 0:
            terms.append(0.0)
            continue
        terms.append(
            problem.betas[j]
            * problem.thetas[j]
            * (time_saved(f, problem.params, j) - pi)
        )
    return terms


def sr_expected_utility(menu: ContractMenu, problem: ContractProblem) -> float:
    return sum(sr_utility_terms(menu, problem))


def pv_expected_utility(menu: ContractMenu, problem: ContractProblem) -> float:
    """Population-expected PV utility (zero for f = 0 non-participation)."""
    total = 0.0
    for j, (f, pi) in enumerate(menu.items):
        if f <= 0:
            continue
        total += problem.betas[j] * pv_utility(
            problem.thetas[j], f, pi, problem.params
        )
    return total


@dataclass(frozen=True)
class FeasibilityReport:
    ir_violations: tuple[tuple[int, float], ...]
    ic_violations: tuple[tuple[int, int, float], ...]
    monotonicity_violations: tuple[str, ...]

    @property
    def feasible(self) -> bool:
        return not (
            self.ir_violations or self.ic_violations or self.monotonicity_violations
        )


def check_feasibility(
    menu: ContractMenu, problem: ContractProblem, tol: float = 1e-6
) -> FeasibilityReport:
    """Exhaustively evaluate all N IR and N(N-1) IC inequalities."""
    n = problem.n_types
    params = problem.params
    own = [
        pv_utility(problem.thetas[j], menu.fs[j], menu.pis[j], params)
        for j in range(n)
    ]
    ir = tuple((j, own[j]) for j in range(n) if own[j] < -tol)
    ic = []
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            cross = pv_utility(problem.thetas[j], menu.fs[k], menu.pis[k], params)
            if cross > own[j] + tol:
                ic.append((j, k, cross - own[j]))
    mono = []
    for j in range(1, n):
        if menu.fs[j] < menu.fs[j - 1] - tol * max(1.0, menu.fs[j - 1]):
            mono.append(f"f_{j + 1} < f_{j}")
    if menu.fs[-1] > params.f_max * (1 + 1e-12):
        mono.append("f_N > f_max")
    return FeasibilityReport(ir, tuple(ic), tuple(mono))


def sr_reward_derivative(problem: ContractProblem, j: int, pi: float) -> float:
    """dU_SR_j/dpi_j with f_j eliminated through binding IR, which covers
    type 1 and every type of the complete-information benchmark."""
    theta = problem.thetas[j]
    return problem.betas[j] * _foc(problem, j, pi, lambda p: theta * math.log1p(p))


def _foc(problem: ContractProblem, j: int, pi: float, x_of_pi) -> float:
    """Normalized first-order condition g(pi); dU_SR_j/dpi = beta*theta*g."""
    params = problem.params
    theta = problem.thetas[j]
    x = x_of_pi(pi)
    if x <= 0:
        return math.inf
    ratio = (x / params.energy_coeff) ** -1.5
    return (theta * params.rho / (2.0 * params.e_price * params.eps_cap)) * (
        1.0 / (1.0 + pi)
    ) * ratio - 1.0


class _RootBelowBracket(Exception):
    """The FOC is already nonpositive at the bracket start (bunching)."""


def _solve_foc(problem: ContractProblem, j: int, x_of_pi, lo: float) -> float:
    """Bracketed root of the normalized FOC, then Newton polish. lo is the
    previous type's reward, 0 for none; a FOC already nonpositive at lo
    bunches onto it (_RootBelowBracket) or, with none, is infeasible."""
    g = lambda pi: _foc(problem, j, pi, x_of_pi)
    hi = max(1.0, lo * 2 + 1.0)
    bunch = lo > 0
    lo = lo if bunch else 1e-12
    glo = g(lo)
    if math.isfinite(glo) and glo <= 0:
        if bunch:
            raise _RootBelowBracket
        raise InfeasibleProblem(
            f"type {j + 1}: the reward first-order condition is already "
            f"nonpositive at zero reward, so no positive reward is optimal"
        )
    ghi = g(hi)
    expansions = 0
    while ghi > 0:
        hi *= 2.0
        expansions += 1
        if expansions > 100:
            raise InfeasibleProblem(
                f"type {j + 1}: could not bracket the reward first-order "
                f"condition in [0, {hi:.3e}]; the surplus may be unbounded"
            )
        ghi = g(hi)
    pi = brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=500)
    # Newton polish on the normalized condition
    for _ in range(4):
        gv = g(pi)
        if abs(gv) <= 1e-12:
            break
        h = max(abs(pi), 1.0) * 1e-7
        slope = (g(pi + h) - g(pi - h)) / (2 * h)
        if slope == 0:
            break
        step = gv / slope
        if not math.isfinite(step):
            break
        pi = max(pi - step, 0.0)
    residual = problem.betas[j] * g(pi)
    if abs(residual) > _FOC_TOL:
        raise InfeasibleProblem(
            f"type {j + 1}: reward derivative {residual:.3e} "
            f"did not converge below {_FOC_TOL}"
        )
    return pi


# ---------------------------------------------------------------------------
# benchmark solvers
# ---------------------------------------------------------------------------

def _f_from_budget(x: float, params: TaskParams) -> float:
    """Frequency whose energy cost equals the budget x = A * f^2."""
    return math.sqrt(x / params.energy_coeff)


def solve_complete_info(problem: ContractProblem) -> ContractMenu:
    """Per-type surplus extraction when types are observable.

    Each type's reward solves the reward first-order condition with the
    participation constraint binding, so every PV nets exactly zero; the
    frequency follows from the binding constraint. Frequencies above f_max
    are clamped with the reward re-solved at the boundary.
    """
    params = problem.params
    fs, pis = [], []
    for j in range(problem.n_types):
        theta = problem.thetas[j]
        x_of_pi = lambda p, th=theta: th * math.log1p(p)
        pi = _solve_foc(problem, j, x_of_pi, 0.0)
        f = _f_from_budget(theta * math.log1p(pi), params)
        if f > params.f_max:
            f = params.f_max
            pi = math.expm1(params.energy_coeff * f * f / theta)
        fs.append(f)
        pis.append(pi)
    menu = ContractMenu(tuple(fs), tuple(pis), "complete_info")
    menu.check_monotone(params.f_max, require_pi=False)
    return menu


def solve_local_asymmetric(problem: ContractProblem) -> ContractMenu:
    """Sequential per-type optimum under binding IR (type 1) and binding
    adjacent IC (types 2..N), ignoring the cross-type multiplier coupling.

    If a type's first-order condition has no root above the previous
    reward, that type is bunched onto the previous item.
    """
    params = problem.params
    fs: list[float] = []
    pis: list[float] = []
    bunched: list[int] = []
    for j in range(problem.n_types):
        theta = problem.thetas[j]
        if j == 0:
            x_of_pi = lambda p, th=theta: th * math.log1p(p)
            pi = _solve_foc(problem, j, x_of_pi, 0.0)
            x = theta * math.log1p(pi)
        else:
            x_prev = params.energy_coeff * fs[-1] * fs[-1]
            v_prev = math.log1p(pis[-1])
            x_of_pi = lambda p, th=theta, xp=x_prev, vp_=v_prev: xp + th * (math.log1p(p) - vp_)
            try:
                pi = _solve_foc(problem, j, x_of_pi, pis[-1])
            except _RootBelowBracket:
                pi = pis[-1]
                bunched.append(j)
            x = x_of_pi(pi)
        f = _f_from_budget(x, params)
        if f > params.f_max:
            f = params.f_max
            x = params.energy_coeff * f * f
            if j == 0:
                pi = math.expm1(x / theta)
            else:
                pi = math.expm1(math.log1p(pis[-1]) + (x - params.energy_coeff * fs[-1] ** 2) / theta)
        fs.append(f)
        pis.append(pi)
    menu = ContractMenu(
        tuple(fs), tuple(pis), "local_asymmetric",
        meta={"bunched_types": tuple(bunched)},
    )
    menu.check_monotone(params.f_max)
    return menu


# ---------------------------------------------------------------------------
# Lagrangian iterative solver
# ---------------------------------------------------------------------------

def _chain_from_top(f_top: float, problem: ContractProblem):
    """Backward multiplier recursion from a fixed top-type frequency.

    Returns (fs, pis) or None when the top reward is nonpositive, a level's
    residual is already nonpositive at zero reward, or the residual root
    cannot be bracketed below the cap.
    """
    params = problem.params
    thetas, betas = problem.thetas, problem.betas
    n = problem.n_types
    coeff = params.rho / (2.0 * params.e_price * params.eps_cap)
    a_cap = params.energy_coeff

    omega_next = betas[-1] * thetas[-1] * coeff / f_top**3
    slope = betas[-1] / omega_next
    if slope >= 1.0:  # v'(0) = 1
        return None
    pi_top = 1.0 / slope - 1.0
    if pi_top <= 0:
        return None
    fs = [0.0] * n
    pis = [0.0] * n
    fs[-1], pis[-1] = f_top, pi_top

    for j in range(n - 2, -1, -1):
        theta, beta = thetas[j], betas[j]
        theta_next = thetas[j + 1]
        pi_next, f_next = pis[j + 1], fs[j + 1]
        c_level = beta * theta * coeff

        def f_and_omega(pi, th=theta, be=beta, om_next=omega_next, th_next=theta_next,
                        c=c_level):
            d = be * th / (1.0 / (1.0 + pi))
            omega = (d + om_next * th_next) / th
            # omega > om_next holds for ascending types, so the cube root is real
            return (c / (omega - om_next)) ** (1.0 / 3.0), omega

        def resid(pi, f_nx=f_next, pi_nx=pi_next, th_next=theta_next):
            f_j, _ = f_and_omega(pi)
            return a_cap * f_j * f_j - a_cap * f_nx * f_nx + th_next * (math.log1p(pi_nx) - math.log1p(pi))

        if resid(0.0) <= 0:
            return None
        hi = max(1.0, pi_next)
        while resid(hi) > 0:
            hi *= 2.0
            if hi > 1e15:
                return None
        pi_j = brentq(resid, 0.0, hi, xtol=1e-13, rtol=8.9e-16, maxiter=500)
        f_j, omega_next = f_and_omega(pi_j)
        fs[j], pis[j] = f_j, pi_j
    return fs, pis


def _rewards_from_frequencies(fs: list[float], problem: ContractProblem) -> list[float]:
    """Rebuild rewards with IR binding at type 1 and adjacent IC binding
    upward; requires an ascending frequency profile."""
    a_cap = problem.params.energy_coeff
    pis: list[float] = []
    v_cum = 0.0
    for j, f in enumerate(fs):
        if j == 0:
            v_cum = a_cap * f * f / problem.thetas[0]
        else:
            v_cum += a_cap * (f * f - fs[j - 1] ** 2) / problem.thetas[j]
        pis.append(math.expm1(v_cum))
    return pis


def _iron_frequencies(fs: list[float], problem: ContractProblem):
    """Pool adjacent violators of frequency monotonicity.

    Each non-ascending run is replaced by the single frequency maximizing
    the summed SR utility of the run, searched between the neighbouring
    frequencies; rewards are rebuilt afterwards. Returns (fs, bunches).
    """
    n = problem.n_types
    params = problem.params
    blocks: list[list[int]] = [[j] for j in range(n)]
    values: list[float] = list(fs)

    def block_objective(common: float, idx: list[int], trial_vals, trial_blocks) -> float:
        # the rebuilt rewards chain couples every later type to the pooled
        # value, so score the whole menu rather than the run alone
        full = [0.0] * n
        for b, v in zip(trial_blocks, trial_vals):
            for k in b:
                full[k] = v
        for k in idx:
            full[k] = common
        if any(x <= 0 for x in full):
            return math.inf
        try:
            pis = _rewards_from_frequencies(full, problem)
        except (ValueError, InfeasibleProblem):
            return math.inf
        total = 0.0
        for k in range(n):
            total += problem.betas[k] * problem.thetas[k] * (
                time_saved(full[k], params, k) - pis[k]
            )
        return -total

    guard = 0
    while guard < 4 * n:
        guard += 1
        bad = None
        for i in range(len(values) - 1):
            if values[i] > values[i + 1] + 1e-9:
                bad = i
                break
        if bad is None:
            break
        left, right = bad, bad + 1
        common = values[bad]
        while True:
            merged = [k for b in blocks[left:right + 1] for k in b]
            rest_blocks = blocks[:left] + blocks[right + 1:]
            rest_vals = values[:left] + values[right + 1:]
            lo = values[left - 1] if left > 0 else 1.0
            hi = values[right + 1] if right + 1 < len(values) else params.f_max
            if hi <= lo:
                common = lo
                break
            xatol = max(1e-3, (hi - lo) * 1e-10)
            res = minimize_scalar(
                block_objective, bounds=(lo, hi), method="bounded",
                args=(merged, rest_vals, rest_blocks),
                options={"xatol": xatol},
            )
            common = float(res.x)
            # a pooled optimum pinned at either bracket edge wants the
            # neighbouring block in the pool too
            if common >= hi - 3 * xatol and right + 1 < len(values):
                right += 1
            elif common <= lo + 3 * xatol and left > 0:
                left -= 1
            else:
                break
            guard += 1
            if guard >= 4 * n:
                break
        blocks = blocks[:left] + [[k for b in blocks[left:right + 1] for k in b]] + blocks[right + 1:]
        values = values[:left] + [common] + values[right + 1:]
    out = [0.0] * n
    bunches = []
    for b, v in zip(blocks, values):
        for k in b:
            out[k] = v
        if len(b) > 1:
            bunches.append((min(b), max(b)))
    return out, bunches


def _menu_from_chain(result, problem: ContractProblem):
    """Wrap a chain result into a menu, ironing if monotonicity failed."""
    fs, pis = result
    bunches = []
    ascending = all(fs[i] <= fs[i + 1] + 1e-9 for i in range(len(fs) - 1))
    if not ascending:
        fs, bunches = _iron_frequencies(list(fs), problem)
        pis = _rewards_from_frequencies(fs, problem)
    if any(p < 0 for p in pis) or any(f <= 0 for f in fs):
        return None
    if fs[-1] > problem.params.f_max * (1 + 1e-12):
        return None
    return ContractMenu(tuple(fs), tuple(pis), "lagrangian", meta={"bunches": tuple(bunches)})


def _first_type_utility(menu: ContractMenu, problem: ContractProblem) -> float:
    return pv_utility(problem.thetas[0], menu.fs[0], menu.pis[0], problem.params)


_SCAN_INTERVALS = 200  # uniform grid intervals between the LA and LC top frequencies


def solve_lagrangian_iterative(problem: ContractProblem) -> ContractMenu:
    """Grid scan over the top type's frequency with the backward multiplier
    recursion at each grid point, root-polished where the lowest type's
    utility crosses zero; the locally optimal menu is always a candidate.

    Returns the feasible candidate with the highest SR utility. Raises
    InfeasibleProblem when no candidate survives.
    """
    params = problem.params
    comp = solve_complete_info(problem)
    if problem.n_types == 1:
        return ContractMenu(comp.fs, comp.pis, "lagrangian",
                            meta={"degenerate_single_type": True})
    la = solve_local_asymmetric(problem)

    f_hi = comp.fs[-1]
    f_lo = la.fs[-1]
    if f_hi < f_lo:
        f_hi, f_lo = f_lo, f_hi
    step = (f_hi - f_lo) / _SCAN_INTERVALS if f_hi > f_lo else max(f_hi * 1e-3, 1.0)

    def at_top(f_top: float) -> tuple[ContractMenu | None, float | None]:
        """Chain menu for one top frequency and its lowest type's utility."""
        chain = _chain_from_top(f_top, problem)
        menu = None if chain is None else _menu_from_chain(chain, problem)
        return menu, None if menu is None else _first_type_utility(menu, problem)

    # (f_top, menu, u1) in descending f_top: the upward extension, taken
    # while the lowest type still nets a surplus at the top, then the grid
    scanned = [(f_hi, *at_top(f_hi))]
    if scanned[0][2] is not None and scanned[0][2] > 0:
        f_ext = f_hi
        for _ in range(_SCAN_INTERVALS):
            f_ext = min(f_ext + step, params.f_max)
            scanned.insert(0, (f_ext, *at_top(f_ext)))
            u1 = scanned[0][2]
            if u1 is None or u1 <= 0 or f_ext >= params.f_max:
                break
    for k in range(1, _SCAN_INTERVALS + 1):
        scanned.append((f_hi - k * step, *at_top(f_hi - k * step)))

    # (menu, top frequency of its chain, None for the LA menu)
    candidates: list[tuple[ContractMenu, float | None]] = [
        (ContractMenu(la.fs, la.pis, "lagrangian", meta={"source": "local_asymmetric"}), None)
    ]
    candidates += [(menu, f_top) for f_top, menu, u1 in scanned
                   if menu is not None and u1 >= 0]

    def u1_of_top(f_top: float) -> float:
        u1 = at_top(f_top)[1]
        if u1 is None:
            raise InfeasibleProblem("chain broke inside the polish bracket")
        return u1

    for (fa, _, ua), (fb, _, ub) in zip(scanned, scanned[1:]):
        if ua is None or ub is None or (ua > 0) == (ub > 0):
            continue
        try:
            f_root = brentq(u1_of_top, min(fa, fb), max(fa, fb), xtol=0.5, maxiter=500)
        except (ValueError, InfeasibleProblem):
            continue
        menu, _ = at_top(f_root)
        if menu is not None:
            candidates.append((menu, f_root))

    def admissible(menu: ContractMenu) -> bool:
        utils = [
            pv_utility(problem.thetas[j], menu.fs[j], menu.pis[j], params)
            for j in range(problem.n_types)
        ]
        return not any(u < -1e-9 for u in utils) and not any(p < 0 for p in menu.pis)

    best, best_top, best_value = None, None, -math.inf
    for menu, f_top in candidates:
        if not admissible(menu):
            continue
        value = sr_expected_utility(menu, problem)
        if value > best_value:
            best, best_top, best_value = menu, f_top, value
    if best is None:
        raise InfeasibleProblem(
            "no feasible Lagrangian candidate found on the top-frequency scan"
        )

    # one bounded refinement around the winning chain point: the pooled
    # branch of the scan is only grid-accurate, so squeeze the last digits
    if best_top is not None:
        def refine_objective(f_top: float) -> float:
            menu, _ = at_top(f_top)
            if menu is None or not admissible(menu):
                return 1e18
            return -sr_expected_utility(menu, problem)

        lo = max(best_top - step, f_lo * 0.5)
        hi = min(best_top + step, params.f_max)
        if hi > lo:
            res = minimize_scalar(
                refine_objective, bounds=(lo, hi), method="bounded",
                options={"xatol": max(step * 1e-6, 1e-3)},
            )
            if math.isfinite(res.fun) and -res.fun > best_value:
                refined, _ = at_top(float(res.x))
                if refined is not None and admissible(refined):
                    best, best_value = refined, -float(res.fun)
    meta = dict(best.meta)
    meta.update({
        "candidates": len(candidates),
        "u_pv_first_type": _first_type_utility(best, problem),
    })
    best = ContractMenu(best.fs, best.pis, "lagrangian", meta=meta)
    best.check_monotone(params.f_max)
    return best


# ---------------------------------------------------------------------------
# brute-force oracle (small instances only)
# ---------------------------------------------------------------------------

def grid_oracle(problem: ContractProblem, f_grid, pi_grid) -> ContractMenu:
    """Enumerate every ascending menu on the given grids, filter by exact
    feasibility, and return the SR-optimal survivor.

    Cost grows combinatorially, so instances are capped at four types and
    thirty points per grid. The returned menu's meta carries the achieved
    SR utility and the largest grid cell widths for cell-sized comparisons.
    """
    from itertools import combinations_with_replacement

    n = problem.n_types
    if n > 4:
        raise ValueError("grid oracle supports at most 4 types")
    f_grid = np.asarray(f_grid, dtype=float)
    pi_grid = np.asarray(pi_grid, dtype=float)
    if f_grid.size > 30 or pi_grid.size > 30:
        raise ValueError("grid oracle supports at most 30 points per grid")
    if np.any(f_grid <= 0) or np.any(np.diff(f_grid) <= 0):
        raise ValueError("frequency grid must be positive and strictly ascending")
    if np.any(pi_grid < 0) or np.any(np.diff(pi_grid) <= 0):
        raise ValueError("reward grid must be nonnegative and strictly ascending")
    params = problem.params
    if f_grid[-1] > params.f_max * (1 + 1e-12):
        raise ValueError("frequency grid exceeds f_max")

    thetas = np.asarray(problem.thetas)
    betas = np.asarray(problem.betas)
    rs = np.array([params.r_of(j) for j in range(n)])
    a_cap = params.energy_coeff
    ks = params.kappa * params.s_bits

    f_idx = np.array(list(combinations_with_replacement(range(f_grid.size), n)))
    p_idx = np.array(list(combinations_with_replacement(range(pi_grid.size), n)))
    f_menus = f_grid[f_idx]                      # (Mf, n)
    p_menus = pi_grid[p_idx]                     # (Mp, n)
    v_menus = np.log1p(p_menus)

    saved = params.rho * (ks / params.f_local - ks / f_menus - params.s_bits / rs)
    energy = a_cap * f_menus**2

    # thetas[j] * v(pi_k): (Mp, n_j, n_k), shared across frequency menus
    cross_v = thetas[None, :, None] * v_menus[:, None, :]
    own_v = thetas[None, :] * v_menus                      # (Mp, n)
    sr_pay = (betas * thetas) * p_menus                    # (Mp, n)

    tol = 1e-12
    best_val = -math.inf
    best = None
    for i in range(f_menus.shape[0]):
        own = own_v - energy[i][None, :]                   # (Mp, n)
        if np.all(own[:, 0] < -tol):
            continue
        ir_ok = np.all(own >= -tol, axis=1)
        if not ir_ok.any():
            continue
        cross = cross_v - energy[i][None, None, :]
        ic_ok = np.all(cross <= own[:, :, None] + tol, axis=(1, 2))
        ok = ir_ok & ic_ok
        if not ok.any():
            continue
        gains = float(np.sum(betas * thetas * saved[i]))
        values = gains - np.sum(sr_pay, axis=1)
        values = np.where(ok, values, -np.inf)
        k = int(np.argmax(values))
        if values[k] > best_val:
            best_val = float(values[k])
            best = (f_menus[i], p_menus[k])
    if best is None:
        raise InfeasibleProblem("no feasible menu on the supplied grids")
    f_cell = float(np.max(np.diff(f_grid))) if f_grid.size > 1 else 0.0
    pi_cell = float(np.max(np.diff(pi_grid))) if pi_grid.size > 1 else 0.0
    return ContractMenu(
        tuple(float(x) for x in best[0]),
        tuple(float(x) for x in best[1]),
        "grid_oracle",
        meta={"u_sr": best_val, "f_cell": f_cell, "pi_cell": pi_cell},
    )


# ---------------------------------------------------------------------------
# pricing baselines
# ---------------------------------------------------------------------------

def _price_best_response(theta: float, price: float, params: TaskParams) -> float:
    """PV's frequency choice against a posted unit price (0 = stay out)."""
    if price <= 0:
        return 0.0
    a_cap = params.energy_coeff
    f = (-2 * a_cap + math.sqrt(4 * a_cap * a_cap + 8 * a_cap * theta * price * price)) / (
        4 * a_cap * price
    )
    return min(f, params.f_max)


def _posted_price_value(price: float, problem: ContractProblem) -> float:
    total = 0.0
    for j in range(problem.n_types):
        f = _price_best_response(problem.thetas[j], price, problem.params)
        if f <= 0:
            continue
        total += problem.betas[j] * problem.thetas[j] * (
            time_saved(f, problem.params, j) - price * f
        )
    return total


def _menu_at_price(price: float, problem: ContractProblem, scheme: str) -> ContractMenu:
    fs, pis = [], []
    for j in range(problem.n_types):
        f = _price_best_response(problem.thetas[j], price, problem.params)
        fs.append(f)
        pis.append(price * f)
    return ContractMenu(tuple(fs), tuple(pis), scheme, meta={"price": price})


def stackelberg_baseline(problem: ContractProblem) -> tuple[ContractMenu, float]:
    """Posted unit price chosen by 1-D search over the SR's utility, each
    type responding with its privately optimal frequency. A nonpositive
    optimum collapses to price zero (nobody trades)."""
    coarse = np.logspace(-14, -4, 400)
    values = [_posted_price_value(float(p), problem) for p in coarse]
    k = int(np.argmax(values))
    lo = float(coarse[max(k - 1, 0)])
    hi = float(coarse[min(k + 1, coarse.size - 1)])
    res = minimize_scalar(
        lambda p: -_posted_price_value(p, problem),
        bounds=(lo, hi), method="bounded",
        options={"xatol": float(coarse[k]) * 1e-6},
    )
    refined = float(res.x)
    best_price = max(
        (refined, float(coarse[k])),
        key=lambda p: _posted_price_value(p, problem),
    )
    if _posted_price_value(best_price, problem) <= 0:
        n = problem.n_types
        return ContractMenu((0.0,) * n, (0.0,) * n, "stackelberg",
                            meta={"price": 0.0}), 0.0
    return _menu_at_price(best_price, problem, "stackelberg"), best_price


def linear_pricing_baseline(
    problem: ContractProblem, p_star: float
) -> tuple[ContractMenu, float]:
    """Zero-margin linear tariff: the largest unit price at or above the
    posted-price optimum p_star (the price stackelberg_baseline returns)
    where the SR's utility hits zero. When even the optimal posted price
    earns nothing, the menu is all-zero."""
    if p_star <= 0 or _posted_price_value(p_star, problem) <= 0:
        n = problem.n_types
        return ContractMenu((0.0,) * n, (0.0,) * n, "linear_pricing",
                            meta={"price": 0.0}), 0.0
    hi = p_star
    for _ in range(200):
        hi *= 2.0
        if _posted_price_value(hi, problem) < 0:
            break
    else:
        raise InfeasibleProblem("linear tariff root could not be bracketed")
    price = brentq(lambda p: _posted_price_value(p, problem), p_star, hi,
                   xtol=1e-18, rtol=8.9e-16, maxiter=500)
    return _menu_at_price(float(price), problem, "linear_pricing"), float(price)
