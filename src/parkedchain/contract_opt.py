"""Screening-contract design for compute offloading.

A service requester (SR) buys CPU cycles from parked vehicles (PVs) whose
willingness to stay is private information. The SR posts a menu of
(frequency, reward) items, one per type; solvers here produce that menu
under different information assumptions:

- complete information benchmark (LC: every type's participation binds),
- locally optimal asymmetric-information menu (LA: type 1's participation
  binds, then each adjacent upward incentive constraint),
- the Lagrangian iterative solver (LIA: grid scan over the top type's
  frequency between LA's top item and the top type's LC item, backward
  multiplier recursion, monotonicity repair by bunching),
- a posted-unit-price game and a zero-margin linear-pricing rule as
  comparison baselines.

LIA's time is in its inner loops. Its roots come from scipy's compiled
Brent kernel (`_brent`), it chains each top frequency once per solve, and
its ironing objective (`_pool_objective`) sums the types before the pool
once per minimisation; every output keeps its bits.

LC and LA build every item with one step, `_binding_item`: a bracketed
root of the reward first-order condition, the frequency from the binding
constraint, and a clamp to f_max. A first-order condition that overflows
counts as +inf; one that is NaN, or cannot be bracketed, raises
InfeasibleProblem (exit 3 on the CLI).

A PV values a reward pi at v(pi) = ln(1 + pi), so every inverse the
solvers need has a closed form. Menu items with f = 0 denote no
participation and contribute zero utility to both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar
# scipy.optimize.brentq checks every evaluation for NaN with np.isnan, which
# costs several times a residual here; _brent calls its compiled kernel
from scipy.optimize import _zeros

from ._numbers import fold, real
from ._task import InfeasibleProblem, TaskParams
from .parking import TypeProfile

__all__ = [
    "TaskParams",
    "ContractProblem",
    "ContractMenu",
    "InfeasibleProblem",
    "pv_utility",
    "sr_expected_utility",
    "sr_utility_terms",
    "pv_expected_utility",
    "solve_complete_info",
    "solve_local_asymmetric",
    "solve_lagrangian_iterative",
    "stackelberg_baseline",
    "linear_pricing_baseline",
]

_FOC_TOL = 1e-10
_RTOL = 4 * np.finfo(float).eps  # brentq's default, and smallest, rtol


def _brent(f, a: float, b: float, xtol: float, rtol: float = _RTOL) -> float:
    """`scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=500)`,
    the same root and the same error, without the per-evaluation wrapper."""
    def checked(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx
    return _zeros._brentq(checked, a, b, xtol, rtol, 500, (), False, True)


@dataclass(frozen=True)
class ContractProblem:
    """A type profile and the task it offers. The SR's time gain terms must
    be finite, or every menu is worth infinity: InfeasibleProblem."""

    profile: TypeProfile
    params: TaskParams = TaskParams()

    def __post_init__(self) -> None:
        if not isinstance(self.profile, TypeProfile):
            raise ValueError(f"profile must be a TypeProfile, got {self.profile!r}")
        if not isinstance(self.params, TaskParams):
            raise ValueError(f"params must be a TaskParams, got {self.params!r}")
        # a listed rate per type; more rates than types serve a profile whose
        # bins merged
        rates = self.params.r_bps
        if isinstance(rates, tuple) and len(rates) < self.profile.n_types:
            raise ValueError(f"r_bps lists {len(rates)} rates for {self.profile.n_types} "
                             f"types, got {rates!r}")
        _, c0, ks, s_over_r = _gains(self)
        if not all(map(math.isfinite, (c0, ks, *s_over_r))):
            raise InfeasibleProblem(
                "the time gain leaves the float range: kappa * s_bits, "
                "kappa * s_bits / f_local and every s_bits / r_bps must be finite")

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
        # comparisons only, which NaN fails and a non-number raises TypeError
        # for: LIA builds hundreds of menus an hour
        try:
            if len(self.fs) != len(self.pis) or not self.fs:
                raise ValueError(f"fs and pis must be nonempty and equal length, got "
                                 f"{self.fs!r} and {self.pis!r}")
            if not (all(f >= 0 for f in self.fs) and all(p >= -1e-12 for p in self.pis)):
                raise ValueError("frequencies and rewards must be nonnegative")
        except TypeError:
            raise ValueError(f"fs and pis must be sequences of numbers, got {self.fs!r} "
                             f"and {self.pis!r}") from None
        if not isinstance(self.scheme, str):
            raise ValueError(f"scheme must be a str, got {self.scheme!r}")
        if type(self.meta) is not dict:     # one comparison, not a second isinstance
            raise ValueError(f"meta must be a dict, got {self.meta!r}")

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


def _time_saved(f_j: float, params: TaskParams, j: int = 0) -> float:
    """Offloading time gain, in profit units, for type j's frequency f_j > 0."""
    ks = params.kappa * params.s_bits
    return params.rho * (ks / params.f_local - ks / f_j - params.s_bits / params.r_of(j))


def _energy_cost(f_j: float, params: TaskParams) -> float:
    return params.energy_coeff * f_j * f_j


def pv_utility(theta_j: float, f_j: float, pi_j: float, params: TaskParams) -> float:
    """Expected reward value minus energy cost for one type and item, in
    float64; the three numbers are finite reals, never bools, and f_j >= 0."""
    if not isinstance(params, TaskParams):
        raise ValueError(f"params must be a TaskParams, got {params!r}")
    for name, value in (("theta_j", theta_j), ("f_j", f_j), ("pi_j", pi_j)):
        if not real(value):
            raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if f_j < 0:
        raise ValueError(f"f_j must be a frequency >= 0, got {f_j!r}")
    return _pv_utility(float(theta_j), float(f_j), float(pi_j), params)


def _pv_utility(theta_j: float, f_j: float, pi_j: float, params: TaskParams) -> float:
    """pv_utility unchecked, for LIA's candidates."""
    return theta_j * math.log1p(pi_j) - _energy_cost(f_j, params)


def _check_problem(problem) -> None:
    if not isinstance(problem, ContractProblem):
        raise ValueError(f"problem must be a ContractProblem, got {problem!r}")


def _check_menu(menu, problem) -> None:
    """The rule of every menu evaluation: a ContractMenu with one item per
    type of the ContractProblem."""
    if not isinstance(menu, ContractMenu):
        raise ValueError(f"menu must be a ContractMenu, got {menu!r}")
    _check_problem(problem)
    if len(menu.fs) != problem.n_types:
        raise ValueError(f"menu has {len(menu.fs)} items for {problem.n_types} types")


def sr_utility_terms(menu: ContractMenu, problem: ContractProblem) -> list[float]:
    """Each type's share of the SR's expected utility."""
    _check_menu(menu, problem)
    return _sr_terms(menu, problem)


def sr_expected_utility(menu: ContractMenu, problem: ContractProblem) -> float:
    _check_menu(menu, problem)
    return fold(_sr_terms(menu, problem))


def _sr_terms(menu: ContractMenu, problem: ContractProblem) -> list[float]:
    """sr_utility_terms unchecked, for LIA's candidates."""
    terms = []
    for j, (f, pi) in enumerate(menu.items):
        if f <= 0:
            terms.append(0.0)
            continue
        terms.append(
            problem.betas[j]
            * problem.thetas[j]
            * (_time_saved(f, problem.params, j) - pi)
        )
    return terms


def pv_expected_utility(menu: ContractMenu, problem: ContractProblem) -> float:
    """Population-expected PV utility (zero for f = 0 non-participation)."""
    _check_menu(menu, problem)
    total = 0.0
    for j, (f, pi) in enumerate(menu.items):
        if f <= 0:
            continue
        total += problem.betas[j] * _pv_utility(
            problem.thetas[j], f, pi, problem.params
        )
    return total


def _foc(problem: ContractProblem, j: int, pi: float, x_of_pi) -> float:
    """Normalized first-order condition g(pi); dU_SR_j/dpi = beta*theta*g."""
    params = problem.params
    theta = problem.thetas[j]
    x = x_of_pi(pi)
    if x <= 0:
        return math.inf
    try:
        ratio = (x / params.energy_coeff) ** -1.5
        return (theta * params.rho / (2.0 * params.e_price * params.eps_cap)) * (
            1.0 / (1.0 + pi)
        ) * ratio - 1.0
    except (OverflowError, ZeroDivisionError):
        # a term overflowed, or a divisor underflowed to zero: g is +inf
        return math.inf


class _RootBelowBracket(Exception):
    """The FOC is already nonpositive at the bracket start (bunching)."""


def _solve_foc(problem: ContractProblem, j: int, x_of_pi, lo: float) -> float:
    """Bracketed root of the normalized FOC. lo is the previous type's
    reward, 0 for none; a FOC already nonpositive at lo bunches onto it
    (_RootBelowBracket) or, with none, is infeasible."""
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
    for _ in range(101):
        ghi = g(hi)
        if not ghi > 0:
            break
        hi *= 2.0
    else:
        raise InfeasibleProblem(
            f"type {j + 1}: could not bracket the reward first-order "
            f"condition in [0, {hi:.3e}]; the surplus may be unbounded"
        )
    if math.isnan(glo) or math.isnan(ghi):
        raise InfeasibleProblem(f"type {j + 1}: the reward first-order condition is NaN")
    # an absolute xtol is coarse for a root near zero: retry relative only
    for xtol in (1e-13, 1e-300):
        pi = _brent(g, lo, hi, xtol, 8.9e-16)
        residual = problem.betas[j] * g(pi)
        if abs(residual) <= _FOC_TOL:
            return pi
    raise InfeasibleProblem(f"type {j + 1}: reward derivative {residual:.3e} "
                            f"did not converge below {_FOC_TOL}")


# ---------------------------------------------------------------------------
# benchmark solvers
# ---------------------------------------------------------------------------

def _binding_item(problem: ContractProblem, j: int, f_prev: float,
                  pi_prev: float) -> tuple[float, float, bool]:
    """Type j's item with participation binding when (f_prev, pi_prev) is
    (0, 0), else the adjacent upward incentive constraint against the
    previous item. The reward solves the first-order condition, the
    frequency follows from the binding constraint, and a frequency above
    f_max is clamped with the reward re-solved on that constraint. Returns
    (f, pi, bunched); a bunched item repeats pi_prev, as no root lies above.
    """
    params = problem.params
    a_cap = params.energy_coeff
    theta = problem.thetas[j]
    x_prev = a_cap * f_prev * f_prev
    v_prev = math.log1p(pi_prev)
    x_of_pi = lambda p: x_prev + theta * (math.log1p(p) - v_prev)
    bunched = False
    try:
        pi = _solve_foc(problem, j, x_of_pi, pi_prev)
    except _RootBelowBracket:
        pi, bunched = pi_prev, True
    f = math.sqrt(x_of_pi(pi) / a_cap)  # the energy budget x = A * f^2
    if f > params.f_max:
        f = params.f_max
        pi = math.expm1(v_prev + (a_cap * f * f - a_cap * f_prev**2) / theta)
    return f, pi, bunched


def solve_complete_info(problem: ContractProblem) -> ContractMenu:
    """Per-type surplus extraction when types are observable: every item
    binds its own participation constraint, so every PV nets exactly zero."""
    _check_problem(problem)
    fs, pis, _ = zip(*(_binding_item(problem, j, 0.0, 0.0)
                       for j in range(problem.n_types)))
    menu = ContractMenu(fs, pis, "complete_info")
    menu.check_monotone(problem.params.f_max, require_pi=False)
    return menu


def solve_local_asymmetric(problem: ContractProblem) -> ContractMenu:
    """Sequential per-type optimum under binding IR (type 1) and binding
    adjacent IC (types 2..N), ignoring the cross-type multiplier coupling.

    If a type's first-order condition has no root above the previous
    reward, that type is bunched onto the previous item.
    """
    _check_problem(problem)
    fs, pis, bunched = [], [], []
    f, pi = 0.0, 0.0
    for j in range(problem.n_types):
        f, pi, flat = _binding_item(problem, j, f, pi)
        fs.append(f)
        pis.append(pi)
        if flat:
            bunched.append(j)
    menu = ContractMenu(
        tuple(fs), tuple(pis), "local_asymmetric",
        meta={"bunched_types": tuple(bunched)},
    )
    menu.check_monotone(problem.params.f_max)
    return menu


# ---------------------------------------------------------------------------
# Lagrangian iterative solver
# ---------------------------------------------------------------------------

def _chain_from_top(f_top: float, problem: ContractProblem):
    """Backward multiplier recursion from a fixed top-type frequency.

    Returns (fs, pis) or None when the top multiplier leaves no slope in
    (0, 1) (including one that overflows), the top reward is nonpositive, a
    level's residual is already nonpositive at zero reward, or the residual
    root cannot be bracketed below the cap.
    """
    params = problem.params
    thetas, betas = problem.thetas, problem.betas
    n = problem.n_types
    coeff = params.rho / (2.0 * params.e_price * params.eps_cap)
    a_cap = params.energy_coeff

    cube = f_top**3
    # a cube that underflows to zero, or a multiplier that overflows, leaves
    # a zero slope and no top reward to solve for
    omega_next = betas[-1] * thetas[-1] * coeff / cube if cube > 0.0 else math.inf
    slope = betas[-1] / omega_next
    if not 0.0 < slope < 1.0:  # v'(0) = 1
        return None
    pi_top = 1.0 / slope - 1.0
    if pi_top <= 0:
        return None
    fs = [0.0] * n
    pis = [0.0] * n
    fs[-1], pis[-1] = f_top, pi_top

    for j in range(n - 2, -1, -1):
        theta, theta_next = thetas[j], thetas[j + 1]
        # the level's invariants; each is a whole subexpression of the residual,
        # so hoisting it changes no operation and keeps every bit
        bt = betas[j] * theta
        c_level = bt * coeff
        om_th = omega_next * theta_next
        x_next = a_cap * fs[j + 1] * fs[j + 1]
        v_next = math.log1p(pis[j + 1])

        def resid(pi):
            omega = (bt / (1.0 / (1.0 + pi)) + om_th) / theta
            # omega > omega_next holds for ascending types, so the cube root is real
            f_j = (c_level / (omega - omega_next)) ** (1.0 / 3.0)
            return a_cap * f_j * f_j - x_next + theta_next * (v_next - math.log1p(pi))

        if resid(0.0) <= 0:
            return None
        hi = max(1.0, pis[j + 1])
        while resid(hi) > 0:
            hi *= 2.0
            if hi > 1e15:
                return None
        pi_j = _brent(resid, 0.0, hi, 1e-13, 8.9e-16)
        # resid's level at its root (inline there, as it runs about ten times a root)
        omega = (bt / (1.0 / (1.0 + pi_j)) + om_th) / theta
        fs[j], pis[j] = (c_level / (omega - omega_next)) ** (1.0 / 3.0), pi_j
        omega_next = omega
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


def _gains(problem: ContractProblem) -> tuple[float, float, float, tuple[float, ...]]:
    """_time_saved's constants (rho, ks / f_local, ks, s / r_j per type), read
    once: rho * (c0 - ks / f - s_over_r[j]) is _time_saved(f, params, j)."""
    params = problem.params
    ks = params.kappa * params.s_bits
    return (params.rho, ks / params.f_local, ks,
            tuple(params.s_bits / params.r_of(j) for j in range(problem.n_types)))


def _pool_objective(full: list[float], start: int, stop: int, problem: ContractProblem,
                    gains):
    """The negated SR utility of the menu `full` with types start..stop-1
    pooled at one common frequency, as a function of that frequency; +inf
    when any frequency is nonpositive.

    The rebuilt rewards chain couples every later type to the pool, so the
    whole menu is scored, in type order and with the arithmetic of
    `_rewards_from_frequencies` and `_time_saved`. The types before the pool
    do not depend on it: their partial sums are taken once, here.
    """
    n = problem.n_types
    thetas = problem.thetas
    bt = [b * t for b, t in zip(problem.betas, thetas)]
    a_cap = problem.params.energy_coeff
    rho, c0, ks, s_over_r = gains

    def sweep(common, k_from: int, k_to: int, v_cum: float, total: float, prev: float):
        for k in range(k_from, k_to):
            f = common if start <= k < stop else full[k]
            if k == 0:
                v_cum = a_cap * f * f / thetas[0]
            else:
                v_cum += a_cap * (f * f - prev ** 2) / thetas[k]
            total += bt[k] * (rho * (c0 - ks / f - s_over_r[k]) - math.expm1(v_cum))
            prev = f
        return v_cum, total, prev

    if any(full[k] <= 0 for k in range(n) if not start <= k < stop):
        return lambda common: math.inf
    head = sweep(None, 0, start, 0.0, 0.0, 0.0)

    def objective(common: float) -> float:
        if common <= 0:
            return math.inf
        return -sweep(common, start, n, *head)[1]

    return objective


def _iron_frequencies(fs: list[float], problem: ContractProblem, gains):
    """Pool adjacent violators of frequency monotonicity.

    Each non-ascending run is replaced by the single frequency maximizing
    the summed SR utility of the run, searched between the neighbouring
    frequencies; rewards are rebuilt afterwards. Returns (fs, bunches).
    """
    n = problem.n_types
    params = problem.params
    blocks: list[list[int]] = [[j] for j in range(n)]
    values: list[float] = list(fs)

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
        full = [v for b, v in zip(blocks, values) for _ in b]
        while True:
            lo = values[left - 1] if left > 0 else 1.0
            hi = values[right + 1] if right + 1 < len(values) else params.f_max
            if hi <= lo:
                common = lo
                break
            xatol = max(1e-3, (hi - lo) * 1e-10)
            objective = _pool_objective(full, blocks[left][0], blocks[right][-1] + 1,
                                        problem, gains)
            res = minimize_scalar(
                objective, bounds=(lo, hi), method="bounded", options={"xatol": xatol},
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


def _menu_from_chain(result, problem: ContractProblem, gains):
    """Wrap a chain result into a menu, ironing if monotonicity failed."""
    fs, pis = result
    bunches = []
    ascending = all(fs[i] <= fs[i + 1] + 1e-9 for i in range(len(fs) - 1))
    if not ascending:
        try:
            fs, bunches = _iron_frequencies(list(fs), problem, gains)
            pis = _rewards_from_frequencies(fs, problem)
        except OverflowError:     # an ironed reward leaves the float range
            return None
    if not (all(p >= 0 for p in pis) and all(f > 0 for f in fs)):    # NaN fails too
        return None
    if fs[-1] > problem.params.f_max * (1 + 1e-12):
        return None
    return ContractMenu(tuple(fs), tuple(pis), "lagrangian", meta={"bunches": tuple(bunches)})


def _first_type_utility(menu: ContractMenu, problem: ContractProblem) -> float:
    return _pv_utility(problem.thetas[0], menu.fs[0], menu.pis[0], problem.params)


_SCAN_INTERVALS = 200  # uniform grid intervals between the LA and LC top frequencies


def solve_lagrangian_iterative(problem: ContractProblem) -> ContractMenu:
    """Grid scan over the top type's frequency with the backward multiplier
    recursion at each grid point, root-polished where the lowest type's
    utility crosses zero; the locally optimal menu is always a candidate.

    Returns the feasible candidate with the highest SR utility. Raises
    InfeasibleProblem when no candidate survives.
    """
    _check_problem(problem)
    params = problem.params
    f_hi, pi_top, _ = _binding_item(problem, problem.n_types - 1, 0.0, 0.0)
    if problem.n_types == 1:
        return ContractMenu((f_hi,), (pi_top,), "lagrangian",
                            meta={"degenerate_single_type": True})
    la = solve_local_asymmetric(problem)

    f_lo = la.fs[-1]
    if f_hi < f_lo:
        f_hi, f_lo = f_lo, f_hi
    step = (f_hi - f_lo) / _SCAN_INTERVALS if f_hi > f_lo else max(f_hi * 1e-3, 1.0)

    gains = _gains(problem)
    tops: dict[float, tuple[ContractMenu | None, float | None]] = {}

    def at_top(f_top: float) -> tuple[ContractMenu | None, float | None]:
        """Chain menu for one top frequency and its lowest type's utility,
        memoised: the polish and the refine end on points they evaluated."""
        if f_top not in tops:
            chain = _chain_from_top(f_top, problem)
            menu = None if chain is None else _menu_from_chain(chain, problem, gains)
            tops[f_top] = menu, None if menu is None else _first_type_utility(menu, problem)
        return tops[f_top]

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
            f_root = _brent(u1_of_top, min(fa, fb), max(fa, fb), 0.5)
        except (ValueError, InfeasibleProblem):
            continue
        menu, _ = at_top(f_root)
        if menu is not None:
            candidates.append((menu, f_root))

    def admissible(menu: ContractMenu) -> bool:
        utils = [
            _pv_utility(problem.thetas[j], menu.fs[j], menu.pis[j], params)
            for j in range(problem.n_types)
        ]
        return not any(u < -1e-9 for u in utils) and not any(p < 0 for p in menu.pis)

    best, best_top, best_value = None, None, -math.inf
    for menu, f_top in candidates:
        if not admissible(menu):
            continue
        value = fold(_sr_terms(menu, problem))
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
            return -fold(_sr_terms(menu, problem))

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
    # a refined chain ran on the minimiser's numpy scalars: return plain floats
    best = ContractMenu(tuple(map(float, best.fs)), tuple(map(float, best.pis)), "lagrangian",
                        meta=dict(best.meta, candidates=len(candidates)))
    best.meta["u_pv_first_type"] = _first_type_utility(best, problem)
    best.check_monotone(params.f_max)
    return best


# ---------------------------------------------------------------------------
# pricing baselines
# ---------------------------------------------------------------------------

def _price_game(problem: ContractProblem):
    """The posted-price constants both the scalar and the array paths read:
    -2A, 4A^2, 4A, f_max, 8A theta_j, beta_j theta_j and `_gains` (A is the
    energy coefficient)."""
    params = problem.params
    a_cap = params.energy_coeff
    return (-2 * a_cap, 4 * a_cap * a_cap, 4 * a_cap, params.f_max,
            [8 * a_cap * theta for theta in problem.thetas],
            [b * t for b, t in zip(problem.betas, problem.thetas)], _gains(problem))


def _price_responses(game):
    """Each type's privately optimal frequency against a posted unit price,
    as a function of the price (all 0 = stay out at a nonpositive price)."""
    neg_2a, a_sq4, a4, f_max, a8_theta, _, _ = game

    def respond(price: float) -> list[float]:
        if price <= 0:
            return [0.0] * len(a8_theta)
        den = a4 * price
        if not den:
            raise InfeasibleProblem("4 * energy_coeff * price underflows to 0")
        return [min((neg_2a + math.sqrt(a_sq4 + c * price * price)) / den, f_max)
                for c in a8_theta]

    return respond


def _price_value(game):
    """The SR's utility at a posted unit price, as a function of the price."""
    respond = _price_responses(game)
    _, _, _, _, _, bt, (rho, c0, ks, s_over_r) = game

    def value(price: float) -> float:
        total = 0.0
        for j, f in enumerate(respond(price)):
            if f <= 0:
                continue
            total += bt[j] * (rho * (c0 - ks / f - s_over_r[j]) - price * f)
        return total

    return value


def _price_values(game, prices: np.ndarray) -> np.ndarray:
    """`_price_value` at each of the positive `prices` in one array pass, bit
    for bit: every float operation is the scalar one, in its order. Overflows
    pass silently, as they do there; a zero denominator is InfeasibleProblem."""
    neg_2a, a_sq4, a4, f_max, a8_theta, bt, (rho, c0, ks, s_over_r) = game
    with np.errstate(all="ignore"):
        den = a4 * prices
        if not den.all():
            raise InfeasibleProblem("4 * energy_coeff * price underflows to 0")
        total = np.zeros_like(prices)
        for c, w, s in zip(a8_theta, bt, s_over_r):
            f = np.minimum((neg_2a + np.sqrt(a_sq4 + c * prices * prices)) / den, f_max)
            # f <= 0 and not f > 0: a NaN frequency adds NaN, as in the scalar loop
            total = total + np.where(f <= 0, 0.0, w * (rho * (c0 - ks / f - s) - prices * f))
    return total


def _menu_at_price(price: float, game, scheme: str) -> ContractMenu:
    fs = _price_responses(game)(price)
    return ContractMenu(tuple(fs), tuple(price * f for f in fs), scheme, meta={"price": price})


def stackelberg_baseline(problem: ContractProblem) -> tuple[ContractMenu, float]:
    """Posted unit price chosen by 1-D search over the SR's utility, each
    type responding with its privately optimal frequency. A nonpositive
    optimum collapses to price zero (nobody trades). Task constants that
    underflow a grid price's response denominator, or take the utility out
    of the float range around the best grid price, raise InfeasibleProblem."""
    _check_problem(problem)
    game = _price_game(problem)
    coarse = np.logspace(-14, -4, 400)
    values = _price_values(game, coarse)
    k = int(np.argmax(values))
    if not np.isfinite(values[max(k - 1, 0):k + 2]).all():   # the refine's bracket
        raise InfeasibleProblem("the SR's posted-price utility leaves the float range "
                                "around the best grid price")
    lo = float(coarse[max(k - 1, 0)])
    hi = float(coarse[min(k + 1, coarse.size - 1)])
    value = _price_value(game)
    res = minimize_scalar(
        lambda p: -value(p),
        bounds=(lo, hi), method="bounded",
        options={"xatol": float(coarse[k]) * 1e-6},
    )
    refined = float(res.x)
    best_price = max((refined, float(coarse[k])), key=value)
    if value(best_price) <= 0:
        best_price = 0.0
    return _menu_at_price(best_price, game, "stackelberg"), best_price


def linear_pricing_baseline(
    problem: ContractProblem, p_star: float
) -> tuple[ContractMenu, float]:
    """Zero-margin linear tariff: the largest unit price at or above the
    posted-price optimum p_star (the price stackelberg_baseline returns)
    where the SR's utility hits zero. When even the optimal posted price
    earns nothing, the menu is all-zero."""
    _check_problem(problem)
    if not real(p_star):
        raise ValueError(f"p_star must be a finite real number, got {p_star!r}")
    game = _price_game(problem)
    value = _price_value(game)
    if p_star <= 0 or value(p_star) <= 0:
        return _menu_at_price(0.0, game, "linear_pricing"), 0.0
    hi = p_star
    for _ in range(200):
        hi *= 2.0
        if value(hi) < 0:
            break
    else:
        raise InfeasibleProblem("linear tariff root could not be bracketed")
    price = _brent(value, p_star, hi, 1e-18, 8.9e-16)
    return _menu_at_price(float(price), game, "linear_pricing"), float(price)
