"""Test-side oracles: exhaustive or closed-form references that the tests
compare the library against, kept as they were when they left the library.

From contract_opt: `check_feasibility` evaluates every IR and IC inequality
of a menu (a `FeasibilityReport`), `sr_reward_derivative` is the reward
first-order condition's derivative under binding IR, and `grid_oracle`
enumerates every ascending menu on small grids. From parking: `density` is
the mixture's first-order duration density, and `survival` the array
survival function whose ratio at both ends of the horizon is the stay
kernel's bit-for-bit reference. From reputation: the scalar subjective-logic
algebra (`local_opinion`, `reputation_value`, the familiarity, similarity
and overall weights, `synthesize_recommended`, `fuse_final`) that
`ReputationEngine`'s array read must match bit for bit, and the EMA
`linear_reputation_baseline` that `LinearReputationTracker` must match. From
consensus: `full_detection_slot`, the first slot a detection series flags
every misbehaving node. Nothing under src/ imports it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from parkedchain._numbers import fold, real
from parkedchain.contract_opt import (ContractMenu, ContractProblem, InfeasibleProblem, _foc,
                                      pv_utility)
from parkedchain.parking import GammaMixtureParams
from parkedchain.reputation import (_LR_INITIAL, _LR_SMOOTHING, EVIDENCE_PRIOR_WEIGHT, Opinion,
                                    WeightConfig)


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
# parking references
# ---------------------------------------------------------------------------

def _gamma_pdf(t: float, shape: float, scale: float) -> float:
    return (
        t ** (shape - 1.0)
        * math.exp(-t / scale)
        / (math.gamma(shape) * scale**shape)
    )


def density(t_p: float, m: GammaMixtureParams) -> float:
    """First-order density of the parking duration."""
    if t_p <= 0:
        raise ValueError("duration must be positive")
    return m.h_short * _gamma_pdf(t_p, m.shape_short, m.scale_short) + m.h_long * _gamma_pdf(
        t_p, m.shape_long, m.scale_long
    )


def survival(x, mixture: GammaMixtureParams):
    """P[duration > x] under the mixture, via regularized upper Gammas;
    `x` is a float or an array."""
    if (np.asarray(x) < 0).any():
        raise ValueError("x must be >= 0")
    return (
        mixture.h_short * gammaincc(mixture.shape_short, x / mixture.scale_short)
        + mixture.h_long * gammaincc(mixture.shape_long, x / mixture.scale_long)
    )


# ---------------------------------------------------------------------------
# reputation references
# ---------------------------------------------------------------------------

VACUOUS = Opinion(0.0, 0.0, 1.0)


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
    mean = fold(peer_counts) / len(peer_counts)
    if mean == 0:
        raise ValueError("no interaction history: all peer counts are zero")
    return p_ij / mean


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
    total_w = fold(w for w, _ in opinions)
    if total_w <= 0:
        raise ValueError("total recommendation weight must be positive")
    b = fold(w * o.belief for w, o in opinions) / total_w
    d = fold(w * o.disbelief for w, o in opinions) / total_w
    u = fold(w * o.uncertainty for w, o in opinions) / total_w
    a = fold(w * o.base_rate for w, o in opinions) / total_w
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


def linear_reputation_baseline(history: list[float]) -> float:
    """EMA of outcome indicators: the linear comparison scheme."""
    value = _LR_INITIAL
    for outcome in history:
        value = (1.0 - _LR_SMOOTHING) * value + _LR_SMOOTHING * outcome
    return value


# ---------------------------------------------------------------------------
# consensus references
# ---------------------------------------------------------------------------

def full_detection_slot(series: list[float]) -> int | None:
    """First 1-indexed slot where the whole misbehaving set is flagged."""
    for i, rate in enumerate(series):
        if rate >= 1.0:
            return i + 1
    return None
