"""Fixtures shared by the test modules."""

import time

import numpy as np
import pytest

from parkedchain.contract_opt import (
    ContractProblem,
    solve_lagrangian_iterative,
    solve_local_asymmetric,
)
from parkedchain.parking import TypeProfile


def random_profile(rng: np.random.Generator, n: int) -> TypeProfile:
    while True:
        thetas = np.sort(rng.uniform(0.15, 0.98, size=n))
        if np.all(np.diff(thetas) > 1e-3):
            break
    betas = rng.dirichlet(np.ones(n))
    return TypeProfile(tuple(float(t) for t in thetas),
                       tuple(float(b) for b in betas))


@pytest.fixture(scope="session")
def suite50():
    """Fifty seeded random screening problems with both asymmetric solvers run."""
    rng = np.random.default_rng(2026)
    cases = []
    t0 = time.perf_counter()
    for i in range(50):
        n = 2 + i % 6
        problem = ContractProblem(random_profile(rng, n))
        cases.append({
            "problem": problem,
            "lia": solve_lagrangian_iterative(problem),
            "la": solve_local_asymmetric(problem),
        })
    return {"cases": cases, "solve_seconds": time.perf_counter() - t0}
