"""The task a service requester offers, and the solvers' failure: the two
names of `contract_opt` that the harness needs to read a config and report an
exit code. They live here, free of scipy, so that a scenario that solves no
contract does not load it; `contract_opt` exports both."""

from __future__ import annotations

from dataclasses import dataclass

from ._numbers import real

__all__ = ["TaskParams", "InfeasibleProblem"]


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
        rs = self.r_bps if isinstance(self.r_bps, tuple) else (self.r_bps,)
        for name in ("rho", "kappa", "s_bits", "f_local", "eps_cap", "e_price", "f_max", "r_bps"):
            for value in rs if name == "r_bps" else (getattr(self, name),):
                if not (real(value) and value > 0):
                    raise ValueError(f"{name} must be finite and positive (got {value!r})")

    @property
    def energy_coeff(self) -> float:
        """e * kappa * s * eps: coefficient of f^2 in the PV's energy cost."""
        return self.e_price * self.kappa * self.s_bits * self.eps_cap

    def r_of(self, j: int) -> float:
        if isinstance(self.r_bps, tuple):
            return self.r_bps[j]
        return self.r_bps
