"""Parked-vehicle resource-sharing simulator.

Subpackages and modules, each loaded only when imported:

* ``reputation`` — subjective-logic opinions, multi-weight evidence
  aggregation, and the linear-smoothing baseline.
* ``parking`` — dual-Gamma stay-duration model, hourly arrival
  populations, and type classification.
* ``contract_opt`` — screening-contract solvers (complete information,
  local and iterative asymmetric) for the reward value ln(1 + pi), plus
  posted-price and zero-margin linear-pricing baselines.
* ``consensus`` — reputation-gated BFT committee simulation, and the
  detection, decay and collusion experiments.
* ``ledger`` — accounts, escrowed task contracts, and the block chain
  state machine.
* ``harness`` — experiment configuration, scenario runners, CLI.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
