"""Every public callable of the five layers fails a wrong-type argument with
its layer's own error.

Each callable in a layer's `__all__` has one valid call below. The test
replaces each positional argument of that call in turn with `object()`,
`"x"` and `None`, and then all of them at once. Every such call must raise
`ValueError` (a subclass included), `LedgerError`, `InfeasibleProblem` or,
for a name, `KeyError`, whose message names the value: never another
exception, and never a result. Where a parameter's rule takes one of these
values (a str name, or `None` for the default weights or committee), the
call must run instead. The output records and the exception classes are
listed, not called: a layer builds them. `tests/test_inputs.py` holds the
finer rules of each number argument; the methods of `Ledger`,
`ReputationEngine` and the tracker are not probed here.
"""

import inspect

import numpy as np
import pytest

from parkedchain import consensus, contract_opt, ledger, parking, reputation

LAYERS = (parking, contract_opt, reputation, consensus, ledger)
LAYER_ERRORS = (ValueError, ledger.LedgerError, contract_opt.InfeasibleProblem, KeyError)
OUTPUTS = {"consensus.NetMessage", "consensus.ViewOutcome", "reputation.ReputationView",
           "ledger.Account", "ledger.SmartContractRecord", "ledger.Block"}
BAD = {"object": object(), "str": "x", "none": None}

MIX = parking.GammaMixtureParams()
ARRIVALS = parking.Arrivals([8, 9, 9], [5.0, 3.0, 1.5])
PARKED = parking.Parked([0, 1, 2], [8, 9, 9], 10)
PV = parking.PVState(0, 8, 2.0, 1.0)
PROFILE = parking.TypeProfile((0.5, 0.9), (0.5, 0.5))
PARAMS = contract_opt.TaskParams()
PROBLEM = contract_opt.ContractProblem(PROFILE, PARAMS)
MENU = contract_opt.solve_local_asymmetric(PROBLEM)
CFG = reputation.WeightConfig()
COMMITTEE = [(f"n{i}", consensus.Behavior.HONEST) for i in range(4)]
BLOCK = consensus.BlockProposal(1, ("tx0",), "n0")
TRACE = object()     # stands for a trace file written by the test


def interactions():
    """record_interactions' arguments, over fresh schemes: they are written."""
    engine, tracker = consensus._schemes(None, ["a", "b", "c"])
    return (np.random.default_rng(0), [2], ["b"], ["a", "c"], np.full((1, 1, 2), 0.8),
            engine, tracker)


# "module.name": a function returning the positional arguments of one valid call
VALID = {
    "parking.GammaMixtureParams": lambda: (0.6, 0.4, 2.0, 6.0, 0.75, 1.5),
    "parking.PVState": lambda: (0, 8, 2.0, 1.0),
    "parking.Parked": lambda: ([0, 1], [8, 9], 10, 1.0),
    "parking.TypeProfile": lambda: ((0.5, 0.9), (0.5, 0.5)),
    "parking.Arrivals": lambda: ([8, 9], [5.0, 3.0]),
    "parking.stay_probability": lambda: (PV, MIX),
    "parking.leave_probability": lambda: (PV, MIX),
    "parking.classify_types": lambda: (PARKED, MIX, 2),
    "parking.ingest_trace": lambda: (TRACE,),
    "parking.synthesize_population": lambda: (MIX, 10, 0),
    "parking.surviving_population": lambda: (ARRIVALS, 10, 1.0),
    "parking.hourly_type_profile": lambda: (ARRIVALS, 10, MIX, 2, 1.0),
    "contract_opt.TaskParams": lambda: (0.1, 1e4, 4e6, 0.5e9, 5.5e6, 1e-28, 0.1, 3e9),
    "contract_opt.ContractProblem": lambda: (PROFILE, PARAMS),
    "contract_opt.ContractMenu": lambda: ((1e9, 2e9), (0.5, 1.0), "s", {}),
    "contract_opt.pv_utility": lambda: (0.5, 1e9, 0.5, PARAMS),
    "contract_opt.sr_expected_utility": lambda: (MENU, PROBLEM),
    "contract_opt.sr_utility_terms": lambda: (MENU, PROBLEM),
    "contract_opt.pv_expected_utility": lambda: (MENU, PROBLEM),
    "contract_opt.solve_complete_info": lambda: (PROBLEM,),
    "contract_opt.solve_local_asymmetric": lambda: (PROBLEM,),
    "contract_opt.solve_lagrangian_iterative": lambda: (PROBLEM,),
    "contract_opt.stackelberg_baseline": lambda: (PROBLEM,),
    "contract_opt.linear_pricing_baseline": lambda: (PROBLEM, 1e-9),
    "reputation.Opinion": lambda: (0.5, 0.25, 0.25, 0.5),
    "reputation.WeightConfig": lambda: (0.3, 0.4, 0.3, 10.0, 1.5),
    "reputation.timeliness_weight": lambda: (3, 1, CFG),
    "reputation.ReputationEngine": lambda: (CFG,),
    "reputation.LinearReputationTracker": lambda: (["a", "b"],),
    "consensus.Behavior": lambda: ("honest",),
    "consensus.ReplicaStrategy": lambda: ("split",),
    "consensus.ConsensusConfig": lambda: (4, 1),
    "consensus.BlockProposal": lambda: (1, ("tx0",), "n0"),
    "consensus.select_consensus_nodes": lambda: ({"a": 0.5, "b": 0.7}, 1),
    "consensus.run_view": lambda: (COMMITTEE, BLOCK, consensus.ConsensusConfig(4, 1), 0, {}),
    "consensus.model_check_safety": lambda: (consensus.ConsensusConfig(4, 1),),
    "consensus.record_interactions": interactions,
    "consensus.detection_experiment": lambda: (3, 1, 0.5, 1, 0, CFG),
    "consensus.decay_experiment": lambda: (12, 1, 1, 0, CFG),
    "consensus.collusion_experiment": lambda: ([0.5], 1, 0, CFG),
    "ledger.ContractState": lambda: ("Paid",),
    "ledger.RequestSpec": lambda: (4_000_000, 1e9, 5.0),
    "ledger.Ledger": lambda: (),
}


# (callable, argument position): the probe values its rule accepts
ACCEPTED = {
    ("consensus.BlockProposal", 2): {"str"},            # proposer
    ("contract_opt.ContractMenu", 2): {"str"},          # scheme
    ("consensus.run_view", 4): {"none"},                # strategies
    ("consensus.model_check_safety", 0): {"none"},      # config
    ("reputation.ReputationEngine", 0): {"none"},       # cfg
    ("consensus.detection_experiment", 5): {"none"},    # weight_config
    ("consensus.decay_experiment", 4): {"none"},
    ("consensus.collusion_experiment", 3): {"none"},
}
# record_interactions names its table by type: "got str", "got object"
UNNAMED = {("consensus.record_interactions", 4)}


def _public_callables():
    """Every callable a layer's __all__ names, but the exception classes."""
    names = set()
    for module in LAYERS:
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value) and not (inspect.isclass(value)
                                        and issubclass(value, BaseException)):
                names.add(f"{module.__name__.rsplit('.', 1)[1]}.{name}")
    return names


def _target(qualified):
    module, name = qualified.split(".")
    return getattr(globals()[module], name)


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("arrival_hour,duration_hours\n8,3.5\n9,6.0\n")
    return str(path)


def _args(qualified, trace):
    return tuple(trace if a is TRACE else a for a in VALID[qualified]())


def test_every_public_callable_is_probed_or_an_output():
    assert not OUTPUTS & set(VALID)
    assert sorted(_public_callables() - OUTPUTS) == sorted(VALID)


@pytest.mark.parametrize("qualified", sorted(VALID))
def test_valid_call_runs(qualified, trace):
    _target(qualified)(*_args(qualified, trace))


CASES = [pytest.param(qualified, position, label, id=f"{qualified}-{position}-{label}")
         for qualified in sorted(VALID) for position in range(len(VALID[qualified]()))
         for label in BAD]
CASES += [pytest.param(qualified, None, label, id=f"{qualified}-all-{label}")
          for qualified in sorted(VALID) if len(VALID[qualified]()) > 1 for label in BAD]


@pytest.mark.parametrize("qualified, position, label", CASES)
def test_wrong_type_fails_with_the_layers_error(qualified, position, label, trace):
    args = list(_args(qualified, trace))
    value = BAD[label]
    for k in range(len(args)) if position is None else (position,):
        args[k] = value
    if label in ACCEPTED.get((qualified, position), ()):
        _target(qualified)(*args)
        return
    try:
        result = _target(qualified)(*args)
    except LAYER_ERRORS as exc:
        if position is not None and (qualified, position) not in UNNAMED:
            assert repr(value) in str(exc)
        return
    except Exception as exc:
        pytest.fail(f"{qualified} raised {type(exc).__name__}: {exc}")
    pytest.fail(f"{qualified} accepted {value!r} and returned {result!r}")
