"""Every public call of the five layers runs or fails with its layer's own error.

One table generated from the signatures, checked the QuickCheck way (Claessen
& Hughes, ICFP 2000) but enumerated, not sampled. Each callable in a layer's
`__all__` but the outputs, each public method of the three stateful classes
that takes arguments and `Parked.__getitem__` has a valid call in VALID. Each
argument (or ENTRIES' entry) in turn, and all at once, takes every value of
the pool its annotation names. The call raises its layer's error naming the
value or its bad entry: `LedgerError` from a `Ledger` method, `ValueError`
from any other callable, `InfeasibleProblem` from a contract solver, or a
roster's `KeyError`. It leaves its
stateful arguments as they were; where ACCEPTED, or a `| None` annotation for
None, says the rule takes the value, it runs.
"""

import functools
import inspect
import math
import os

import numpy as np
import pytest

from parkedchain import consensus, contract_opt, ledger, parking, reputation

OUTPUTS = {"consensus.NetMessage", "consensus.ViewOutcome", "reputation.ReputationView",
           "ledger.Account", "ledger.SmartContractRecord", "ledger.Block"}
# stand-ins for an open file descriptor the test owns and another layer's parameter object
DESCRIPTOR, ALIEN = object(), object()
TRACE = "trace.csv"       # written by the test in its working directory

# the values each kind of argument rejects, unless ACCEPTED says otherwise
COMMON = {"object": object(), "none": None, "tuple": (0.5,), "alien": ALIEN}
REAL = {**COMMON, "true": True, "numpy-true": np.True_, "nan": math.nan, "inf": math.inf,
        "-inf": -math.inf, "string": "1", "huge": 10**400}
POOLS = {
    "real": REAL,
    "whole": {**REAL, "half": 1.5, "negative": -1, "tuple": (1,)},   # numpy indexes by (1,)
    "flag": {**COMMON, "string": "no", "zero": 0, "one": 1, "float": 1.0},
    "name": {**COMMON, "str": "x", "int": DESCRIPTOR, "bytes": b"pv", "tuple": ("a",),
             "list": ["a"]},
    "names": {**COMMON, "str": "ac"},
    "object": {**COMMON, "str": "x", "tuple": (0.6, 0.4, 2.0, 6.0, 0.75, 1.5), "zero": 0,
               "false": False, "dict": {"n": 4, "l": 1}},
    "array": {**COMMON, "str": "x", "tuple": ("x",)},     # (0.5,) is a list of reals
    "all": {"object": object(), "str": "x", "none": None},  # every argument at once
}
# the kind each annotation but its "| None" names; any other, a parameter object
KINDS = {"float": "real", "float | tuple[float, ...]": "real", "int": "whole", "bool": "flag",
         "str": "name", "list[str]": "names", "tuple[str, ...]": "names",
         "tuple[float, ...]": "array", "list[float]": "array", "np.ndarray": "array"}
UNANNOTATED = {
    ("consensus.Behavior", 0): "name",
    ("consensus.ReplicaStrategy", 0): "name",
    ("ledger.ContractState", 0): "name",
    ("consensus.run_view", 0): "names",
    ("reputation.LinearReputationTracker", 0): "names",
    ("ledger.Ledger.post_request", 3): "array",
    ("ledger.Ledger.append_block", 1): "names",
    ("ledger.Ledger.append_block", 2): "names",
}

MIX, PV = parking.GammaMixtureParams(), parking.PVState(0, 8, 2.0, 1.0)
ARRIVALS = parking.Arrivals([8, 9, 9], [5.0, 3.0, 1.5])
PARKED = parking.Parked([0, 1, 2], [8, 9, 9], 10)
PROFILE = parking.TypeProfile((0.5, 0.9), (0.5, 0.5))
PARAMS, CFG = contract_opt.TaskParams(), reputation.WeightConfig()
PROBLEM = contract_opt.ContractProblem(PROFILE, PARAMS)
MENU = contract_opt.solve_local_asymmetric(PROBLEM)
SPEC, ONE = ledger.RequestSpec(4_000_000, 1e9, 5.0), np.ones((1, 1, 2), dtype=int)


def book(stage=0):
    """A ledger with funded accounts "sr" and "pv" and one contract, posted
    (stage 0), signed (1) or with its result submitted (2), and its address."""
    led = ledger.Ledger()
    for name, funds in (("sr", 10_000), ("pv", 500)):
        led.register_account(name)
        led.credit(name, funds)
    address = led.post_request("sr", SPEC, [(1e9, 120)], 10).address
    for step in (lambda: led.sign_contract("pv", address, 0, 10),
                 lambda: led.execute_task(address, False))[:stage]:
        step()
    return led, address


def schemes():
    """Both reputation schemes over the roster a, b, c, with a's rating of b."""
    engine, tracker = consensus._schemes(None, ["a", "b", "c"])
    engine.record_outcomes(1, "a", "b", 3, 1)
    tracker.update("a", "b", 3, 1)
    return engine, tracker


VALID = {       # a valid call's positional arguments, a method's instance first
    "parking.GammaMixtureParams": lambda: (0.6, 0.4, 2.0, 6.0, 0.75, 1.5),
    "parking.PVState": lambda: (0, 8, 2.0, 1.0),
    "parking.Parked": lambda: ([0, 1], [8, 9], 10, 1.0),
    "parking.Parked.__getitem__": lambda: (PARKED, 1),
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
    **{f"contract_opt.{name}": lambda: (MENU, PROBLEM)
       for name in ("sr_expected_utility", "sr_utility_terms", "pv_expected_utility")},
    **{f"contract_opt.{name}": lambda: (PROBLEM,) for name in (
        "solve_complete_info", "solve_local_asymmetric", "solve_lagrangian_iterative",
        "stackelberg_baseline")},
    "contract_opt.linear_pricing_baseline": lambda: (PROBLEM, 1e-9),
    "reputation.Opinion": lambda: (0.5, 0.25, 0.25, 0.5),
    "reputation.WeightConfig": lambda: (0.3, 0.4, 0.3, 10.0, 1.5),
    "reputation.ReputationEngine": lambda: (CFG,),
    "reputation.ReputationEngine.register": lambda: (schemes()[0], "d", 9.0),
    "reputation.ReputationEngine.record_outcomes": lambda: (schemes()[0], 2, "a", "b", 1, 0),
    "reputation.ReputationEngine.record_block": lambda: (schemes()[0], 2, ["a"], ["b"], ONE),
    "reputation.ReputationEngine.view": lambda: (schemes()[0], "b", 2, ["a"]),
    "reputation.ReputationEngine.average_reputations": lambda: (schemes()[0], ["b"], 2, ["a"]),
    "reputation.LinearReputationTracker": lambda: (["a", "b"],),
    "reputation.LinearReputationTracker.update": lambda: (schemes()[1], "a", "b", 1, 0),
    "reputation.LinearReputationTracker.update_block": lambda: (schemes()[1], ["a"], ["b"], ONE),
    "reputation.LinearReputationTracker.value": lambda: (schemes()[1], "a", "b"),
    "reputation.LinearReputationTracker.average_reputation": lambda: (schemes()[1], "b", ["a"]),
    "consensus.Behavior": lambda: ("honest",),
    "consensus.ReplicaStrategy": lambda: ("split",),
    "consensus.ConsensusConfig": lambda: (4, 1),
    "consensus.BlockProposal": lambda: (1, ("tx0",), "n0"),
    "consensus.select_consensus_nodes": lambda: ({"a": 0.5, "b": 0.7}, 1),
    "consensus.run_view": lambda: ([(f"n{i}", consensus.Behavior.HONEST) for i in range(4)],
                                   consensus.BlockProposal(1, ("tx0",), "n0"),
                                   consensus.ConsensusConfig(4, 1), 0, {}),
    "consensus.model_check_safety": lambda: (consensus.ConsensusConfig(4, 1),),
    "consensus.detection_experiment": lambda: (3, 1, 0.5, 1, 0, CFG),
    "consensus.decay_experiment": lambda: (12, 1, 1, 0, CFG),
    "consensus.collusion_experiment": lambda: ([0.5], 1, 0, CFG),
    "ledger.ContractState": lambda: ("Paid",),
    "ledger.RequestSpec": lambda: (4_000_000, 1e9, 5.0),
    "ledger.Ledger": lambda: (),
    "ledger.Ledger.register_account": lambda: (ledger.Ledger(), "pv"),
    "ledger.Ledger.credit": lambda: (book()[0], "pv", 5),
    "ledger.Ledger.post_request": lambda: (book()[0], "sr", SPEC, [(1e9, 120)], 10),
    "ledger.Ledger.sign_contract": lambda: (lambda led, at: (led, "pv", at, 0, 10))(*book()),
    "ledger.Ledger.execute_task": lambda: (*book(1), False),
    "ledger.Ledger.verify_and_settle": lambda: (*book(2), "fail", False),
    "ledger.Ledger.append_block": lambda: (book()[0], ["tx0"], ["n0"], "n0"),
    "ledger.Ledger.dump": lambda: (book()[0], "ledger.jsonl"),
}

# (callable, position, entry, the entry's kind, the argument built around it)
ENTRIES = [
    ("parking.TypeProfile", 0, "theta", "real", lambda x: (0.5, x)),
    ("parking.TypeProfile", 1, "beta", "real", lambda x: (0.5, x)),
    ("contract_opt.TaskParams", 4, "rate", "real", lambda x: (5e6, x)),
    ("reputation.LinearReputationTracker", 0, "node", "name", lambda x: ["a", x]),
    ("consensus.select_consensus_nodes", 0, "score", "real", lambda x: {"a": 0.5, "b": x}),
    ("consensus.collusion_experiment", 0, "threshold", "real", lambda x: [0.5, x]),
    ("ledger.Ledger.post_request", 3, "frequency", "real", lambda x: [(x, 120)]),
    ("ledger.Ledger.post_request", 3, "reward", "whole", lambda x: [(1e9, x)]),
    ("ledger.Ledger.append_block", 1, "transaction", "name", lambda x: ["tx0", x]),
    ("ledger.Ledger.append_block", 2, "signer", "name", lambda x: ["n0", x]),
    ("reputation.ReputationEngine.record_block", 2, "rater", "name", lambda x: [x]),
    ("reputation.ReputationEngine.record_block", 3, "target", "name", lambda x: [x]),
    ("reputation.ReputationEngine.view", 3, "rater", "name", lambda x: ["a", x]),
    ("reputation.ReputationEngine.average_reputations", 1, "target", "name", lambda x: ["b", x]),
    ("reputation.ReputationEngine.average_reputations", 3, "rater", "name", lambda x: ["a", x]),
    ("reputation.LinearReputationTracker.update_block", 1, "rater", "name", lambda x: [x]),
    ("reputation.LinearReputationTracker.update_block", 2, "target", "name", lambda x: [x]),
    ("reputation.LinearReputationTracker.average_reputation", 2, "rater", "name",
     lambda x: ["a", x]),
    ("consensus.BlockProposal", 1, "digest", "name", lambda x: ("tx0", x)),
]

# (callable, position or entry): the pool values its rule takes, besides None
# for a "| None" annotation: a str name, a huge int (or -1) for an unbounded
# whole number, a tuple of rates and a dict where those are the rule
NAME, HUGE = {"str"}, {"huge"}
ACCEPTED = {
    ("parking.PVState", 0): {"huge", "negative"},
    ("parking.Parked.__getitem__", 1): {"negative"},
    ("parking.classify_types", 2): HUGE,
    ("parking.hourly_type_profile", 3): HUGE,
    ("parking.synthesize_population", 2): HUGE,
    ("contract_opt.TaskParams", 4): {"tuple"},
    ("contract_opt.ContractMenu", 2): NAME,
    ("contract_opt.ContractMenu", 3): {"dict"},
    ("reputation.ReputationEngine.register", 1): NAME,
    ("reputation.LinearReputationTracker", "node"): NAME,
    ("consensus.ConsensusConfig", 0): HUGE,
    ("consensus.BlockProposal", 0): HUGE,
    ("consensus.BlockProposal", 2): NAME,
    ("consensus.BlockProposal", "digest"): NAME,
    ("consensus.select_consensus_nodes", 0): {"dict"},
    ("consensus.run_view", 3): HUGE,
    ("consensus.detection_experiment", 0): HUGE,
    ("consensus.detection_experiment", 4): HUGE,
    ("consensus.decay_experiment", 0): HUGE,
    ("consensus.decay_experiment", 3): HUGE,
    ("consensus.collusion_experiment", 2): HUGE,
    ("ledger.Ledger.register_account", 1): NAME,
    ("ledger.Ledger.credit", 2): HUGE,
    ("ledger.Ledger.append_block", 3): NAME,
    ("ledger.Ledger.append_block", "transaction"): NAME,
    ("ledger.Ledger.append_block", "signer"): NAME,
    ("ledger.Ledger.dump", 1): NAME,
}


def _target(qualified):      # "module.name" or "module.Class.method"
    module, *path = qualified.split(".")
    return functools.reduce(getattr, path, globals()[module])


def _public():
    """Each __all__ callable but the exceptions, and each stateful method with arguments."""
    names = {"parking.Parked.__getitem__"}
    for module in (parking, contract_opt, reputation, consensus, ledger):
        names |= {f"{module.__name__.rsplit('.', 1)[1]}.{name}" for name in module.__all__
                  if callable(value := getattr(module, name))
                  and not (inspect.isclass(value) and issubclass(value, BaseException))}
    for cls in (ledger.Ledger, reputation.ReputationEngine, reputation.LinearReputationTracker):
        names |= {f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{name}"
                  for name, f in vars(cls).items() if inspect.isfunction(f)
                  and not name.startswith("_") and len(inspect.signature(f).parameters) > 1}
    return names


def _cases():
    """(callable, positions, entry builder, kind, pool label, whether it runs)."""
    for q in sorted(VALID):
        first, count = q.count(".") // 2, len(VALID[q]())    # a method's instance is kept
        for p in range(first, count):
            annotation = list(inspect.signature(_target(q)).parameters.values())[p].annotation
            if annotation is inspect.Parameter.empty:
                kind = UNANNOTATED[q, p]
            else:
                kind = KINDS.get(annotation.removesuffix(" | None"), "object")
            for label in POOLS[kind]:
                runs = label in ACCEPTED.get((q, p), ()) or (
                    label == "none" and str(annotation).endswith(" | None"))
                yield pytest.param(q, (p,), None, kind, label, runs, id=f"{q}-{p}-{label}")
        if count - first > 1:
            for label in POOLS["all"]:
                yield pytest.param(q, range(first, count), None, "all", label, False,
                                   id=f"{q}-all-{label}")
    for q, p, entry, kind, wrap in ENTRIES:
        for label in POOLS[kind]:
            runs = label in ACCEPTED.get((q, entry), ())
            yield pytest.param(q, (p,), wrap, kind, label, runs, id=f"{q}-{p}-{entry}-{label}")


def _errors(qualified, kind):
    """The layer's own errors for a rejected argument of `qualified`."""
    if qualified.startswith("ledger.Ledger."):
        errors = (ledger.LedgerError,)
    elif qualified.startswith("contract_opt."):
        errors = (ValueError, contract_opt.InfeasibleProblem)
    else:
        errors = (ValueError,)
    if kind in ("name", "names", "all"):
        errors += (KeyError,)      # a name no roster holds
    if qualified.endswith("__getitem__"):
        errors += (IndexError,)    # a row past the end
    return errors


def _state(value):
    """What a stateful argument holds, to compare across a rejected call."""
    if isinstance(value, ledger.Ledger):
        value.dump("state.jsonl")
        with open("state.jsonl", "rb") as fh:
            return fh.read(), value.clock, value._nonce
    if isinstance(value, reputation.ReputationEngine):
        return (value._evidence.tolist(), value._slots, value._index.copy(),
                value.arrival_hours.copy())
    if isinstance(value, reputation.LinearReputationTracker):
        return value._values.tolist(), value._index.copy()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One working directory, with a trace file."""
    path = tmp_path_factory.mktemp("calls")
    (path / TRACE).write_text("arrival_hour,duration_hours\n8,3.5\n9,6.0\n")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(path)
        yield


@pytest.fixture
def descriptor(workdir):
    """An empty file's descriptor that no call may write to or close; other files go after."""
    fd = os.open("owned", os.O_RDWR | os.O_CREAT | os.O_TRUNC)
    yield fd
    assert os.fstat(fd).st_size == 0      # fstat raises OSError if a call closed it
    os.close(fd)
    for name in set(os.listdir()) - {TRACE}:
        os.remove(name)


def test_every_public_call_is_probed_or_an_output():
    assert sorted(_public() - OUTPUTS) == sorted(VALID)


@pytest.mark.parametrize("qualified", sorted(VALID))
def test_valid_call_runs(qualified, descriptor):
    _target(qualified)(*VALID[qualified]())


@pytest.mark.parametrize("qualified, positions, wrap, kind, label, runs", list(_cases()))
def test_bad_argument_fails_with_the_layers_error(qualified, positions, wrap, kind, label, runs,
                                                  descriptor):
    args = list(VALID[qualified]())
    value = POOLS[kind][label]
    for p in positions:
        if value is DESCRIPTOR:
            value = descriptor
        elif value is ALIEN:      # never the parameter object the argument takes
            value = PARAMS if isinstance(args[p], reputation.WeightConfig) else CFG
        args[p] = value if wrap is None else wrap(value)
    if runs:
        _target(qualified)(*args)
        return
    kept = [_state(a) for a in args]
    try:
        result = _target(qualified)(*args)
    except _errors(qualified, kind) as exc:
        shown = (value, *value) if isinstance(value, (tuple, list)) else (value,)
        assert kind == "all" or any(repr(v) in str(exc) for v in shown), exc
        assert [_state(a) for a in args] == kept
        return
    except Exception as exc:
        pytest.fail(f"{qualified} raised {type(exc).__name__}: {exc}")
    pytest.fail(f"{qualified} accepted {args!r} and returned {result!r}")
