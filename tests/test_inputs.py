"""Every public number argument either runs or fails with its layer's own error.

One table over the constructors and entry points of every layer. Each is fed
the values its rule rejects: a bool (Python's or numpy's), NaN, ±inf, a
numeric string and None everywhere; an int past the float range where the
argument is real or bounded; 1.5 where it is a whole number. The contract
flags, an account identity or reputation node name, a reputation name list,
a parked row index and the parameter objects (a contract problem's type
profile and task, a weight config, a model-check consensus config, a request
spec) have their own rules and rows. Each call must raise the layer's
`ValueError` or `LedgerError`, never a `TypeError`, and never accept the
value.
"""

import math

import numpy as np
import pytest

from parkedchain import consensus, contract_opt, parking, reputation
from parkedchain.harness.config import validate_config
from parkedchain.ledger import ContractState, Ledger, LedgerError, RequestSpec

MIX = (0.6, 0.4, 2.0, 6.0, 0.75, 1.5)
COMMON = {"true": True, "numpy-true": np.True_, "nan": math.nan, "inf": math.inf,
          "-inf": -math.inf, "string": "1", "none": None}
HUGE = {"huge": 10**400}
HALF = {"half": 1.5}
REAL = {**COMMON, **HUGE}            # a finite real
BOUNDED_WHOLE = {**REAL, **HALF}     # a whole number with an upper bound
WHOLE = {**COMMON, **HALF}           # a whole number a huge int satisfies
FLAG = {"string": "no", "zero": 0, "one": 1, "float": 1.0, "none": None}   # a bool
IDENTITY = {"int": 5, "none": None, "bytes": b"pv", "tuple": ("a",), "list": ["a"]}  # a str
# a list of names, never a bare str: each value reads as registered names
# one character at a time
RATERS, TARGETS = {"str": "ac"}, {"str": "b"}
INDEX = {"true": True, "numpy-true": np.True_, "none": None, "half": 1.5, "string": "3",
         "tuple": (1,)}                                                   # a whole row
# parameter objects: each must be an instance of its class, never a stand-in
OBJECTS = {"string": "x", "none": None, "tuple": MIX}
WEIGHTS = {"string": "x", "zero": 0, "false": False, "dict": {"alpha1": 10.0}}  # or None
COMMITTEES = {"string": "x", "zero": 0, "false": False, "dict": {"n": 4, "l": 1}}  # or None
SPECS = {"none": None, "dict": {"task_bits": 4_000_000}, "string": "spec"}


def ledger():
    led = Ledger()
    for name, funds in (("sr", 10_000), ("pv", 500)):
        led.register_account(name)
        led.credit(name, funds)
    return led


SPEC = RequestSpec(4_000_000, 1e9, 5.0)


def post(menu=((1e9, 120),), deposit=10):
    return ledger().post_request("sr", SPEC, list(menu), deposit)


def sign(item=0, deposit=10, led=None):
    led = led or ledger()
    record = led.post_request("sr", SPEC, [(1e9, 120)], 10)
    return led.sign_contract("pv", record.address, item, deposit)


def execute(departed):
    led = ledger()
    return led.execute_task(sign(led=led).address, departed)


def settle(fraud):
    led = ledger()
    address = sign(led=led).address
    led.execute_task(address, False)
    return led.verify_and_settle(address, "fail", sr_fraud=fraud)


def engine():
    eng = reputation.ReputationEngine()
    eng.register("a", 9.0)
    eng.register("b", 10.0)
    return eng


def schemes():
    """Both reputation schemes over the roster a, b, c."""
    return consensus._schemes(None, ["a", "b", "c"])


def interactions(targets, raters):
    return consensus.record_interactions(np.random.default_rng(0), [2], targets, raters,
                                         np.full((1, len(targets), len(raters)), 0.8),
                                         *schemes())


def parked():
    return parking.Parked([0, 1], [8, 9], 10)


def mixture(i, x):
    return parking.GammaMixtureParams(*MIX[:i], x, *MIX[i + 1:])


PROFILE = parking.TypeProfile((0.5, 0.9), (0.5, 0.5))


TABLE = [
    # parking
    ("GammaMixtureParams.h_short", lambda x: mixture(0, x), ValueError, REAL),
    ("GammaMixtureParams.scale_long", lambda x: mixture(5, x), ValueError, REAL),
    ("PVState.arrival_hour", lambda x: parking.PVState(0, x, 1.0, 1.0), ValueError,
     BOUNDED_WHOLE),
    ("PVState.parked_hours", lambda x: parking.PVState(0, 9, x, 1.0), ValueError, REAL),
    ("PVState.horizon", lambda x: parking.PVState(0, 9, 1.0, x), ValueError, REAL),
    ("Parked.hour", lambda x: parking.Parked([0], [9], x), ValueError, BOUNDED_WHOLE),
    ("Parked.horizon", lambda x: parking.Parked([0], [9], 10, x), ValueError, REAL),
    ("surviving_population.hour", lambda x: parking.surviving_population(
        parking.Arrivals([9], [5.0]), x), ValueError, BOUNDED_WHOLE),
    ("TypeProfile.thetas", lambda x: parking.TypeProfile((x,), (1.0,)), ValueError, REAL),
    ("TypeProfile.betas", lambda x: parking.TypeProfile((0.5,), (x,)), ValueError, REAL),
    ("classify_types.n_types", lambda x: parking.classify_types(
        parked(), parking.GammaMixtureParams(), x), ValueError, WHOLE),
    ("synthesize_population.count", lambda x: parking.synthesize_population(
        parking.GammaMixtureParams(), x, 0), ValueError, WHOLE),
    ("synthesize_population.seed", lambda x: parking.synthesize_population(
        parking.GammaMixtureParams(), 10, x), ValueError, WHOLE),
    ("Parked.__getitem__", lambda x: parked()[x], ValueError, INDEX),
    # contract_opt
    ("TaskParams.rho", lambda x: contract_opt.TaskParams(rho=x), ValueError, REAL),
    ("TaskParams.r_bps", lambda x: contract_opt.TaskParams(r_bps=(5e6, x)), ValueError, REAL),
    ("ContractProblem.profile", contract_opt.ContractProblem, ValueError, OBJECTS),
    ("ContractProblem.params", lambda x: contract_opt.ContractProblem(PROFILE, x), ValueError,
     OBJECTS),
    # a menu is checked by comparisons alone, which NaN and -inf fail
    ("ContractMenu.fs", lambda x: contract_opt.ContractMenu((x,), (1.0,), "s"), ValueError,
     {"nan": math.nan, "-inf": -math.inf}),
    ("ContractMenu.pis", lambda x: contract_opt.ContractMenu((1.0,), (x,), "s"), ValueError,
     {"nan": math.nan, "-inf": -math.inf}),
    # reputation
    ("WeightConfig.alpha1", lambda x: reputation.WeightConfig(alpha1=x), ValueError, REAL),
    ("ReputationEngine.cfg", reputation.ReputationEngine, ValueError, WEIGHTS),
    ("ReputationEngine.register", lambda x: engine().register("c", x), ValueError, REAL),
    ("ReputationEngine.register.node", lambda x: engine().register(x, 9.0), ValueError,
     IDENTITY),
    ("LinearReputationTracker.nodes", lambda x: reputation.LinearReputationTracker(["a", x]),
     ValueError, IDENTITY),
    ("ReputationEngine.record_outcomes.slot", lambda x: engine().record_outcomes(
        x, "a", "b", 1, 0), ValueError, WHOLE),
    ("ReputationEngine.record_outcomes.positives", lambda x: engine().record_outcomes(
        0, "a", "b", x, 0), ValueError, BOUNDED_WHOLE),
    ("ReputationEngine.view.at", lambda x: engine().view("a", x), ValueError,
     {**WHOLE, "negative": -1}),
    ("LinearReputationTracker.update", lambda x: reputation.LinearReputationTracker(
        ["a", "b"]).update("a", "b", 0, x), ValueError, BOUNDED_WHOLE),
    ("ReputationEngine.view.raters", lambda x: schemes()[0].view("b", 2, x), ValueError,
     RATERS),
    ("ReputationEngine.average_reputations.targets", lambda x: schemes()[0].average_reputations(
        x, 2, ["a", "c"]), ValueError, TARGETS),
    ("ReputationEngine.average_reputations.raters", lambda x: schemes()[0].average_reputations(
        ["b"], 2, x), ValueError, RATERS),
    ("ReputationEngine.record_block.raters", lambda x: schemes()[0].record_block(
        2, x, ["b"], np.ones((1, 2, 2), dtype=int)), ValueError, RATERS),
    ("ReputationEngine.record_block.targets", lambda x: schemes()[0].record_block(
        2, ["a", "c"], x, np.ones((1, 2, 2), dtype=int)), ValueError, TARGETS),
    ("LinearReputationTracker.average_reputation.raters",
     lambda x: schemes()[1].average_reputation("b", x), ValueError, RATERS),
    ("LinearReputationTracker.update_block.raters", lambda x: schemes()[1].update_block(
        x, ["b"], np.ones((1, 2, 2), dtype=int)), ValueError, RATERS),
    ("LinearReputationTracker.update_block.targets", lambda x: schemes()[1].update_block(
        ["a", "c"], x, np.ones((1, 2, 2), dtype=int)), ValueError, TARGETS),
    # consensus
    ("ConsensusConfig.n", lambda x: consensus.ConsensusConfig(n=x, l=0), ValueError, WHOLE),
    ("select_consensus_nodes.n", lambda x: consensus.select_consensus_nodes(
        {"a": 0.5, "b": 0.7}, x), ValueError, BOUNDED_WHOLE),
    ("select_consensus_nodes.score", lambda x: consensus.select_consensus_nodes(
        {"a": 0.5, "b": x}, 1), ValueError, REAL),
    ("detection_experiment.population", lambda x: consensus.detection_experiment(
        x, 1, 0.5, 1, 0), ValueError, WHOLE),
    ("detection_experiment.misbehaving_count", lambda x: consensus.detection_experiment(
        3, x, 0.5, 1, 0), ValueError, BOUNDED_WHOLE),
    ("detection_experiment.threshold", lambda x: consensus.detection_experiment(
        3, 1, x, 1, 0), ValueError, REAL),
    ("detection_experiment.weight_config", lambda x: consensus.detection_experiment(
        3, 1, 0.5, 1, 0, x), ValueError, WEIGHTS),
    ("decay_experiment.population", lambda x: consensus.decay_experiment(
        x, 1, 1, 0, None), ValueError, WHOLE),
    ("decay_experiment.misbehaving_count", lambda x: consensus.decay_experiment(
        12, x, 1, 0, None), ValueError, WHOLE),
    ("record_interactions.targets", lambda x: interactions(x, ["a", "c"]), ValueError, TARGETS),
    ("record_interactions.raters", lambda x: interactions(["b"], x), ValueError, RATERS),
    ("model_check_safety.config", consensus.model_check_safety, ValueError, COMMITTEES),
    ("collusion_experiment.thresholds", lambda x: consensus.collusion_experiment(
        [x], 1), ValueError, REAL),
    ("collusion_experiment.seeds", lambda x: consensus.collusion_experiment(
        [0.5], x), ValueError, WHOLE),
    ("collusion_experiment.seed_base", lambda x: consensus.collusion_experiment(
        [0.5], 1, seed_base=x), ValueError, WHOLE),
    # ledger
    ("Ledger.credit", lambda x: ledger().credit("pv", x), LedgerError, WHOLE),
    ("Ledger.post_request.frequency", lambda x: post(menu=[(x, 120)]), LedgerError, REAL),
    ("Ledger.post_request.reward", lambda x: post(menu=[(1e9, x)]), LedgerError,
     BOUNDED_WHOLE),
    ("Ledger.post_request.deposit", lambda x: post(deposit=x), LedgerError, BOUNDED_WHOLE),
    ("Ledger.post_request.spec", lambda x: ledger().post_request("sr", x, ((1e9, 5),), 10),
     LedgerError, SPECS),
    ("Ledger.sign_contract.item_index", lambda x: sign(item=x), LedgerError, BOUNDED_WHOLE),
    ("Ledger.sign_contract.deposit", lambda x: sign(deposit=x), LedgerError, BOUNDED_WHOLE),
    ("RequestSpec.task_bits", lambda x: RequestSpec(x, 1e9, 5.0), ValueError, REAL),
    ("Ledger.register_account", lambda x: Ledger().register_account(x), LedgerError, IDENTITY),
    ("Ledger.execute_task.pv_departed", execute, LedgerError, FLAG),
    ("Ledger.verify_and_settle.sr_fraud", settle, LedgerError, FLAG),
    # harness config: JSON integers and reals
    ("config.seed", lambda x: validate_config(None, seed=x), ValueError, BOUNDED_WHOLE),
    ("config.consensus.threshold", lambda x: validate_config(
        None, consensus={"threshold": x}), ValueError, REAL),
]


# rows whose error is checked to name the rejected value
NAMED = {"Parked.__getitem__", "Ledger.register_account", "Ledger.execute_task.pv_departed",
         "Ledger.verify_and_settle.sr_fraud", "ReputationEngine.register.node",
         "LinearReputationTracker.nodes"} | {
    name for name, _, _, values in TABLE
    if values in (RATERS, TARGETS, OBJECTS, WEIGHTS, COMMITTEES, SPECS)}


@pytest.mark.parametrize("call, error, value, named", [
    pytest.param(call, error, value, name in NAMED, id=f"{name}-{label}")
    for name, call, error, values in TABLE for label, value in values.items()
])
def test_bad_number_fails_with_the_layers_error(call, error, value, named):
    with pytest.raises(error) as info:
        call(value)
    assert not named or repr(value) in str(info.value)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_bool_flags_accepted(flag):
    departed = execute(flag).state
    assert departed is (ContractState.CONFISCATED if flag else ContractState.RESULT_SUBMITTED)
    assert settle(flag).history[-2:] == (["sr-fraud", "Refunded"] if flag else
                                         ["ResultSubmitted", "Refunded"])


def test_parked_index_keeps_its_python_meaning():
    rows = parked()
    assert rows[-1] == rows[np.int64(1)] == rows[1]
    for out_of_range in (2, -3, np.int64(2)):
        with pytest.raises(IndexError):
            rows[out_of_range]


@pytest.mark.parametrize("call", [
    lambda: reputation.LinearReputationTracker(["a", "b"]).average_reputation("a", ["b", "b"]),
    lambda: engine().view("a", 1, ["b", "b"]),
    lambda: engine().average_reputations(["a"], 1, ["b", "b"]),
], ids=["tracker-average", "engine-view", "engine-averages"])
def test_repeated_raters_rejected_alike(call):
    # each scheme once counted a repeated rater twice, once, or not at all
    with pytest.raises(ValueError, match="raters must be distinct"):
        call()
