"""Accounts, escrowed contract lifecycle, blocks, conservation."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parkedchain import ledger as ledger_mod
from parkedchain.ledger import (
    TREASURY,
    Block,
    ContractState,
    Ledger,
    LedgerError,
    RequestSpec,
)
from parkedchain.parking import GammaMixtureParams, PVState, leave_probability

SPEC = RequestSpec(task_bits=4_000_000, required_hz=1e9, expected_seconds=5.0)
MENU = [(1.0e9, 120), (1.6e9, 260), (2.2e9, 410)]


def funded_ledger():
    led = Ledger()
    led.register_account("sr1")
    led.register_account("pv1")
    led.credit("sr1", 10_000)
    led.credit("pv1", 500)
    return led


class TestAccounts:
    def test_fresh_account(self):
        led = Ledger()
        acct = led.register_account("alice")
        assert acct.balance == 0
        assert acct.reputation == 0.5
        assert acct.address

    def test_duplicate_identity_rejected(self):
        led = Ledger()
        led.register_account("alice")
        with pytest.raises(LedgerError):
            led.register_account("alice")

    def test_thousand_distinct_addresses(self):
        led = Ledger()
        addrs = {led.register_account(f"id{i}").address for i in range(1000)}
        assert len(addrs) == 1000

    def test_address_collision_rejected(self, monkeypatch):
        monkeypatch.setattr(ledger_mod, "_address_for", lambda identity: "0" * 40)
        led = Ledger()              # the treasury takes the one address
        with pytest.raises(LedgerError, match="address collision"):
            led.register_account("alice")


class TestWholeUnits:
    @staticmethod
    def posted(led, deposit=300, menu=MENU):
        return led.post_request("sr1", SPEC, menu, deposit=deposit)

    @staticmethod
    def signed(led, deposit):
        return led.sign_contract("pv1", TestWholeUnits.posted(led).address, 0, deposit)

    @pytest.mark.parametrize("operation", [
        lambda led: led.credit("sr1", 10.5),
        lambda led: led.credit("sr1", True),
        lambda led: TestWholeUnits.posted(led, deposit=0.25),
        lambda led: TestWholeUnits.posted(led, deposit=300.0),
        lambda led: TestWholeUnits.posted(led, menu=[(1.0e9, 2.9)]),
        lambda led: TestWholeUnits.posted(led, menu=[(1.0e9, 120), (1.6e9, False)]),
        lambda led: TestWholeUnits.signed(led, 1.5),
        lambda led: TestWholeUnits.signed(led, np.float64(150)),
    ], ids=["credit-half", "credit-bool", "deposit-quarter", "deposit-float",
            "reward-fraction", "reward-bool", "pv-deposit-half", "pv-deposit-numpy-float"])
    def test_rejects_non_integral_amounts(self, operation):
        led = funded_ledger()
        with pytest.raises(LedgerError, match="whole number of units"):
            operation(led)
        assert led.conserved() and led.minted == 10_500
        assert all(isinstance(a.balance, int) for a in led.accounts.values())

    def test_numpy_integers_stored_as_int(self):
        led = funded_ledger()
        led.credit("pv1", np.int64(50))
        rec = self.posted(led, deposit=np.int32(300), menu=[(1.0e9, np.int64(120))])
        led.sign_contract("pv1", rec.address, 0, np.uint16(150))
        assert type(led.accounts["pv1"].balance) is int
        assert type(rec.menu[0][1]) is int and type(rec.escrow) is int
        assert led.conserved()


class TestPostRequest:
    def test_exact_balance_boundary(self):
        led = Ledger()
        led.register_account("sr")
        led.credit("sr", 710)  # deposit 300 + max reward 410
        led.post_request("sr", SPEC, MENU, deposit=300)
        assert led.accounts["sr"].balance == 0
        assert led.conserved()

    def test_one_unit_short_leaves_state_untouched(self):
        led = Ledger()
        led.register_account("sr")
        led.credit("sr", 709)
        with pytest.raises(LedgerError):
            led.post_request("sr", SPEC, MENU, deposit=300)
        assert led.accounts["sr"].balance == 709
        assert not led.contracts

    def test_empty_menu_rejected(self):
        led = funded_ledger()
        with pytest.raises(LedgerError):
            led.post_request("sr1", SPEC, [], deposit=10)

    @pytest.mark.parametrize("menu", [[(1.0e9,)], [(1.0e9, 5, 6)], None, 5, [1.0e9]],
                             ids=["short-item", "long-item", "none", "number", "bare-frequency"])
    def test_malformed_menu_rejected(self, menu):
        # a LedgerError naming the menu; nothing stored, charged or numbered
        led = funded_ledger()
        with pytest.raises(LedgerError, match=r"\(frequency, reward\) pairs, got " + re.escape(
                repr(menu))):
            led.post_request("sr1", SPEC, menu, deposit=10)
        assert not led.contracts and led.accounts["sr1"].balance == 10_000
        first = funded_ledger().post_request("sr1", SPEC, MENU, deposit=10)
        assert led.post_request("sr1", SPEC, MENU, deposit=10).address == first.address

    @pytest.mark.parametrize("frequency", [
        math.nan, np.nan, math.inf, -math.inf, 0.0, -0.0, -1.0e9, 10**400, True, "1e9", None,
    ], ids=["nan", "numpy-nan", "inf", "-inf", "zero", "-zero", "negative", "huge-int",
            "bool", "string", "none"])
    def test_menu_frequency_rules(self, frequency):
        # frequencies are real, finite and > 0: else dump would write the
        # non-JSON token NaN, and -0.0 would meet 0.0 as one menu
        led = funded_ledger()
        with pytest.raises(LedgerError, match="menu frequency"):
            led.post_request("sr1", SPEC, [(1.0e9, 120), (frequency, 260)], deposit=300)
        assert not led.contracts and led.accounts["sr1"].balance == 10_000

    @pytest.mark.parametrize("spec", [None, {"task_bits": 4_000_000}, "spec"],
                             ids=["none", "dict", "str"])
    def test_spec_must_be_a_request_spec(self, spec, tmp_path):
        # rejected before any write: no escrow, no nonce, no record for dump to trip on
        led = funded_ledger()
        nonce = led._nonce
        with pytest.raises(LedgerError, match="RequestSpec, got " + re.escape(repr(spec))):
            led.post_request("sr1", spec, MENU, deposit=10)
        assert led.accounts["sr1"].balance == 10_000 and led._nonce == nonce
        assert not led.contracts
        led.dump(str(tmp_path / "ledger.jsonl"))

    def test_numpy_frequencies_stored_as_float(self):
        led = funded_ledger()
        rec = led.post_request("sr1", SPEC, [(np.float32(1.5e9), 120), (2, 260)], deposit=300)
        assert rec.menu == ((1.5e9, 120), (2.0, 260))
        assert all(type(f) is float for f, _ in rec.menu)


    def test_escrow_conserves_total(self):
        led = funded_ledger()
        led.post_request("sr1", SPEC, MENU, deposit=300)
        assert led.conserved()
        assert led.total_escrow() == 710


class TestRequestSpec:
    @pytest.mark.parametrize("fields", [
        (1, math.nan, 1.0), (1, 1.0, math.inf), (True, 1.0, 1.0), (1, 1.0, np.False_),
        (1, np.float64("nan"), 1.0), (0, 1.0, 1.0), (1, -0.0, 1.0), (1, 1.0, -5.0),
        ("4e6", 1.0, 1.0), (1, None, 1.0), (1, 1.0, 1j),
    ], ids=["nan-hz", "inf-seconds", "bool-bits", "numpy-bool-seconds", "numpy-nan-hz",
            "zero-bits", "-zero-hz", "negative-seconds", "string-bits", "none-hz", "complex"])
    def test_fields_real_finite_positive(self, fields):
        with pytest.raises(ValueError, match="request spec"):
            RequestSpec(*fields)

    def test_numbers_stored_as_plain_int_or_float(self):
        # float task_bits stay floats (4e6 is written 4000000.0); numpy
        # scalars become the plain numbers dump can write
        assert RequestSpec(4e6, 1e9, 5.0) == RequestSpec(4_000_000, 1e9, 5.0)
        spec = RequestSpec(np.int64(4_000_000), np.float32(0.5), np.int8(5))
        assert (spec.task_bits, spec.required_hz, spec.expected_seconds) == (4_000_000, 0.5, 5)
        assert [type(x) for x in (spec.task_bits, spec.required_hz, spec.expected_seconds)] \
            == [int, float, int]
        assert type(RequestSpec(4e6, 1e9, 5.0).task_bits) is float


class TestMenuInterning:
    def test_equal_menus_share_one_tuple(self):
        led = funded_ledger()
        first = led.post_request("sr1", SPEC, MENU, deposit=10)
        # the same values from other number types, and a fresh list
        again = led.post_request("sr1", SPEC, [(np.float64(f), np.int64(pi)) for f, pi in MENU],
                                 deposit=10)
        assert again.menu == first.menu == tuple(MENU)

    def test_distinct_menus_kept_apart(self):
        led = funded_ledger()
        one = led.post_request("sr1", SPEC, [(1.0, 5)], deposit=10)
        ulp = led.post_request("sr1", SPEC, [(math.nextafter(1.0, 2.0), 5)], deposit=10)
        reward = led.post_request("sr1", SPEC, [(1.0, 6)], deposit=10)
        assert ulp.menu != one.menu and reward.menu != one.menu
        assert len({id(r.menu) for r in (one, ulp, reward)}) == 3

    def test_same_tuple_posted_again_skips_its_checks(self, monkeypatch):
        led = funded_ledger()
        menu = tuple(MENU)
        first = led.post_request("sr1", SPEC, menu, deposit=10)
        units = []
        monkeypatch.setattr(ledger_mod, "whole", lambda x: units.append(x) or True)
        again = led.post_request("sr1", SPEC, menu, deposit=10)
        assert units == [10]     # the deposit only, no reward
        assert again.menu is first.menu and again.menu == menu
        # the deposit and balance checks still run
        with pytest.raises(LedgerError, match="cannot escrow"):
            led.post_request("sr1", SPEC, menu, deposit=10_000)

    def test_mutated_list_menu_checked_again(self):
        led = funded_ledger()
        menu = list(MENU)
        led.post_request("sr1", SPEC, menu, deposit=10)
        menu[1] = (1.6e9, -1)
        with pytest.raises(LedgerError, match="nonnegative"):
            led.post_request("sr1", SPEC, menu, deposit=10)

    def test_tuple_holding_a_list_checked_again(self):
        # only a tuple of (float, int) tuples is taken as unchangeable
        led = funded_ledger()
        item = [2.2e9, 410]
        menu = (MENU[0], MENU[1], item)
        led.post_request("sr1", SPEC, menu, deposit=10)
        item[1] = -1
        with pytest.raises(LedgerError, match="nonnegative"):
            led.post_request("sr1", SPEC, menu, deposit=10)

    def test_known_menu_still_checks_balance(self):
        # a known menu skips its own checks, never the SR's balance, and a
        # rejected menu is never known
        led = funded_ledger()
        led.post_request("sr1", SPEC, [(1.0e9, 6_000)], deposit=0)
        with pytest.raises(LedgerError, match="cannot escrow"):
            led.post_request("sr1", SPEC, [(1.0e9, 6_000)], deposit=0)
        for _ in range(2):
            with pytest.raises(LedgerError, match="nonnegative"):
                led.post_request("sr1", SPEC, [(1.0e9, -1)], deposit=0)
        assert len(led.contracts) == 1 and led.conserved()


class TestSignContract:
    def test_records_item_and_state(self):
        led = funded_ledger()
        r = led.post_request("sr1", SPEC, MENU, deposit=300)
        led.sign_contract("pv1", r.address, 1, pv_deposit=150)
        assert r.state is ContractState.SIGNED
        assert r.item_index == 1
        assert r.pv_deposit == 150
        assert led.conserved()

    def test_second_signer_rejected(self):
        led = funded_ledger()
        led.register_account("pv2")
        led.credit("pv2", 500)
        r = led.post_request("sr1", SPEC, MENU, deposit=300)
        led.sign_contract("pv1", r.address, 0, pv_deposit=100)
        with pytest.raises(LedgerError):
            led.sign_contract("pv2", r.address, 0, pv_deposit=100)

    def test_deposit_escrowed_exactly_once(self):
        led = funded_ledger()
        r = led.post_request("sr1", SPEC, MENU, deposit=300)
        led.sign_contract("pv1", r.address, 0, pv_deposit=150)
        for _ in range(5):
            with pytest.raises(LedgerError):
                led.sign_contract("pv1", r.address, 0, pv_deposit=150)
        assert led.accounts["pv1"].balance == 350
        assert r.escrow == 710 + 150

    def test_invalid_item_index(self):
        led = funded_ledger()
        r = led.post_request("sr1", SPEC, MENU, deposit=300)
        with pytest.raises(LedgerError):
            led.sign_contract("pv1", r.address, 3, pv_deposit=10)

    @pytest.mark.parametrize("index", [True, False, 0.5, 1.0, np.float64(1.0), "1", None],
                             ids=["true", "false", "half", "float-one", "numpy-float-one",
                                  "string", "none"])
    def test_item_index_must_be_a_whole_number(self, index):
        # a bool was stored and exported as true, and 0.5 left the escrow
        # held when settling failed to index the menu
        led = funded_ledger()
        r = led.post_request("sr1", SPEC, MENU, deposit=300)
        with pytest.raises(LedgerError, match="menu item index must be a whole number"):
            led.sign_contract("pv1", r.address, index, pv_deposit=10)
        assert r.state is ContractState.DEPLOYED and r.item_index is None
        assert led.accounts["pv1"].balance == 500 and led.conserved()

    def test_numpy_item_index_stored_as_int(self):
        led = funded_ledger()
        r = led.post_request("sr1", SPEC, MENU, deposit=300)
        led.sign_contract("pv1", r.address, np.int64(2), pv_deposit=10)
        assert type(r.item_index) is int and r.reward == 410


class TestExecuteAndSettle:
    def run_to_submitted(self, led):
        r = led.post_request("sr1", SPEC, MENU, deposit=300)
        led.sign_contract("pv1", r.address, 1, pv_deposit=150)
        led.execute_task(r.address, pv_departed=False)
        return r

    def test_departure_confiscates_exactly_the_pv_deposit(self):
        led = funded_ledger()
        r = led.post_request("sr1", SPEC, MENU, deposit=300)
        led.sign_contract("pv1", r.address, 1, pv_deposit=150)
        sr_stake_back = led.accounts["sr1"].balance + 710
        led.execute_task(r.address, pv_departed=True)
        assert r.state is ContractState.CONFISCATED
        assert led.accounts["sr1"].balance == sr_stake_back + 150
        assert led.accounts["pv1"].balance == 350
        assert led.conserved()

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_bool_flags_accepted(self, flag):
        # a Python or numpy bool; anything else fails (tests/test_public_calls.py)
        led = funded_ledger()
        r = led.post_request("sr1", SPEC, MENU, deposit=300)
        led.sign_contract("pv1", r.address, 1, pv_deposit=150)
        departed = led.execute_task(r.address, pv_departed=flag).state
        assert departed is (ContractState.CONFISCATED if flag else ContractState.RESULT_SUBMITTED)
        r = self.run_to_submitted(led)
        assert led.verify_and_settle(r.address, "fail", sr_fraud=flag).history[-2:] == (
            ["sr-fraud", "Refunded"] if flag else ["ResultSubmitted", "Refunded"])

    def test_completion_stores_digest(self):
        led = funded_ledger()
        r = self.run_to_submitted(led)
        assert r.state is ContractState.RESULT_SUBMITTED
        assert r.result_digest
        assert led.conserved()

    def test_pass_pays_reward_and_returns_deposits(self):
        led = funded_ledger()
        r = self.run_to_submitted(led)
        led.verify_and_settle(r.address, "pass")
        assert r.state is ContractState.PAID
        assert r.history.index("Verified") < r.history.index("Paid")
        assert led.accounts["pv1"].balance == 500 + 260
        assert led.accounts["sr1"].balance == 10_000 - 260
        assert led.conserved()

    def test_fail_routes_everything_to_sr(self):
        led = funded_ledger()
        r = self.run_to_submitted(led)
        led.verify_and_settle(r.address, "fail")
        assert r.state is ContractState.REFUNDED
        assert led.accounts["sr1"].balance == 10_000 + 150
        assert led.accounts["pv1"].balance == 350
        assert led.conserved()

    def test_sr_fraud_burns_stake_to_treasury(self):
        led = funded_ledger()
        r = self.run_to_submitted(led)
        led.verify_and_settle(r.address, "fail", sr_fraud=True)
        assert led.accounts[TREASURY].balance == 300
        assert led.accounts["pv1"].balance == 500 + 260
        assert "sr-fraud" in r.history
        assert led.conserved()

    def test_double_settlement_rejected(self):
        led = funded_ledger()
        r = self.run_to_submitted(led)
        led.verify_and_settle(r.address, "pass")
        with pytest.raises(LedgerError):
            led.verify_and_settle(r.address, "pass")

    def test_wrong_state_transitions_rejected(self):
        led = funded_ledger()
        r = led.post_request("sr1", SPEC, MENU, deposit=300)
        with pytest.raises(LedgerError):
            led.execute_task(r.address, pv_departed=False)
        with pytest.raises(LedgerError):
            led.verify_and_settle(r.address, "pass")

    def test_departure_rate_matches_parking_oracle(self):
        # drive departures from the parking model and compare frequencies
        params = GammaMixtureParams()
        pv = PVState(1, 9, parked_hours=2.0, horizon=1.0)
        p_leave = leave_probability(pv, params)
        rng = np.random.default_rng(17)
        trials = 10_000
        led = Ledger()
        led.register_account("sr")
        led.register_account("pv")
        led.credit("sr", trials * 710)
        led.credit("pv", trials * 10)
        confiscated = 0
        for _ in range(trials):
            r = led.post_request("sr", SPEC, MENU, deposit=300)
            led.sign_contract("pv", r.address, 0, pv_deposit=10)
            departed = bool(rng.random() < p_leave)
            led.execute_task(r.address, pv_departed=departed)
            if r.state is ContractState.CONFISCATED:
                confiscated += 1
        sigma = math.sqrt(p_leave * (1 - p_leave) / trials)
        assert abs(confiscated / trials - p_leave) < 3 * sigma
        assert led.conserved()


def lifecycle():
    """A funded ledger with one contract at each of Deployed, Signed and
    ResultSubmitted, by name."""
    led = funded_ledger()
    stages = {name: led.post_request("sr1", SPEC, MENU, deposit=300).address
              for name in ("deployed", "signed", "submitted")}
    for name in ("signed", "submitted"):
        led.sign_contract("pv1", stages[name], 1, pv_deposit=150)
    led.execute_task(stages["submitted"], pv_departed=False)
    return led, stages


def snapshot(led):
    return (
        {a: (c.state, list(c.history), list(c.timestamps), c.escrow, c.pv_address,
             c.item_index, c.pv_deposit, c.result_digest)
         for a, c in led.contracts.items()},
        {i: a.balance for i, a in led.accounts.items()},
        len(led.contracts),
        led.conserved(),
    )


REJECTIONS = {
    "post-bad-deposit": lambda led, at: led.post_request("sr1", SPEC, MENU, deposit=-1),
    "post-short-balance": lambda led, at: led.post_request("sr1", SPEC, MENU, deposit=10**6),
    "sign-short-balance": lambda led, at: led.sign_contract("pv1", at["deployed"], 0, 10**6),
    "sign-unknown-pv": lambda led, at: led.sign_contract("ghost", at["deployed"], 0, 10),
    "sign-bad-item": lambda led, at: led.sign_contract("pv1", at["deployed"], 3, 10),
    "sign-bad-deposit": lambda led, at: led.sign_contract("pv1", at["deployed"], 0, -1),
    "execute-wrong-state": lambda led, at: led.execute_task(at["submitted"], False),
    "execute-flag": lambda led, at: led.execute_task(at["signed"], "no"),
    "settle-wrong-state": lambda led, at: led.verify_and_settle(at["signed"], "pass"),
    "settle-bad-verdict": lambda led, at: led.verify_and_settle(at["submitted"], "maybe"),
    "settle-fraud-flag": lambda led, at: led.verify_and_settle(at["submitted"], "fail",
                                                               sr_fraud="no"),
    # the flag marks a failed result: on a passing verdict the PV would be paid
    "settle-fraud-on-pass": lambda led, at: led.verify_and_settle(at["submitted"], "pass",
                                                                  sr_fraud=True),
    # an unhashable name is unknown, as a dict lookup's TypeError once was not
    "unhashable-credit": lambda led, at: led.credit(["pv1"], 5),
    "unhashable-post": lambda led, at: led.post_request(["sr1"], SPEC, MENU, deposit=0),
    "unhashable-pv": lambda led, at: led.sign_contract({}, at["deployed"], 0, 10),
    "unhashable-contract": lambda led, at: led.execute_task([at["signed"]], False),
}


@pytest.mark.parametrize("reject", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejected_call_writes_nothing(reject):
    # every check runs before the first write: no state, history, timestamp,
    # escrow, balance or contract changes on a rejection
    led, stages = lifecycle()
    before = snapshot(led)
    with pytest.raises(LedgerError):
        reject(led, stages)
    assert snapshot(led) == before and led.conserved()


@pytest.mark.parametrize("departed, verdict, fraud, steps", [
    (True, None, False, ["Executing", "Confiscated"]),
    (False, None, False, ["Executing", "ResultSubmitted"]),
    (False, "pass", False, ["Executing", "ResultSubmitted", "Verified", "Paid"]),
    (False, "fail", False, ["Executing", "ResultSubmitted", "Refunded"]),
    (False, "fail", True, ["Executing", "ResultSubmitted", "sr-fraud", "Refunded"]),
], ids=["departed", "submitted", "pass", "fail", "fraud"])
def test_each_step_logged_at_its_slot(departed, verdict, fraud, steps):
    led = funded_ledger()
    r = led.post_request("sr1", SPEC, MENU, deposit=300)
    led.append_block([r.address], ["n1"])
    led.sign_contract("pv1", r.address, 1, pv_deposit=150)
    led.append_block([r.address], ["n1"])
    led.execute_task(r.address, pv_departed=departed)
    slots = [0, 1] + [2, 2]
    if verdict:
        led.append_block([r.address], ["n1"])
        led.verify_and_settle(r.address, verdict, sr_fraud=fraud)
        slots += [3] * (len(steps) - 2)
    assert r.history == ["Deployed", "Signed"] + steps
    assert r.timestamps == slots
    assert r.state.value == steps[-1] and led.conserved()


class TestBlocks:
    def test_genesis_pin(self):
        led = Ledger()
        assert led.blocks[0].height == 0
        assert led.blocks[0].prev_digest == "0" * 64

    def test_chain_links_and_verifies(self):
        led = Ledger()
        signers = [f"n{i:02d}" for i in range(7)]
        b1 = led.append_block(["t1", "t2"], signers, proposer="n00")
        b2 = led.append_block(["t3"], signers, proposer="n01")
        assert b2.prev_digest == b1.digest()
        assert led.verify_chain()

    def test_same_batch_reappended_distinct(self):
        led = Ledger()
        signers = ["n00", "n01", "n02"]
        b1 = led.append_block(["t1"], signers)
        b2 = led.append_block(["t1"], signers)
        assert b1.height != b2.height
        assert b1.digest() != b2.digest()

    def test_missing_quorum_rejected(self):
        led = Ledger()
        with pytest.raises(LedgerError):
            led.append_block(["t1"], [])

    @pytest.mark.parametrize("transactions, signers", [
        ("abc", ["n1"]), (["t"], "n00"), (b"tx", ["n1"]), (["t"], b"n0"),
    ], ids=["str-txs", "str-signers", "bytes-txs", "bytes-signers"])
    def test_bare_string_rejected(self, transactions, signers):
        # a string is a sequence of characters: "abc" was stored as ('a', 'b', 'c')
        led = Ledger()
        with pytest.raises(LedgerError, match="bare string"):
            led.append_block(transactions, signers)
        assert len(led.blocks) == 1 and led.clock == 0

    @pytest.mark.parametrize("transactions, signers, proposer, match", [
        ([1], ["n1"], "", r"transactions must be a tuple or list of str ids, got \[1\]"),
        (None, ["n1"], "", "transactions must be .*, got None"),
        ({"t"}, ["n1"], "", r"transactions must be .*, got \{'t'\}"),
        (["t"], [1], "", r"quorum evidence must be a tuple or list of str ids, got \[1\]"),
        (["t"], None, "", "quorum evidence must be .*, got None"),
        (["t"], [b"n1"], "", r"quorum evidence must be .*, got \[b'n1'\]"),
        (["t"], ["n1"], 5, "proposer must be a str, got 5"),
        (["t"], ["n1"], None, "proposer must be a str, got None"),
    ], ids=["int-tx", "no-txs", "set-txs", "int-signer", "no-signers", "bytes-signer",
            "int-proposer", "no-proposer"])
    def test_ids_must_be_str(self, transactions, signers, proposer, match):
        # [1] was chained as "1", and proposer=5 dumped as a JSON number
        led = Ledger()
        with pytest.raises(LedgerError, match=match):
            led.append_block(transactions, signers, proposer=proposer)
        assert len(led.blocks) == 1 and led.clock == 0
        block = led.append_block(("t1", "t2"), ("n0", "n1"), proposer="n1")
        assert block.tx_digests == ("t1", "t2") and block.quorum_signers == ("n0", "n1")
        assert Ledger().append_block(["t1", "t2"], ["n0", "n1"], "n1").digest() == block.digest()

    def test_each_block_hashed_once(self, monkeypatch):
        # append_block and verify_chain read the digest a block stored when built
        led = Ledger()
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda body: hashed.append(body) or sha256(body))
        for tx in ("t1", "t2", "t3"):
            led.append_block([tx], ["n00", "n01"])
        assert led.verify_chain()
        assert len(hashed) == 3
        assert led.blocks[2].prev_digest == led.blocks[1].digest()

    def test_tamper_detected(self):
        led = Ledger()
        signers = ["n00", "n01", "n02"]
        b1 = led.append_block(["t1"], signers)
        led.append_block(["t2"], signers)
        led.blocks[1] = Block(b1.height, b1.prev_digest, ("forged",),
                              b1.proposer, b1.quorum_signers)
        assert not led.verify_chain()


class TestPersistence:
    def test_dump_pinned(self, tmp_path):
        """The export feeds the settle-stream digest: pin its bytes after one
        contract ends in each final state, with blocks advancing the clock."""
        led = funded_ledger()
        led.register_account("pv2")
        led.credit("pv2", 400)
        paid, failed, fraud, departed = (
            led.post_request("sr1", SPEC, MENU, deposit=300 + 10 * k) for k in range(4)
        )
        led.sign_contract("pv1", paid.address, 2, pv_deposit=150)
        led.sign_contract("pv2", failed.address, 0, pv_deposit=40)
        led.sign_contract("pv1", fraud.address, 1, pv_deposit=75)
        led.sign_contract("pv2", departed.address, 1, pv_deposit=90)
        led.append_block([paid.address, failed.address], ["n00", "n01", "n02"])
        for r in (paid, failed, fraud):
            led.execute_task(r.address, pv_departed=False)
        led.execute_task(departed.address, pv_departed=True)
        led.verify_and_settle(paid.address, "pass")
        led.verify_and_settle(failed.address, "fail")
        led.verify_and_settle(fraud.address, "fail", sr_fraud=True)
        led.append_block([fraud.address, departed.address], ["n01", "n02", "n03"],
                         proposer="n03")
        assert led.conserved() and led.verify_chain()
        path = tmp_path / "ledger.jsonl"
        led.dump(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ff3a862a110927857e135999772b9ca7941ff132763f1bee339e818e3658a454"
        )


def oracle_dump(led) -> bytes:
    """The export as it was written before menus and specs were encoded once
    per dump: every record through its own json.dumps."""
    def canonical(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    lines = []
    for identity in sorted(led.accounts):
        a = led.accounts[identity]
        lines.append(canonical({
            "kind": "account", "identity": a.identity,
            "address": a.address, "public_key": a.public_key,
            "balance": a.balance, "reputation": a.reputation,
        }))
    for address in sorted(led.contracts):
        c = led.contracts[address]
        lines.append(canonical({
            "kind": "contract", "address": c.address,
            "sr": c.sr_address, "pv": c.pv_address,
            "spec": [c.spec.task_bits, c.spec.required_hz, c.spec.expected_seconds],
            "menu": [[f, pi] for f, pi in c.menu],
            "sr_deposit": c.sr_deposit, "pv_deposit": c.pv_deposit,
            "item": c.item_index, "escrow": c.escrow,
            "state": c.state.value, "result": c.result_digest,
            "history": c.history, "timestamps": c.timestamps,
        }))
    for b in led.blocks:
        lines.append(canonical({
            "kind": "block", "height": b.height,
            "prev": b.prev_digest, "txs": list(b.tx_digests),
            "proposer": b.proposer, "signers": list(b.quorum_signers),
        }))
    lines.append(canonical({"kind": "supply", "minted": led.minted, "clock": led.clock}))
    return "".join(lines).encode()


# identities that look like a record's own keys, or that need escaping
TRICKY = ['","menu":0,"', '","spec":0,"', '"menu":0', ',"spec":0,', 'q"uote', 'back\\slash',
          '\\"', 'a,b', 'é', '車両', '\x00\n']
identities = st.one_of(st.sampled_from(TRICKY), st.text(max_size=8))
menus = st.lists(
    st.tuples(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
              st.integers(0, 10**6)),
    min_size=1, max_size=6,
)
numbers_ = st.one_of(st.integers(1, 10**12), st.floats(min_value=0.0, exclude_min=True,
                                                        allow_infinity=False))
# what becomes of each contract: stays Deployed or Signed, departs, submits,
# or settles pass / fail / fail with SR fraud
ENDS = ("deployed", "signed", "departed", "submitted", "pass", "fail", "fraud")


@settings(max_examples=150)
@given(
    names=st.lists(identities, min_size=2, max_size=5, unique=True),
    menu_pool=st.lists(menus, min_size=1, max_size=4),
    spec_pool=st.lists(st.tuples(numbers_, numbers_, numbers_), min_size=1, max_size=3),
    deals=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans(),
                             st.integers(0, 5), st.sampled_from(ENDS), st.integers(0, 4)),
                   max_size=12),
    reputation=st.floats(allow_nan=False),
)
def test_dump_matches_per_record_encoding(tmp_path_factory, names, menu_pool, spec_pool,
                                          deals, reputation):
    led = Ledger()
    for name in names:
        if name != TREASURY:
            led.register_account(name)
        led.credit(name, 10**13)
    led.accounts[names[-1]].reputation = reputation
    # equal specs of other number types are written differently: 4000000
    # against 4000000.0
    equal_specs = [RequestSpec(4_000_000, 1e9, 5.0), RequestSpec(4e6, 1e9, 5.0)]
    specs = [RequestSpec(*fields) for fields in spec_pool] + equal_specs
    records = [(led.post_request(names[0], spec, menu_pool[0], deposit=0), "deployed")
               for spec in equal_specs]
    for menu_i, spec_i, fresh_spec, sr_i, end, block_every in deals:
        spec = specs[spec_i % len(specs)]
        if fresh_spec:
            spec = RequestSpec(spec.task_bits, spec.required_hz, spec.expected_seconds)
        menu = list(menu_pool[menu_i % len(menu_pool)])     # equal, never the same object
        sr = names[sr_i % len(names)]
        records.append((led.post_request(sr, spec, menu, deposit=sr_i * 7), end))
        if block_every and len(records) % block_every == 0:
            led.append_block([r.address for r, _ in records[-2:]], names[:2],
                             proposer=names[-1])
    # one tuple of (float, int) tuples posted twice: the second post skips its checks
    shared = tuple(menu_pool[0])
    records += [(led.post_request(names[0], specs[0], shared, deposit=3), end)
                for end in ("pass", "fraud")]
    for k, (r, end) in enumerate(records):
        if end == "deployed":
            continue
        led.sign_contract(names[k % len(names)], r.address, k % len(r.menu), pv_deposit=k)
        if end != "signed":
            led.execute_task(r.address, pv_departed=end == "departed")
        if end in ("pass", "fail", "fraud"):
            led.verify_and_settle(r.address, "pass" if end == "pass" else "fail",
                                  sr_fraud=end == "fraud")
    assert led.conserved()
    # a new file per example: truncating one shared file costs more than the example
    path = tmp_path_factory.mktemp("dump") / "oracle-ledger.jsonl"
    led.dump(str(path))
    assert path.read_bytes() == oracle_dump(led)


class TestConservationFuzz:
    def test_random_operation_sequences(self):
        rng = np.random.default_rng(23)
        led = Ledger()
        names = [f"acct{i:02d}" for i in range(12)]
        for n in names:
            led.register_account(n)
            led.credit(n, int(rng.integers(2_000, 20_000)))
        pools = {"deployed": [], "signed": [], "submitted": []}
        rejected = 0
        for op in range(20_000):
            roll = rng.random()
            try:
                if roll < 0.3 or not any(pools.values()):
                    sr = names[int(rng.integers(len(names)))]
                    menu = [(1e9 * (j + 1), int(rng.integers(0, 400)))
                            for j in range(int(rng.integers(1, 4)))]
                    dep = 10**9 if rng.random() < 0.05 else int(rng.integers(0, 600))
                    r = led.post_request(sr, SPEC, menu, deposit=dep)
                    pools["deployed"].append(r.address)
                elif roll < 0.55 and pools["deployed"]:
                    i = int(rng.integers(len(pools["deployed"])))
                    addr = pools["deployed"][i]
                    rec = led.contracts[addr]
                    idx = (len(rec.menu) if rng.random() < 0.05
                           else int(rng.integers(len(rec.menu))))
                    led.sign_contract(names[int(rng.integers(len(names)))],
                                      addr, idx, int(rng.integers(0, 300)))
                    pools["deployed"].pop(i)
                    pools["signed"].append(addr)
                elif roll < 0.8 and pools["signed"]:
                    i = int(rng.integers(len(pools["signed"])))
                    addr = pools["signed"].pop(i)
                    led.execute_task(addr, pv_departed=rng.random() < 0.25)
                    if led.contracts[addr].state is ContractState.RESULT_SUBMITTED:
                        pools["submitted"].append(addr)
                elif pools["submitted"]:
                    i = int(rng.integers(len(pools["submitted"])))
                    addr = pools["submitted"].pop(i)
                    led.verify_and_settle(
                        addr, "pass" if rng.random() < 0.7 else "fail",
                        sr_fraud=rng.random() < 0.1,
                    )
            except LedgerError:
                rejected += 1
            if op % 2000 == 0:
                assert led.conserved()
        assert led.conserved()
        assert rejected > 0  # invalid ops were actually exercised
        for rec in led.contracts.values():
            if rec.state is ContractState.PAID:
                assert rec.history.index("Verified") < rec.history.index("Paid")
