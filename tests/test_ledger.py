"""Accounts, escrowed contract lifecycle, blocks, conservation."""

import hashlib
import math

import numpy as np
import pytest

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

    def test_escrow_conserves_total(self):
        led = funded_ledger()
        led.post_request("sr1", SPEC, MENU, deposit=300)
        assert led.conserved()
        assert led.total_escrow() == 710


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
