"""Account, escrow, and block bookkeeping for the resource-sharing market.

The ledger is a single-writer state machine. Rewards and deposits are
integer units so conservation can be checked exactly: at any point the
sum of account balances plus funds escrowed in open contracts equals the
total ever minted through credit().

Contract lifecycle: Deployed (request posted, SR funds escrowed) ->
Signed (one PV bound to one menu item, PV deposit escrowed) ->
Executing -> ResultSubmitted -> Verified -> Paid on a passing verdict,
or Refunded on a failing one; a PV that departs mid-task forfeits its
deposit to the SR and the record ends Confiscated. A fraudulent SR loses
its deposit to the treasury account instead of recovering it.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "LedgerError",
    "ContractState",
    "Account",
    "RequestSpec",
    "SmartContractRecord",
    "Block",
    "Ledger",
    "TREASURY",
]

TREASURY = "treasury"


class LedgerError(RuntimeError):
    pass


def _units(amount, what: str) -> int:
    """amount as a plain int; bools, floats (even 2.0) and anything else
    that is not an integral number are rejected, numpy integers accepted."""
    if type(amount) is int:   # the common case, ahead of the slower ABC check
        return amount
    if isinstance(amount, bool) or not isinstance(amount, numbers.Integral):
        raise LedgerError(f"{what} must be a whole number of units, got {amount!r}")
    return int(amount)


class ContractState(Enum):
    DEPLOYED = "Deployed"
    SIGNED = "Signed"
    EXECUTING = "Executing"
    RESULT_SUBMITTED = "ResultSubmitted"
    VERIFIED = "Verified"
    PAID = "Paid"
    REFUNDED = "Refunded"
    CONFISCATED = "Confiscated"


@dataclass
class Account:
    identity: str
    address: str
    public_key: str
    balance: int = 0
    reputation: float = 0.5      # fresh entities start at the neutral prior


@dataclass(frozen=True)
class RequestSpec:
    task_bits: int
    required_hz: float
    expected_seconds: float

    def __post_init__(self) -> None:
        if self.task_bits <= 0 or self.required_hz <= 0 or self.expected_seconds <= 0:
            raise ValueError("request spec fields must be positive")


@dataclass
class SmartContractRecord:
    address: str
    sr_address: str
    spec: RequestSpec
    menu: tuple[tuple[float, int], ...]   # (frequency, integer reward) items
    sr_deposit: int
    state: ContractState = ContractState.DEPLOYED
    pv_address: str | None = None
    item_index: int | None = None
    pv_deposit: int = 0
    escrow: int = 0
    result_digest: str | None = None
    history: list[str] = field(default_factory=list)
    timestamps: list[int] = field(default_factory=list)

    def record_state(self, state: ContractState, slot: int) -> None:
        self.state = state
        self.history.append(state.value)
        self.timestamps.append(slot)

    @property
    def reward(self) -> int:
        if self.item_index is None:
            return 0
        return self.menu[self.item_index][1]


@dataclass(frozen=True)
class Block:
    height: int
    prev_digest: str
    tx_digests: tuple[str, ...]
    proposer: str
    quorum_signers: tuple[str, ...]

    def digest(self) -> str:
        body = json.dumps(
            {
                "height": self.height,
                "prev": self.prev_digest,
                "txs": list(self.tx_digests),
                "proposer": self.proposer,
                "signers": list(self.quorum_signers),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(body.encode()).hexdigest()


def _address_for(identity: str) -> str:
    return hashlib.sha256(b"addr:" + identity.encode()).hexdigest()[:40]


def _contract_address(sr_address: str, nonce: int) -> str:
    return hashlib.sha256(f"contract:{sr_address}:{nonce}".encode()).hexdigest()[:40]


class Ledger:
    """Single-writer ledger with exact integer conservation."""

    def __init__(self) -> None:
        self.accounts: dict[str, Account] = {}
        self._addresses: set[str] = set()       # collision index over accounts
        self.contracts: dict[str, SmartContractRecord] = {}
        self.blocks: list[Block] = [
            Block(height=0, prev_digest="0" * 64, tx_digests=(),
                  proposer="genesis", quorum_signers=("genesis",))
        ]
        self.minted = 0
        self._nonce = 0
        self.clock = 0
        self.register_account(TREASURY)

    # -- accounts ----------------------------------------------------------

    def register_account(self, identity: str) -> Account:
        if identity in self.accounts:
            raise LedgerError(f"identity {identity!r} already registered")
        account = Account(
            identity=identity,
            address=_address_for(identity),
            public_key=hashlib.sha256(b"pk:" + identity.encode()).hexdigest(),
        )
        if account.address in self._addresses:
            raise LedgerError(f"address collision for {identity!r}")
        self.accounts[identity] = account
        self._addresses.add(account.address)
        return account

    def credit(self, identity: str, amount: int) -> None:
        """Mint units into an account. Setup plumbing only: this is the one
        operation that changes the total supply."""
        amount = _units(amount, "credit")
        if amount < 0:
            raise LedgerError("cannot credit a negative amount")
        self._account(identity).balance += amount
        self.minted += amount

    def _account(self, identity: str) -> Account:
        try:
            return self.accounts[identity]
        except KeyError:
            raise LedgerError(f"unknown identity {identity!r}") from None

    # -- contract lifecycle -------------------------------------------------

    def post_request(
        self,
        sr_identity: str,
        spec: RequestSpec,
        menu,
        deposit: int,
    ) -> SmartContractRecord:
        sr = self._account(sr_identity)
        items = tuple((float(f), _units(pi, "reward")) for f, pi in menu)
        if not items:
            raise LedgerError("menu must contain at least one item")
        if any(pi < 0 for _, pi in items):
            raise LedgerError("rewards must be nonnegative")
        deposit = _units(deposit, "deposit")
        if deposit < 0:
            raise LedgerError("deposit must be nonnegative")
        need = deposit + max(pi for _, pi in items)
        if sr.balance < need:
            raise LedgerError(
                f"balance {sr.balance} cannot escrow deposit+max reward {need}"
            )
        self._nonce += 1
        record = SmartContractRecord(
            address=_contract_address(sr.address, self._nonce),
            sr_address=sr.identity,
            spec=spec,
            menu=items,
            sr_deposit=deposit,
        )
        sr.balance -= need
        record.escrow = need
        record.record_state(ContractState.DEPLOYED, self.clock)
        self.contracts[record.address] = record
        return record

    def sign_contract(
        self,
        pv_identity: str,
        contract_address: str,
        item_index: int,
        pv_deposit: int,
    ) -> SmartContractRecord:
        record = self._contract(contract_address, ContractState.DEPLOYED)
        if not 0 <= item_index < len(record.menu):
            raise LedgerError(f"menu has no item {item_index}")
        pv_deposit = _units(pv_deposit, "deposit")
        if pv_deposit < 0:
            raise LedgerError("deposit must be nonnegative")
        pv = self._account(pv_identity)
        if pv.balance < pv_deposit:
            raise LedgerError("insufficient balance for the deposit")
        pv.balance -= pv_deposit
        record.escrow += pv_deposit
        record.pv_address = pv.identity
        record.item_index = item_index
        record.pv_deposit = pv_deposit
        record.record_state(ContractState.SIGNED, self.clock)
        return record

    def execute_task(self, contract_address: str, pv_departed: bool) -> SmartContractRecord:
        record = self._contract(contract_address, ContractState.SIGNED)
        record.record_state(ContractState.EXECUTING, self.clock)
        if pv_departed:
            # interrupted task: the PV's deposit compensates the SR, and the
            # SR's own escrow comes back in full
            self._release(record, 0)
            record.record_state(ContractState.CONFISCATED, self.clock)
            return record
        record.result_digest = hashlib.sha256(
            f"result:{record.address}".encode()
        ).hexdigest()[:16]
        record.record_state(ContractState.RESULT_SUBMITTED, self.clock)
        return record

    def verify_and_settle(
        self,
        contract_address: str,
        verdict: str,
        sr_fraud: bool = False,
    ) -> SmartContractRecord:
        record = self._contract(contract_address, ContractState.RESULT_SUBMITTED)
        if verdict not in ("pass", "fail"):
            raise LedgerError("verdict must be 'pass' or 'fail'")
        payout = record.reward + record.pv_deposit
        if verdict == "pass":
            record.record_state(ContractState.VERIFIED, self.clock)
            self._release(record, payout)
            record.record_state(ContractState.PAID, self.clock)
            return record
        if sr_fraud:
            # the SR's stake is forfeited; the blameless PV keeps its item's
            # reward and recovers its deposit
            self._release(record, payout, record.sr_deposit)
            record.history.append("sr-fraud")
            record.timestamps.append(self.clock)
        else:
            # failed execution: everything in escrow, including the PV's
            # deposit, flows back to the SR
            self._release(record, 0)
        record.record_state(ContractState.REFUNDED, self.clock)
        return record

    def _contract(self, address: str, state: ContractState) -> SmartContractRecord:
        """The contract at `address`, which must be in `state`."""
        try:
            record = self.contracts[address]
        except KeyError:
            raise LedgerError(f"unknown contract {address!r}") from None
        if record.state is not state:
            raise LedgerError(f"contract is {record.state.value}, not {state.value}")
        return record

    def _release(self, record: SmartContractRecord, to_pv: int, to_treasury: int = 0) -> None:
        """Empty the contract's escrow: `to_pv` to the PV, `to_treasury` to
        the treasury and the rest back to the SR."""
        self._account(record.pv_address).balance += to_pv
        self._account(TREASURY).balance += to_treasury
        self._account(record.sr_address).balance += record.escrow - to_pv - to_treasury
        record.escrow = 0

    # -- blocks --------------------------------------------------------------

    def append_block(self, transactions, quorum_evidence, proposer: str = "") -> Block:
        """Chain a block of transaction digests. quorum_evidence must name
        the agreeing consensus members; an empty list is a protocol error."""
        signers = tuple(str(s) for s in quorum_evidence)
        if not signers:
            raise LedgerError("a block needs quorum evidence")
        tx_digests = tuple(str(t) for t in transactions)
        prev = self.blocks[-1]
        block = Block(
            height=prev.height + 1,
            prev_digest=prev.digest(),
            tx_digests=tx_digests,
            proposer=proposer or signers[0],
            quorum_signers=signers,
        )
        self.blocks.append(block)
        self.clock += 1
        return block

    def verify_chain(self) -> bool:
        if self.blocks[0].height != 0 or self.blocks[0].prev_digest != "0" * 64:
            return False
        for prev, block in zip(self.blocks, self.blocks[1:]):
            if block.height != prev.height + 1:
                return False
            if block.prev_digest != prev.digest():
                return False
        return True

    # -- audits and export -----------------------------------------------------

    def total_balance(self) -> int:
        return sum(a.balance for a in self.accounts.values())

    def total_escrow(self) -> int:
        return sum(c.escrow for c in self.contracts.values())

    def conserved(self) -> bool:
        return self.total_balance() + self.total_escrow() == self.minted

    def dump(self, path: str) -> None:
        """Line-delimited canonical records: accounts, contracts, blocks."""
        with open(path, "w", encoding="utf-8") as fh:
            for identity in sorted(self.accounts):
                a = self.accounts[identity]
                fh.write(_canonical({
                    "kind": "account", "identity": a.identity,
                    "address": a.address, "public_key": a.public_key,
                    "balance": a.balance, "reputation": a.reputation,
                }) + "\n")
            for address in sorted(self.contracts):
                c = self.contracts[address]
                fh.write(_canonical({
                    "kind": "contract", "address": c.address,
                    "sr": c.sr_address, "pv": c.pv_address,
                    "spec": [c.spec.task_bits, c.spec.required_hz,
                             c.spec.expected_seconds],
                    "menu": [[f, pi] for f, pi in c.menu],
                    "sr_deposit": c.sr_deposit, "pv_deposit": c.pv_deposit,
                    "item": c.item_index, "escrow": c.escrow,
                    "state": c.state.value, "result": c.result_digest,
                    "history": c.history, "timestamps": c.timestamps,
                }) + "\n")
            for b in self.blocks:
                fh.write(_canonical({
                    "kind": "block", "height": b.height,
                    "prev": b.prev_digest, "txs": list(b.tx_digests),
                    "proposer": b.proposer, "signers": list(b.quorum_signers),
                }) + "\n")
            fh.write(_canonical({"kind": "supply", "minted": self.minted,
                                 "clock": self.clock}) + "\n")


def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
