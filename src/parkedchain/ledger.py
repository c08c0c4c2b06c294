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
import os
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from ._numbers import real, whole

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
_UNSET = object()     # no menu posted yet; None is a malformed menu, not a missing one


class LedgerError(RuntimeError):
    pass


class ContractState(Enum):
    DEPLOYED = "Deployed"
    SIGNED = "Signed"
    EXECUTING = "Executing"
    RESULT_SUBMITTED = "ResultSubmitted"
    VERIFIED = "Verified"
    PAID = "Paid"
    REFUNDED = "Refunded"
    CONFISCATED = "Confiscated"


def _step(*path: ContractState | str) -> tuple[ContractState, tuple[str, ...]]:
    """One lifecycle call's write: the state it ends in, and the history
    entries it logs at one slot (each state's value, or a note)."""
    return path[-1], tuple(p if isinstance(p, str) else p.value for p in path)


_SIGNED = _step(ContractState.SIGNED)
_SUBMITTED = _step(ContractState.EXECUTING, ContractState.RESULT_SUBMITTED)
_CONFISCATED = _step(ContractState.EXECUTING, ContractState.CONFISCATED)
_PAID = _step(ContractState.VERIFIED, ContractState.PAID)
_REFUNDED = _step(ContractState.REFUNDED)
_FRAUD_REFUNDED = _step("sr-fraud", ContractState.REFUNDED)


@dataclass(slots=True)
class Account:
    identity: str
    address: str
    public_key: str
    balance: int = 0
    reputation: float = 0.5      # fresh entities start at the neutral prior


@dataclass(frozen=True)
class RequestSpec:
    task_bits: float       # a real, as every field is; stored as an int when whole
    required_hz: float
    expected_seconds: float

    def __post_init__(self) -> None:
        # each field is stored as a plain int or float, so dump can write it;
        # it is checked as stored, so a real that rounds to 0.0 fails too
        for name in ("task_bits", "required_hz", "expected_seconds"):
            x = getattr(self, name)
            y = (int(x) if whole(x) else float(x)) if real(x) else 0
            if not y > 0:
                raise ValueError(f"request spec {name} must be finite and > 0, got {x!r}")
            object.__setattr__(self, name, y)


@dataclass(slots=True)
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

    def record_state(self, slot: int, step: tuple[ContractState, tuple[str, ...]]) -> None:
        """Write one lifecycle `step` at `slot`: enter its state and log its
        history entries, one timestamp each. A lifecycle call writes once."""
        self.state, logged = step
        self.history += logged
        self.timestamps += (slot,) * len(logged)

    @property
    def reward(self) -> int:
        if self.item_index is None:
            return 0
        return self.menu[self.item_index][1]


@dataclass(frozen=True)
class Block:
    """A frozen block; it hashes its canonical JSON once, when built."""

    height: int
    prev_digest: str
    tx_digests: tuple[str, ...]
    proposer: str
    quorum_signers: tuple[str, ...]
    sha256: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        body = _canonical({
            "height": self.height,
            "prev": self.prev_digest,
            "txs": list(self.tx_digests),
            "proposer": self.proposer,
            "signers": list(self.quorum_signers),
        })
        object.__setattr__(self, "sha256", hashlib.sha256(body.encode()).hexdigest())

    def digest(self) -> str:
        return self.sha256


def _check_flag(name: str, value) -> None:
    """A contract flag is a Python or numpy bool: "no" or 1 is not read as true.
    Callers skip the call for a plain bool."""
    if not isinstance(value, np.bool_):
        raise LedgerError(f"{name} must be a bool, got {value!r}")


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
        self._last_menu = (_UNSET, None)    # (immutable menu object, (stored menu, largest reward))
        self.minted = 0
        self._nonce = 0
        self.clock = 0
        self.register_account(TREASURY)

    # -- accounts ----------------------------------------------------------

    def register_account(self, identity: str) -> Account:
        if not isinstance(identity, str):
            raise LedgerError(f"identity must be a string, got {identity!r}")
        if identity in self.accounts:
            raise LedgerError(f"identity {identity!r} already registered")
        account = Account(identity, _address_for(identity),
                          hashlib.sha256(b"pk:" + identity.encode()).hexdigest())
        if account.address in self._addresses:
            raise LedgerError(f"address collision for {identity!r}")
        self.accounts[identity] = account
        self._addresses.add(account.address)
        return account

    def credit(self, identity: str, amount: int) -> None:
        """Mint units into an account. Setup plumbing only: this is the one
        operation that changes the total supply."""
        if not (whole(amount) and amount >= 0):
            raise LedgerError(f"credit must be a nonnegative whole number of units, got {amount!r}")
        amount = int(amount)
        self._account(identity).balance += amount
        self.minted += amount

    def _account(self, identity: str) -> Account:
        try:
            return self.accounts[identity]
        except (KeyError, TypeError):      # TypeError: an unhashable identity
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
        if not isinstance(spec, RequestSpec):
            raise LedgerError(f"spec must be a RequestSpec, got {spec!r}")
        last, known = self._last_menu
        if menu is not last:
            items = []
            try:
                for f, pi in menu:
                    # checked as stored, so a real that rounds to 0.0 fails too
                    if not (real(f) and float(f) > 0):
                        raise LedgerError(f"menu frequency must be a finite real number > 0, "
                                          f"got {f!r}")
                    if not (whole(pi) and pi >= 0):
                        raise LedgerError(f"reward must be a nonnegative whole number of units, "
                                          f"got {pi!r}")
                    items.append((float(f), int(pi)))
            except (TypeError, ValueError):
                raise LedgerError(f"menu must be a sequence of (frequency, reward) pairs, "
                                  f"got {menu!r}") from None
            if not items:
                raise LedgerError("menu must contain at least one item")
            known = (tuple(items), max(pi for _, pi in items))
            # a tuple of (float, int) tuples cannot change, so the same object
            # posted again skips the checks above
            if type(menu) is tuple and all(type(item) is tuple and len(item) == 2
                                           and type(item[0]) is float and type(item[1]) is int
                                           for item in menu):
                self._last_menu = (menu, known)
        items, top = known
        if not (whole(deposit) and deposit >= 0):
            raise LedgerError(f"deposit must be a nonnegative whole number of units, "
                              f"got {deposit!r}")
        deposit = int(deposit)
        need = deposit + top
        if sr.balance < need:
            raise LedgerError(f"balance {sr.balance} cannot escrow deposit {deposit!r} + max "
                              f"reward {top!r}")
        self._nonce += 1
        sr.balance -= need
        record = SmartContractRecord(
            address=_contract_address(sr.address, self._nonce),
            sr_address=sr.identity,
            spec=spec,
            menu=items,
            sr_deposit=deposit,
            escrow=need,
            history=[ContractState.DEPLOYED._value_],
            timestamps=[self.clock],
        )
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
        if not whole(item_index):
            raise LedgerError(f"menu item index must be a whole number, got {item_index!r}")
        if not 0 <= item_index < len(record.menu):
            raise LedgerError(f"menu has no item {item_index}")
        if not (whole(pv_deposit) and pv_deposit >= 0):
            raise LedgerError(f"deposit must be a nonnegative whole number of units, "
                              f"got {pv_deposit!r}")
        pv_deposit, item_index = int(pv_deposit), int(item_index)
        pv = self._account(pv_identity)
        if pv.balance < pv_deposit:
            raise LedgerError(f"balance {pv.balance} cannot cover the deposit {pv_deposit!r}")
        pv.balance -= pv_deposit
        record.escrow += pv_deposit
        record.pv_address = pv.identity
        record.item_index = item_index
        record.pv_deposit = pv_deposit
        record.record_state(self.clock, _SIGNED)
        return record

    def execute_task(self, contract_address: str, pv_departed: bool) -> SmartContractRecord:
        """Run the signed task; `pv_departed` is a Python or numpy bool."""
        record = self._contract(contract_address, ContractState.SIGNED)
        if type(pv_departed) is not bool:
            _check_flag("pv_departed", pv_departed)
        if pv_departed:
            # interrupted task: the PV's deposit compensates the SR, and the
            # SR's own escrow comes back in full
            self._release(record, 0)
            record.record_state(self.clock, _CONFISCATED)
            return record
        record.result_digest = hashlib.sha256(
            f"result:{record.address}".encode()
        ).hexdigest()[:16]
        record.record_state(self.clock, _SUBMITTED)
        return record

    def verify_and_settle(
        self,
        contract_address: str,
        verdict: str,
        sr_fraud: bool = False,
    ) -> SmartContractRecord:
        """Settle a submitted result on a "pass" or "fail" verdict;
        `sr_fraud`, a Python or numpy bool, marks a failed one as the SR's
        (a passing one cannot be: that is an error)."""
        record = self._contract(contract_address, ContractState.RESULT_SUBMITTED)
        if verdict not in ("pass", "fail"):
            raise LedgerError(f"verdict must be 'pass' or 'fail', got {verdict!r}")
        if type(sr_fraud) is not bool:
            _check_flag("sr_fraud", sr_fraud)
        if sr_fraud and verdict == "pass":
            raise LedgerError("sr_fraud marks a failed result, not a 'pass' verdict")
        payout = record.reward + record.pv_deposit
        if verdict == "pass":
            self._release(record, payout)
            record.record_state(self.clock, _PAID)
        elif sr_fraud:
            # the SR's stake is forfeited; the blameless PV keeps its item's
            # reward and recovers its deposit
            self._release(record, payout, record.sr_deposit)
            record.record_state(self.clock, _FRAUD_REFUNDED)
        else:
            # failed execution: everything in escrow, including the PV's
            # deposit, flows back to the SR
            self._release(record, 0)
            record.record_state(self.clock, _REFUNDED)
        return record

    def _contract(self, address: str, state: ContractState) -> SmartContractRecord:
        """The contract at `address`, which must be in `state`."""
        try:
            record = self.contracts[address]
        except (KeyError, TypeError):      # TypeError: an unhashable address
            raise LedgerError(f"unknown contract {address!r}") from None
        if record.state is not state:
            raise LedgerError(f"contract is {record.state.value}, not {state.value}")
        return record

    def _release(self, record: SmartContractRecord, to_pv: int, to_treasury: int = 0) -> None:
        """Empty the contract's escrow: `to_pv` to the PV, `to_treasury` to
        the treasury and the rest back to the SR. Every party of a signed
        contract holds an account, so each is looked up directly."""
        accounts = self.accounts
        accounts[record.pv_address].balance += to_pv
        accounts[TREASURY].balance += to_treasury
        accounts[record.sr_address].balance += record.escrow - to_pv - to_treasury
        record.escrow = 0

    # -- blocks --------------------------------------------------------------

    def append_block(self, transactions, quorum_evidence, proposer: str = "") -> Block:
        """Chain a block of transaction digests. transactions and
        quorum_evidence are tuples or lists of str ids, as a BlockProposal's
        digests are, and proposer a str ("" names the first signer).
        quorum_evidence must name the agreeing consensus members; an empty
        one is a protocol error, and a bare string is one id per character,
        so it is rejected."""
        for name, ids in (("transactions", transactions), ("quorum evidence", quorum_evidence)):
            if isinstance(ids, (str, bytes)):
                raise LedgerError(f"{name} must be a collection of ids, not the bare string "
                                  f"{ids!r}")
            if not (isinstance(ids, (tuple, list)) and all(isinstance(i, str) for i in ids)):
                raise LedgerError(f"{name} must be a tuple or list of str ids, got {ids!r}")
        if not isinstance(proposer, str):
            raise LedgerError(f"proposer must be a str, got {proposer!r}")
        signers = tuple(quorum_evidence)
        if not signers:
            raise LedgerError("a block needs quorum evidence")
        tx_digests = tuple(transactions)
        prev = self.blocks[-1]
        block = Block(
            height=prev.height + 1,
            prev_digest=prev.sha256,
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
            if block.prev_digest != prev.sha256:
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
        """Line-delimited canonical records: accounts, contracts, blocks.
        `path` is a str or path-like object, not a file descriptor."""
        if not isinstance(path, (str, os.PathLike)):
            raise LedgerError(f"dump path must be a str or path-like object, got {path!r}")
        with open(path, "w", encoding="utf-8") as fh:
            for identity in sorted(self.accounts):
                a = self.accounts[identity]
                fh.write(_canonical({
                    "kind": "account", "identity": a.identity,
                    "address": a.address, "public_key": a.public_key,
                    "balance": a.balance, "reputation": a.reputation,
                }) + "\n")
            # a contract line is written field by field in sorted key order, as
            # _canonical would (its string escaper, int.__repr__ for ints); its
            # only floats, in menu and spec, go through _canonical once per
            # distinct pair, and history and timestamps once per distinct value
            fragments: dict[tuple[int, int], tuple[str, str]] = {}
            histories: dict[tuple[str, ...], str] = {}
            stamps: dict[tuple[int, ...], str] = {}
            for address in sorted(self.contracts):
                c = self.contracts[address]
                key = (id(c.menu), id(c.spec))
                parts = fragments.get(key)
                if parts is None:
                    spec = c.spec
                    parts = fragments[key] = (
                        _canonical([[f, pi] for f, pi in c.menu]),
                        _canonical([spec.task_bits, spec.required_hz, spec.expected_seconds]),
                    )
                steps, slots = tuple(c.history), tuple(c.timestamps)
                if steps not in histories:
                    histories[steps] = _canonical(c.history)
                if slots not in stamps:
                    stamps[slots] = _canonical(c.timestamps)
                pv, item, result = c.pv_address, c.item_index, c.result_digest
                fh.write(
                    f'{{"address":{_string(c.address)},"escrow":{int.__repr__(c.escrow)},'
                    f'"history":{histories[steps]},'
                    f'"item":{"null" if item is None else int.__repr__(item)},'
                    f'"kind":"contract","menu":{parts[0]},'
                    f'"pv":{"null" if pv is None else _string(pv)},'
                    f'"pv_deposit":{int.__repr__(c.pv_deposit)},'
                    f'"result":{"null" if result is None else _string(result)},'
                    f'"spec":{parts[1]},"sr":{_string(c.sr_address)},'
                    f'"sr_deposit":{int.__repr__(c.sr_deposit)},'
                    f'"state":{_string(c.state._value_)},"timestamps":{stamps[slots]}}}\n')
            for b in self.blocks:
                fh.write(_canonical({
                    "kind": "block", "height": b.height,
                    "prev": b.prev_digest, "txs": list(b.tx_digests),
                    "proposer": b.proposer, "signers": list(b.quorum_signers),
                }) + "\n")
            fh.write(_canonical({"kind": "supply", "minted": self.minted,
                                 "clock": self.clock}) + "\n")


# one encoder for every record: json.dumps builds a new one per call when
# given non-default arguments
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
