"""Reputation-gated BFT consensus over a deterministic simulated network.

Selection: the n highest-reputation nodes form the committee; their rank
order fixes the leader rotation. A view walks request, pre-prepare,
prepare, accept, reply in synchronous slots with a one-slot delivery
delay. Thresholds follow the source protocol literally: a node finishes
the prepare stage on 2l matching votes from other nodes (the leader's
pre-prepare counts as its vote), commits on n-l distinct agreeing accept
senders including itself, and the client accepts the result when fewer
than (n-l)/3 received replies disagree.

A view delivers each slot in one pass. Every sender's recipients are the
sorted roster, built once per view, without the sender and the crashed
members, each paired with its state; a sender's lone broadcast goes down
that list in order, and several from one sender (a SPLIT node's) merge in
NetMessage tuple order. Each honest replica is one mutable NodeState,
updated inline on each delivery; a byzantine node's outbox comes from its
strategy. Every broadcast goes to a peer list built once per view, under
the handling node's own id, so a corrupted node can lie or stay silent
but cannot send under another node's id. A view keeps what it sends as a
log of broadcasts, one (slot, sender, recipients, kind, digest) entry
each, and decodes the message list from it only when the list is read.

The detection, decay and collusion experiments at the bottom feed one
interaction stream per seed (record_interactions, with a scripted
[slot, target, rater] stack of cooperation tables; each call's draws are
replayed bit for bit from one PCG64 raw block, and a collusion seed's
eight slots are one call) to both the subjective-logic scheme and the
linear-smoothing baseline, and measure how their selection quality
differs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._numbers import real, whole
from .reputation import (LinearReputationTracker, ReputationEngine, WeightConfig, _check_lists,
                         _check_slot, _checked_cells, _ids)

__all__ = [
    "Behavior",
    "ReplicaStrategy",
    "ConsensusConfig",
    "BlockProposal",
    "NetMessage",
    "NodeState",
    "ViewOutcome",
    "select_consensus_nodes",
    "run_view",
    "model_check_safety",
    "record_interactions",
    "detection_experiment",
    "decay_experiment",
    "collusion_experiment",
    "correct_block_probability",
]


class Behavior(Enum):
    HONEST = "honest"
    BYZANTINE = "byzantine"
    CRASH = "crash"


class ReplicaStrategy(Enum):
    """What a byzantine node does at each broadcast point."""

    SILENT = "silent"
    WRONG_DIGEST = "wrong-digest"
    SPLIT = "split"
    ACT_HONEST = "act-honest"


@dataclass(frozen=True)
class ConsensusConfig:
    n: int = 10
    l: int = 3

    def __post_init__(self) -> None:
        for name in ("n", "l"):
            value = getattr(self, name)
            if not whole(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.l < 0:
            raise ValueError(f"fault budget l must be nonnegative, got {self.l!r}")
        if self.n < 3 * self.l + 1:
            raise ValueError(f"committee must satisfy n >= 3l + 1, got n={self.n!r}, l={self.l!r}")

    @property
    def prepare_quorum(self) -> int:
        return 2 * self.l

    @property
    def accept_quorum(self) -> int:
        return self.n - self.l

    @property
    def message_budget(self) -> int:
        return 5 * self.n * self.n


@dataclass(frozen=True)
class BlockProposal:
    """A frozen proposal; it hashes its body once, when built. height is a
    whole number >= 0, stored as int, tx_digests a tuple or list of str,
    stored as a tuple (a bare string would hash as one digest per
    character), and proposer a str."""

    height: int
    tx_digests: tuple[str, ...]
    proposer: str
    sha256: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (whole(self.height) and self.height >= 0):
            raise ValueError(f"height must be a whole number >= 0, got {self.height!r}")
        if not (isinstance(self.tx_digests, (tuple, list))
                and all(isinstance(tx, str) for tx in self.tx_digests)):
            raise ValueError(f"tx_digests must be a tuple or list of str, got {self.tx_digests!r}")
        if not isinstance(self.proposer, str):
            raise ValueError(f"proposer must be a str, got {self.proposer!r}")
        object.__setattr__(self, "height", int(self.height))
        object.__setattr__(self, "tx_digests", tuple(self.tx_digests))
        body = f"{self.height}|{self.proposer}|" + "|".join(self.tx_digests)
        object.__setattr__(self, "sha256", hashlib.sha256(body.encode()).hexdigest()[:16])

    def digest(self) -> str:
        return self.sha256


class NetMessage(NamedTuple):
    """A sent message; within one inbox (one send slot) tuple order is delivery order."""
    send_slot: int
    sender: str
    recipient: str
    kind: str          # request / pre-prepare / prepare / accept / reply
    digest: str

    def trace_line(self) -> str:
        # the sixth column (message flags) is kept, always empty
        return f"{self.send_slot},{self.sender},{self.recipient},{self.kind},{self.digest},"


_MAX_SLOTS = 8    # delivery slots 1..7; a failure-free view's replies arrive in slot 5
_CLIENT = ("client",)    # a reply's one recipient


@dataclass
class NodeState:
    """One honest replica; the vote tallies map a digest to its senders."""

    node_id: str
    leader_id: str
    accepted_digest: str | None = None      # digest from the pre-prepare this node trusts
    prepare_votes: dict[str, set[str]] = field(default_factory=dict)
    accept_votes: dict[str, set[str]] = field(default_factory=dict)
    sent_accept: bool = False
    committed: str | None = None


@dataclass(frozen=True)
class ViewOutcome:
    """A view's result. `log` holds the sent messages as broadcasts in send
    order, one (slot, sender, recipients, kind, digest) entry each: the
    client's request, every honest broadcast, and every byzantine one (a
    SPLIT node sends two, one per digest)."""

    committed_digest: str | None
    unanimous: bool
    client_accepted: bool
    abnormal_replies: int
    abort_reason: str | None
    next_leader: str
    message_count: int
    per_node: dict
    log: tuple

    @cached_property
    def messages(self) -> tuple[NetMessage, ...]:
        """Every sent message in send order, decoded from the log on first read."""
        return tuple(NetMessage(slot, sender, r, kind, digest)
                     for slot, sender, recipients, kind, digest in self.log
                     for r in recipients)

    @property
    def trace(self) -> tuple[str, ...]:
        return tuple(msg.trace_line() for msg in self.messages)


def select_consensus_nodes(reputations: dict, n: int) -> list:
    """Top n ids by average final reputation, ties broken by lowest id.
    n is a whole number >= 1, and every score a finite real number: a NaN
    would break the sort."""
    if not (whole(n) and n >= 1):
        raise ValueError(f"committee size must be a whole number >= 1, got {n!r}")
    if len(reputations) < n:
        raise ValueError(
            f"population {len(reputations)} smaller than committee size {n}"
        )
    bad = {node_id: score for node_id, score in reputations.items() if not real(score)}
    if bad:
        raise ValueError(f"reputation scores must be finite real numbers, got {bad!r}")
    ranked = sorted(reputations.items(), key=lambda kv: (-kv[1], kv[0]))
    return [node_id for node_id, _ in ranked[:n]]


def _wrong_digest(digest: str) -> str:
    return hashlib.sha256(b"equivocation:" + digest.encode()).hexdigest()[:16]


def _byzantine_outbox(strategy: ReplicaStrategy, kind: str, digest: str,
                      others: list[str]) -> list[tuple]:
    """Adversarial broadcasts for one stage to the other nodes (the client
    alone for a reply), one per digest sent. SPLIT sends the honest digest
    to the first half of them and a fabricated one to the rest."""
    if strategy is ReplicaStrategy.SILENT:
        return []
    if strategy is ReplicaStrategy.ACT_HONEST:
        told = len(others)      # how many of them, in order, get the honest digest
    elif strategy is ReplicaStrategy.WRONG_DIGEST:
        told = 0
    else:  # SPLIT
        told = len(others) // 2
    groups = ((others[:told], digest), (others[told:], _wrong_digest(digest)))
    return [(group, kind, sent) for group, sent in groups if group]


# the stage a byzantine node broadcasts on first observing each message kind
_BYZANTINE_STAGE = {"request": "pre-prepare", "pre-prepare": "prepare",
                    "prepare": "accept", "accept": "reply"}


def run_view(
    nodes,
    proposal: BlockProposal,
    config: ConsensusConfig,
    view: int = 0,
    strategies: dict | None = None,
) -> ViewOutcome:
    """Execute one consensus view over the ordered committee.

    nodes: a list or tuple of (str id, Behavior) pairs fixing the rotation;
    the leader is nodes[view % n], view an integer >= 0. Ids must be
    distinct, and "client" is reserved for the requesting client. proposal
    is a BlockProposal and config a ConsensusConfig. strategies, None or a
    dict, maps byzantine ids to a ReplicaStrategy (default SPLIT); any other
    value, or naming a committee member that is not byzantine, is an error,
    while ids outside the committee are ignored.
    Every strategy is deterministic, so the trace is a function of the
    arguments.
    """
    if not (whole(view) and view >= 0):
        raise ValueError(f"view must be an integer >= 0, got {view!r}")
    for name, value, kind, called in (("config", config, ConsensusConfig, "a ConsensusConfig"),
                                      ("proposal", proposal, BlockProposal, "a BlockProposal"),
                                      ("nodes", nodes, (list, tuple), "a list or tuple")):
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {called}, got {value!r}")
    roster = list(nodes)
    bad = [entry for entry in roster
           if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                   and isinstance(entry[0], str) and isinstance(entry[1], Behavior))]
    if bad:
        raise ValueError(f"committee members must be (str id, Behavior) pairs, got {bad!r}")
    if len(roster) != config.n:
        raise ValueError(f"expected {config.n} committee members, got {len(roster)}")
    order = [node_id for node_id, _ in roster]
    if len(set(order)) != config.n:
        raise ValueError(f"committee ids must be distinct, got {order}")
    if "client" in order:
        raise ValueError('committee id "client" is reserved for the requesting client')
    behaviors = dict(roster)
    leader = order[view % config.n]
    if strategies is None:
        strategies = {}
    elif not isinstance(strategies, dict):
        raise ValueError(f"strategies must be None or a dict, got {strategies!r}")
    misplaced = [node_id for node_id in strategies
                 if behaviors.get(node_id, Behavior.BYZANTINE) is not Behavior.BYZANTINE]
    if misplaced:
        raise ValueError(f"strategies given for committee members that are not byzantine: "
                         f"{misplaced}")
    unknown = {node_id: strategy for node_id, strategy in strategies.items()
               if not isinstance(strategy, ReplicaStrategy)}
    if unknown:
        raise ValueError(f"strategies must be ReplicaStrategy members, got {unknown!r}")

    # one state per honest replica, so a live recipient without one is byzantine
    states = {node_id: NodeState(node_id, leader) for node_id in order
              if behaviors[node_id] is Behavior.HONEST}
    crashed = {node_id for node_id in order if behaviors[node_id] is Behavior.CRASH}
    peers = {node_id: order[:k] + order[k + 1:] for k, node_id in enumerate(order)}
    # each sender's live recipients in delivery order, with their states:
    # the sorted roster without the sender and the crashed, who send
    # nothing; the client's request goes to the leader alone
    live = [(node_id, states.get(node_id)) for node_id in sorted(order)
            if node_id not in crashed]
    delivery = {node_id: live[:k] + live[k + 1:] for k, (node_id, _) in enumerate(live)}
    delivery["client"] = [] if leader in crashed else [(leader, states.get(leader))]
    byz_acted: set[tuple[str, str]] = set()    # (node, stage) a byzantine node has acted on
    prepare_quorum, accept_quorum = config.prepare_quorum, config.accept_quorum
    budget = config.message_budget

    log: list[tuple] = [(0, "client", (leader,), "request", proposal.digest())]
    message_count = 1
    pre_prepare_seen = False
    first = 0      # the log entries sent in the previous slot start here
    for slot in range(1, _MAX_SLOTS):
        # replies go to the client, outside the committee, and are only tallied
        inbox: dict[str, list[tuple]] = {}
        for entry in log[first:]:
            if entry[3] != "reply":
                inbox.setdefault(entry[1], []).append(entry)
        first = len(log)
        # the slot's deliveries as runs of one sender, kind and digest
        runs = []
        for sender in sorted(inbox):
            entries = inbox[sender]
            if len(entries) == 1:
                # a lone entry, the usual case, goes to all the sender's peers
                _, _, _, kind, digest = entries[0]
                runs.append((sender, kind, digest, delivery[sender]))
            else:
                # several entries (a SPLIT node's divide its peers) merge in
                # NetMessage tuple order, one run per message
                runs += [(sender, kind, digest, [(r, states.get(r))])
                         for r, kind, digest in sorted((r, kind, digest)
                                                       for _, _, rs, kind, digest in entries
                                                       for r in rs if r not in crashed)]
        for sender, kind, digest, recipients in runs:
            for recipient, state in recipients:
                if kind == "pre-prepare":
                    pre_prepare_seen = True
                if state is None:
                    # a byzantine node reacts once per stage it observes
                    stage = _BYZANTINE_STAGE[kind]
                    if (recipient, stage) in byz_acted:
                        continue
                    byz_acted.add((recipient, stage))
                    # sent under the handling node's own id; delivered next slot
                    for recipients, sent_kind, sent_digest in _byzantine_outbox(
                            strategies.get(recipient, ReplicaStrategy.SPLIT), stage, digest,
                            _CLIENT if stage == "reply" else peers[recipient]):
                        log.append((slot, recipient, recipients, sent_kind, sent_digest))
                        message_count += len(recipients)
                    continue
                # the honest transition: each broadcast carries the node's
                # accepted digest, from the request (sent to the leader
                # alone) or the leader's pre-prepare, which is its vote
                accepted = state.accepted_digest
                if accepted is None and (
                        kind == "request" or kind == "pre-prepare" and sender == leader):
                    state.accepted_digest = digest
                    if kind == "request":
                        sent_kind = "pre-prepare"
                    else:
                        state.prepare_votes.setdefault(digest, set()).add(sender)
                        sent_kind = "prepare"
                    log.append((slot, recipient, peers[recipient], sent_kind, digest))
                    message_count += len(peers[recipient])
                    continue
                if kind == "prepare":
                    state.prepare_votes.setdefault(digest, set()).add(sender)
                elif kind == "accept":
                    state.accept_votes.setdefault(digest, set()).add(sender)
                # stage completion checks run on every delivery; no node sends
                # to itself, so the prepare tally counts other nodes only
                if accepted is None:
                    continue
                if (not state.sent_accept
                        and len(state.prepare_votes.get(accepted, ())) >= prepare_quorum):
                    state.sent_accept = True
                    state.accept_votes.setdefault(accepted, set()).add(recipient)
                    log.append((slot, recipient, peers[recipient], "accept", accepted))
                    message_count += len(peers[recipient])
                if (state.committed is None
                        and len(state.accept_votes.get(accepted, ())) >= accept_quorum):
                    state.committed = accepted
                    log.append((slot, recipient, _CLIENT, "reply", accepted))
                    message_count += 1
        if message_count > budget:
            break

    per_node = {node_id: state.committed for node_id, state in states.items()}
    committed_digests = {d for d in per_node.values() if d is not None}
    unanimous = len(committed_digests) <= 1
    committed_digest = committed_digests.pop() if len(committed_digests) == 1 else None

    # Step-6 style client check over received replies
    replies: dict[str, int] = {}
    for _, _, recipients, kind, digest in log:
        if kind == "reply":
            replies[digest] = replies.get(digest, 0) + len(recipients)
    top = max(replies, key=lambda d: (replies[d], d), default=None)
    abnormal = sum(replies.values()) - replies.get(top, 0)
    client_accepted = (
        committed_digest is not None
        and top == committed_digest
        and abnormal < (config.n - config.l) / 3
    )

    if committed_digest is not None:
        abort_reason = None
    elif not pre_prepare_seen:
        abort_reason = "leader-timeout"
    else:
        abort_reason = "no-quorum"

    return ViewOutcome(
        committed_digest=committed_digest,
        unanimous=unanimous,
        client_accepted=client_accepted,
        abnormal_replies=abnormal,
        abort_reason=abort_reason,
        next_leader=order[(view + 1) % config.n],
        message_count=message_count,
        per_node=per_node,
        log=tuple(log),
    )


def model_check_safety(config: ConsensusConfig | None = None) -> dict:
    """Bounded adversary enumeration at one committee size.

    Every combination of replica strategies for the l corrupted nodes
    (always the last ids) is run for one view, under an honest leader, a
    byzantine leader (equivocating, silent, or junk-broadcasting), and a
    crashed leader. Returns counts: runs, divergent runs (honest nodes
    committing different digests; 0 is the safety property), committed
    runs among the adversarial cases, whether the failure-free run commits
    and is client-accepted, and the largest message count of any run next
    to the 5 n^2 budget. It reports these and asserts none of them; run_view
    stops a view after the slot in which its message count passes the budget.
    """
    config = config or ConsensusConfig()
    order = [f"n{i:02d}" for i in range(config.n)]
    proposal = BlockProposal(height=1, tx_digests=("tx0", "tx1"), proposer=order[0])
    strategies = list(ReplicaStrategy)

    def last(k: int) -> list[str]:
        return order[config.n - k:]

    cases = [([], {}, None)]     # the failure-free baseline comes first
    # honest leader, l byzantine replicas
    byz = last(config.l)
    for combo in itertools.product(strategies, repeat=config.l):
        cases.append((byz, dict(zip(byz, combo)), None))
    # byzantine leader (counts toward l) plus l-1 byzantine replicas
    if config.l >= 1:
        for leader_strat in (ReplicaStrategy.SPLIT, ReplicaStrategy.SILENT,
                             ReplicaStrategy.WRONG_DIGEST):
            byz = [order[0]] + last(config.l - 1)
            for combo in itertools.product(strategies, repeat=config.l - 1):
                cases.append((byz, {order[0]: leader_strat, **dict(zip(byz[1:], combo))}, None))
        # crashed leader
        byz = last(config.l - 1)
        for combo in itertools.product(strategies, repeat=config.l - 1):
            cases.append((byz, dict(zip(byz, combo)), order[0]))

    divergent = committed_runs = max_messages = 0
    for i, (byz, strat_map, crashed) in enumerate(cases):
        roster = [
            (node_id, Behavior.CRASH if node_id == crashed
             else Behavior.BYZANTINE if node_id in byz else Behavior.HONEST)
            for node_id in order
        ]
        out = run_view(roster, proposal, config, strategies=strat_map)
        max_messages = max(max_messages, out.message_count)
        divergent += not out.unanimous
        if i == 0:
            failure_free_committed = out.committed_digest is not None and out.client_accepted
        else:
            committed_runs += out.committed_digest is not None

    return {
        "runs": len(cases),
        "divergent": divergent,
        "committed_runs": committed_runs,
        "failure_free_committed": failure_free_committed,
        "max_messages": max_messages,
        "message_budget": config.message_budget,
    }


# ---------------------------------------------------------------------------
# reputation experiments
# ---------------------------------------------------------------------------

# Up to _RATERS honest raters score the misbehaving nodes, which cooperate
# with probability _P_COOPERATE before slot _ONSET and _P_DEFECT from it on.
_RATERS = 10
_ONSET = 5
_P_COOPERATE = 0.8
_P_DEFECT = 0.1
# Collusion: committee candidates and the colluders among them (more than a
# third), their raters, slots per seed, and how often an honest candidate
# cooperates.
_CANDIDATES = 9
_COLLUDERS = 4
_COLLUSION_RATERS = 50
_COLLUSION_SLOTS = 8
_P_HONEST_CANDIDATE = 0.95


def record_interactions(
    rng: np.random.Generator,
    slots,
    targets: list[str],
    raters: list[str],
    p: np.ndarray,
    engine: ReputationEngine,
    tracker: LinearReputationTracker,
) -> None:
    """Draw the rated interactions of the distinct `slots`, a non-empty
    list, tuple or range, and record them in both schemes.

    In slot slots[k], each rater other than the target itself interacts 5
    to 10 times with each target, and each interaction goes well with
    probability p[k, t, r] for targets[t] and raters[r]. A probability of
    exactly 1.0 records all-positive evidence without a binomial: this is
    how colluders fabricate mutual praise. The draws are an integers(5, 11)
    and binomial call per pair, slot by slot, then target by target, then
    rater by rater, replayed bit for bit from one PCG64 raw block per call
    (_slot_draws; a Lemire rejection, an inversion restart or another bit
    generator runs the per-pair loop over the whole call).

    Every check runs before any draw, and a rejected call leaves the RNG
    and both schemes as they were: first the slots container, then the
    table, which must be an integer or float array shaped (slots, targets,
    raters) of numbers in [0, 1]; then the roster, which both schemes must
    share (the tracker's ids those of the engine); then the drawn cells,
    every pair but a rater rating itself, under the cell rule of
    reputation._checked_cells, each name looked up once and a self-rating
    told by the ids; then each slot, as ReputationEngine checks it, and
    last that no slot repeats. The counts are written once to the engine,
    and to the tracker once per slot, in slot order, after all draws.
    """
    if not (isinstance(slots, (list, tuple, range)) and len(slots)):
        raise ValueError(f"slots must be a non-empty list, tuple or range, got {slots!r}")
    p = _probability_table(p, slots, targets, raters)
    if tracker._index != engine._index:
        raise ValueError("engine and tracker must share one roster, names in the same order")
    index = engine._index
    _check_lists(targets=targets, raters=raters)
    rater_ids, target_ids = _ids(raters, index), _ids(targets, index)
    if min(rater_ids.min(initial=0), target_ids.min(initial=0)) >= 0:
        # registered names are equal exactly when their ids are
        drawn = np.flatnonzero(target_ids[:, None] != rater_ids)
    else:   # names outside the roster share id -1: compare the names
        drawn = np.flatnonzero(np.array(targets, dtype=object)[:, None]
                               != np.array(raters, dtype=object))
    i, j = _checked_cells(raters, targets, drawn, rater_ids, target_ids, len(index))
    for slot in slots:
        _check_slot(slot)
    if len(set(slots)) < len(slots):
        raise ValueError(f"slots must be distinct, got {slots!r}")
    trials, positives = _slot_draws(rng, p.reshape(len(slots), -1)[:, drawn].ravel())
    counts = np.empty((len(slots) * len(drawn), 2), dtype=np.int64)
    counts[:, 0] = positives
    counts[:, 1] = trials
    counts[:, 1] -= counts[:, 0]
    engine._add(slots, i, j, counts)
    # the EMA runs cell by cell in time order
    for block in counts.reshape(len(slots), len(drawn), 2):
        tracker._apply(i, j, block)


def _probability_table(p, slots, targets: list[str], raters: list[str]) -> np.ndarray:
    """record_interactions' table stack as a float array, checked: an
    integer or float numpy array shaped (slots, targets, raters), each cell
    in [0, 1]. The first bad cell is named."""
    if not (isinstance(p, np.ndarray) and p.dtype.kind in "iuf"):
        got = f"dtype {p.dtype}" if isinstance(p, np.ndarray) else type(p).__name__
        raise ValueError(f"p must be a numpy array of integers or floats, got {got}")
    shape = (len(slots), len(targets), len(raters))
    if p.shape != shape:
        raise ValueError(f"p must be shaped (slots, targets, raters) = {shape}, got {p.shape}")
    p = p.astype(float, copy=False)
    ok = (p >= 0.0) & (p <= 1.0)     # NaN fails both
    if not ok.all():
        k, t, r = np.argwhere(~ok)[0]
        raise ValueError(f"p[{k}, {t}, {r}] (slot {slots[k]!r}, target {targets[t]!r}, rater "
                         f"{raters[r]!r}) must be a probability in [0, 1], got {p[k, t, r]}")
    return p


def _scalar_draws(rng: np.random.Generator, probs: np.ndarray) -> tuple[list, list]:
    """The reference draw order: per pair, integers(5, 11), then a binomial
    unless p is exactly 1.0."""
    trials, positives = [0] * len(probs), [0] * len(probs)
    integers, binomial = rng.integers, rng.binomial
    for k, pk in enumerate(probs.tolist()):
        n = trials[k] = integers(5, 11)
        positives[k] = n if pk == 1.0 else binomial(n, pk)
    return trials, positives


def _slot_draws(rng: np.random.Generator, probs: np.ndarray) -> tuple:
    """_scalar_draws' results and end state, replayed from one random_raw
    block when the bit generator is PCG64.

    integers(5, 11) is Lemire's multiply-shift on a 32-bit half: the low
    half of a fresh raw, whose high half PCG64 keeps for its next 32-bit
    call. A binomial (p not 0 or 1) is numpy's inversion on the 53-bit
    uniform of a fresh raw, at 1 - p when p > 0.5; at n <= 10 its bound is
    n. A Lemire rejection, an inversion that walks past n, or another bit
    generator restores the state and runs _scalar_draws.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        return _scalar_draws(rng, probs)
    saved = bitgen.state
    held = saved["has_uint32"]
    split = (np.arange(len(probs)) + held) % 2 == 0     # integers takes a fresh raw
    binom = (probs != 0.0) & (probs != 1.0)
    used = split.astype(np.int64) + binom
    raw = bitgen.random_raw(int(used.sum()))
    start = np.cumsum(used) - used
    fresh = raw[start[split]]
    u32 = np.empty(len(probs), dtype=np.uint64)
    u32[split] = fresh & 0xFFFFFFFF
    halves = np.concatenate((np.array([saved["uinteger"]], dtype=np.uint64), fresh >> 32))
    u32[~split] = halves[1 - held:][:len(probs) - len(fresh)]     # kept halves, in order
    m = u32 * np.uint64(6)
    trials = (m >> 32).astype(np.int64) + 5
    n, pb = trials[binom], probs[binom]
    pp = np.where(pb > 0.5, 1.0 - pb, pb)
    q = 1.0 - pp
    values, which = np.unique(pp, return_inverse=True)
    px = np.array([[math.exp(k * math.log(1.0 - v)) for k in range(11)]
                   for v in values.tolist()]).reshape(-1, 11)[which, n]
    u = (raw[start[binom] + split[binom]] >> 11) * 2.0**-53
    # a draw that stops has u <= px, so u - px <= 0 while every later px
    # stays >= 0 (a signed zero from step n + 1 on): it never goes again,
    # and no mask is needed. One that goes on past n (n <= 10) shows after
    # at most 11 steps as x > n.
    x = np.zeros(len(n), dtype=np.int64)
    for step in range(1, 12):
        go = u > px
        if not go.any():
            break
        x += go
        u = u - px
        px = (n - step + 1) * pp * px / (step * q)
    # numpy's Lemire threshold for a range of 6 is 2**32 mod 6 = 4
    if ((m & 0xFFFFFFFF) < 4).any() or (x > n).any():
        bitgen.state = saved
        return _scalar_draws(rng, probs)
    positives = np.where(probs == 1.0, trials, 0)
    positives[binom] = np.where(pb > 0.5, n - x, x)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = (held + len(probs)) % 2, int(halves[-1])
    bitgen.state = state
    return trials, positives


def _cooperation(
    targets: list[str], raters: list[str], misbehaving, honest_p: float = _P_COOPERATE,
    colluders=frozenset(),
) -> tuple[np.ndarray, np.ndarray]:
    """The [target, rater] probabilities of a good interaction before the
    onset and from it on. A misbehaving target cooperates at 0.8, then at
    0.1; any other target at `honest_p` throughout; a colluder rating a
    colluding target always praises it (1.0)."""
    bad = np.array([t in misbehaving for t in targets], dtype=bool)[:, None]
    praise = bad & np.array([r in colluders for r in raters], dtype=bool)
    return tuple(np.where(praise, 1.0, np.where(bad, p, honest_p))
                 for p in (_P_COOPERATE, _P_DEFECT))


def _is_probability(value) -> bool:
    return real(value) and 0.0 <= value <= 1.0


def _check_slots_and_seed(slots, seed) -> None:
    for name, value, least in (("slots", slots, 1), ("seed", seed, 0)):
        if not whole(value) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _schemes(weight_config: WeightConfig | None, *cohorts: list[str],
             hours=range(9, 12)) -> tuple[ReputationEngine, LinearReputationTracker]:
    """Both schemes over one roster: every cohort registered in the engine,
    its i-th node at arrival hour hours[i % len(hours)], and the tracker
    over the engine's nodes in the same order."""
    engine = ReputationEngine(weight_config)
    for cohort in cohorts:
        for i, node in enumerate(cohort):
            engine.register(node, arrival_hour=hours[i % len(hours)])
    return engine, LinearReputationTracker(engine.arrival_hours)


def detection_experiment(
    population: int,
    misbehaving_count: int,
    threshold: float,
    slots: int,
    seed: int,
    weight_config: WeightConfig | None = None,
) -> tuple[list[float], list[float]]:
    """Per-slot fraction of misbehaving nodes scored below the threshold.

    A fixed committee of up to ten honest raters scores every misbehaving
    node from observed per-slot consensus interactions (5 to 10 per pair
    per slot). Misbehaving nodes cooperate at 0.8 before slot 5 and at 0.1
    from it on; slots count from 1.
    Returns (sl_series, lr_series): the opinion-fusion engine and the
    linear-smoothing baseline, both fed the same interaction stream.
    """
    if not (whole(population) and whole(misbehaving_count)
            and 1 <= misbehaving_count < population):
        raise ValueError(
            "detection needs whole counts, at least one misbehaving node and at least one "
            f"honest rater (got population={population!r}, "
            f"misbehaving_count={misbehaving_count!r})"
        )
    if not _is_probability(threshold):
        raise ValueError(f"threshold must be a real number in [0, 1], got {threshold!r}")
    _check_slots_and_seed(slots, seed)
    rng = np.random.default_rng(seed)
    rater_ids = [f"r{i:03d}" for i in range(min(_RATERS, population - misbehaving_count))]
    target_ids = [f"m{i:03d}" for i in range(misbehaving_count)]
    engine, tracker = _schemes(weight_config, rater_ids, target_ids)
    before, after = _cooperation(target_ids, rater_ids, target_ids)

    sl_series: list[float] = []
    lr_series: list[float] = []
    for slot in range(1, slots + 1):
        record_interactions(rng, [slot], target_ids, rater_ids,
                            (before if slot < _ONSET else after)[None], engine, tracker)
        sl = engine.average_reputations(target_ids, at=slot + 1, raters=rater_ids)
        sl_below = int(np.count_nonzero(sl < threshold))
        lr_below = sum(tracker.average_reputation(target, rater_ids) < threshold
                       for target in target_ids)
        sl_series.append(sl_below / misbehaving_count)
        lr_series.append(lr_below / misbehaving_count)
    return sl_series, lr_series


def full_detection_slot(series: list[float]) -> int | None:
    """First 1-indexed slot where the whole misbehaving set is flagged."""
    for i, rate in enumerate(series):
        if rate >= 1.0:
            return i + 1
    return None


def decay_experiment(
    population: int,
    misbehaving_count: int,
    slots: int,
    seed: int,
    weight_config: WeightConfig | None,
) -> list[tuple[int, str, float, float]]:
    """Mean reputation of honest vs misbehaving cohorts, slot by slot.

    Ten raters score the misbehaving cohort, which cooperates at 0.8 before
    slot 5 and at 0.1 from it on, and one to ten honest nodes that hold 0.8
    throughout. Slots count from 0. Returns (slot, scheme, honest
    mean, misbehaving mean) rows, "SL" then "LR" for each slot.
    """
    if not (whole(population) and whole(misbehaving_count) and misbehaving_count >= 1):
        raise ValueError(
            "decay needs a whole population and at least one misbehaving node "
            f"(got population={population!r}, misbehaving_count={misbehaving_count!r})"
        )
    _check_slots_and_seed(slots, seed)
    raters = [f"r{i:03d}" for i in range(_RATERS)]
    bad = [f"m{i:03d}" for i in range(misbehaving_count)]
    n_honest = max(1, min(10, population - misbehaving_count - len(raters)))
    honest = [f"h{i:03d}" for i in range(n_honest)]
    engine, tracker = _schemes(weight_config, raters, bad + honest)
    before, after = _cooperation(bad + honest, raters, bad)

    rng = np.random.default_rng(seed)
    rows: list[tuple[int, str, float, float]] = []
    for slot in range(slots):
        record_interactions(rng, [slot], bad + honest, raters,
                            (before if slot < _ONSET else after)[None], engine, tracker)
        sl = engine.average_reputations(honest + bad, at=slot + 1, raters=raters).tolist()
        lr = [tracker.average_reputation(t, raters=raters) for t in honest + bad]
        for scheme, scores in (("SL", sl), ("LR", lr)):
            rows.append((slot, scheme, float(np.mean(scores[:len(honest)])),
                         float(np.mean(scores[len(honest):]))))
    return rows


def correct_block_probability(
    scores: dict[str, float],
    colluders: list[str],
    threshold: float,
) -> float:
    """1.0 when reputation gating leaves colluders strictly below a third
    of the eligible committee, else 0.0; an empty committee counts as a
    failure because no block can be verified."""
    eligible = [node for node, score in scores.items() if score >= threshold]
    if not eligible:
        return 0.0
    bad = sum(1 for node in eligible if node in colluders)
    return 1.0 if bad < len(eligible) / 3 else 0.0


def collusion_experiment(
    thresholds: list[float],
    seeds: int = 100,
    seed_base: int = 0,
    weight_config: WeightConfig | None = None,
) -> list[tuple[float, float, float]]:
    """Monte-Carlo probability that reputation gating yields a correct
    block when colluders fabricate mutual praise and then misbehave.

    Fifty raters score nine committee candidates over eight slots, and
    four of the candidates collude: more than the third a committee
    tolerates. Colluders behave like the misbehaving nodes of
    detection_experiment toward everyone else. Each seed's interaction
    stream is scored once by both schemes, so a sweep over thresholds
    compares selection quality, not sampling noise. Returns one
    (threshold, sl, lr) row per threshold.
    """
    if not whole(seeds) or seeds < 1:
        raise ValueError(f"seeds must be a positive integer, got {seeds!r}")
    thresholds = list(thresholds)
    if not all(map(_is_probability, thresholds)):
        raise ValueError(f"thresholds must be real numbers in [0, 1], got {thresholds!r}")
    if not whole(seed_base) or seed_base < 0:
        raise ValueError(f"seed_base must be a nonnegative integer, got {seed_base!r}")
    rater_ids = [f"r{i:03d}" for i in range(_COLLUSION_RATERS)]
    cand_ids = rater_ids[:_CANDIDATES]
    colluders = set(cand_ids[:_COLLUDERS])
    before, after = _cooperation(cand_ids, rater_ids, colluders, _P_HONEST_CANDIDATE, colluders)
    slots = range(1, _COLLUSION_SLOTS + 1)
    p = np.stack([before if slot < _ONSET else after for slot in slots])

    scored: list[tuple[dict[str, float], dict[str, float]]] = []
    for s in range(seeds):
        rng = np.random.default_rng(seed_base + s)
        engine, tracker = _schemes(weight_config, rater_ids, hours=range(8, 13))
        record_interactions(rng, slots, cand_ids, rater_ids, p, engine, tracker)
        sl = engine.average_reputations(cand_ids, at=_COLLUSION_SLOTS + 1, raters=rater_ids)
        lr_scores = {target: tracker.average_reputation(
            target, [r for r in rater_ids if r != target]) for target in cand_ids}
        scored.append((dict(zip(cand_ids, sl.tolist())), lr_scores))

    rows = []
    for th in thresholds:
        sl_hits = lr_hits = 0.0
        for sl_scores, lr_scores in scored:
            sl_hits += correct_block_probability(sl_scores, colluders, th)
            lr_hits += correct_block_probability(lr_scores, colluders, th)
        rows.append((th, sl_hits / len(scored), lr_hits / len(scored)))
    return rows
