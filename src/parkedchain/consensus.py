"""Reputation-gated BFT consensus over a deterministic simulated network.

Selection: the n highest-reputation nodes form the committee; their rank
order fixes the leader rotation. A view walks request, pre-prepare,
prepare, accept, reply in synchronous slots with a one-slot delivery
delay. Thresholds follow the source protocol literally: a node finishes
the prepare stage on 2l matching votes from other nodes (the leader's
pre-prepare counts as its vote), commits on n-l distinct agreeing accept
senders including itself, and the client accepts the result when fewer
than (n-l)/3 received replies disagree.

Each honest replica is one mutable NodeState: its handler takes (state,
message), updates the state in place and returns only the outbox.
Byzantine and crash behaviors are generated outside the honest handler.
A handler returns (recipient, kind, digest) triples and run_view stamps
each with the id of the node that produced it, so a corrupted node can
lie or stay silent but cannot send under another node's id.

The detection, decay and collusion experiments at the bottom feed one
interaction stream per seed (record_interactions, with scripted per-slot
cooperation probabilities) to both the subjective-logic scheme and the
linear-smoothing baseline, and measure how their selection quality
differs.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .reputation import LinearReputationTracker, ReputationEngine, WeightConfig

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
            # bool is an int subclass, but true/false is never a count
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    height: int
    tx_digests: tuple[str, ...]
    proposer: str

    def digest(self) -> str:
        body = f"{self.height}|{self.proposer}|" + "|".join(self.tx_digests)
        return hashlib.sha256(body.encode()).hexdigest()[:16]


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
    committed_digest: str | None
    unanimous: bool
    client_accepted: bool
    abnormal_replies: int
    abort_reason: str | None
    next_leader: str
    messages: tuple[NetMessage, ...]
    per_node: dict

    @property
    def message_count(self) -> int:
        return len(self.messages)

    @property
    def trace(self) -> tuple[str, ...]:
        return tuple(msg.trace_line() for msg in self.messages)


def select_consensus_nodes(reputations: dict, n: int) -> list:
    """Top n ids by average final reputation, ties broken by lowest id."""
    if len(reputations) < n:
        raise ValueError(
            f"population {len(reputations)} smaller than committee size {n}"
        )
    ranked = sorted(reputations.items(), key=lambda kv: (-kv[1], kv[0]))
    return [node_id for node_id, _ in ranked[:n]]


def _wrong_digest(digest: str) -> str:
    return hashlib.sha256(b"equivocation:" + digest.encode()).hexdigest()[:16]


def _handle_honest(state: NodeState, msg: NetMessage, quorums: ConsensusConfig,
                   peers: list[str]) -> list[tuple[str, str, str]]:
    """Honest-node transition: updates state in place and returns
    (recipient, kind, digest) outbox entries."""
    me = state.node_id
    if msg.kind == "request" and me == state.leader_id and state.accepted_digest is None:
        state.accepted_digest = msg.digest
        return [(peer, "pre-prepare", msg.digest) for peer in peers if peer != me]

    if (
        msg.kind == "pre-prepare"
        and state.accepted_digest is None
        and msg.sender == state.leader_id
    ):
        state.accepted_digest = msg.digest
        state.prepare_votes.setdefault(msg.digest, set()).add(msg.sender)   # the leader's vote
        return [(peer, "prepare", msg.digest) for peer in peers if peer != me]

    if msg.kind == "prepare":
        state.prepare_votes.setdefault(msg.digest, set()).add(msg.sender)
    elif msg.kind == "accept":
        state.accept_votes.setdefault(msg.digest, set()).add(msg.sender)

    # stage completion checks run on every delivery; no node sends to
    # itself, so the prepare tally counts other nodes only
    digest = state.accepted_digest
    if digest is None:
        return []
    out: list[tuple[str, str, str]] = []
    if (
        not state.sent_accept
        and len(state.prepare_votes.get(digest, ())) >= quorums.prepare_quorum
    ):
        state.sent_accept = True
        state.accept_votes.setdefault(digest, set()).add(me)
        out = [(peer, "accept", digest) for peer in peers if peer != me]
    if (
        state.committed is None
        and len(state.accept_votes.get(digest, ())) >= quorums.accept_quorum
    ):
        state.committed = digest
        out.append(("client", "reply", digest))
    return out


def _byzantine_outbox(node_id: str, strategy: ReplicaStrategy, kind: str,
                      digest: str, peers: list[str]) -> list[tuple[str, str, str]]:
    """Adversarial broadcast for one stage. SPLIT sends the honest digest to
    the first half of the committee and a fabricated one to the rest."""
    if strategy is ReplicaStrategy.SILENT:
        return []
    bad = _wrong_digest(digest)
    out = []
    others = [p for p in peers if p != node_id]
    for i, peer in enumerate(others):
        if strategy is ReplicaStrategy.ACT_HONEST:
            out.append((peer, kind, digest))
        elif strategy is ReplicaStrategy.WRONG_DIGEST:
            out.append((peer, kind, bad))
        else:  # SPLIT
            out.append((peer, kind, digest if i < len(others) // 2 else bad))
    return out


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

    nodes: ordered (id, Behavior) pairs fixing the rotation; the leader is
    nodes[view % n]. Ids must be distinct, and "client" is reserved for the
    requesting client. strategies maps byzantine ids to a ReplicaStrategy
    (default SPLIT); naming a committee member that is not byzantine is an
    error, while ids outside the committee are ignored. Every strategy is
    deterministic, so the trace is a function of the arguments.
    """
    roster = list(nodes)
    if len(roster) != config.n:
        raise ValueError(f"expected {config.n} committee members, got {len(roster)}")
    order = [node_id for node_id, _ in roster]
    if len(set(order)) != config.n:
        raise ValueError(f"committee ids must be distinct, got {order}")
    if "client" in order:
        raise ValueError('committee id "client" is reserved for the requesting client')
    behaviors = dict(roster)
    leader = order[view % config.n]
    strategies = strategies or {}
    misplaced = [node_id for node_id in strategies
                 if behaviors.get(node_id, Behavior.BYZANTINE) is not Behavior.BYZANTINE]
    if misplaced:
        raise ValueError(f"strategies given for committee members that are not byzantine: "
                         f"{misplaced}")

    states = {node_id: NodeState(node_id, leader) for node_id in order}
    byz_acted: set[tuple[str, str]] = set()    # (node, stage) a byzantine node has acted on

    request = NetMessage(0, "client", leader, "request", proposal.digest())
    sent, inbox = [request], [request]

    pre_prepare_seen = False
    for slot in range(1, _MAX_SLOTS):
        outbox: list[NetMessage] = []
        for msg in sorted(inbox):
            recipient = msg.recipient
            behavior = behaviors.get(recipient)
            if recipient == "client" or behavior is Behavior.CRASH:
                continue
            if msg.kind == "pre-prepare":
                pre_prepare_seen = True
            if behavior is Behavior.BYZANTINE:
                # a byzantine node reacts once per stage it observes
                stage = _BYZANTINE_STAGE[msg.kind]
                if (recipient, stage) in byz_acted:
                    continue
                byz_acted.add((recipient, stage))
                out = _byzantine_outbox(
                    recipient, strategies.get(recipient, ReplicaStrategy.SPLIT),
                    stage, msg.digest, ["client", recipient] if stage == "reply" else order,
                )
            else:
                out = _handle_honest(states[recipient], msg, config, order)
            # sent under the handling node's own id; delivered next slot, after this batch
            outbox += [NetMessage(slot, recipient, peer, kind, dig) for peer, kind, dig in out]
        sent += outbox
        inbox = outbox
        if len(sent) > config.message_budget:
            break

    per_node = {
        node_id: states[node_id].committed
        for node_id in order
        if behaviors[node_id] is Behavior.HONEST
    }
    committed_digests = {d for d in per_node.values() if d is not None}
    unanimous = len(committed_digests) <= 1
    committed_digest = committed_digests.pop() if len(committed_digests) == 1 else None

    # Step-6 style client check over received replies
    replies = Counter(msg.digest for msg in sent if msg.recipient == "client")
    top = max(replies, key=lambda d: (replies[d], d), default=None)
    abnormal = replies.total() - replies[top]
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
        messages=tuple(sent),
        per_node=per_node,
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
# Collusion: committee candidates, their raters, and slots per seed.
_CANDIDATES = 9
_COLLUSION_RATERS = 50
_COLLUSION_SLOTS = 8


def record_interactions(
    rng: np.random.Generator,
    slot: int,
    targets: list[str],
    raters: list[str],
    p_of: Callable[[int, str, str], float],
    engine: ReputationEngine,
    tracker: LinearReputationTracker,
) -> None:
    """Draw one slot of rated interactions and record them in both schemes.

    Each rater other than the target itself interacts 5 to 10 times with
    each target, and each interaction goes well with probability
    p_of(slot, rater, target). A probability of exactly 1.0 records
    all-positive evidence without drawing a binomial: this is how
    colluders fabricate mutual praise, and it fixes the RNG draw order.
    The slot's rows are written once to each scheme after all draws.
    """
    rows = []
    for target in targets:
        for rater in raters:
            if rater == target:
                continue
            trials = int(rng.integers(5, 11))
            p = p_of(slot, rater, target)
            pos = trials if p == 1.0 else int(rng.binomial(trials, p))
            rows.append((rater, target, pos, trials - pos))
    engine.record_slot(slot, rows)
    tracker.update_many(rows)


def _engine(weight_config: WeightConfig | None, *cohorts: list[str]) -> ReputationEngine:
    """Engine with every cohort registered at arrival hours 9, 10, 11, ..."""
    engine = ReputationEngine(weight_config)
    for cohort in cohorts:
        for i, node in enumerate(cohort):
            engine.register(node, arrival_hour=9 + (i % 3))
    return engine


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
    if not 1 <= misbehaving_count < population:
        raise ValueError(
            "detection needs at least one misbehaving node and at least one "
            f"honest rater (got population={population}, "
            f"misbehaving_count={misbehaving_count})"
        )
    rng = np.random.default_rng(seed)
    rater_ids = [f"r{i:03d}" for i in range(min(_RATERS, population - misbehaving_count))]
    target_ids = [f"m{i:03d}" for i in range(misbehaving_count)]
    engine = _engine(weight_config, rater_ids, target_ids)
    tracker = LinearReputationTracker()

    def p_of(slot, rater, target):
        return _P_COOPERATE if slot < _ONSET else _P_DEFECT

    sl_series: list[float] = []
    lr_series: list[float] = []
    for slot in range(1, slots + 1):
        record_interactions(rng, slot, target_ids, rater_ids, p_of, engine, tracker)
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

    Ten raters score the misbehaving cohort, which cooperates at 0.8 until
    slot min(5, slots) and at 0.1 after it, and one to ten honest nodes that
    hold 0.8 throughout. Slots count from 0. Returns (slot, scheme, honest
    mean, misbehaving mean) rows, "SL" then "LR" for each slot.
    """
    if misbehaving_count < 1:
        raise ValueError(
            f"decay needs at least one misbehaving node (got misbehaving_count={misbehaving_count})"
        )
    onset = min(_ONSET, slots)
    raters = [f"r{i:03d}" for i in range(_RATERS)]
    bad = [f"m{i:03d}" for i in range(misbehaving_count)]
    n_honest = max(1, min(10, population - misbehaving_count - len(raters)))
    honest = [f"h{i:03d}" for i in range(n_honest)]
    engine = _engine(weight_config, raters, bad + honest)
    tracker = LinearReputationTracker()

    def p_of(slot, rater, target):
        return _P_COOPERATE if (target in honest or slot < onset) else _P_DEFECT

    rng = np.random.default_rng(seed)
    rows: list[tuple[int, str, float, float]] = []
    for slot in range(slots):
        record_interactions(rng, slot, bad + honest, raters, p_of, engine, tracker)
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
    colluder_fraction: float = 4 / 9,
    seed_base: int = 0,
    weight_config: WeightConfig | None = None,
) -> list[tuple[float, float, float]]:
    """Monte-Carlo probability that reputation gating yields a correct
    block when colluders fabricate mutual praise and then misbehave.

    Fifty raters score nine committee candidates over eight slots.
    colluder_fraction is the corrupted share of the candidates; the attack
    scenario keeps it at or above one third. Colluders behave like the
    misbehaving nodes of detection_experiment toward everyone else. Each seed's
    interaction stream is scored once by both schemes, so a sweep over
    thresholds compares selection quality, not sampling noise. Returns
    one (threshold, sl, lr) row per threshold.
    """
    if not isinstance(seeds, int) or isinstance(seeds, bool) or seeds < 1:
        raise ValueError(f"seeds must be a positive integer, got {seeds!r}")
    if not 0.0 <= colluder_fraction <= 1.0:
        raise ValueError("colluder fraction must lie in [0, 1]")
    n_colluders = round(colluder_fraction * _CANDIDATES)
    if n_colluders == 0:
        return [(th, 1.0, 1.0) for th in thresholds]
    if n_colluders >= _CANDIDATES:
        return [(th, 0.0, 0.0) for th in thresholds]
    rater_ids = [f"r{i:03d}" for i in range(_COLLUSION_RATERS)]
    cand_ids = rater_ids[:_CANDIDATES]
    colluders = set(cand_ids[:n_colluders])

    def p_of(slot, rater, target):
        if target not in colluders:
            return 0.95
        if rater in colluders:
            return 1.0   # fabricated mutual praise
        return _P_COOPERATE if slot < _ONSET else _P_DEFECT

    scored: list[tuple[dict[str, float], dict[str, float]]] = []
    for s in range(seeds):
        rng = np.random.default_rng(seed_base + s)
        engine = ReputationEngine(weight_config)
        tracker = LinearReputationTracker()
        for i, rid in enumerate(rater_ids):
            engine.register(rid, arrival_hour=8 + (i % 5))
        for slot in range(1, _COLLUSION_SLOTS + 1):
            record_interactions(rng, slot, cand_ids, rater_ids, p_of, engine, tracker)
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
        rows.append((th, sl_hits / seeds, lr_hits / seeds))
    return rows
