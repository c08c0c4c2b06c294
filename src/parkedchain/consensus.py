"""Reputation-gated BFT consensus over a deterministic simulated network.

Selection: the n highest-reputation nodes form the committee; their rank
order fixes the leader rotation. A view walks request, pre-prepare,
prepare, accept, reply in synchronous slots with a one-slot delivery
delay. Thresholds follow the source protocol literally: a node finishes
the prepare stage on 2l matching votes from other nodes (the leader's
pre-prepare counts as its vote), commits on n-l distinct agreeing accept
senders including itself, and the client accepts the result when fewer
than (n-l)/3 received replies disagree.

Handlers are pure: each takes (state, message) and returns a fresh state
plus an outbox. Byzantine and crash behaviors are generated outside the
honest handlers, so a corrupted node can lie or stay silent but cannot
forge another node's message tag.

The detection, decay and collusion experiments at the bottom feed one
interaction stream per seed (record_interactions, with scripted per-slot
cooperation probabilities) to both the subjective-logic scheme and the
linear-smoothing baseline, and measure how their selection quality
differs.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .reputation import LinearReputationTracker, ReputationEngine, WeightConfig

__all__ = [
    "Behavior",
    "ReplicaStrategy",
    "ConsensusConfig",
    "BlockProposal",
    "NetMessage",
    "NodeState",
    "Network",
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
    max_slots: int = 8

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError("fault budget l must be nonnegative")
        if self.n < 3 * self.l + 1:
            raise ValueError("committee must satisfy n >= 3l + 1")
        if self.max_slots < 6:
            raise ValueError("a view needs at least 6 slots to complete")

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


@dataclass(frozen=True)
class NetMessage:
    send_slot: int
    deliver_slot: int
    sender: str
    recipient: str
    kind: str          # request / pre-prepare / prepare / accept / reply
    digest: str
    tag: str
    flags: str = ""

    def trace_line(self) -> str:
        return (
            f"{self.send_slot},{self.sender},{self.recipient},"
            f"{self.kind},{self.digest},{self.flags}"
        )


def _node_key(node_id: str) -> bytes:
    # deterministic per-node secret; a stand-in for real key material
    return hashlib.sha256(b"node-key:" + node_id.encode()).digest()


def message_tag(sender: str, kind: str, digest: str, recipient: str) -> str:
    payload = f"{kind}|{digest}|{recipient}".encode()
    return hmac.new(_node_key(sender), payload, hashlib.sha256).hexdigest()[:16]


def verify_tag(msg: NetMessage) -> bool:
    expected = message_tag(msg.sender, msg.kind, msg.digest, msg.recipient)
    return hmac.compare_digest(expected, msg.tag)


@dataclass(frozen=True)
class NodeState:
    node_id: str
    is_leader: bool
    leader_id: str = ""
    accepted_digest: str | None = None      # digest from the pre-prepare this node trusts
    prepare_votes: tuple[tuple[str, tuple[str, ...]], ...] = ()
    accept_votes: tuple[tuple[str, tuple[str, ...]], ...] = ()
    sent_prepare: bool = False
    sent_accept: bool = False
    committed: str | None = None

    def votes(self, which: str) -> dict[str, set[str]]:
        raw = self.prepare_votes if which == "prepare" else self.accept_votes
        return {d: set(s) for d, s in raw}

    def with_votes(self, which: str, votes: dict[str, set[str]]) -> "NodeState":
        packed = tuple(sorted((d, tuple(sorted(s))) for d, s in votes.items()))
        if which == "prepare":
            return replace(self, prepare_votes=packed)
        return replace(self, accept_votes=packed)


class Network:
    """Synchronous message fabric with one-slot delivery and a full trace."""

    def __init__(self, delay: int = 1):
        self.delay = delay
        self._queue: dict[int, list[NetMessage]] = defaultdict(list)
        self.trace: list[str] = []
        self.message_count = 0

    def send(self, slot: int, sender: str, recipient: str, kind: str,
             digest: str, flags: str = "") -> None:
        msg = NetMessage(
            send_slot=slot,
            deliver_slot=slot + self.delay,
            sender=sender,
            recipient=recipient,
            kind=kind,
            digest=digest,
            tag=message_tag(sender, kind, digest, recipient),
            flags=flags,
        )
        self._queue[msg.deliver_slot].append(msg)
        self.trace.append(msg.trace_line())
        self.message_count += 1

    def deliver(self, slot: int) -> list[NetMessage]:
        batch = self._queue.pop(slot, [])
        return sorted(batch, key=lambda m: (m.sender, m.recipient, m.kind, m.digest))


@dataclass(frozen=True)
class ViewOutcome:
    committed_digest: str | None
    unanimous: bool
    client_accepted: bool
    abnormal_replies: int
    abort_reason: str | None
    next_leader: str
    message_count: int
    trace: tuple[str, ...]
    per_node: dict


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
                   peers: list[str]) -> tuple[NodeState, list[tuple[str, str, str]]]:
    """Pure honest-node transition: returns new state and (recipient, kind,
    digest) outbox entries. Messages with bad tags are dropped."""
    if not verify_tag(msg):
        return state, []
    out: list[tuple[str, str, str]] = []

    if msg.kind == "request" and state.is_leader and state.accepted_digest is None:
        digest = msg.digest
        votes = state.votes("prepare")
        votes.setdefault(digest, set()).add(state.node_id)
        state = replace(state, accepted_digest=digest, sent_prepare=True)
        state = state.with_votes("prepare", votes)
        for peer in peers:
            if peer != state.node_id:
                out.append((peer, "pre-prepare", digest))
        return state, out

    if (
        msg.kind == "pre-prepare"
        and state.accepted_digest is None
        and msg.sender == state.leader_id
    ):
        digest = msg.digest
        votes = state.votes("prepare")
        votes.setdefault(digest, set()).add(msg.sender)   # the leader's vote
        state = replace(state, accepted_digest=digest)
        state = state.with_votes("prepare", votes)
        if not state.sent_prepare:
            state = replace(state, sent_prepare=True)
            for peer in peers:
                if peer != state.node_id:
                    out.append((peer, "prepare", digest))
        return state, out

    if msg.kind == "prepare":
        votes = state.votes("prepare")
        votes.setdefault(msg.digest, set()).add(msg.sender)
        state = state.with_votes("prepare", votes)
    elif msg.kind == "accept":
        votes = state.votes("accept")
        votes.setdefault(msg.digest, set()).add(msg.sender)
        state = state.with_votes("accept", votes)

    # stage completion checks run on every delivery
    if (
        not state.sent_accept
        and state.accepted_digest is not None
    ):
        supporters = state.votes("prepare").get(state.accepted_digest, set())
        supporters.discard(state.node_id)
        if len(supporters) >= quorums.prepare_quorum:
            accepts = state.votes("accept")
            accepts.setdefault(state.accepted_digest, set()).add(state.node_id)
            state = replace(state, sent_accept=True)
            state = state.with_votes("accept", accepts)
            for peer in peers:
                if peer != state.node_id:
                    out.append((peer, "accept", state.accepted_digest))

    if state.committed is None and state.accepted_digest is not None:
        agree = state.votes("accept").get(state.accepted_digest, set())
        if state.sent_accept:
            agree.add(state.node_id)
        if len(agree) >= quorums.accept_quorum:
            state = replace(state, committed=state.accepted_digest)
            out.append(("client", "reply", state.accepted_digest))

    return state, out


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


def run_view(
    nodes,
    proposal: BlockProposal,
    config: ConsensusConfig,
    view: int = 0,
    strategies: dict | None = None,
) -> ViewOutcome:
    """Execute one consensus view over the ordered committee.

    nodes: ordered (id, Behavior) pairs fixing the rotation; the leader is
    nodes[view % n]. strategies maps byzantine ids to a ReplicaStrategy
    (default SPLIT). Every strategy is deterministic, so the trace is a
    function of the arguments.
    """
    roster = list(nodes)
    if len(roster) != config.n:
        raise ValueError(f"expected {config.n} committee members, got {len(roster)}")
    order = [node_id for node_id, _ in roster]
    behaviors = dict(roster)
    leader = order[view % config.n]
    strategies = strategies or {}

    net = Network()
    states = {
        node_id: NodeState(node_id=node_id, is_leader=(node_id == leader),
                           leader_id=leader)
        for node_id in order
    }
    digest = proposal.digest()
    byz_acted: dict[str, set[str]] = defaultdict(set)
    reply_digests: list[str] = []    # what the client receives

    net.send(0, "client", leader, "request", digest)

    pre_prepare_seen = False
    for slot in range(1, config.max_slots):
        batch = net.deliver(slot)
        if not batch:
            continue
        stage_sent: list[tuple[str, str, str, str]] = []
        for msg in batch:
            recipient = msg.recipient
            if recipient == "client":
                continue
            behavior = behaviors.get(recipient)
            if behavior is Behavior.CRASH:
                continue
            if msg.kind == "pre-prepare":
                pre_prepare_seen = True
            if behavior is Behavior.BYZANTINE:
                strat = strategies.get(recipient, ReplicaStrategy.SPLIT)
                # a byzantine node reacts once per stage it observes
                if msg.kind == "request" and recipient == leader:
                    if "lead" not in byz_acted[recipient]:
                        byz_acted[recipient].add("lead")
                        for peer, kind, dig in _byzantine_outbox(
                            recipient, strat, "pre-prepare", msg.digest, order
                        ):
                            stage_sent.append((recipient, peer, kind, dig))
                elif msg.kind == "pre-prepare":
                    if "prepare" not in byz_acted[recipient]:
                        byz_acted[recipient].add("prepare")
                        for peer, kind, dig in _byzantine_outbox(
                            recipient, strat, "prepare", msg.digest, order
                        ):
                            stage_sent.append((recipient, peer, kind, dig))
                elif msg.kind == "prepare":
                    if "accept" not in byz_acted[recipient]:
                        byz_acted[recipient].add("accept")
                        for peer, kind, dig in _byzantine_outbox(
                            recipient, strat, "accept", msg.digest, order
                        ):
                            stage_sent.append((recipient, peer, kind, dig))
                elif msg.kind == "accept":
                    if "reply" not in byz_acted[recipient]:
                        byz_acted[recipient].add("reply")
                        for _, kind, dig in _byzantine_outbox(
                            recipient, strat, "reply", msg.digest, ["client", recipient]
                        ):
                            stage_sent.append((recipient, "client", kind, dig))
                continue
            new_state, out = _handle_honest(states[recipient], msg, config, order)
            states[recipient] = new_state
            for peer, kind, dig in out:
                stage_sent.append((recipient, peer, kind, dig))
        for sender, peer, kind, dig in stage_sent:
            net.send(slot, sender, peer, kind, dig)
            if peer == "client":
                reply_digests.append(dig)
        if net.message_count > config.message_budget:
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
    abnormal = 0
    client_accepted = False
    if reply_digests:
        top = max(set(reply_digests), key=lambda d: (reply_digests.count(d), d))
        abnormal = sum(1 for d in reply_digests if d != top)
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
    next_leader = order[(view + 1) % config.n]

    return ViewOutcome(
        committed_digest=committed_digest,
        unanimous=unanimous,
        client_accepted=client_accepted,
        abnormal_replies=abnormal,
        abort_reason=abort_reason,
        next_leader=next_leader,
        message_count=net.message_count,
        trace=tuple(net.trace),
        per_node=per_node,
    )


def model_check_safety(config: ConsensusConfig | None = None) -> dict:
    """Bounded adversary enumeration at one committee size.

    Every combination of replica strategies for the l corrupted nodes is
    run, under an honest leader, a byzantine leader (equivocating, silent,
    or junk-broadcasting), and a crashed leader. Checks: honest nodes never
    commit divergent digests; the failure-free run commits in one view;
    message counts stay within the 5 n^2 budget.
    """
    config = config or ConsensusConfig()
    order = [f"n{i:02d}" for i in range(config.n)]
    proposal = BlockProposal(height=1, tx_digests=("tx0", "tx1"), proposer=order[0])
    strategies = list(ReplicaStrategy)

    runs = 0
    divergent = 0
    committed_runs = 0
    max_messages = 0
    failure_free_committed = False

    # failure-free baseline
    roster = [(node_id, Behavior.HONEST) for node_id in order]
    out = run_view(roster, proposal, config)
    runs += 1
    max_messages = max(max_messages, out.message_count)
    failure_free_committed = out.committed_digest is not None and out.client_accepted
    if not out.unanimous:
        divergent += 1

    cases = []
    # honest leader, l byzantine replicas
    for combo in itertools.product(strategies, repeat=config.l):
        byz = order[-config.l:] if config.l else []
        cases.append((byz, dict(zip(byz, combo)), None))
    # byzantine leader (counts toward l) plus l-1 byzantine replicas
    if config.l >= 1:
        for leader_strat in (ReplicaStrategy.SPLIT, ReplicaStrategy.SILENT,
                             ReplicaStrategy.WRONG_DIGEST):
            for combo in itertools.product(strategies, repeat=config.l - 1):
                byz = [order[0]] + (order[-(config.l - 1):] if config.l > 1 else [])
                strat_map = {order[0]: leader_strat}
                strat_map.update(dict(zip(byz[1:], combo)))
                cases.append((byz, strat_map, None))
        # crashed leader
        for combo in itertools.product(strategies, repeat=config.l - 1):
            byz = order[-(config.l - 1):] if config.l > 1 else []
            cases.append((byz, dict(zip(byz, combo)), order[0]))

    for byz, strat_map, crashed in cases:
        roster = []
        for node_id in order:
            if node_id == crashed:
                roster.append((node_id, Behavior.CRASH))
            elif node_id in byz:
                roster.append((node_id, Behavior.BYZANTINE))
            else:
                roster.append((node_id, Behavior.HONEST))
        out = run_view(roster, proposal, config, strategies=strat_map)
        runs += 1
        max_messages = max(max_messages, out.message_count)
        if not out.unanimous:
            divergent += 1
        if out.committed_digest is not None:
            committed_runs += 1

    return {
        "runs": runs,
        "divergent": divergent,
        "committed_runs": committed_runs,
        "failure_free_committed": failure_free_committed,
        "max_messages": max_messages,
        "message_budget": config.message_budget,
    }


# ---------------------------------------------------------------------------
# reputation experiments
# ---------------------------------------------------------------------------

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
    """
    for target in targets:
        for rater in raters:
            if rater == target:
                continue
            trials = int(rng.integers(5, 11))
            p = p_of(slot, rater, target)
            pos = trials if p == 1.0 else int(rng.binomial(trials, p))
            engine.record_outcomes(slot, rater, target, pos, trials - pos)
            tracker.update(rater, target, pos, trials - pos)


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
    raters: int = 10,
    onset: int = 5,
    p_before: float = 0.8,
    p_after: float = 0.1,
    weight_config: WeightConfig | None = None,
) -> tuple[list[float], list[float]]:
    """Per-slot fraction of misbehaving nodes scored below the threshold.

    A fixed committee of honest raters scores every misbehaving node from
    observed per-slot consensus interactions (5 to 10 per pair per slot).
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
    rater_ids = [f"r{i:03d}" for i in range(min(raters, population - misbehaving_count))]
    target_ids = [f"m{i:03d}" for i in range(misbehaving_count)]
    engine = _engine(weight_config, rater_ids, target_ids)
    tracker = LinearReputationTracker()

    def p_of(slot, rater, target):
        return p_before if slot < onset else p_after

    sl_series: list[float] = []
    lr_series: list[float] = []
    for slot in range(1, slots + 1):
        record_interactions(rng, slot, target_ids, rater_ids, p_of, engine, tracker)
        sl_below = lr_below = 0
        for target in target_ids:
            if engine.average_reputation(target, at=slot + 1, raters=rater_ids) < threshold:
                sl_below += 1
            if tracker.average_reputation(target, rater_ids) < threshold:
                lr_below += 1
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
    onset = min(5, slots)
    raters = [f"r{i:03d}" for i in range(10)]
    bad = [f"m{i:03d}" for i in range(misbehaving_count)]
    n_honest = max(1, min(10, population - misbehaving_count - len(raters)))
    honest = [f"h{i:03d}" for i in range(n_honest)]
    engine = _engine(weight_config, raters, bad + honest)
    tracker = LinearReputationTracker()

    def p_of(slot, rater, target):
        return 0.8 if (target in honest or slot < onset) else 0.1

    rng = np.random.default_rng(seed)
    rows: list[tuple[int, str, float, float]] = []
    for slot in range(slots):
        record_interactions(rng, slot, bad + honest, raters, p_of, engine, tracker)
        for scheme, score in (
            ("SL", lambda t: engine.average_reputation(t, at=slot + 1, raters=raters)),
            ("LR", lambda t: tracker.average_reputation(t, raters=raters)),
        ):
            rows.append((
                slot, scheme,
                float(np.mean([score(t) for t in honest])),
                float(np.mean([score(t) for t in bad])),
            ))
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
    candidates: int = 9,
    n_raters: int = 50,
    slots: int = 8,
    onset: int = 5,
    seed_base: int = 0,
) -> list[tuple[float, float, float]]:
    """Monte-Carlo probability that reputation gating yields a correct
    block when colluders fabricate mutual praise and then misbehave.

    colluder_fraction is the corrupted share of the committee candidates;
    the attack scenario keeps it at or above one third. Each seed's
    interaction stream is scored once by both schemes, so a sweep over
    thresholds compares selection quality, not sampling noise. Returns
    one (threshold, sl, lr) row per threshold.
    """
    if not 0.0 <= colluder_fraction <= 1.0:
        raise ValueError("colluder fraction must lie in [0, 1]")
    n_colluders = round(colluder_fraction * candidates)
    if n_colluders == 0:
        return [(th, 1.0, 1.0) for th in thresholds]
    if n_colluders >= candidates:
        return [(th, 0.0, 0.0) for th in thresholds]
    rater_ids = [f"r{i:03d}" for i in range(n_raters)]
    cand_ids = rater_ids[:candidates]
    colluders = set(cand_ids[:n_colluders])

    def p_of(slot, rater, target):
        if target not in colluders:
            return 0.95
        if rater in colluders:
            return 1.0   # fabricated mutual praise
        return 0.8 if slot < onset else 0.1

    scored: list[tuple[dict[str, float], dict[str, float]]] = []
    for s in range(seeds):
        rng = np.random.default_rng(seed_base + s)
        engine = ReputationEngine()
        tracker = LinearReputationTracker()
        for i, rid in enumerate(rater_ids):
            engine.register(rid, arrival_hour=8 + (i % 5))
        for slot in range(1, slots + 1):
            record_interactions(rng, slot, cand_ids, rater_ids, p_of, engine, tracker)
        sl_scores: dict[str, float] = {}
        lr_scores: dict[str, float] = {}
        for target in cand_ids:
            other = [r for r in rater_ids if r != target]
            sl_scores[target] = engine.average_reputation(target, at=slots + 1, raters=other)
            lr_scores[target] = tracker.average_reputation(target, other)
        scored.append((sl_scores, lr_scores))

    rows = []
    for th in thresholds:
        sl_hits = lr_hits = 0.0
        for sl_scores, lr_scores in scored:
            sl_hits += correct_block_probability(sl_scores, colluders, th)
            lr_hits += correct_block_probability(lr_scores, colluders, th)
        rows.append((th, sl_hits / seeds, lr_hits / seeds))
    return rows
