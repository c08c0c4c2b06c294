"""A reference run_view for the oracle tests: the slot-by-slot delivery
that consensus.run_view replaced with one pass per slot, kept as it was.

Every delivery tests its recipient for a crash, a sender's log entries are
expanded per message by _delivery_order, and an honest replica's
transition is one call of _handle_honest. It takes valid arguments only:
the input rules are consensus.run_view's. Nothing under src/ imports it.
"""

import hashlib
import itertools
from collections import Counter

from parkedchain.consensus import Behavior, _NodeState, ReplicaStrategy, ViewOutcome

_MAX_SLOTS = 8
_CLIENT = ("client",)
_BYZANTINE_STAGE = {"request": "pre-prepare", "pre-prepare": "prepare",
                    "prepare": "accept", "accept": "reply"}


def _wrong_digest(digest: str) -> str:
    return hashlib.sha256(b"equivocation:" + digest.encode()).hexdigest()[:16]


def _handle_honest(state: _NodeState, sender: str, kind: str, digest: str,
                   prepare_quorum: int, accept_quorum: int, peers: list[str]) -> list[tuple]:
    me = state.node_id
    if kind == "request" and me == state.leader_id and state.accepted_digest is None:
        state.accepted_digest = digest
        return [(peers, "pre-prepare", digest)]

    if (
        kind == "pre-prepare"
        and state.accepted_digest is None
        and sender == state.leader_id
    ):
        state.accepted_digest = digest
        state.prepare_votes.setdefault(digest, set()).add(sender)   # the leader's vote
        return [(peers, "prepare", digest)]

    if kind == "prepare":
        state.prepare_votes.setdefault(digest, set()).add(sender)
    elif kind == "accept":
        state.accept_votes.setdefault(digest, set()).add(sender)

    digest = state.accepted_digest
    if digest is None:
        return []
    out = []
    if (
        not state.sent_accept
        and len(state.prepare_votes.get(digest, ())) >= prepare_quorum
    ):
        state.sent_accept = True
        state.accept_votes.setdefault(digest, set()).add(me)
        out.append((peers, "accept", digest))
    if (
        state.committed is None
        and len(state.accept_votes.get(digest, ())) >= accept_quorum
    ):
        state.committed = digest
        out.append((_CLIENT, "reply", digest))
    return out


def _byzantine_outbox(strategy: ReplicaStrategy, kind: str, digest: str,
                      others: list[str]) -> list[tuple]:
    if strategy is ReplicaStrategy.SILENT:
        return []
    if strategy is ReplicaStrategy.ACT_HONEST:
        told = len(others)
    elif strategy is ReplicaStrategy.WRONG_DIGEST:
        told = 0
    else:  # SPLIT
        told = len(others) // 2
    groups = ((others[:told], digest), (others[told:], _wrong_digest(digest)))
    return [(group, kind, sent) for group, sent in groups if group]


def _delivery_order(entries: list[tuple], recipients: list[str]):
    if len(entries) == 1:
        _, _, _, kind, digest = entries[0]
        return zip(recipients, itertools.repeat(kind), itertools.repeat(digest))
    return sorted((r, kind, digest) for _, _, rs, kind, digest in entries for r in rs)


def run_view(nodes, proposal, config, view=0, strategies=None) -> ViewOutcome:
    roster = list(nodes)
    order = [node_id for node_id, _ in roster]
    behaviors = dict(roster)
    leader = order[view % config.n]
    strategies = strategies or {}

    states = {node_id: _NodeState(node_id, leader) for node_id in order
              if behaviors[node_id] is Behavior.HONEST}
    crashed = {node_id for node_id in order if behaviors[node_id] is Behavior.CRASH}
    peers = {node_id: [p for p in order if p != node_id] for node_id in order}
    delivery = {node_id: sorted(p) for node_id, p in peers.items()}
    delivery["client"] = [leader]
    byz_acted: set[tuple[str, str]] = set()
    prepare_quorum, accept_quorum = config.prepare_quorum, config.accept_quorum
    budget = config.message_budget

    log: list[tuple] = [(0, "client", (leader,), "request", proposal.digest())]
    message_count = 1
    pre_prepare_seen = False
    first = 0
    for slot in range(1, _MAX_SLOTS):
        inbox: dict[str, list[tuple]] = {}
        for entry in log[first:]:
            if entry[3] != "reply":
                inbox.setdefault(entry[1], []).append(entry)
        first = len(log)
        for sender in sorted(inbox):
            for recipient, kind, digest in _delivery_order(inbox[sender], delivery[sender]):
                if recipient in crashed:
                    continue
                if kind == "pre-prepare":
                    pre_prepare_seen = True
                state = states.get(recipient)
                if state is None:
                    stage = _BYZANTINE_STAGE[kind]
                    if (recipient, stage) in byz_acted:
                        continue
                    byz_acted.add((recipient, stage))
                    out = _byzantine_outbox(
                        strategies.get(recipient, ReplicaStrategy.SPLIT), stage, digest,
                        _CLIENT if stage == "reply" else peers[recipient],
                    )
                else:
                    out = _handle_honest(state, sender, kind, digest, prepare_quorum,
                                         accept_quorum, peers[recipient])
                for recipients, sent_kind, sent_digest in out:
                    log.append((slot, recipient, recipients, sent_kind, sent_digest))
                    message_count += len(recipients)
        if message_count > budget:
            break

    per_node = {node_id: state.committed for node_id, state in states.items()}
    committed_digests = {d for d in per_node.values() if d is not None}
    unanimous = len(committed_digests) <= 1
    committed_digest = committed_digests.pop() if len(committed_digests) == 1 else None

    replies = Counter()
    for _, _, recipients, kind, digest in log:
        if kind == "reply":
            replies[digest] += len(recipients)
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
        message_count=message_count,
        per_node=per_node,
        log=tuple(log),
    )
