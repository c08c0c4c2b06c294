"""Committee selection, the six-stage view protocol, and the experiments."""

import copy
import dataclasses
import hashlib
import math
import random
import re
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parkedchain import consensus
from parkedchain.consensus import (
    Behavior,
    BlockProposal,
    ConsensusConfig,
    ReplicaStrategy,
    collusion_experiment,
    correct_block_probability,
    decay_experiment,
    detection_experiment,
    full_detection_slot,
    model_check_safety,
    run_view,
    select_consensus_nodes,
)
from parkedchain.reputation import LinearReputationTracker

from _view_reference import run_view as reference_view


def committee(n, byzantine=(), crashed=()):
    out = []
    for i in range(n):
        nid = f"n{i:02d}"
        if nid in byzantine:
            out.append((nid, Behavior.BYZANTINE))
        elif nid in crashed:
            out.append((nid, Behavior.CRASH))
        else:
            out.append((nid, Behavior.HONEST))
    return out


def proposal(height=1, proposer="n00"):
    return BlockProposal(height, ("tx-a", "tx-b"), proposer)


class TestConfig:
    def test_rejects_undersized_committee(self):
        with pytest.raises(ValueError):
            ConsensusConfig(n=9, l=3)

    @pytest.mark.parametrize("sizes", [
        {"n": 4.0, "l": 1}, {"n": 4, "l": True},
    ], ids=["n-float", "l-bool"])
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError, match="must be an integer"):
            ConsensusConfig(**sizes)

    def test_accepts_numpy_integer_sizes(self):
        cfg = ConsensusConfig(n=np.int64(10), l=np.int32(3))
        assert cfg == ConsensusConfig(n=10, l=3) and type(cfg.n) is type(cfg.l) is int

    def test_quorums(self):
        cfg = ConsensusConfig(n=10, l=3)
        assert cfg.prepare_quorum == 6
        assert cfg.accept_quorum == 7
        assert cfg.message_budget == 500


class TestSelection:
    def test_pinned_ordering(self):
        reps = {"A": 0.9, "B": 0.3, "C": 0.7, "D": 0.8}
        assert select_consensus_nodes(reps, 3) == ["A", "D", "C"]

    def test_tie_break_by_lowest_id(self):
        reps = {c: 0.5 for c in "EDCBA"}
        assert select_consensus_nodes(reps, 3) == ["A", "B", "C"]

    def test_lowest_node_never_selected(self):
        reps = {f"v{i}": 0.5 + 0.01 * i for i in range(8)}
        reps["loser"] = 0.01
        assert "loser" not in select_consensus_nodes(reps, 8)

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, "0.4", None,
                                       True, np.True_])
    def test_scores_must_be_finite_reals(self, score):
        # a NaN breaks the sort, and True would outrank every score below
        # 1: either would put "b" on the committee
        reps = {"a": 0.2, "b": score, "c": 0.9, "d": 0.5}
        with pytest.raises(ValueError, match="finite real numbers"):
            select_consensus_nodes(reps, 2)

    def test_population_must_cover_committee(self):
        with pytest.raises(ValueError):
            select_consensus_nodes({"A": 0.9}, 3)


class TestRunView:
    def test_failure_free_small_committee(self):
        cfg = ConsensusConfig(n=5, l=0)
        out = run_view(committee(5), proposal(), cfg)
        assert out.committed_digest is not None
        assert out.unanimous and out.client_accepted
        assert out.abort_reason is None
        assert set(out.per_node.values()) == {out.committed_digest}
        assert out.message_count <= cfg.message_budget

    def test_split_byzantine_replicas(self):
        cfg = ConsensusConfig(n=10, l=3)
        byz = ("n07", "n08", "n09")
        out = run_view(committee(10, byzantine=byz), proposal(), cfg,
                       strategies={b: ReplicaStrategy.SPLIT for b in byz})
        assert out.committed_digest is not None
        assert out.unanimous
        assert len(out.per_node) == 7
        assert out.message_count <= cfg.message_budget

    def test_wrong_digest_replicas(self):
        cfg = ConsensusConfig(n=10, l=3)
        byz = ("n04", "n05", "n06")
        out = run_view(committee(10, byzantine=byz), proposal(), cfg,
                       strategies={b: ReplicaStrategy.WRONG_DIGEST for b in byz})
        assert out.unanimous and out.committed_digest is not None

    def test_silent_replicas_do_not_trip_client(self):
        cfg = ConsensusConfig(n=10, l=3)
        byz = ("n04", "n05", "n06")
        out = run_view(committee(10, byzantine=byz), proposal(), cfg,
                       strategies={b: ReplicaStrategy.SILENT for b in byz})
        # silent nodes send nothing: no abnormal replies to count
        assert out.client_accepted
        assert out.abnormal_replies == 0

    def test_crashed_leader_aborts_and_rotates(self):
        cfg = ConsensusConfig(n=10, l=3)
        out = run_view(committee(10, crashed=("n00",)), proposal(), cfg)
        assert out.committed_digest is None
        assert out.abort_reason == "leader-timeout"
        assert out.next_leader == "n01"

    def test_equivocating_leader_never_splits_honest_nodes(self):
        cfg = ConsensusConfig(n=10, l=3)
        out = run_view(
            committee(10, byzantine=("n00",)), proposal(), cfg,
            strategies={"n00": ReplicaStrategy.SPLIT},
        )
        committed = {d for d in out.per_node.values() if d is not None}
        assert len(committed) <= 1

    @pytest.mark.parametrize("roster, match", [
        ([(nid, Behavior.HONEST) for nid in "aabc"], "distinct"),
        ([(nid, Behavior.HONEST) for nid in ("a", "b", "client", "c")], "reserved"),
        # a behaviour string is no Behavior: no node would run as honest
        ([(nid, "honest") for nid in "abcd"], r"pairs, got \[\('a', 'honest'\)"),
        ([(i, Behavior.HONEST) for i in range(4)], r"pairs, got \[\(0, "),
        ([(["a"], Behavior.HONEST)] + [(nid, Behavior.HONEST) for nid in "bcd"],
         r"pairs, got \[\(\['a'\], "),
        # a bare two-character id unpacks into a one-character (id, behavior)
        (["ab", "cd", "ef", "gh"], r"pairs, got \['ab', 'cd', 'ef', 'gh'\]"),
    ], ids=["duplicate-id", "reserved-id", "behavior-string", "int-id", "unhashable-id",
            "bare-string"])
    def test_rejects_bad_committee(self, roster, match):
        with pytest.raises(ValueError, match=match):
            run_view(roster, proposal(), ConsensusConfig(n=4, l=1))

    @pytest.mark.parametrize("roster", [committee(4), committee(4, crashed=("n01",))],
                             ids=["honest", "crashed"])
    def test_rejects_strategy_for_non_byzantine_member(self, roster):
        with pytest.raises(ValueError, match="not byzantine"):
            run_view(roster, proposal(), ConsensusConfig(n=4, l=1),
                     strategies={"n01": ReplicaStrategy.SILENT})

    @pytest.mark.parametrize("strategies, match", [
        ({"n03": "silent"}, "ReplicaStrategy members"),
        ({"n03": "bogus"}, "ReplicaStrategy members"),
        ({"n03": None}, "ReplicaStrategy members"),
        ({"n03": 0}, "ReplicaStrategy members"),
        ([("n03", ReplicaStrategy.SILENT)], r"None or a dict, got \[\('n03', "),
        ("n03", "None or a dict, got 'n03'"),
    ], ids=["silent", "bogus", "None", "0", "list", "string"])
    def test_rejects_unknown_strategy(self, strategies, match):
        # not run as SPLIT, the default for a byzantine node without one
        with pytest.raises(ValueError, match=match):
            run_view(committee(4, byzantine=("n03",)), proposal(), ConsensusConfig(n=4, l=1),
                     strategies=strategies)

    @pytest.mark.parametrize("view", [1.5, True, -1, "1", None])
    def test_rejects_a_view_that_is_not_a_count(self, view):
        with pytest.raises(ValueError, match=r"view must be an integer >= 0, got "):
            run_view(committee(4), proposal(), ConsensusConfig(n=4, l=1), view=view)

    def test_view_may_be_a_numpy_integer(self):
        cfg = ConsensusConfig(n=4, l=1)
        assert (run_view(committee(4), proposal(), cfg, view=np.int64(5))
                == run_view(committee(4), proposal(), cfg, view=5))

    def test_strategy_for_id_outside_committee_is_ignored(self):
        cfg = ConsensusConfig(n=4, l=1)
        out = run_view(committee(4), proposal(), cfg,
                       strategies={"n99": ReplicaStrategy.SILENT})
        assert out == run_view(committee(4), proposal(), cfg)

    def test_trace_is_deterministic(self):
        cfg = ConsensusConfig(n=10, l=3)
        byz = ("n07", "n08", "n09")
        runs = []
        for _ in range(2):
            out = run_view(committee(10, byzantine=byz), proposal(), cfg,
                           strategies={b: ReplicaStrategy.SPLIT for b in byz})
            runs.append("\n".join(out.trace))
        assert runs[0] == runs[1]

    def test_failure_free_view_logs_one_entry_per_broadcast(self):
        # the request, the pre-prepare, 9 prepares, 10 accepts and 10 replies
        out = run_view(committee(10), proposal(), ConsensusConfig(n=10, l=3))
        assert [entry[3] for entry in out.log] == (
            ["request", "pre-prepare"] + ["prepare"] * 9 + ["accept"] * 10 + ["reply"] * 10)
        assert out.message_count == len(out.messages) == 191

    def test_messages_decoded_once(self):
        byz = ("n07", "n08", "n09")
        out = run_view(committee(10, byzantine=byz), proposal(), ConsensusConfig(n=10, l=3))
        first, second = out.messages, out.messages
        assert first == second and first is second
        assert out.trace == tuple(msg.trace_line() for msg in first)

    def test_proposal_hashed_once(self, monkeypatch):
        # run_view and the client's check read the digest the proposal stored when built
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda body: hashed.append(body) or sha256(body))
        block = proposal()
        cfg = ConsensusConfig(n=4, l=1)
        outs = [run_view(committee(4), block, cfg, view=v) for v in range(3)]
        assert all(out.committed_digest == block.digest() for out in outs)
        assert hashed == [b"1|n00|tx-a|tx-b"]

    @pytest.mark.parametrize("height, tx_digests, proposer, match", [
        # "abc" would hash as the three digests ("a", "b", "c")
        (1, "abc", "n00", "tx_digests"), (1, b"abc", "n00", "tx_digests"),
        (1, None, "n00", "tx_digests"), (1, ("tx-a", 2), "n00", "tx_digests"),
        (-1, (), "n00", "height"), (1.5, (), "n00", "height"), (True, (), "n00", "height"),
        ("1", (), "n00", "height"), (1, (), None, "proposer"), (1, (), b"n00", "proposer"),
    ], ids=["str-digests", "bytes-digests", "no-digests", "int-digest", "negative-height",
            "half-height", "bool-height", "str-height", "no-proposer", "bytes-proposer"])
    def test_proposal_rejects_bad_fields(self, height, tx_digests, proposer, match):
        value = {"height": height, "tx_digests": tx_digests, "proposer": proposer}[match]
        with pytest.raises(ValueError, match=f"{match} must be .*, got {re.escape(repr(value))}"):
            BlockProposal(height, tx_digests, proposer)

    def test_proposal_stores_plain_fields(self):
        block = BlockProposal(np.int64(1), ["tx-a", "tx-b"], "n00")
        assert block == proposal() and block.digest() == proposal().digest()
        assert type(block.height) is int and type(block.tx_digests) is tuple

    @pytest.mark.parametrize("nodes, block, cfg, match", [
        (committee(4), proposal(), None, "config must be a ConsensusConfig, got None"),
        (committee(4), proposal(), (4, 1), r"config must be a ConsensusConfig, got \(4, 1\)"),
        (committee(4), "abc", ConsensusConfig(4, 1),
         "proposal must be a BlockProposal, got 'abc'"),
        (committee(4), None, ConsensusConfig(4, 1), "proposal must be a BlockProposal, got None"),
        (None, proposal(), ConsensusConfig(4, 1), "nodes must be a list or tuple, got None"),
        (dict(committee(4)), proposal(), ConsensusConfig(4, 1),
         r"nodes must be a list or tuple, got \{'n00': "),
    ], ids=["no-config", "tuple-config", "str-proposal", "no-proposal", "no-nodes", "dict-nodes"])
    def test_rejects_a_config_proposal_or_nodes_of_another_type(self, nodes, block, cfg, match):
        # once an AttributeError or TypeError from deep inside the view
        with pytest.raises(ValueError, match=match):
            run_view(nodes, block, cfg)

    def test_several_broadcasts_of_one_sender_delivered_in_tuple_order(self, monkeypatch):
        """The protocol sends at most one broadcast per honest node and slot;
        the delivery order must not depend on that. Each honest replica
        records the prepare and accept votes it tallies, and over the corpus
        they come in NetMessage tuple order, also from senders that logged
        several entries in one slot (a SPLIT node's two divide its peers)."""
        tallied = []

        class Voters(set):
            def add(self, voter):
                tallied.append((voter, *self.cell))
                super().add(voter)

        class Tally(dict):
            def setdefault(self, digest, default):
                if digest not in self:
                    self[digest] = Voters()
                    self[digest].cell = (self.owner, self.kind, digest)
                return self[digest]

        @dataclasses.dataclass
        class Recording(consensus.NodeState):
            def __post_init__(self):
                self.prepare_votes, self.accept_votes = Tally(), Tally()
                for kind, tally in zip(("prepare", "accept"),
                                       (self.prepare_votes, self.accept_votes)):
                    tally.owner, tally.kind = self.node_id, kind

        monkeypatch.setattr(consensus, "NodeState", Recording)
        several = 0
        for roster, block, cfg, view, strategies in _view_corpus():
            tallied.clear()
            out = run_view(roster, block, cfg, view=view, strategies=strategies)
            if out.message_count > cfg.message_budget:
                continue     # the last slot's messages were not delivered
            honest = {nid for nid, behavior in roster if behavior is Behavior.HONEST}
            leader = roster[view % cfg.n][0]
            expected = [(m.sender, m.recipient, m.kind, m.digest) for m in sorted(out.messages)
                        if m.kind in ("prepare", "accept") and m.recipient in honest]
            # a replica's own accept vote, and the leader's pre-prepare counted as
            # its prepare vote, are tallied without a message (a leader never
            # sends a prepare)
            assert [vote for vote in tallied if vote[0] != vote[1]
                    and not (vote[0] == leader and vote[2] == "prepare")] == expected
            entries = Counter((slot, sender) for slot, sender, _, kind, _ in out.log
                              if kind in ("prepare", "accept"))
            several += any(count > 1 for count in entries.values())
        assert several > 0

    def test_commit_needs_accept_quorum_in_trace(self):
        cfg = ConsensusConfig(n=10, l=3)
        out = run_view(committee(10), proposal(), cfg)
        rows = [line.split(",") for line in out.trace]
        senders = {row[1] for row in rows if row[3] == "accept"}
        assert len(senders) + 1 >= cfg.accept_quorum  # +1: own vote is not resent


def _view_corpus():
    """Seeded random views at three committee sizes: shuffled rotations,
    byzantine and crashed nodes anywhere (up to l + 1 faults), every
    strategy, some byzantine nodes left on the default, views up to 3n."""
    rng = random.Random(6)
    for n, l in ((4, 1), (7, 2), (10, 3)):
        cfg = ConsensusConfig(n=n, l=l)
        for _ in range(60):
            ids = [f"n{i:02d}" for i in range(n)]
            rng.shuffle(ids)
            faulty = rng.sample(ids, rng.randint(0, l + 1))
            crashed = set(faulty[:rng.randint(0, len(faulty))])
            roster = [(nid, Behavior.CRASH if nid in crashed
                       else Behavior.BYZANTINE if nid in faulty else Behavior.HONEST)
                      for nid in ids]
            strategies = {nid: rng.choice(list(ReplicaStrategy)) for nid in faulty
                          if nid not in crashed and rng.random() < 0.75}
            block = BlockProposal(rng.randint(1, 9),
                                  tuple(f"tx{rng.randrange(99)}" for _ in range(rng.randint(0, 3))),
                                  rng.choice(ids))
            yield roster, block, cfg, rng.randint(0, 3 * n), strategies


def test_view_outcomes_pinned():
    """Every field of every outcome in the corpus, traces included, plus
    the model-check summaries, hashed against a recorded digest."""
    seen = []
    for roster, block, cfg, view, strategies in _view_corpus():
        out = run_view(roster, block, cfg, view=view, strategies=strategies)
        seen.append((out.committed_digest, out.unanimous, out.client_accepted,
                     out.abnormal_replies, out.abort_reason, out.next_leader,
                     out.message_count, out.trace, sorted(out.per_node.items())))
    for n, l in ((4, 1), (7, 2)):
        seen.append(model_check_safety(ConsensusConfig(n=n, l=l)))
    assert len(seen) == 3 * 60 + 2
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "5d6e6ae1cdc304d21ad693e6b87b240b27055e65a1e085700f254c7a35ca7064"
    )


def test_every_sender_is_the_node_that_sent():
    """No node sends under another's id: each honest node's messages carry
    the one digest it accepted, which is its commit when it committed, and
    the only slot-0 message is the client's request."""
    honest_senders = 0
    for roster, block, cfg, view, strategies in _view_corpus():
        out = run_view(roster, block, cfg, view=view, strategies=strategies)
        assert [(m.sender, m.kind) for m in out.messages if m.send_slot == 0] == [
            ("client", "request")]
        honest = {nid for nid, behavior in roster if behavior is Behavior.HONEST}
        digests = defaultdict(set)
        for msg in out.messages:
            if msg.sender in honest:
                digests[msg.sender].add(msg.digest)
        for nid, sent in digests.items():
            assert len(sent) == 1, (nid, sent)
            assert out.per_node[nid] in (None, *sent)
        honest_senders += len(digests)
    assert honest_senders == 918


def test_every_log_entry_is_one_broadcast(monkeypatch):
    """Every sender logs (slot, sender, recipients, kind, digest) entries
    with at least one recipient, and only a SPLIT byzantine node logs two
    entries in one slot, one per digest, over the corpus and every
    model-check case at n=7, l=2."""
    views = [(roster, run_view(roster, block, cfg, view=view, strategies=strategies),
              strategies) for roster, block, cfg, view, strategies in _view_corpus()]
    run = consensus.run_view

    def recorded(roster, *args, strategies=None, **kwargs):
        out = run(roster, *args, strategies=strategies, **kwargs)
        views.append((roster, out, strategies))
        return out

    monkeypatch.setattr(consensus, "run_view", recorded)
    model_check_safety(ConsensusConfig(n=7, l=2))
    split_slots = 0
    for roster, out, strategies in views:
        behaviors = dict(roster)
        per_slot = Counter()
        for entry in out.log:
            assert type(entry) is tuple and len(entry) == 5, entry
            slot, sender, recipients, _, _ = entry
            assert len(recipients) >= 1, entry
            per_slot[slot, sender] += 1
        for (slot, sender), count in per_slot.items():
            if count > 1:
                assert behaviors[sender] is Behavior.BYZANTINE, (slot, sender)
                assert strategies.get(sender, ReplicaStrategy.SPLIT) is ReplicaStrategy.SPLIT
                split_slots += 1
    assert split_slots > 0


@st.composite
def views(draw):
    """A committee of 4 to 10 in a drawn rotation, each member of any
    behaviour, byzantine ones with any strategy or none, sometimes a
    crashed leader, and a view in 0..3n."""
    n = draw(st.integers(4, 10))
    cfg = ConsensusConfig(n=n, l=draw(st.integers(0, (n - 1) // 3)))
    ids = draw(st.permutations([f"n{i:02d}" for i in range(n)]))
    behaviors = draw(st.lists(st.sampled_from(list(Behavior)), min_size=n, max_size=n))
    view = draw(st.integers(0, 3 * n))
    if draw(st.booleans()):
        behaviors[view % n] = Behavior.CRASH
    roster = list(zip(ids, behaviors))
    strategies = {}
    for nid, behavior in roster:
        strategy = draw(st.none() | st.sampled_from(list(ReplicaStrategy)))
        if behavior is Behavior.BYZANTINE and strategy is not None:
            strategies[nid] = strategy
    block = BlockProposal(draw(st.integers(0, 9)), ("tx-a", "tx-b"), draw(st.sampled_from(ids)))
    return roster, block, cfg, view, strategies


def _fields(out):
    return {f.name: getattr(out, f.name) for f in dataclasses.fields(out)}


@settings(deadline=None, max_examples=400)
@given(views())
def test_run_view_matches_the_reference(case):
    """One-pass delivery gives the outcome and log of the slot-by-slot
    reference, field by field."""
    roster, block, cfg, view, strategies = case
    out = run_view(roster, block, cfg, view=view, strategies=strategies)
    assert _fields(out) == _fields(reference_view(roster, block, cfg, view, strategies))


def test_view_corpus_matches_the_reference():
    for roster, block, cfg, view, strategies in _view_corpus():
        out = run_view(roster, block, cfg, view=view, strategies=strategies)
        assert _fields(out) == _fields(reference_view(roster, block, cfg, view, strategies))


def test_message_count_matches_decoded_messages():
    for roster, block, cfg, view, strategies in _view_corpus():
        out = run_view(roster, block, cfg, view=view, strategies=strategies)
        assert out.message_count == len(out.messages) == len(out.trace)


class TestModelCheck:
    def test_bounded_enumeration_of_last_l_nodes_in_one_view(self):
        result = model_check_safety(ConsensusConfig(n=10, l=3))
        assert result["divergent"] == 0
        assert result["failure_free_committed"] is True
        assert result["max_messages"] <= result["message_budget"]
        assert result["runs"] >= 100


class TestDetectionExperiment:
    def test_threshold_zero_never_detects(self):
        series, _ = detection_experiment(20, 4, 0.0, slots=8, seed=0)
        assert series == [0.0] * 8

    def test_threshold_one_detects_immediately(self):
        series, _ = detection_experiment(20, 4, 1.0, slots=6, seed=0)
        assert series[0] == 1.0

    def test_sl_not_slower_than_lr_single_seed(self):
        sl, lr = detection_experiment(50, 10, 0.45, slots=15, seed=0)
        assert full_detection_slot(sl) is not None
        assert full_detection_slot(sl) <= full_detection_slot(lr)

    def test_per_seed_scores_pinned(self, monkeypatch):
        """The detection series are 0/1 step fractions that hide score
        drift, so pin every SL and LR average the threshold is applied to."""
        sl_seen, lr_seen = [], []
        sl_average = consensus.ReputationEngine.average_reputations
        lr_average = consensus.LinearReputationTracker.average_reputation

        def spy_sl(self, targets, at, raters):
            out = sl_average(self, targets, at, raters)
            sl_seen.extend(("SL", target, at, v) for target, v in zip(targets, out.tolist()))
            return out

        def spy_lr(self, target, raters):
            out = lr_average(self, target, raters)
            lr_seen.append(("LR", target, out))
            return out

        monkeypatch.setattr(consensus.ReputationEngine, "average_reputations", spy_sl)
        monkeypatch.setattr(consensus.LinearReputationTracker,
                            "average_reputation", spy_lr)
        for seed in range(3):
            detection_experiment(50, 10, 0.45, 15, seed)
        # per seed, slot and target: the SL score, then the LR score
        seen = [entry for pair in zip(sl_seen, lr_seen) for entry in pair]
        assert len(sl_seen) == len(lr_seen) == 3 * 15 * 10   # every target and slot
        assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
            "2fac5b3ac633aa290d9453266a213377b7a59413a8e103ef4e0927b8161cbaa9"
        )

    @pytest.mark.parametrize("population, misbehaving", [(20, 0), (10, 10)])
    def test_needs_misbehaving_and_honest_nodes(self, population, misbehaving):
        with pytest.raises(ValueError, match="detection needs"):
            detection_experiment(population, misbehaving, 0.45, slots=3, seed=0)


class TestDecayExperiment:
    def test_needs_misbehaving_nodes(self):
        with pytest.raises(ValueError, match="decay needs"):
            decay_experiment(50, 0, slots=3, seed=0, weight_config=None)


class TestCollusionExperiment:
    def test_per_seed_scores_pinned(self, monkeypatch):
        """The thresholded rows are a 0/1 table that hides score drift, so
        pin every SL and LR score dict the committee gate receives, for
        twelve seeds."""
        seen = []
        gate = consensus.correct_block_probability

        def spy(scores, colluders, threshold):
            seen.append(sorted(scores.items()))
            return gate(scores, colluders, threshold)

        monkeypatch.setattr(consensus, "correct_block_probability", spy)
        collusion_experiment([0.45], seeds=12)
        assert len(seen) == 24   # one SL and one LR dict per seed
        assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
            "ce71fcdb0ec2be994f7a7fac22aeebaba1df4294643c01399e8ecd50d5132945"
        )

    @pytest.mark.parametrize("seeds", [0, -1, 2.0, True])
    def test_rejects_seed_count_not_a_positive_integer(self, seeds):
        with pytest.raises(ValueError, match="seeds must be a positive integer"):
            collusion_experiment([0.45], seeds=seeds)

    def test_numpy_integer_seed_count(self):
        rows = collusion_experiment([0.5], seeds=np.int64(1))
        assert rows == collusion_experiment([0.5], seeds=1)
        assert all(type(v) is float for v in rows[0])

    def test_one_engine_per_seed(self, monkeypatch):
        # perfbench/child.py marks one collusion-sweep operation per
        # ReputationEngine built, and reads its op_p50_ms from those marks
        built = []
        init = consensus.ReputationEngine.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(consensus.ReputationEngine, "__init__", counted)
        collusion_experiment([0.45], seeds=3)
        assert len(built) == 3

    def test_evidence_grows_geometrically(self, monkeypatch):
        # a collusion seed writes slots 1 to 8 in one call, which grows the
        # slot axis once, to 9, and draws once; detection writes one slot a
        # call, and its slots 1 to 15 double the axis to 2, 4, 8 and 16
        held = defaultdict(list)   # engine -> slot axis of each array it grew
        draws = []
        grown, slot_draws = consensus.ReputationEngine._grown, consensus._slot_draws

        def counted(self, slots):
            before = self._evidence
            ev = grown(self, slots)
            if ev is not before:
                held[self].append(ev.shape[0])
            return ev

        def drawn(rng, probs):
            draws.append(len(probs))
            return slot_draws(rng, probs)

        monkeypatch.setattr(consensus.ReputationEngine, "_grown", counted)
        monkeypatch.setattr(consensus, "_slot_draws", drawn)
        collusion_experiment([0.45], seeds=2)
        assert list(held.values()) == [[9], [9]]
        assert all(engine._slots == 9 for engine in held)
        assert draws == [8 * 9 * 49] * 2
        held.clear()
        detection_experiment(50, 10, 0.45, 15, 0)
        assert list(held.values()) == [[2, 4, 8, 16]]
        assert [engine._slots for engine in held] == [16]

    def test_correct_block_rule(self):
        scores = {"a": 0.9, "b": 0.8, "c": 0.7, "d": 0.2}
        # 0 colluders above threshold among 3 eligible
        assert correct_block_probability(scores, {"d"}, 0.5) == 1.0
        # colluder makes 1 of 3 eligible: 1 >= 3/3 fails the block
        assert correct_block_probability(scores, {"c"}, 0.5) == 0.0
        # nobody eligible: no committee can form
        assert correct_block_probability(scores, {"a"}, 0.95) == 0.0


def row_oracle(rng, slot, targets, raters, p_of, engine, tracker):
    """record_interactions as it was written per pair: one p_of call and one
    (rater, target, positives, negatives) row each, each row then written
    with the scalar writers."""
    rows = []
    for target in targets:
        for rater in raters:
            if rater == target:
                continue
            trials = int(rng.integers(5, 11))
            p = p_of(slot, rater, target)
            pos = trials if p == 1.0 else int(rng.binomial(trials, p))
            rows.append((rater, target, pos, trials - pos))
    for row in rows:
        engine.record_outcomes(slot, *row)
        tracker.update(*row)


COLLUDERS = {"r000", "r001", "r002", "r003"}   # four of nine candidates, the default

# each experiment's cooperation probability per (slot, rater, target), and
# one run of it over twenty seeds
EXPERIMENTS = {
    "detection": (
        lambda slot, rater, target: 0.8 if slot < 5 else 0.1,
        lambda: [detection_experiment(50, 10, 0.45, 15, seed) for seed in range(20)],
    ),
    "decay": (
        lambda slot, rater, target: 0.8 if target.startswith("h") or slot < 5 else 0.1,
        lambda: [decay_experiment(60, 10, 12, seed, None) for seed in range(20)],
    ),
    "collusion": (
        lambda slot, rater, target: (0.95 if target not in COLLUDERS else 1.0
                                     if rater in COLLUDERS else 0.8 if slot < 5 else 0.1),
        lambda: collusion_experiment([0.45], seeds=20),
    ),
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_record_interactions_matches_row_oracle(monkeypatch, experiment):
    """Every slot of every seed, drawn from the [slot, target, rater] table
    stack, leaves the RNG, the evidence and the tracker as the per-pair
    rows did, slot by slot."""
    p_of, run = EXPERIMENTS[experiment]
    record = consensus.record_interactions
    twins = {}   # id(engine) -> (engine, tracker, oracle engine, oracle tracker)

    def checked(rng, slots, targets, raters, p, engine, tracker):
        if id(engine) not in twins:
            twins[id(engine)] = (engine, tracker, copy.deepcopy(engine),
                                 LinearReputationTracker(engine.arrival_hours))
        _, _, oracle_engine, oracle_tracker = twins[id(engine)]
        oracle_rng = copy.deepcopy(rng)
        for k, slot in enumerate(slots):
            assert [[p[k][t][r] for r, rater in enumerate(raters) if rater != target]
                    for t, target in enumerate(targets)] == [
                [p_of(slot, rater, target) for rater in raters if rater != target]
                for target in targets]
            row_oracle(oracle_rng, slot, targets, raters, p_of, oracle_engine, oracle_tracker)
        record(rng, slots, targets, raters, p, engine, tracker)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        # the oracle's scalar writes double the slot axis, one batched
        # write grows it once: compare the written slots, zero beyond them
        written = engine._slots
        assert written == oracle_engine._slots
        assert (engine._evidence[:written] == oracle_engine._evidence[:written]).all()
        assert not engine._evidence[written:].any()
        assert not oracle_engine._evidence[written:].any()

    monkeypatch.setattr(consensus, "record_interactions", checked)
    run()
    assert len(twins) == 20
    for engine, tracker, _, oracle_tracker in twins.values():
        names = list(engine.arrival_hours)
        assert [tracker.value(r, t) for r in names for t in names] == [
            oracle_tracker.value(r, t) for r in names for t in names]


def test_record_interactions_checks_the_table_shape():
    """A slots argument that is not a non-empty list, tuple or range, a
    table stack that is not an integer or float array, of another shape, or
    with a cell that is not a probability (the diagonal cell included) is
    rejected before any draw, naming its type or the first bad cell; so
    are a tracker that does not hold the engine's roster, a bad or repeated
    slot, a repeated rater or target, a bare str for a name list, and a
    name outside the roster, each with the error the scheme's writer
    raises. The RNG and both schemes are left untouched."""
    probability = r"must be a probability in \[0, 1\], got "
    numeric = "p must be a numpy array of integers or floats, got "
    container = "slots must be a non-empty list, tuple or range, got "
    ab, full = ["a", "b"], np.full((1, 2, 2), 0.8)

    def case(targets, raters, p, match, slots=[1], error=ValueError, tracked=("a", "b", "c")):
        return targets, raters, p, match, slots, error, tracked

    cases = [case(["a"], ab, np.full((1, 2, 1), 0.8), "shaped")] + [
        case(ab, ab, np.array([[[0.8, 0.8], [bad, bad]]]),
             r"p\[0, 1, 0\] \(slot 1, target 'b', rater 'a'\) " + probability)
        for bad in (math.nan, math.inf, -math.inf, -0.1, 1.5)
    ] + [
        case(ab, ab, np.array([[[math.nan, 0.8], [0.8, 0.8]]]), r"p\[0, 0, 0\]"),
        case(ab, ab, np.array([[[0.8, 0.8], [0.8, 2]]]), r"p\[0, 1, 1\] .*" + probability + "2"),
        case(["a"], ["b"], [[[True]]], numeric + "list$"),
        case(["a"], ["b"], [[[0.8]]], numeric + "list$"),
        case(["a"], ["b"], [[["0.5"]]], numeric + "list$"),
        case(ab, ab, [[[0.8, "x"], [0.8, 2]]], numeric + "list$"),
        case(["a"], ["b"], np.array([[[True]]]), numeric + "dtype bool$"),
        case(["a"], ["b"], np.array([[["0.8"]]]), numeric + r"dtype [<>]U3$"),
        case(["a"], ["b"], np.array([[[0.8]]], dtype=object), numeric + "dtype object$"),
        case(["a"], ["b", "c"], np.full((1, 1, 2), 0.8), "share one roster", tracked=("a", "b")),
    ] + [
        case(ab, ab, full, "slot must be >= 0", slots=[slot]) for slot in (1.5, -1, True)
    ] + [
        case(["c"], ["a", "b", "a"], np.full((1, 1, 3), 0.8), r"pair \('a', 'c'\) occurs twice"),
        case(["c", "c"], ["a"], np.full((1, 2, 1), 0.8), r"pair \('a', 'c'\) occurs twice"),
        case(["a"], ["b", "z"], np.full((1, 1, 2), 0.8), "registered", error=KeyError),
        # the batch's slots: a container of distinct slots, one table each
        case(ab, ab, np.full((2, 2, 2), 0.8), r"slots must be distinct, got \[3, 3\]",
             slots=[3, 3]),
        case(ab, ab, np.full((2, 2, 2), 0.8), r"shaped \(slots, targets, raters\) = "
             r"\(3, 2, 2\), got \(2, 2, 2\)", slots=[1, 2, 3]),
        case(ab, ab, np.array([[[0.8, 0.8], [0.8, 0.8]], [[0.8, 0.8], [0.8, 1.5]]]),
             r"p\[1, 1, 1\] \(slot 4, target 'b', rater 'b'\) " + probability + "1.5",
             slots=[2, 4]),
        # a bare str would read as one name per character
        case(["c"], "ab", np.full((1, 1, 2), 0.8), "raters must be a list of names, not the "
             "str 'ab'"),
        case("c", ab, np.full((1, 1, 2), 0.8), "targets must be a list of names, not the "
             "str 'c'"),
    ] + [
        case(ab, ab, full, container + re.escape(repr(slots)) + "$", slots=slots)
        for slots in ([], 2, None)
    ]
    for targets, raters, p, match, slots, error, tracked in cases:
        engine = consensus._schemes(None, ["a", "b", "c"])[0]
        tracker = LinearReputationTracker(tracked)
        rng = np.random.default_rng(0)
        with pytest.raises(error, match=match):
            consensus.record_interactions(rng, slots, targets, raters, p, engine, tracker)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
        assert engine._slots == 0 and not engine._evidence.any()
        assert (tracker._values == 0.5).all()


def test_record_interactions_to_a_tracker_in_another_order():
    """Both schemes must share one roster: a tracker over the engine's names
    in another order is refused before any draw, and the RNG, the evidence
    and the tracker are left as they were."""
    targets, raters = ["a", "c"], ["a", "b", "c"]
    p = np.array([[0.8, 0.3, 1.0], [0.95, 0.1, 0.5]])
    engine, _ = consensus._schemes(None, raters)
    tracker = LinearReputationTracker(["c", "a", "b"])
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="share one roster"):
        consensus.record_interactions(rng, [2], targets, raters, p[None], engine, tracker)
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    assert engine._slots == 0 and not engine._evidence.any()
    assert (tracker._values == 0.5).all()


# PCG64's LCG multiplier (numpy's pcg64.h); the generator steps, then
# outputs the XSL-RR permutation of the new 128-bit state
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_emitting(raw, has_uint32=0, uinteger=0, hi=0x9E3779B97F4A7C15):
    """A PCG64 generator whose next 64-bit output is `raw`: take the stepped
    state whose XSL-RR output is raw (its top six bits, from `hi`, are the
    rotation), then undo one LCG step."""
    rot = hi >> 58
    lo = hi ^ (((raw << rot) | (raw >> (64 - rot))) & (2**64 - 1))
    inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
    state = (((hi << 64 | lo) - inc) * pow(_PCG_MULT, -1, 2**128)) % 2**128
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": has_uint32, "uinteger": uinteger}
    return rng


def assert_draws_match_scalar(rng, probs, fast_path):
    """_slot_draws leaves the draws and the full RNG state as the scalar
    loop does, on the fast path or not, as said."""
    twin = copy.deepcopy(rng)
    trials, positives = consensus._slot_draws(rng, probs)
    want_trials, want_positives = consensus._scalar_draws(twin, probs)
    assert np.array_equal(trials, want_trials) and np.array_equal(positives, want_positives)
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)   # MT19937's holds an array
    assert isinstance(trials, np.ndarray) is fast_path   # the scalar loop returns lists


_SPECIAL_P = [0.0, 1.0, 0.5, 0.8, 0.1, 0.95, 1e-300, 1 - 2**-53]


@settings(deadline=None, max_examples=100)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), prior=st.integers(0, 2),
       n_targets=st.integers(0, 12), n_raters=st.integers(0, 60), overlap=st.booleans())
def test_slot_draws_replay_the_scalar_loop(data, seed, prior, n_targets, n_raters, overlap):
    """Random tables, with and without a diagonal among the raters, and a
    stream that starts with the held 32-bit half set or clear."""
    raters = [f"r{i}" for i in range(n_raters)]
    targets = ([f"r{i}" for i in range(n_targets)] if overlap
               else [f"t{i}" for i in range(n_targets)])
    p = np.array(data.draw(st.lists(
        st.sampled_from(_SPECIAL_P) | st.floats(0, 1, exclude_min=True, exclude_max=True),
        min_size=n_targets * n_raters, max_size=n_targets * n_raters)), dtype=float)
    drawn = np.array(targets, dtype=object)[:, None] != np.array(raters, dtype=object)
    rng = np.random.default_rng(seed)
    for _ in range(prior):
        rng.integers(5, 11)
    assert_draws_match_scalar(rng, p[drawn.ravel()], fast_path=True)


def test_slot_draws_keep_a_stopped_draw_stopped():
    """Seed 316 draws 5 trials with no success at p = 0.1, so that draw's
    inversion stops at step 1, and 8 successes of 10 at p = 0.5, which go on
    for 8 steps: the stopped draw's terms run past its step n + 1."""
    probs = np.array([0.1, 0.5])
    rng = np.random.default_rng(316)
    trials, positives = consensus._scalar_draws(copy.deepcopy(rng), probs)
    assert trials == [5, 10] and positives == [0, 8]
    assert_draws_match_scalar(rng, probs, fast_path=True)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_slot_draws_of_other_bit_generators_are_the_scalar_loop(bit_generator):
    probs = np.array([0.8, 1.0, 0.0, 0.1, 0.95, 0.5] * 20)
    assert_draws_match_scalar(np.random.Generator(bit_generator(3)), probs, fast_path=False)


@pytest.mark.parametrize("rng", [
    # a fresh raw whose low 32-bit half is 0: Lemire's multiply-shift rejects it
    lambda: pcg64_emitting(0xABCDEF0100000000),
    # the held high half is 0
    lambda: pcg64_emitting(0x1234567890ABCDEF, has_uint32=1, uinteger=0),
    # trials 10 or 9 from the held half, then U = 1 - 2**-53 at p = 0.8: the
    # rounded inversion walks past n and numpy restarts with a new uniform
    lambda: pcg64_emitting(0xFFFFFFFFFFFFF800, has_uint32=1, uinteger=0xF0000000),
    lambda: pcg64_emitting(0xFFFFFFFFFFFFF800, has_uint32=1, uinteger=0xD0000000),
], ids=["fresh-half-0", "held-half-0", "walk-past-10", "walk-past-9"])
def test_slot_draws_fall_back_where_numpy_redraws(rng):
    assert_draws_match_scalar(rng(), np.array([0.8, 0.1, 1.0, 0.95, 0.0, 0.5]), fast_path=False)


def test_record_interactions_draws_without_fallback(monkeypatch):
    """The bit-identity tests would pass if every slot ran the scalar loop,
    so count the slots that do over the oracle test's runs."""
    fallbacks = []
    scalar = consensus._scalar_draws

    def counted(rng, probs):
        fallbacks.append(len(probs))
        return scalar(rng, probs)

    monkeypatch.setattr(consensus, "_scalar_draws", counted)
    for _, run in EXPERIMENTS.values():
        run()
    assert fallbacks == []


@pytest.mark.parametrize("thresholds", [[math.nan], [0.45, 1.5], [-0.1], [True], ["0.5"]])
def test_collusion_rejects_thresholds_that_are_not_probabilities(thresholds):
    with pytest.raises(ValueError, match="thresholds must be real numbers in"):
        collusion_experiment(thresholds, seeds=1)


@pytest.mark.parametrize("threshold", [math.nan, 1.5, -0.1, True, "0.5"])
def test_detection_rejects_a_threshold_that_is_not_a_probability(threshold):
    with pytest.raises(ValueError, match="threshold must be a real number in"):
        detection_experiment(50, 10, threshold, 3, 0)


@pytest.mark.parametrize("seed_base", [True, 1.5, -1, "0"])
def test_collusion_rejects_seed_base_not_a_nonnegative_integer(seed_base):
    with pytest.raises(ValueError, match="seed_base must be a nonnegative integer"):
        collusion_experiment([0.45], seeds=1, seed_base=seed_base)


@pytest.mark.parametrize("value", [True, -1, 0, -2, 1.5])
def test_detection_rejects_slots_and_seed_that_are_not_counts(value):
    with pytest.raises(ValueError, match=r"slots must be an integer >= 1, got "):
        detection_experiment(50, 10, 0.45, value, 0)
    if value == 0:     # seed 0 is a seed
        assert len(detection_experiment(50, 10, 0.45, 1, value)[0]) == 1
    else:
        with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got "):
            detection_experiment(50, 10, 0.45, 1, value)


@pytest.mark.parametrize("value", [True, -1, 0, -2, 1.5])
def test_decay_rejects_slots_and_seed_that_are_not_counts(value):
    with pytest.raises(ValueError, match=r"slots must be an integer >= 1, got "):
        decay_experiment(30, 3, value, 0, None)
    if value == 0:
        assert len(decay_experiment(30, 3, 1, value, None)) == 2
    else:
        with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got "):
            decay_experiment(30, 3, 1, value, None)
