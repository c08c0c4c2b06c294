"""Committee selection, the six-stage view protocol, and the experiments."""

import hashlib
import random
from collections import defaultdict

import pytest

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

    @pytest.mark.parametrize("ids, match", [
        (["a", "a", "b", "c"], "distinct"),
        (["a", "b", "client", "c"], "reserved"),
    ])
    def test_rejects_bad_committee(self, ids, match):
        roster = [(nid, Behavior.HONEST) for nid in ids]
        with pytest.raises(ValueError, match=match):
            run_view(roster, proposal(), ConsensusConfig(n=4, l=1))

    @pytest.mark.parametrize("roster", [committee(4), committee(4, crashed=("n01",))],
                             ids=["honest", "crashed"])
    def test_rejects_strategy_for_non_byzantine_member(self, roster):
        with pytest.raises(ValueError, match="not byzantine"):
            run_view(roster, proposal(), ConsensusConfig(n=4, l=1),
                     strategies={"n01": ReplicaStrategy.SILENT})

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
    def test_no_colluders_always_correct(self):
        assert collusion_experiment([0.45], seeds=5,
                                    colluder_fraction=0.0) == [(0.45, 1.0, 1.0)]

    def test_all_colluders_always_wrong(self):
        assert collusion_experiment([0.45], seeds=5,
                                    colluder_fraction=1.0) == [(0.45, 0.0, 0.0)]

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
        for fraction in (0.0, 4 / 9):
            with pytest.raises(ValueError, match="seeds must be a positive integer"):
                collusion_experiment([0.45], seeds=seeds, colluder_fraction=fraction)

    def test_correct_block_rule(self):
        scores = {"a": 0.9, "b": 0.8, "c": 0.7, "d": 0.2}
        # 0 colluders above threshold among 3 eligible
        assert correct_block_probability(scores, {"d"}, 0.5) == 1.0
        # colluder makes 1 of 3 eligible: 1 >= 3/3 fails the block
        assert correct_block_probability(scores, {"c"}, 0.5) == 0.0
        # nobody eligible: no committee can form
        assert correct_block_probability(scores, {"a"}, 0.95) == 0.0
