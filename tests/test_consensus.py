"""Committee selection, the six-stage view protocol, and the experiments."""

import hashlib

import pytest

from parkedchain import consensus
from parkedchain.consensus import (
    Behavior,
    BlockProposal,
    ConsensusConfig,
    Network,
    ReplicaStrategy,
    collusion_experiment,
    correct_block_probability,
    decay_experiment,
    detection_experiment,
    full_detection_slot,
    message_tag,
    model_check_safety,
    run_view,
    select_consensus_nodes,
    verify_tag,
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


class TestTags:
    def test_round_trip(self):
        from parkedchain.consensus import NetMessage
        tag = message_tag("n01", "prepare", "abcd", "n02")
        msg = NetMessage(0, 1, "n01", "n02", "prepare", "abcd", tag)
        assert verify_tag(msg)

    def test_forgery_detected(self):
        from parkedchain.consensus import NetMessage
        tag = message_tag("n01", "prepare", "abcd", "n02")
        forged = NetMessage(0, 1, "n03", "n02", "prepare", "abcd", tag)
        assert not verify_tag(forged)


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
        seen = []
        view = consensus.ReputationEngine.view
        lr_average = consensus.LinearReputationTracker.average_reputation

        def spy_view(self, target, at, raters=None):
            out = view(self, target, at, raters)
            seen.append(("SL", target, at, out.average))
            return out

        def spy_lr(self, target, raters):
            out = lr_average(self, target, raters)
            seen.append(("LR", target, out))
            return out

        monkeypatch.setattr(consensus.ReputationEngine, "view", spy_view)
        monkeypatch.setattr(consensus.LinearReputationTracker,
                            "average_reputation", spy_lr)
        for seed in range(3):
            detection_experiment(50, 10, 0.45, 15, seed)
        assert len(seen) == 2 * 3 * 15 * 10   # both schemes, every target and slot
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
        pin every SL and LR score dict the committee gate receives."""
        seen = []
        gate = consensus.correct_block_probability

        def spy(scores, colluders, threshold):
            seen.append(sorted(scores.items()))
            return gate(scores, colluders, threshold)

        monkeypatch.setattr(consensus, "correct_block_probability", spy)
        collusion_experiment([0.45], seeds=5)
        assert len(seen) == 10   # one SL and one LR dict per seed
        assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
            "4467b83a0946874054bd71ffb8e6bd8758e8bfea6d1b93ecc3a3fe736360a9c2"
        )

    def test_correct_block_rule(self):
        scores = {"a": 0.9, "b": 0.8, "c": 0.7, "d": 0.2}
        # 0 colluders above threshold among 3 eligible
        assert correct_block_probability(scores, {"d"}, 0.5) == 1.0
        # colluder makes 1 of 3 eligible: 1 >= 3/3 fails the block
        assert correct_block_probability(scores, {"c"}, 0.5) == 0.0
        # nobody eligible: no committee can form
        assert correct_block_probability(scores, {"a"}, 0.95) == 0.0
