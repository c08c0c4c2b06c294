"""settle-stream: a closed-loop deal stream over the public parkedchain API.

One client (the service requester "sr") posts a batch of deals, waits until
the block that carries them is ordered and every deal is settled, then
posts the next batch. Message delivery is simulated by ``consensus.Network``
with no injected delay, so block latency is processor time only.

Every library call goes through a module attribute (``consensus.run_view``,
``Ledger.post_request``, ...) so that the span recorder can wrap it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from parkedchain import consensus, contract_opt, parking, reputation
from parkedchain.ledger import ContractState, Ledger, RequestSpec

SR = "sr"
REWARD_SCALE = 1_000_000          # ledger units per unit of contract reward
SR_DEPOSIT = 100_000
PV_DEPOSIT = 50_000
PV_FUNDS = 1_000_000
FAIL_VERDICT_P = 0.05             # share of executed tasks whose result fails verification
POOL = 20                         # committee candidates, faulty ones included
BYZANTINE_IDS = ("c02", "c05", "c08")
CRASHED_ID = "c10"
_BYZANTINE = (consensus.ReplicaStrategy.SPLIT,
              consensus.ReplicaStrategy.WRONG_DIGEST,
              consensus.ReplicaStrategy.SILENT)
_TERMINAL = frozenset({ContractState.PAID, ContractState.REFUNDED,
                       ContractState.CONFISCATED})


@dataclass(frozen=True)
class StreamSize:
    arrivals: int = 10_000
    epochs: int = 8
    blocks_per_epoch: int = 50
    deals_per_block: int = 40


TINY = StreamSize(arrivals=2_000, epochs=2, blocks_per_epoch=4, deals_per_block=5)


@dataclass
class StreamResult:
    deals: int
    settled: int
    gate_errors: list[str]


def _pool():
    """Candidate ids with their ground-truth behaviour. The byzantine nodes,
    one per adversarial strategy, sit in the first committee (all scores
    start equal, so it is the first ten ids); the crashed node is the first
    candidate to be promoted once they are voted out."""
    ids = [f"c{i:02d}" for i in range(POOL)]
    behaviors = {node: consensus.Behavior.HONEST for node in ids}
    strategies = {}
    for node, strategy in zip(BYZANTINE_IDS, _BYZANTINE):
        behaviors[node] = consensus.Behavior.BYZANTINE
        strategies[node] = strategy
    behaviors[CRASHED_ID] = consensus.Behavior.CRASH
    return ids, behaviors, strategies


def _task_params(cfg) -> contract_opt.TaskParams:
    return contract_opt.TaskParams(
        rho=cfg.rho, kappa=cfg.kappa, s_bits=cfg.s_bits, f_local=cfg.f_local,
        r_bps=cfg.r_bps, eps_cap=cfg.eps_cap, e_price=cfg.e_price, f_max=cfg.f_max)


def _integer_menu(menu: contract_opt.ContractMenu) -> tuple[tuple[float, int], ...]:
    return tuple((float(f), int(round(pi * REWARD_SCALE))) for f, pi in menu.items)


def run_stream(cfg, out_dir: str, size: StreamSize = StreamSize(),
               mark=lambda stage: None) -> StreamResult:
    """Run the stream and write ``ledger.jsonl`` and ``settle-stream.csv``.

    ``mark(stage)`` is called at the start of every stage: "prepare", each
    "epoch" (committee selection), each "block" (from its first
    post_request to its last settlement) and "finish" (audits and export).
    """
    mark("prepare")
    ss = np.random.SeedSequence(cfg.seed)
    pop_rng, deal_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    # parking: draw the population and classify one hour
    mixture = parking.GammaMixtureParams()
    records = parking.synthesize_population(mixture, size.arrivals,
                                            int(pop_rng.integers(2**63)))
    parked = parking.surviving_population(records, cfg.profile_hour)
    profile = parking.classify_types(parked, mixture, cfg.n_types)

    # contract_opt: one screening menu for the hour
    params = _task_params(cfg)
    problem = contract_opt.ContractProblem(profile, params)
    menu = contract_opt.solve_lagrangian_iterative(problem)
    items = _integer_menu(menu)
    spec = RequestSpec(task_bits=int(cfg.s_bits), required_hz=float(menu.fs[-1]),
                       expected_seconds=cfg.kappa * cfg.s_bits / float(menu.fs[-1]))

    # consensus configuration is checked once before any block is ordered
    ccfg = consensus.ConsensusConfig(n=cfg.consensus.n, l=cfg.consensus.l)
    safety = consensus.model_check_safety(ccfg)

    ids, behaviors, strategies = _pool()
    engine = reputation.ReputationEngine(
        reputation.WeightConfig(*cfg.gammas, *cfg.alphas))
    for i, node in enumerate(ids):
        engine.register(node, arrival_hour=8 + (i % 5))

    ledger = Ledger()
    ledger.register_account(SR)
    budget = size.epochs * size.blocks_per_epoch * size.deals_per_block
    ledger.credit(SR, budget * (SR_DEPOSIT + max(pi for _, pi in items)))

    pv_info: dict[int, tuple[str, float, int]] = {}   # index -> (id, leave p, item)

    def pv_for(index: int) -> tuple[str, float, int]:
        info = pv_info.get(index)
        if info is None:
            pv = parked[index]
            leave = parking.leave_probability(pv, mixture)
            theta = 1.0 - leave
            utilities = [contract_opt.pv_utility(theta, f, pi, params)
                         for f, pi in menu.items]
            identity = f"pv{pv.pv_id:06d}"
            ledger.register_account(identity)
            ledger.credit(identity, PV_FUNDS)
            info = (identity, leave, int(np.argmax(utilities)))
            pv_info[index] = info
        return info

    blocks_csv: list[tuple] = []
    contracts: list[str] = []
    gate_errors: list[str] = []
    view_no = 0                     # the leader rotates with every view
    for epoch in range(size.epochs):
        slot = epoch + 1
        mark("epoch")
        scores = {
            node: engine.view(node, at=slot, raters=[r for r in ids if r != node]).average
            for node in ids
        }
        committee = consensus.select_consensus_nodes(scores, ccfg.n)
        roster = [(node, behaviors[node]) for node in committee]
        for _ in range(size.blocks_per_epoch):
            picks = deal_rng.integers(len(parked), size=size.deals_per_block)
            departs = deal_rng.random(size.deals_per_block)
            verdicts = deal_rng.random(size.deals_per_block)
            mark("block")
            batch = []
            for index in picks:
                identity, leave, item = pv_for(int(index))
                record = ledger.post_request(SR, spec, items, SR_DEPOSIT)
                ledger.sign_contract(identity, record.address, item, PV_DEPOSIT)
                batch.append((record.address, leave))
            proposal = consensus.BlockProposal(
                height=len(ledger.blocks), tx_digests=tuple(a for a, _ in batch),
                proposer=SR)
            for attempt in range(2 * ccfg.n):
                leader = committee[view_no % ccfg.n]
                outcome = consensus.run_view(roster, proposal, ccfg, view=view_no,
                                             strategies=strategies)
                view_no += 1
                for rater in committee:
                    for target in committee:
                        if rater != target:
                            honest = behaviors[target] is consensus.Behavior.HONEST
                            engine.record_outcomes(slot, rater, target,
                                                   int(honest), int(not honest))
                # the client accepts only its own block, confirmed by the replies
                if outcome.client_accepted and outcome.committed_digest == proposal.digest():
                    break
            else:
                gate_errors.append(f"block {proposal.height}: no view committed")
                break
            signers = [node for node in committee
                       if outcome.per_node.get(node) == outcome.committed_digest]
            ledger.append_block([a for a, _ in batch], signers, proposer=leader)
            for (address, leave), depart_u, verdict_u in zip(batch, departs, verdicts):
                departed = bool(depart_u < leave)
                ledger.execute_task(address, departed)
                if not departed:
                    verdict = "fail" if verdict_u < FAIL_VERDICT_P else "pass"
                    ledger.verify_and_settle(address, verdict)
            contracts.extend(a for a, _ in batch)
            blocks_csv.append((proposal.height, attempt + 1, outcome.committed_digest,
                               leader, len(signers), len(batch)))
        if gate_errors:
            break

    mark("finish")
    # output gate inputs: conservation, chain integrity, terminal deals
    if safety["divergent"] != 0:
        gate_errors.append(f"model check found {safety['divergent']} divergent runs")
    if not ledger.conserved():
        gate_errors.append("ledger does not conserve supply")
    if not ledger.verify_chain():
        gate_errors.append("block chain does not verify")
    settled = sum(1 for a in contracts if ledger.contracts[a].state in _TERMINAL)
    if settled != len(contracts) or len(contracts) != budget:
        gate_errors.append(f"{budget - settled} of {budget} deals did not settle")

    ledger.dump(f"{out_dir}/ledger.jsonl")
    with open(f"{out_dir}/settle-stream.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("height", "views", "digest", "leader", "signers", "deals"))
        writer.writerows(blocks_csv)
    return StreamResult(budget, settled, gate_errors)
