"""Span recorder that wraps parkedchain's public entry points from outside.

Each wrapped call records one span: name, start, end and the index of the
span that was open when it began (its parent). Spans stay in memory as
flat arrays and are written out once, when the run ends. A span's self
time is its duration minus the durations of its direct children.

This is interim: once the program records its own stage timers (ROADMAP
item 1's ``RunReport``), the per-layer numbers should come from there.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("parking", "contract_opt", "reputation", "consensus", "ledger", "harness")


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.payload: dict[int, object] = {}     # span index -> summary of its call
        self.raised: dict[str, dict[int, BaseException]] = {}
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, summarize=None):
        """Return ``fn`` wrapped in a span. ``summarize(args, kwargs, result)``
        may return a value kept as the span's payload."""
        nid = self._intern(name)
        clock = time.perf_counter
        stack, ends = self._stack, self.end
        names_append, start_append = self.name_id.append, self.start.append
        end_append, parent_append = self.end.append, self.parent.append
        payload, raised = self.payload, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            names_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised.setdefault(type(exc).__name__, {})[id(exc)] = exc
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if summarize is not None:
                payload[idx] = summarize(args, kwargs, result)
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent))

    # -- analysis -------------------------------------------------------------

    def arrays(self):
        name_id = np.asarray(self.name_id, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return name_id, dur, dur - child

    def indices(self, name: str) -> np.ndarray:
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(np.asarray(self.name_id) == nid)

    def unique_raised(self, exc_name: str) -> int:
        return len(self.raised.get(exc_name, {}))


def install(rec: SpanRecorder) -> None:
    """Patch the public entry points of every layer with span wrappers."""
    from parkedchain import consensus, contract_opt, ledger, parking, reputation
    from parkedchain.harness import scenarios

    def patch(owner, attr, name, summarize=None, also=()):
        wrapped = rec.wrap(name, getattr(owner, attr), summarize)
        setattr(owner, attr, wrapped)
        for other in also:
            setattr(other, attr, wrapped)

    # parking (the scalar stay_probability is deliberately left unwrapped)
    patch(parking, "synthesize_population", "parking.synthesize")
    patch(parking, "surviving_population", "parking.survivors")
    patch(parking, "classify_types", "parking.classify",
          lambda a, k, r: (len(a[0]), r.n_types))
    patch(parking, "leave_probability", "parking.leave")

    # contract_opt
    def menu_summary(a, k, r):
        menu = r[0] if isinstance(r, tuple) else r
        return (id(a[0]), a[0], menu.meta.get("candidates", 0),
                len(menu.meta.get("bunches", ())))
    for attr, name in (("solve_complete_info", "contract_opt.lc"),
                       ("solve_local_asymmetric", "contract_opt.la"),
                       ("solve_lagrangian_iterative", "contract_opt.lia"),
                       ("stackelberg_baseline", "contract_opt.sa"),
                       ("linear_pricing_baseline", "contract_opt.linear")):
        patch(contract_opt, attr, name, menu_summary)
    for attr in ("sr_expected_utility", "pv_expected_utility", "sr_utility_terms"):
        patch(contract_opt, attr, "contract_opt.eval")

    # reputation
    engine, tracker = reputation.ReputationEngine, reputation.LinearReputationTracker

    def view_summary(a, k, r):
        return len(r.final_values)
    patch(engine, "view", "reputation.view", view_summary)
    patch(engine, "record_outcomes", "reputation.record")
    patch(tracker, "update", "reputation.lr")
    patch(tracker, "average_reputation", "reputation.lr")

    # consensus
    def view_outcome(a, k, r):
        accepted = r.client_accepted and r.committed_digest == a[1].digest()
        return (r.committed_digest is not None, accepted, r.abort_reason, r.message_count)
    patch(consensus, "run_view", "consensus.view", view_outcome)
    patch(consensus, "select_consensus_nodes", "consensus.select")
    patch(consensus, "model_check_safety", "consensus.model_check")
    patch(consensus, "collusion_experiment", "consensus.collusion", also=(scenarios,))
    patch(consensus, "detection_experiment", "consensus.detection", also=(scenarios,))

    # ledger
    book = ledger.Ledger
    patch(book, "register_account", "ledger.register")
    patch(book, "credit", "ledger.credit")
    patch(book, "post_request", "ledger.post")
    patch(book, "sign_contract", "ledger.sign")
    patch(book, "execute_task", "ledger.execute", lambda a, k, r: r.state.value)
    patch(book, "verify_and_settle", "ledger.settle", lambda a, k, r: r.state.value)
    patch(book, "append_block", "ledger.append", lambda a, k, r: len(r.tx_digests))
    for attr in ("conserved", "verify_chain", "dump"):
        patch(book, attr, "ledger.audit")

    # harness
    patch(scenarios, "run_scenario", "harness.run_scenario")
    patch(scenarios.ResultTable, "to_csv", "harness.csv")


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics from one traced run. ``*_s`` are self times."""
    name_id, dur, self_t = rec.arrays()
    by_name = {name: i for i, name in enumerate(rec.names)}
    self_by = np.bincount(name_id, weights=self_t, minlength=len(rec.names))
    calls_by = np.bincount(name_id, minlength=len(rec.names))

    def self_s(*names):
        return float(sum(self_by[by_name[n]] for n in names if n in by_name))

    def calls(name):
        return int(calls_by[by_name[name]]) if name in by_name else 0

    def payloads(name, keep=None):
        return [rec.payload[int(i)] for i in rec.indices(name)
                if int(i) in rec.payload and (keep is None or keep[int(i)])]

    m: dict[str, float] = {}

    classify = payloads("parking.classify")
    m["parking.synthesize_s"] = self_s("parking.synthesize")
    m["parking.survivors_s"] = self_s("parking.survivors")
    m["parking.classify_s"] = self_s("parking.classify")
    m["parking.leave_s"] = self_s("parking.leave")
    m["parking.classify_calls"] = calls("parking.classify")
    m["parking.vehicles_classified"] = sum(n for n, _ in classify)
    m["parking.types_effective"] = (statistics.fmean(t for _, t in classify)
                                    if classify else 0.0)

    for short in ("lc", "la", "lia", "sa", "linear", "eval"):
        m[f"contract_opt.{short}_s"] = self_s(f"contract_opt.{short}")
    m["contract_opt.sa_calls"] = calls("contract_opt.sa")
    solved = [p for s in ("lc", "la", "lia", "sa", "linear")
              for p in payloads(f"contract_opt.{s}")]
    m["contract_opt.problems"] = len({pid for pid, *_ in solved})
    lia = payloads("contract_opt.lia")
    m["contract_opt.lia_candidates"] = sum(c for _, _, c, _ in lia)
    m["contract_opt.lia_bunched"] = sum(b for _, _, _, b in lia)
    m["contract_opt.infeasible"] = rec.unique_raised("InfeasibleProblem")

    views = payloads("reputation.view")
    view_idx = rec.indices("reputation.view")
    m["reputation.view_s"] = self_s("reputation.view")
    m["reputation.view_calls"] = calls("reputation.view")
    m["reputation.view_p50_ms"] = (float(np.median(dur[view_idx])) * 1e3
                                   if view_idx.size else 0.0)
    m["reputation.raters_per_view"] = statistics.fmean(views) if views else 0.0
    m["reputation.record_s"] = self_s("reputation.record")
    m["reputation.record_calls"] = calls("reputation.record")
    m["reputation.lr_s"] = self_s("reputation.lr")

    # stream views are counted apart from those inside model_check_safety
    starts = np.asarray(rec.start)
    check_idx = rec.indices("consensus.model_check")
    in_check = np.zeros(dur.size, dtype=bool)
    for i in check_idx:
        in_check |= (starts >= rec.start[i]) & (starts <= rec.end[i])
    stream = ~in_check
    cviews = payloads("consensus.view", stream)
    stream_view_idx = [int(i) for i in rec.indices("consensus.view") if stream[int(i)]]
    commits = sum(1 for _, ok, _, _ in cviews if ok)
    messages = sum(n for *_, n in cviews)
    m["consensus.view_s"] = float(self_t[stream_view_idx].sum()) if stream_view_idx else 0.0
    m["consensus.views"] = len(cviews)
    m["consensus.commits"] = commits
    m["consensus.commit_ratio"] = commits / len(cviews) if cviews else 0.0
    m["consensus.aborts_leader_timeout"] = sum(1 for v in cviews if v[2] == "leader-timeout")
    m["consensus.aborts_no_quorum"] = sum(1 for v in cviews if v[2] == "no-quorum")
    m["consensus.messages"] = messages
    m["consensus.messages_per_commit"] = messages / commits if commits else 0.0
    m["consensus.client_rejects"] = sum(1 for c, ok, _, _ in cviews if c and not ok)
    m["consensus.select_s"] = self_s("consensus.select")
    m["consensus.model_check_s"] = float(dur[check_idx].sum()) if check_idx.size else 0.0
    m["consensus.collusion_self_s"] = self_s("consensus.collusion")
    m["consensus.collusion_calls"] = calls("consensus.collusion")

    ledger_names = ("ledger.register", "ledger.credit", "ledger.post", "ledger.sign",
                    "ledger.execute", "ledger.settle", "ledger.append")
    outcomes = Counter(payloads("ledger.execute") + payloads("ledger.settle"))
    appended = payloads("ledger.append")
    ops = sum(calls(n) for n in ledger_names)
    op_time = self_s(*ledger_names)
    m["ledger.register_s"] = self_s("ledger.register", "ledger.credit")
    m["ledger.accounts"] = calls("ledger.register")
    for short in ("post", "sign", "execute", "settle", "append", "audit"):
        m[f"ledger.{short}_s"] = self_s(f"ledger.{short}")
    m["ledger.ops"] = ops
    m["ledger.ops_per_s"] = ops / op_time if op_time > 0 else 0.0
    m["ledger.errors"] = rec.unique_raised("LedgerError")
    m["ledger.paid"] = outcomes["Paid"]
    m["ledger.refunded"] = outcomes["Refunded"]
    m["ledger.confiscated"] = outcomes["Confiscated"]
    m["ledger.txs_per_block"] = statistics.fmean(appended) if appended else 0.0

    m["harness.csv_s"] = self_s("harness.csv")
    m["harness.other_self_s"] = self_s(*(n for n in rec.names
                                         if n.startswith("harness.") and n != "harness.csv"))

    total = float(self_t.sum())
    for layer in LAYERS:
        names = [n for n in rec.names if n.split(".", 1)[0] == layer]
        m[f"{layer}.self_frac"] = self_s(*names) / total if total > 0 else 0.0
    return m
