"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py --workload W --config CFG.json --out DIR
                               --spawned T [--trace] [--tiny] [--probe]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, imports and config
validation. ``--probe`` stops after set-up. The result is written to
``DIR/result.json``; the run's outputs (CSV or ledger export) go to DIR.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

WORKLOADS = {
    "market-day": "utility-vs-hour",
    "collusion-sweep": "collusion",
    "settle-stream": None,
}
# config overrides for the smoke tests' tiny runs
TINY = {
    "market-day": {"arrivals": 3000},
    "collusion-sweep": {"collusion_seeds": 2},
    "settle-stream": {},
}


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _marker(mark, fn):
    """Wrap fn so that each call marks the start of one operation."""
    def marked(*args, **kwargs):
        mark("op")
        return fn(*args, **kwargs)
    return marked


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    t = time.perf_counter()
    import parkedchain  # noqa: F401  (numpy and scipy come with it)
    from parkedchain import parking, reputation
    from parkedchain.harness import scenarios, validate_config
    import refclock
    import spans
    import stream
    import_s = time.perf_counter() - t

    rec = None
    if args.trace:
        rec = spans.SpanRecorder()
        spans.install(rec)

    t = time.perf_counter()
    cfg = validate_config(args.config)
    if args.tiny:
        cfg = dataclasses.replace(cfg, **TINY[args.workload])
    config_s = time.perf_counter() - t
    setup_s = time.monotonic() - args.spawned
    setup_ref_s = refclock.reference_s()
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s,
              "import_s": import_s, "config_s": config_s}
    if args.probe:
        return _write(args.out, result)

    # untraced repetitions mark their stages; the batch workloads mark one
    # operation per call of a public entry point
    clock = refclock.StageClock()
    mark = clock.mark if rec is None else (lambda stage: None)
    if rec is None and args.workload == "market-day":
        parking.hourly_type_profile = _marker(mark, parking.hourly_type_profile)
    elif rec is None and args.workload == "collusion-sweep":
        engine = reputation.ReputationEngine
        engine.__init__ = _marker(mark, engine.__init__)

    t0 = time.perf_counter()

    def workload():
        if args.workload == "settle-stream":
            size = stream.TINY if args.tiny else stream.StreamSize()
            res = stream.run_stream(cfg, args.out, size, mark)
            return (["ledger.jsonl", "settle-stream.csv"], res.deals,
                    res.deals - res.settled, res.gate_errors)
        mark("start")
        name = WORKLOADS[args.workload]
        table = scenarios.run_scenario(name, cfg)
        mark("write")
        table.to_csv(os.path.join(args.out, f"{name}.csv"))
        with open(os.path.join(args.out, "provenance.txt"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(table.provenance_text())
        ops = 24 if args.workload == "market-day" else cfg.collusion_seeds
        return [f"{name}.csv"], ops, 0, []

    if rec is not None:
        outputs, ops, failed, errors = rec.wrap("harness.workload", workload)()
        segments = []
        run_s = time.perf_counter() - t0
        # at the reference speed of the bursts before and after the run
        run_ref_s = (run_s * refclock.REF_KERNEL_S * 2
                     / (setup_ref_s + refclock.reference_s()))
    else:
        outputs, ops, failed, errors = workload()
        segments = clock.segments()
        # wall time without the reference bursts
        run_s = sum(seconds for stage, seconds in segments if stage != "ref")
        run_ref_s = sum(t for _, t in refclock.at_reference_speed(segments))

    result.update({
        "run_s": run_s,
        "run_ref_s": run_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "failed": failed,
        "segments": segments,
        "gate_errors": errors,
        "digest": _digest([os.path.join(args.out, p) for p in outputs]),
    })
    if rec is not None:
        rec.save(os.path.join(args.out, "spans.npz"))
        layers = spans.layer_metrics(rec)
        layers["harness.import_s"] = import_s
        layers["harness.config_s"] = config_s
        result["layers"] = layers
    return _write(args.out, result)


def _write(out: str, result: dict) -> int:
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
