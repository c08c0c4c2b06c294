"""parkedchain benchmark: run one workload in fresh processes and gate its outputs.

    python3 perfbench/run.py --workload market-day --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/``. Every repetition is a new single-threaded interpreter
(``child.py``), started again and again until ``--seconds`` have passed,
at least twice, so their outputs can be compared byte for byte. Times
are reported at the reference speed (``refclock.py``). ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs untraced and traced
repetitions in pairs and reports the per-layer metrics of the traced
ones. The last line of standard output is one JSON object; the lines
before it are the same numbers for people. Each result is also appended
to ``.bench_out/results.jsonl`` (see ``compare.py``). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("market-day", "collusion-sweep", "settle-stream")
# SHA-256 of each workload's outputs at seed 0 and the default config
PINNED = {
    "market-day": "bd769e216d5c02551f66def6301435b695193b08b1db67c04a4b09855a28feca",
    "collusion-sweep": "7b155d746dd506253705f201d86f6714e60542d31f082b5b10c7fda27f8bce25",
    "settle-stream": "6fcd8e09b461e4afd872b89b7b59c2cc666e4f7c19728ba404430a2edbb5f7b4",
}
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
         "op_p50_ms": "ms", "op_tail_ms": "ms"}
# what an operation is (failed_frac, ops_per_s) and what op latency times
OP_NAMES = {"market-day": "hour-problem", "collusion-sweep": "seed",
            "settle-stream": "deal"}
LATENCY_OF = {"market-day": "hour-problem", "collusion-sweep": "seed",
              "settle-stream": "block"}
LATENCY_STAGE = {"market-day": "op", "collusion-sweep": "op", "settle-stream": "block"}
MIN_REPS = 2              # untraced repetitions: outputs are compared across them
MIN_PAIRS = 1             # untraced and traced pairs with --trace 1
MIN_SETUPS = 7
BUDGET_S = 160.0          # no repetition starts that could end after this
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts child repetitions one after another and collects their results."""

    def __init__(self, root: str, work: str, args) -> None:
        self.work = work
        self.args = args
        self.t_start = time.monotonic()
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        for var in SINGLE_THREAD:
            self.env[var] = "1"
        self.config = os.path.join(work, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed}, fh)

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def spawn(self, trace: bool = False, probe: bool = False) -> dict:
        self.count += 1
        out = os.path.join(self.work, f"rep{self.count:03d}")
        os.makedirs(out)
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.args.workload, "--config", self.config, "--out", out]
        cmd += ["--trace"] * trace + ["--probe"] * probe + ["--tiny"] * self.args.tiny
        timeout = max(1.0, 175.0 - self.elapsed())
        with open(os.path.join(out, "log.txt"), "wb") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=self.env,
                                      stdout=log, stderr=subprocess.STDOUT,
                                      timeout=timeout, check=False)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{out} did not finish in {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{out} exited with code {proc.returncode}; see log.txt")
        with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def more(self, done: list[dict], minimum: int, per_step: int = 1) -> bool:
        """Whether to start another step of ``per_step`` repetitions."""
        if len(done) < minimum:
            return True
        longest = per_step * max(r["setup_s"] + r["run_s"] for r in done)
        return (self.elapsed() < self.args.seconds
                and self.elapsed() + longest < BUDGET_S)


def setup_at_reference_speed(result: dict) -> float:
    """Set-up time scaled by the reference burst timed right after it."""
    return result["setup_s"] * refclock.REF_KERNEL_S / result["setup_ref_s"]


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest-percentile sample with at least ten samples beyond it, and
    that percentile (the maximum when there are too few samples)."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def gate(workload: str, seed: int, tiny: bool, reps: list[dict]) -> list[str]:
    """Output check: identical outputs across repetitions (traced ones too),
    the pinned digest at seed 0, and the stream's own invariants."""
    problems = sorted({e for r in reps for e in r["gate_errors"]})
    digests = sorted({r["digest"] for r in reps})
    if len(digests) != 1:
        problems.append(f"repetitions disagree: {len(digests)} distinct output digests")
    if len({(r["ops"], r["failed"]) for r in reps}) != 1:
        problems.append("repetitions disagree on operations attempted or failed")
    untraced = [stage_names(r) for r in reps if "layers" not in r]
    if any(stages != untraced[0] for stages in untraced):
        problems.append("repetitions ran different stages")
    pinned = PINNED[workload]
    if seed == 0 and not tiny and digests != [pinned]:
        problems.append(f"output digest {digests[0][:12]} != pinned {pinned[:12]}")
    return problems


def stage_names(rep: dict) -> list[str]:
    return [stage for stage, _ in rep["segments"] if stage != "ref"]


def end_to_end(workload: str, reps: list[dict], setups: list[float]) -> dict:
    """Every time at the reference speed (refclock.py): each stage's median
    over the repetitions, which do identical work."""
    names = stage_names(reps[0])
    scaled = [refclock.at_reference_speed(r["segments"]) for r in reps
              if stage_names(r) == names]
    stages = [(name, statistics.median(s[j][1] for s in scaled))
              for j, name in enumerate(names)]
    run_s = sum(t for _, t in stages)
    ops, failed = reps[0]["ops"], reps[0]["failed"]
    latencies = [t for stage, t in stages if stage == LATENCY_STAGE[workload]]
    if workload != "settle-stream" and len(latencies) != ops:
        # a change to the program removed the marked calls: say so and
        # fall back to the mean per operation
        print(f"note: {len(latencies)} operation marks for {ops} operations; "
              "op latency is the mean", file=sys.stderr)
        latencies = [run_s / ops] * ops
    tail_s, pct = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ops_per_s": (ops - failed) / run_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }
    print(f"# {LATENCY_OF[workload]} latency: {len(latencies)} samples, tail is "
          f"p{pct:.1f}; {len(setups)} set-up samples; {len(scaled)} repetitions")
    print(f"# as measured, without scaling: median repetition "
          f"{statistics.median(r['run_s'] for r in reps):.3f} s, median set-up "
          f"{statistics.median(r['setup_s'] for r in reps):.3f} s; one reference "
          f"kernel took {statistics.median(r['setup_ref_s'] for r in reps) * 1e3:.3f} ms "
          f"against {refclock.REF_KERNEL_S * 1e3:.3f} ms at the reference speed")
    return values


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of the traced repetitions (as measured, not
    scaled), and the tracing overhead at the reference speed."""
    names = traced[0]["layers"].keys()
    values = {n: statistics.median_low(r["layers"][n] for r in traced) for n in names}
    base = statistics.median(r["run_ref_s"] for r in untraced)
    values["trace.overhead_frac"] = (
        statistics.median(r["run_ref_s"] for r in traced) / base - 1.0)
    return values


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "fraction"
    return "count"


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "parkedchain", "__init__.py")):
        raise BenchError("no src/parkedchain here: run from the root of a parkedchain checkout")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + "-tiny" * args.tiny
    work = os.path.join(root, ".bench_out", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work, args)
    runner.spawn(probe=True)          # fills bytecode and file caches; not measured
    runner.t_start = time.monotonic()

    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    if args.trace:
        while runner.more(traced, MIN_PAIRS, per_step=2):
            untraced.append(runner.spawn())
            traced.append(runner.spawn(trace=True))
    else:
        # set-up-only probes between repetitions spread the set-up samples
        # over the whole run
        while runner.more(untraced, MIN_REPS):
            untraced.append(runner.spawn())
            setups.append(setup_at_reference_speed(untraced[-1]))
            if len(setups) < MIN_SETUPS:
                setups.append(setup_at_reference_speed(runner.spawn(probe=True)))
        while len(setups) < MIN_SETUPS:
            setups.append(setup_at_reference_speed(runner.spawn(probe=True)))
    reps = untraced + traced

    problems = gate(args.workload, args.seed, args.tiny, reps)
    attempted = sum(r["ops"] for r in reps)
    failed = attempted if problems else sum(r["failed"] for r in reps)
    for p in problems:
        print(f"# output check failed: {p}")
    print(f"# {args.workload} seed={args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced repetitions in {runner.elapsed():.1f} s; "
          f"failed_frac={failed / attempted:.6g} ({failed}/{attempted} "
          f"{OP_NAMES[args.workload]}s)")
    print(f"# machine: {os.cpu_count()} cpus, Python {platform.python_version()}, "
          f"{platform.machine()}")
    if args.trace:
        values = per_layer(untraced, traced)
        units = {n: layer_unit(n) for n in values}
    else:
        values = end_to_end(args.workload, untraced, setups)
        units = UNITS
    for name, value in values.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    if args.trace or problems:
        print(f"# repetitions, their outputs and spans kept in .bench_out/{tag}/")
    else:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke tests; no pinned digest")
    ap.add_argument("--save", default=os.path.join(".bench_out", "results.jsonl"),
                    help="file the result line is appended to")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.save, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "tiny": args.tiny, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
