"""Compare benchmark results, or check the spread of one set of them.

    python3 perfbench/compare.py BASE.jsonl            # spread per workload and metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

The files hold the lines ``run.py`` appends (``.bench_out/results.jsonl``
by default); untraced, full-size lines are used. Bounds and directions come
from ``BENCHMARK.json``. Quartiles are ``statistics.quantiles(values, n=4)``
and a spread is the distance between the quartiles over the median.

For two files, runs are paired by seed where both sides ran it, else by
order. A row says ``unresolved`` when either side's spread exceeds the
bound (unless every NEW run beats every BASE run), ``worse`` when NEW's
median is worse by more than the bound, ``better`` when NEW wins at least
nine tenths of the pairs and the medians differ by more than BASE's
spread, and ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row["trace"] == 0 and not row["tiny"]:
                runs.setdefault(row["workload"], []).append(row)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def values_of(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in base}
    matched = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    if len(matched) >= min(len(base), len(new)):
        return matched
    return list(zip(base, new))


def spread_report(runs: dict[str, list[dict]], spec: dict) -> None:
    print(f"{'workload':16s} {'metric':12s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for workload in sorted(runs):
        for m in spec["end_to_end"]:
            vals = values_of(runs[workload], m["name"])
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            verdict = ("steady" if s < m["bound"] / 3 else
                       "within bound" if s <= m["bound"] else "too wide")
            print(f"{workload:16s} {m['name']:12s} {len(vals):3d} {q2:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {s:8.4f} {m['bound']:6.3f}  {verdict}")


def compare_report(base: dict[str, list[dict]], new: dict[str, list[dict]],
                   spec: dict) -> None:
    print(f"{'workload':16s} {'metric':12s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s} {'won':>6s}  verdict")
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            b, n = values_of(base[workload], name), values_of(new[workload], name)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)

            def better(x: float, y: float) -> bool:
                return x < y if lower else x > y

            paired = [(pb["metrics"][name]["value"], pn["metrics"][name]["value"])
                      for pb, pn in pairs(base[workload], new[workload])]
            wins = sum(1 for x, y in paired if better(y, x))
            won = wins / len(paired) if paired else 0.0
            worse_by = (nq[1] - bq[1]) / bq[1] if lower else (bq[1] - nq[1]) / bq[1]
            every_run = all(better(y, x) for x in b for y in n)
            if max(spread(b), spread(n)) > bound and not every_run:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = f"worse by {worse_by:.1%}"
            elif won >= 0.9 and abs(nq[1] - bq[1]) > bq[2] - bq[0]:
                verdict = f"better by {-worse_by:.1%}"
            else:
                verdict = "same"
            fmt = "{:.6g} [{:.6g}, {:.6g}]"
            print(f"{workload:16s} {name:12s} {fmt.format(bq[1], bq[0], bq[2]):>36s} "
                  f"{fmt.format(nq[1], nq[0], nq[2]):>36s} {won:6.0%}  {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = json.load(fh)
    base = load(args.base)
    if args.new is None:
        spread_report(base, spec)
    else:
        compare_report(base, load(args.new), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
