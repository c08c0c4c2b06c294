"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path, workload: str, trace: int, seed: int = 5, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny",
         "--save", str(tmp_path / "results.jsonl")],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tmp_path, workload, trace):
    proc = bench(tmp_path, workload, trace)
    out = result(proc)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(out["metrics"][m["name"]]["value"], (int, float))
        # the same value, by name and unit, on the lines for people
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in proc.stdout.splitlines()[:-1])
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_counts_repeat_for_one_seed(tmp_path):
    first = result(bench(tmp_path, "settle-stream", 1))["metrics"]
    second = result(bench(tmp_path, "settle-stream", 1))["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert first["consensus.messages"]["value"] > 0 and first["ledger.ops"]["value"] > 0
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_byte_identical(tmp_path, workload):
    config = tmp_path / "config.json"
    config.write_text('{"seed": 9}')
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    outs = []
    for flags in ([], ["--trace"]):
        out = tmp_path / ("traced" if flags else "untraced")
        out.mkdir()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
             "--config", str(config), "--out", str(out), "--spawned", "0", "--tiny", *flags],
            env=env, check=True, timeout=170)
        outs.append(out)
    names = sorted(p for p in os.listdir(outs[0])
                   if p.endswith((".csv", ".jsonl", ".txt")))
    assert names
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
    assert not mismatch and not errors and match == names


def test_no_source_tree_fails_without_result(tmp_path):
    proc = bench(tmp_path, "market-day", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
