"""Config validation, scenario tables, and CLI plumbing."""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import parkedchain
from parkedchain.contract_opt import InfeasibleProblem
from parkedchain.harness import (
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    ResultTable,
    config_digest,
    run_scenario,
    validate_config,
)
from parkedchain.harness import cli


def small_cfg(**overrides):
    # keep scenario runs cheap: tiny population, few arrivals, few slots
    base = dict(arrivals=2_000, population=20, misbehaving=4,
                collusion_seeds=5, n_types=3)
    base.update(overrides)
    return dataclasses.replace(ExperimentConfig(), **base)


class TestConfigValidation:
    def test_missing_path_yields_defaults(self):
        assert validate_config(None) == ExperimentConfig()

    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert validate_config(str(path)) == ExperimentConfig()

    def test_all_violations_reported_together(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "s_bits": -1.0,
            "gammas": [0.3, 0.3, 0.3],
            "no_such_knob": 5,
        }))
        with pytest.raises(ConfigError) as exc:
            validate_config(str(path))
        text = "\n".join(exc.value.diagnostics)
        assert len(exc.value.diagnostics) == 3
        assert "s_bits" in text
        assert "gammas must sum to 1" in text
        assert "no_such_knob" in text

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            validate_config(str(path))

    def test_unknown_consensus_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"consensus": {"nodes": 10}}))
        with pytest.raises(ConfigError, match="nodes"):
            validate_config(str(path))

    def test_overrides_applied(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"seed": 7, "profile_hour": 13}))
        cfg = validate_config(str(path))
        assert cfg.seed == 7 and cfg.profile_hour == 13

    def test_digest_tracks_content(self):
        a = ExperimentConfig()
        b = dataclasses.replace(a, seed=1)
        assert config_digest(a) != config_digest(b)
        assert config_digest(a) == config_digest(ExperimentConfig())


class TestResultTable:
    def test_requires_provenance(self):
        with pytest.raises(ValueError):
            ResultTable(("a",), [(1,)], {})

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            ResultTable(("a", "b"), [(1,)], {"k": "v"})

    def test_csv_bytes(self, tmp_path):
        t = ResultTable(("x", "flag"), [(0.5, True), (2, False)], {"k": "v"})
        path = tmp_path / "t.csv"
        t.to_csv(str(path))
        assert path.read_bytes() == b"x,flag\n0.5,1\n2,0\n"


class TestScenarios:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("parallel-parking", ExperimentConfig())

    def test_arrival_histogram_shape(self):
        table = run_scenario("arrival-histogram", small_cfg())
        assert table.columns == ("hour", "count", "fraction")
        assert len(table.rows) == 24
        assert sum(r[1] for r in table.rows) == 2_000
        assert abs(sum(r[2] for r in table.rows) - 1.0) < 1e-9
        assert table.provenance["source"] == "synthetic"

    def test_utility_vs_type_lc_dominates_in_aggregate(self):
        table = run_scenario("utility-vs-type", small_cfg())
        cols = {c: i for i, c in enumerate(table.columns)}
        totals = {}
        for row in table.rows:
            totals.setdefault(row[cols["scheme"]], 0.0)
            totals[row[cols["scheme"]]] += row[cols["u_sr_term"]]
        for scheme, total in totals.items():
            assert totals["LC"] >= total - 1e-9, scheme

    def test_utility_vs_hour_lc_pv_zero(self):
        table = run_scenario("utility-vs-hour", small_cfg(n_types=2))
        cols = {c: i for i, c in enumerate(table.columns)}
        lc_rows = [r for r in table.rows if r[cols["scheme"]] == "LC"]
        assert len(lc_rows) == 24
        assert all(abs(r[cols["u_pv"]]) < 1e-8 for r in lc_rows)

    def test_contract_feasibility_diagonal(self):
        table = run_scenario("contract-feasibility", small_cfg())
        cols = {c: i for i, c in enumerate(table.columns)}
        for row in table.rows:
            if row[cols["type"]] == row[cols["item"]]:
                assert row[cols["is_choice"]]

    def test_detection_rate_columns(self):
        cfg = small_cfg(consensus=dataclasses.replace(
            ExperimentConfig().consensus, slots=8))
        table = run_scenario("detection-rate", cfg)
        assert table.columns == ("slot", "sl_rate", "lr_rate")
        assert all(0.0 <= r[1] <= 1.0 and 0.0 <= r[2] <= 1.0
                   for r in table.rows)


# SHA-256 of each scenario's CSV at the small config with seed 11; a
# refactor must keep these bytes, a deliberate change regenerates them
GOLDEN_CSV = {
    "arrival-histogram": "8d44db8d36301fe9eb6ad9d5e1b2643adc7835f2927b779b0e1936ff6434c070",
    "reputation-decay": "04723083b6fb2471b21075b91245988fa08a6aad7b9775ce65d5bad1ce18a0dd",
    "detection-rate": "4ceff18278d343524a6abdd5ee593d1905bf6c98ef36e1d3a2b977e10b425b84",
    "collusion": "77622077fddf3425fc477977410874078952143e9f606a292e8d7b37f83691f1",
    "contract-feasibility": "4223544fe9b0f34655890f32a504a3676bb5bdf5192a430db5b67f937584f8e6",
    "utility-vs-hour": "3da04c911c0b1c59be98f5efffa04264ce3be5506d30dca5e0c62d000fbe3f9e",
    "utility-vs-type": "971dfcbc134f80eb2fa1412f25fd8637af71acd67b64db6929a72769d44a18ac",
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_csv(scenario, tmp_path):
    path = tmp_path / f"{scenario}.csv"
    run_scenario(scenario, small_cfg(seed=11)).to_csv(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV[scenario]


class TestCli:
    def test_success_writes_table_and_provenance(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arrivals": 1000}))
        rc = cli.main(["arrival-histogram", "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 0
        assert (out / "arrival-histogram.csv").exists()
        prov = (out / "provenance.txt").read_text()
        assert "scenario=arrival-histogram" in prov
        assert "seed=0" in prov

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arrivals": 1000}))
        argv = ["arrival-histogram", "--config", str(cfg)]
        rc1 = cli.main(argv + ["--out", str(tmp_path / "a")])
        rc2 = cli.main(argv + ["--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        assert ((tmp_path / "a" / "arrival-histogram.csv").read_bytes()
                == (tmp_path / "b" / "arrival-histogram.csv").read_bytes())

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arrivals": 1000}))
        cli.main(["arrival-histogram", "--config", str(cfg),
                  "--out", str(tmp_path / "a")])
        cli.main(["arrival-histogram", "--config", str(cfg), "--seed", "99",
                  "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "arrival-histogram.csv").read_bytes()
                != (tmp_path / "b" / "arrival-histogram.csv").read_bytes())

    @pytest.mark.parametrize("overrides", [
        {"s_bits": -1},
        {"profile_hour": "9"},
        {"gammas": 5},
        {"consensus": {"threshold": "x"}},
        {"arrivals": 1.5},
        {"arrivals": True},
        {"n_types": 1},
        {"n_types": 2.5},
        {"trace_path": [1]},
        {"r_bps": [5e6, 6e6]},
        {"alphas": [0, 1.5]},
    ])
    def test_bad_config_exits_two(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(overrides))
        rc = cli.main(["utility-vs-type", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("config error") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("scenario, overrides", [
        ("detection-rate", {"misbehaving": 0}),
        ("reputation-decay", {"misbehaving": 0}),
        ("detection-rate", {"population": 10, "misbehaving": 10}),
    ])
    def test_reputation_edge_config_exits_two(self, tmp_path, capsys,
                                              scenario, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        rc = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("config error") == 1 and "Traceback" not in err
        assert not (tmp_path / f"{scenario}.csv").exists()

    def test_alpha2_zero_runs(self, tmp_path):
        """alpha2 = 0 (no timeliness decay) is a valid WeightConfig."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": [10.0, 0.0]}))
        rc = cli.main(["reputation-decay", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "reputation-decay.csv").exists()

    def test_unknown_scenario_exits_two(self, capsys):
        rc = cli.main(["parallel-parking"])
        assert rc == 2

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        rc = cli.main(["arrival-histogram", "--trace",
                       str(tmp_path / "no.csv"), "--out", str(tmp_path)])
        assert rc == 2
        assert "trace" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "hour,duration\n9,2.5\n9,abc\n",
        "hour,duration\n",
        "hour,duration\n9,2.5\n9,nan\n",
    ], ids=["malformed-row", "header-only", "nan-duration"])
    def test_bad_trace_exits_two(self, tmp_path, capsys, body):
        trace = tmp_path / "trace.csv"
        trace.write_text(body)
        rc = cli.main(["arrival-histogram", "--trace", str(trace),
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("config error") == 1 and "Traceback" not in err
        assert not (tmp_path / "arrival-histogram.csv").exists()

    # vehicles are parked from 9:00 to 12:59 only
    PROBE_TRACE = "hour,duration\n9,1.5\n9,2.5\n10,3.0\n"

    def test_empty_hours_write_no_rows(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(self.PROBE_TRACE)
        rc = cli.main(["utility-vs-hour", "--trace", str(trace), "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "utility-vs-hour.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 * 5
        assert sorted({int(r.split(",")[0]) for r in rows}) == [9, 10, 11, 12]

    @pytest.mark.parametrize("scenario", ["contract-feasibility", "utility-vs-type"])
    def test_empty_profile_hour_exits_two(self, tmp_path, capsys, scenario):
        trace = tmp_path / "trace.csv"
        trace.write_text(self.PROBE_TRACE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile_hour": 13}))
        rc = cli.main([scenario, "--config", str(cfg), "--trace", str(trace),
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("config error") == 1 and "profile_hour 13" in err
        assert "Traceback" not in err
        assert not (tmp_path / f"{scenario}.csv").exists()

    def test_infeasible_exits_three(self, tmp_path, capsys, monkeypatch):
        def boom(name, cfg):
            raise InfeasibleProblem("no monotone menu exists")
        monkeypatch.setattr(cli, "run_scenario", boom)
        rc = cli.main(["utility-vs-type", "--out", str(tmp_path)])
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err

    def test_unprofitable_reward_exits_three(self, tmp_path, capsys):
        """A type whose first-order condition is nonpositive at zero reward
        has no reward to bunch onto: a clean infeasible exit, no traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 1e-20}))
        rc = cli.main(["utility-vs-type", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("infeasible problem") == 1 and "type 1" in err
        assert not (tmp_path / "utility-vs-type.csv").exists()

    def test_trace_flows_into_histogram(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("hour,duration\n" + "9,2.5\n" * 40 + "17,1.0\n" * 10)
        out = tmp_path / "run"
        rc = cli.main(["arrival-histogram", "--trace", str(trace),
                       "--out", str(out)])
        assert rc == 0
        lines = (out / "arrival-histogram.csv").read_text().splitlines()
        by_hour = {int(l.split(",")[0]): int(l.split(",")[1])
                   for l in lines[1:]}
        assert by_hour[9] == 40 and by_hour[17] == 10
        assert "source=trace" in (out / "provenance.txt").read_text()


_TRACE_ROW = st.builds("{},{!r}".format, st.sampled_from([0, 9, 12, 23]) | st.integers(0, 23),
                       st.floats(1e-6, 30.0))
_BAD_ROW = st.sampled_from(["24,1.0", "-1,2.0", "9,0", "9,nan", "9,inf", "9,1e400", "9",
                            "nine,1.0", "9.5,1.0", "1e400,1", "99999999999999999999999,1.0"])


@settings(deadline=None, max_examples=100)
@given(
    scenario=st.sampled_from(["contract-feasibility", "utility-vs-type"] * 3
                             + ["arrival-histogram", "utility-vs-hour"]),
    rows=st.lists(_TRACE_ROW, min_size=1, max_size=6),
    bad=st.none() | _BAD_ROW,
    profile_hour=st.sampled_from([0, 9, 12, 23]),
    n_types=st.integers(2, 4),
)
def test_random_traces_run_or_fail_cleanly(scenario, rows, bad, profile_hour, n_types):
    """Any trace, with empty hours, single vehicles, hours 0 and 23 or a
    malformed row, either writes the table (exit 0) or fails cleanly: one
    config error (exit 2) or an infeasible problem (exit 3), no traceback."""
    if bad is not None:
        rows.insert(len(rows) // 2, bad)
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.csv")
        with open(trace, "w") as fh:
            fh.write("hour,duration\n" + "".join(f"{r}\n" for r in rows))
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"profile_hour": profile_hour, "n_types": n_types}, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([scenario, "--config", cfg, "--trace", trace, "--out", tmp])
        written = os.path.exists(os.path.join(tmp, f"{scenario}.csv"))
    assert rc in (0, 2, 3) and "Traceback" not in err.getvalue()
    assert written == (rc == 0)
    if rc == 2:
        assert err.getvalue().count("config error") == 1
        assert bad is not None or "profile_hour" in err.getvalue()


def test_public_names_resolve():
    """Every name in a module's __all__ exists, so `import *` cannot break
    on a name whose definition was deleted."""
    missing = []
    for info in pkgutil.walk_packages(parkedchain.__path__, "parkedchain."):
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    missing += [f"parkedchain.{name}" for name in parkedchain.__all__
                if not hasattr(parkedchain, name)]
    assert missing == []


def test_span_targets_exist():
    """perfbench/spans.py patches public entry points by name; installing it
    fails when one of them is renamed or deleted."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import spans; "
            "spans.install(spans.SpanRecorder())")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(root, "perfbench"),
         os.path.join(root, "src")],
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
