"""Config validation, scenario tables, and CLI plumbing."""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parkedchain
from parkedchain.consensus import ConsensusConfig
from parkedchain.contract_opt import InfeasibleProblem, TaskParams
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
from parkedchain.reputation import WeightConfig


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

    def test_per_type_rates_held_as_tuple(self, tmp_path):
        """A listed r_bps validates to a hashable config holding a tuple,
        which TaskParams takes as it is and a scenario runs on."""
        rates = [5.0e6 + 1e5 * k for k in range(7)]
        path = tmp_path / "rates.json"
        path.write_text(json.dumps({"r_bps": rates, "arrivals": 2_000}))
        cfg = validate_config(str(path))
        assert cfg.r_bps == tuple(rates)
        assert hash(cfg) == hash(dataclasses.replace(cfg))
        params = TaskParams(**{f.name: getattr(cfg, f.name)
                               for f in dataclasses.fields(TaskParams)})
        assert params.r_of(6) == rates[6]
        assert run_scenario("utility-vs-type", cfg).rows

    def test_defaults_come_from_the_parameter_types(self):
        cfg = ExperimentConfig()
        assert cfg.task_params() == TaskParams()
        assert cfg.weight_config() == WeightConfig()
        assert ConsensusConfig(cfg.consensus.n, cfg.consensus.l) == ConsensusConfig()

    @pytest.mark.parametrize("key, overrides", [
        ("kappa", {"kappa": np.float32(1e4)}),
        ("rho", {"rho": np.float64(0.1)}),
        ("r_bps", {"r_bps": np.float64(5.5e6)}),
        ("r_bps[1]", {"n_types": 2, "r_bps": [5e6, np.float32(6e6)]}),
        ("gammas", {"gammas": [np.float32(0.25), 0.5, 0.25]}),
        ("alphas", {"alphas": [10.0, np.int64(1)]}),
        ("consensus.n", {"consensus": {"n": np.int64(10)}}),
        ("consensus.l", {"consensus": {"l": np.int32(3)}}),
        ("consensus.threshold", {"consensus": {"threshold": np.float32(0.5)}}),
    ])
    def test_numpy_numbers_rejected(self, key, overrides):
        """Every number is an int or a float, as json.loads yields it, so
        that an accepted config always hashes in config_digest."""
        with pytest.raises(ConfigError) as exc:
            validate_config(None, **overrides)
        [diagnostic] = exc.value.diagnostics
        assert diagnostic.startswith(f"{key} ") or diagnostic.startswith(f"{key}: ")

    @pytest.mark.parametrize("overrides", [
        {"seed": bad} for bad in (True, np.True_, math.nan, math.inf, -math.inf, "1", None,
                                  10**400, 1.5)
    ] + [
        {"consensus": {"threshold": bad}}
        for bad in (True, np.True_, math.nan, math.inf, -math.inf, "1", None, 10**400)
    ])
    def test_bad_numbers_rejected(self, overrides):
        """A JSON integer seed below 2**64 and a real threshold in [0, 1]."""
        with pytest.raises(ConfigError):
            validate_config(None, **overrides)

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

    def test_utility_vs_hour_profiles_each_hour_once(self, monkeypatch):
        # perfbench's market-day counts one operation per call of the
        # module attribute parking.hourly_type_profile
        from parkedchain import parking
        hours = []
        profile = parking.hourly_type_profile

        def counting(arrivals, hour, *args, **kwargs):
            hours.append(hour)
            return profile(arrivals, hour, *args, **kwargs)

        monkeypatch.setattr(parking, "hourly_type_profile", counting)
        run_scenario("utility-vs-hour", small_cfg(arrivals=500))
        assert hours == list(range(24))

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
        {"alphas": [float("inf"), 1]},
        {"gammas": [0.3, 0.4, float("nan")]},
        {"kappa": float("inf")},
        {"f_local": float("inf")},
        {"r_bps": float("inf")},
        {"consensus": {"l": True}},
        {"gammas": [0.5, 0.5]},
        {"alphas": [10, -1]},
        {"n_types": 3, "r_bps": [5e6, "x", 6e6]},
        {"gammas": [10**400, 0, 0]},
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

    @pytest.mark.parametrize("scenario, overrides, key", [
        ("collusion", {"collusion_seeds": 10**19}, "collusion_seeds"),
        ("detection-rate", {"consensus": {"slots": 10**19}}, "consensus.slots"),
        ("reputation-decay", {"consensus": {"slots": 10**19}}, "consensus.slots"),
        ("arrival-histogram", {"arrivals": 10**19}, "arrivals"),
        ("detection-rate", {"consensus": {"slots": 0}}, "consensus.slots"),
    ])
    def test_loop_counts_must_fit_an_index(self, tmp_path, capsys, scenario, overrides, key):
        # a count that sizes a loop is >= 1 and at most sys.maxsize, as the layers require
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        rc = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(lines) == 1
        assert lines[0].startswith(f"config error: {key} must be an integer >= 1 ")
        assert not (tmp_path / f"{scenario}.csv").exists()

    def test_misbehaving_must_fit_an_index(self, tmp_path, capsys):
        # misbehaving sizes reputation-decay's list of misbehaving names
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population": 10**19, "misbehaving": 10**19}))
        rc = cli.main(["reputation-decay", "--config", str(cfg), "--out", str(tmp_path)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(lines) == 1
        assert lines[0].startswith("config error: misbehaving must be an integer >= 0 that fits "
                                   "an index")
        assert not (tmp_path / "reputation-decay.csv").exists()

    def test_alpha2_zero_runs(self, tmp_path):
        """alpha2 = 0 (no timeliness decay) is a valid WeightConfig."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": [10.0, 0.0]}))
        rc = cli.main(["reputation-decay", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "reputation-decay.csv").exists()

    @pytest.mark.parametrize("scenario", ["detection-rate", "reputation-decay", "collusion"])
    @pytest.mark.parametrize("weights", [
        {"gammas": [0, 1, 0], "alphas": [1e-320, 50]},
        {"gammas": [0, 1, 0], "alphas": [5e-324, 0]},
        {"alphas": [1e308, 0]},
    ], ids=["subnormal", "least-subnormal", "huge"])
    def test_extreme_weights_run(self, tmp_path, scenario, weights):
        """Subnormal and huge segment weights are valid; the opinions they
        weigh must still close."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**weights, "collusion_seeds": 5}))
        rc = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / f"{scenario}.csv").exists()

    def test_collusion_reads_the_weights(self, tmp_path):
        tables = []
        for weights in ({}, {"gammas": [0.9, 0.05, 0.05], "alphas": [1.0, 0.0]}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"collusion_seeds": 5, **weights}))
            assert cli.main(["collusion", "--config", str(cfg), "--out", str(tmp_path)]) == 0
            tables.append((tmp_path / "collusion.csv").read_bytes())
        assert tables[0] != tables[1]

    def test_out_of_range_seed_flag_is_a_config_error(self, tmp_path, capsys):
        rc = cli.main(["arrival-histogram", "--seed", str(2**64), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.splitlines() == [f"config error: seed must be an unsigned 64-bit "
                                    f"integer (got {2**64})"]

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

    @pytest.mark.parametrize("scenario", [
        "utility-vs-type", "contract-feasibility", "utility-vs-hour"])
    @pytest.mark.parametrize("overrides", [
        {"kappa": 1e300}, {"s_bits": 1e300}, {"e_price": 1e-320},
        {"e_price": 1e300}, {"eps_cap": 1e-320}, {"f_local": 1e-300},
    ])
    def test_float_range_exits_three(self, tmp_path, capsys, scenario, overrides):
        """Task constants whose first-order condition overflows, divides by
        an underflowed zero or turns NaN, or whose time gain is infinite,
        end as one infeasible line."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arrivals": 2000, **overrides}))
        rc = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("infeasible problem:") == 1 and len(err.splitlines()) == 1
        assert not (tmp_path / f"{scenario}.csv").exists()

    @pytest.mark.parametrize("scenario", [
        "utility-vs-type", "contract-feasibility", "utility-vs-hour"])
    @pytest.mark.parametrize("f_max, rc_expected", [(1e-100, 0), (1e-110, 0), (1e-300, 3)])
    def test_tiny_f_max_runs_or_exits_three(self, tmp_path, capsys, scenario, f_max,
                                            rc_expected):
        """A top frequency whose multiplier overflows, or whose cube
        underflows to zero, breaks that LIA chain instead of dividing by
        zero; what is left of the scan either finds a menu or is infeasible."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arrivals": 2000, "f_max": f_max}))
        rc = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == rc_expected
        if rc == 0:
            assert err == "" and (tmp_path / f"{scenario}.csv").exists()
        else:
            assert err.count("infeasible problem:") == 1 and len(err.splitlines()) == 1
            assert not (tmp_path / f"{scenario}.csv").exists()

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


@settings(max_examples=100)
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


_ODD_NUMBERS = st.sampled_from([
    0, 1, -1, 2**64, 10**400, -0.0, 0.5, 5e-324, 1e-300, 1e300,
    float("inf"), float("-inf"), float("nan")])
# wrong types, nested keys, and huge, tiny, -0.0 and non-finite numbers
_JUNK = st.recursive(
    _ODD_NUMBERS | st.booleans() | st.none() | st.sampled_from(["", "9", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "l", "x"]), inner, max_size=2))


def _near(default):
    return st.sampled_from([0.1, 1.0, 1.0, 10.0, 1e-100, 1e100]).map(lambda k: k * default)


# in-range values (the junk's huge numbers are valid counts, too large to run)
_PLAUSIBLE = {
    "seed": st.integers(0, 2**64 - 1),
    "n_types": st.integers(2, 8),
    **{f.name: _near(getattr(ExperimentConfig(), f.name))
       for f in dataclasses.fields(TaskParams) if f.name != "r_bps"},
    "r_bps": _near(5.5e6) | st.lists(_near(5.5e6), min_size=7, max_size=7),
    "gammas": st.sampled_from([[0.3, 0.4, 0.3], [1, 0, 0], [0.2, 0.2, 0.6]]),
    "alphas": st.lists(st.floats(0.01, 20.0), min_size=2, max_size=2),
    "misbehaving": st.integers(0, 12),
    "population": st.integers(1, 60),
    "profile_hour": st.integers(0, 23),
    "consensus": st.fixed_dictionaries({}, optional={
        "n": st.integers(4, 12), "l": st.integers(0, 1),
        "threshold": st.floats(0.0, 1.0), "slots": st.integers(1, 20)}),
    "trace_path": st.sampled_from(["good", "bad", "missing"]),
}
# small counts, in-range values for some other keys, then in a third of the
# configs junk for one or two keys
_FUZZ_CONFIG = st.builds(
    lambda plausible, junk: {**plausible, **junk},
    st.fixed_dictionaries({"arrivals": st.integers(1, 3_000),
                           "collusion_seeds": st.integers(1, 3)}, optional=_PLAUSIBLE),
    st.just({}) | st.just({}) | st.dictionaries(
        st.sampled_from([*_PLAUSIBLE, "arrivals", "no_such_knob"]), _JUNK,
        min_size=1, max_size=2))
_TRACE_FILES = {"good": "hour,duration\n" + "9,2.5\n" * 30 + "10,30\n" * 30,
                "bad": "hour,duration\n9,2.5\n9,abc\n"}


@settings(max_examples=120)
@given(
    scenario=st.sampled_from([s for s in SCENARIOS if s != "utility-vs-hour"]),
    raw=_FUZZ_CONFIG,
    seed=st.none() | st.integers(-1, 2**64).map(str) | st.sampled_from(["0x10", "-0"]),
    trace=st.none() | st.sampled_from(["good", "bad", "missing"]),
)
def test_random_configs_run_or_fail_cleanly(scenario, raw, seed, trace):
    """Any JSON config and any integer --seed or --trace flag either writes
    the table (exit 0) or fails cleanly, with no traceback: exit 2 with one
    `config error:` line per problem, each naming a key, or exit 3. Every
    accepted config builds the three parameter types and hashes. Only
    configs with small counts run a scenario (utility-vs-hour, which
    solves 24 markets, is left to its own tests)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, f"{name}.csv") for name in ("good", "bad", "missing")}
        for name, body in _TRACE_FILES.items():
            with open(paths[name], "w") as fh:
                fh.write(body)
        if isinstance(raw.get("trace_path"), str):
            raw["trace_path"] = paths.get(raw["trace_path"], raw["trace_path"])
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(raw, fh)
        flags = {"seed": None if seed is None else int(seed, 0),
                 "trace_path": paths.get(trace)}
        try:
            cfg = validate_config(cfg_path, **{k: v for k, v in flags.items() if v is not None})
        except ConfigError:
            cfg = None
        else:
            cfg.task_params()
            cfg.weight_config()
            ConsensusConfig(cfg.consensus.n, cfg.consensus.l)
            hash(cfg)
            small = (cfg.arrivals <= 3_000 and cfg.n_types <= 8 and cfg.collusion_seeds <= 3
                     and cfg.population <= 60 and cfg.consensus.slots <= 20)
            if not small:
                return
        argv = [scenario, "--config", cfg_path, "--out", tmp]
        argv += ["--seed", seed] if seed is not None else []
        argv += ["--trace", paths[trace]] if trace is not None else []
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        written = os.path.exists(os.path.join(tmp, f"{scenario}.csv"))
    lines = err.getvalue().splitlines()
    assert rc in (0, 2, 3) and "Traceback" not in err.getvalue()
    assert written == (rc == 0)
    assert (cfg is None) <= (rc == 2)
    if rc == 2:
        names = [*_PLAUSIBLE, "arrivals", "collusion_seeds", "no_such_knob", "threshold",
                 "slots", "trace"]
        assert lines and all(line.startswith("config error: ")
                             and any(name in line for name in names) for line in lines)


def test_cli_module_runs_in_a_fresh_interpreter(tmp_path):
    """`python -m parkedchain.harness.cli` under `-W error`: a run writes the
    bytes an in-process `cli.main` run writes, and a config error exits 2
    with one `config error:` line per problem and no traceback."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run(config, out):
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "parkedchain.harness.cli",
             "reputation-decay", "--config", str(config), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120, check=False)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": 12, "misbehaving": 3, "consensus": {"slots": 4}}))
    proc = run(cfg, tmp_path / "child")
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["reputation-decay", "--config", str(cfg),
                     "--out", str(tmp_path / "in-process")]) == 0
    for name in ("reputation-decay.csv", "provenance.txt"):
        assert ((tmp_path / "child" / name).read_bytes()
                == (tmp_path / "in-process" / name).read_bytes())

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_knob": 1, "consensus": {"no_such_key": 2}}))
    proc = run(bad, tmp_path / "bad")
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2 and len(lines) == 2, proc.stderr
    assert all(line.startswith("config error: ") for line in lines), proc.stderr
    assert "Traceback" not in proc.stderr


def test_scenarios_load_only_the_layers_they_run(tmp_path):
    """Through `cli.main` in a fresh interpreter, reputation-decay,
    detection-rate and collusion load no scipy module, and arrival-histogram,
    which classifies nothing, loads no `scipy.optimize`."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": 12, "misbehaving": 3, "collusion_seeds": 2,
                               "arrivals": 2000, "consensus": {"slots": 4}}))
    code = ("import json, sys\n"
            "from parkedchain.harness import cli\n"
            "loaded = {}\n"
            "for name in ('reputation-decay', 'detection-rate', 'collusion', 'arrival-histogram'):\n"
            "    assert cli.main([name, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "    loaded[name] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps(loaded))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["collusion"] == []    # and so for the two before it
    assert "scipy.optimize" not in loaded["arrival-histogram"]


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


def test_layers_import_without_scipy():
    """The package imports no layer itself, so importing the reputation,
    consensus and ledger layers, which need no scipy, loads none of it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys\n"
            "import parkedchain.consensus, parkedchain.ledger, parkedchain.reputation\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_span_targets_exist(tmp_path):
    """perfbench/spans.py patches public entry points by name, and
    perfbench/stream.py calls them. With the spans installed, a tiny
    settle-stream and a two-seed collusion run must end without gate
    errors and count consensus views, so a renamed or deleted entry point
    fails here rather than in every traced benchmark run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import dataclasses, json, sys\n"
        "import spans, stream\n"
        "from parkedchain.harness import scenarios, validate_config\n"
        "rec = spans.SpanRecorder()\n"
        "spans.install(rec)\n"
        "cfg = validate_config(None)\n"
        "result = stream.run_stream(cfg, sys.argv[1], stream.TINY)\n"
        "scenarios.run_scenario('collusion', dataclasses.replace(cfg, collusion_seeds=2))\n"
        "print(json.dumps({'gate_errors': result.gate_errors,\n"
        "                  'views': spans.layer_metrics(rec)['consensus.views']}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["gate_errors"] == [] and report["views"] > 0


def test_layer_functions_run_in_a_simulation(tmp_path):
    """Every plain function a layer exports, in its __all__ or defined in
    it under a public name, is called by a simulation: the seven scenarios
    on a small config, arrival-histogram again on a trace file, and a tiny
    settle stream, traced with sys.setprofile. A function that only tests
    call is an oracle and lives under tests/."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    trace = tmp_path / "trace.csv"
    trace.write_text("arrival_hour,duration_hours\n8,3.5\n9,6.0\n12,1.5\n")
    code = (
        "import inspect, json, sys\n"
        "import stream\n"
        "from parkedchain import consensus, contract_opt, ledger, parking, reputation\n"
        "from parkedchain.harness import scenarios, validate_config\n"
        "called = set()\n"
        "sys.setprofile(lambda frame, event, arg:\n"
        "               called.add(frame.f_code) if event == 'call' else None)\n"
        "cfg = validate_config(None, arrivals=2000, collusion_seeds=2)\n"
        "for name in scenarios.SCENARIOS:\n"
        "    scenarios.run_scenario(name, cfg)\n"
        "scenarios.run_scenario('arrival-histogram', validate_config(\n"
        "    None, arrivals=2000, collusion_seeds=2, trace_path=sys.argv[2]))\n"
        "stream.run_stream(cfg, sys.argv[1], stream.TINY)\n"
        "sys.setprofile(None)\n"
        "print(json.dumps(sorted(\n"
        "    f'{m.__name__}.{name}'\n"
        "    for m in (consensus, contract_opt, ledger, parking, reputation)\n"
        "    for name, f in vars(m).items()\n"
        "    if inspect.isfunction(f) and f.__code__ not in called\n"
        "    and (name in m.__all__\n"
        "         or not name.startswith('_') and f.__module__ == m.__name__))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(trace)], env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    unreached = json.loads(proc.stdout.splitlines()[-1])
    assert unreached == []


def test_readme_examples_run():
    """Every ```python block of README.md runs as written."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = [part.split("```")[0] for part in fh.read().split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, "README.md", "exec"), {})
