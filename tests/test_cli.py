"""Tests for the command line layer: strict config parsing, artifact
formats, determinism, exit codes, and the bench/check subcommands."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import scvxkit
from scvxkit.cli import (
    BENCH_COLUMNS,
    EXIT_ASSUMPTION,
    EXIT_CONFIG,
    EXIT_ITERATIONS,
    EXIT_OK,
    EXIT_SOLVER,
    ConfigError,
    OutputConfig,
    _bench_row,
    execute_run,
    load_config,
    main,
    parse_config,
    read_trace,
)

TRACE_FIELDS = ["k", "J", "L", "rho", "radius", "step_norm", "accepted",
                "predicted_decrease", "actual_decrease"]
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
BENCH_HEADER = ("name,status,iterations,accepted,J_final,stationarity_residual,beta_hat,"
                "gamma_hat,small_step_pass,rate_order,superlinear,error")


def minimal_config(**extra):
    data = {"schema_version": 1, "problem": {"name": "toy-sharp-1d"}}
    data.update(extra)
    return data


def write_config(tmp_path, name="run.json", **extra):
    path = tmp_path / name
    path.write_text(json.dumps(minimal_config(**extra)))
    return str(path)


def assert_unwritable(code, capsys, what, target):
    """The run exited with a config error that names the output it could not write."""
    assert code == EXIT_CONFIG
    assert f"config error: cannot write {what} {target}: " in capsys.readouterr().err


def with_value(data, path, value):
    """A copy of the config data whose key at the dotted path holds value."""
    data = json.loads(json.dumps(data))
    *sections, key = path.split(".")
    node = data
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return data


class TestParseConfig:
    def test_minimal_accepted(self):
        config = parse_config(minimal_config())
        assert config.problem_name == "toy-sharp-1d"
        assert config.seed == 0
        assert config.penalty_weight is None
        assert config.diagnostics.small_step

    def test_unknown_root_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(bogus=1))
        assert "unknown config key 'bogus'" in str(err.value)

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(trust_region={"r_init": 1.0, "turbo": True}))
        assert "trust_region.turbo" in str(err.value)

    def test_unknown_diagnostics_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(diagnostics={"veryfast": 1}))
        assert "diagnostics.veryfast" in str(err.value)

    def test_schema_version_required(self):
        data = minimal_config()
        del data["schema_version"]
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert "schema_version" in str(err.value)

    def test_schema_version_wrong(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(schema_version=2))

    def test_problem_name_required(self):
        with pytest.raises(ConfigError):
            parse_config({"schema_version": 1, "problem": {}})

    def test_seed_must_be_integer(self):
        for bad in ("7", 1.5, True):
            with pytest.raises(ConfigError):
                parse_config(minimal_config(seed=bad))

    def test_lambda_must_be_number(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(**{"lambda": "ten"}))
        config = parse_config(minimal_config(**{"lambda": 12}))
        assert config.penalty_weight == 12.0

    def test_bad_trust_region_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(trust_region={"shrink_factor": 0.5}))
        assert "trust_region" in str(err.value)

    def test_bad_norm_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(diagnostics={"norm": "three"}))
        # The probes use the inf-norm, the run seed, fixed sample sizes and
        # epsilon = delta / 2, so configs that still set the old keys are
        # rejected by name.
        for key, value in (("norm", "inf"), ("n_directions", 64), ("seed", 0),
                           ("n_samples", 64), ("n_probes", 64), ("m_tail", 5),
                           ("epsilon", 0.05)):
            with pytest.raises(ConfigError) as err:
                parse_config(minimal_config(diagnostics={key: value}))
            assert f"diagnostics.{key}" in str(err.value)
            path = write_config(tmp_path, diagnostics={key: value})
            assert main(["solve", "--config", path]) == EXIT_CONFIG
            assert f"diagnostics.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("enabled", "false"), ("small_step", "no"), ("seed", "abc"), ("seed", 1.5),
        ("delta", -1), ("seed", -1),
    ])
    def test_bad_diagnostics_value_rejected(self, tmp_path, capsys, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(diagnostics={key: value}))
        assert "diagnostics" in str(err.value) and key in str(err.value)
        path = write_config(tmp_path, diagnostics={key: value})
        assert main(["solve", "--config", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("lambda", -1), ("lambda", 0), ("lambda", float("nan")), ("lambda", float("inf")),
        ("start_jitter", -1), ("start_jitter", float("nan")), ("start_jitter", float("inf")),
        ("seed", -1),
    ])
    def test_bad_top_level_value_rejected(self, tmp_path, capsys, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(**{key: value}))
        assert key in str(err.value)
        path = write_config(tmp_path, **{key: value})
        assert main(["solve", "--config", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("norm_budget", True), ("r_init", True), ("stop_predicted_decrease", True), ("rho0", False),
    ])
    def test_boolean_trust_region_value_rejected(self, tmp_path, capsys, key, value):
        # A bool is an int to Python: true as the norm budget would be 1.
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(trust_region={key: value}))
        assert "trust_region" in str(err.value) and key in str(err.value)
        path = write_config(tmp_path, trust_region={key: value})
        assert main(["solve", "--config", path]) == EXIT_CONFIG
        assert "trust_region" in capsys.readouterr().err

    def test_retired_stop_step_norm_rejected(self, tmp_path, capsys):
        # stop_step_norm is not a TrustRegionParams field, so strict parsing
        # rejects it by name.
        path = write_config(tmp_path, trust_region={"stop_step_norm": 1e-9})
        assert main(["solve", "--config", path]) == EXIT_CONFIG
        assert "trust_region.stop_step_norm" in capsys.readouterr().err

    def test_retired_diagnostics_enabled_rejected(self, tmp_path, capsys):
        # Every run writes its report, so a config that still switches the
        # diagnostics on or off is rejected by name.
        for value in (True, False):
            path = write_config(tmp_path, diagnostics={"enabled": value})
            assert main(["solve", "--config", path]) == EXIT_CONFIG
            assert "diagnostics.enabled" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[], 0, False, ""])
    def test_wrongly_typed_overrides_rejected(self, tmp_path, capsys, value):
        # Only an absent or null value means no overrides.
        path = write_config(tmp_path, problem={"name": "toy-sharp-1d", "overrides": value})
        assert main(["solve", "--config", path]) == EXIT_CONFIG
        assert "problem.overrides" in capsys.readouterr().err
        assert parse_config(minimal_config(problem={"name": "toy-sharp-1d",
                                                    "overrides": None})).overrides == {}

    def test_output_paths_must_be_strings(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(output={"trace": 7}))

    def test_trust_region_values_applied(self):
        config = parse_config(minimal_config(trust_region={"r_init": 0.5,
                                                           "max_iterations": 11}))
        assert config.trust_region.r_init == 0.5
        assert config.trust_region.max_iterations == 11


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "problem": }')
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "line 2" in str(err.value)

    def test_non_finite_tokens_rejected(self, tmp_path, capsys):
        for token in ("NaN", "Infinity", "-Infinity"):
            path = tmp_path / "run.json"
            path.write_text('{"schema_version": 1, "problem": {"name": "toy-sharp-1d"}, '
                            '"trust_region": {"norm_budget": %s}}' % token)
            assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "config error" in err and token in err

    def test_overflowing_number_rejected(self, tmp_path, capsys):
        # Python reads 1e999 as inf, which summary.json would record as null.
        path = tmp_path / "run.json"
        path.write_text('{"schema_version": 1, "problem": {"name": "toy-sharp-1d"}, '
                        '"trust_region": {"r_max": 1e999}}')
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err and "1e999" in err

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(minimal_config()).encode() + b"\xff")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "UTF-8" in str(err.value)
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


class TestSolveArtifacts:
    def run_solve(self, tmp_path, name="toy-sharp-1d", **extra):
        out = tmp_path / "out"
        output = {
            "trace": str(out / "trace.jsonl"),
            "iterates": str(out / "iterates.jsonl"),
            "summary": str(out / "summary.json"),
            "report": str(out / "report.json"),
            "plot_dir": str(out / "plots"),
        }
        config_path = write_config(tmp_path, problem={"name": name},
                                   output=output, **extra)
        code = main(["solve", "--config", config_path])
        return code, out

    def test_exit_zero_and_files_exist(self, tmp_path, capsys):
        code, out = self.run_solve(tmp_path)
        assert code == EXIT_OK
        for name in ("trace.jsonl", "iterates.jsonl", "summary.json", "report.json"):
            assert (out / name).exists()
        assert "status=converged-stationary" in capsys.readouterr().out

    def test_trace_field_set_is_exact(self, tmp_path):
        _, out = self.run_solve(tmp_path)
        with open(out / "trace.jsonl") as handle:
            for line in handle:
                row = json.loads(line)
                assert list(row) == TRACE_FIELDS

    def test_terminal_record_serializes_null_rho(self, tmp_path):
        _, out = self.run_solve(tmp_path)
        last = json.loads(Path(out / "trace.jsonl").read_text().splitlines()[-1])
        assert last["rho"] is None
        assert last["accepted"] is False

    def test_summary_contents(self, tmp_path):
        _, out = self.run_solve(tmp_path)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["problem"]["name"] == "toy-sharp-1d"
        assert summary["status"] == "converged-stationary"
        assert summary["exit_code"] == 0
        assert summary["J_final"] == pytest.approx(1.0, abs=1e-8)
        assert summary["final_z"] == pytest.approx([1.0], abs=1e-8)
        assert summary["stationarity_probe_radius"] <= 1.0
        assert summary["max_equality_violation"] <= 1e-8
        assert "runtime_s" in summary
        # The solve summary stays lean; diagnostics live in the report file.
        assert "diagnostics" not in summary

    def test_report_structure(self, tmp_path):
        _, out = self.run_solve(tmp_path)
        report = json.loads((out / "report.json").read_text())
        for key in ("level_set", "ratio_tail", "sharp_minimum", "model_growth",
                    "strong_convergence", "rate", "subdifferential", "small_step"):
            assert key in report, key
        assert report["level_set"]["passed"] is True
        assert report["sharp_minimum"]["beta_hat"] > 0

    def test_non_finite_values_written_as_null(self, tmp_path):
        # delta 80 gives epsilon 40: probes up to 40 away from the minimizer
        # meet unbounded models, whose step norm is infinite.
        _, out = self.run_solve(tmp_path, diagnostics={"delta": 80.0})

        def reject(token):
            raise ValueError(f"non-finite number {token}")

        for path in sorted(out.rglob("*.json*")):
            text = path.read_text()
            for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                json.loads(doc, parse_constant=reject)
        small = json.loads((out / "report.json").read_text())["small_step"]
        assert small["max_step_norm"] is None
        assert small["passed"] is False

    def test_plot_files(self, tmp_path):
        _, out = self.run_solve(tmp_path)
        trace_lines = Path(out / "trace.jsonl").read_text().splitlines()
        obj_lines = Path(out / "plots" / "objective.dat").read_text().splitlines()
        assert len(obj_lines) == len(trace_lines)
        for line in obj_lines:
            k, value = line.split()
            int(k)
            float(value)
        ratio_lines = Path(out / "plots" / "ratio.dat").read_text().splitlines()
        defined = [json.loads(l) for l in trace_lines if json.loads(l)["rho"] is not None]
        assert len(ratio_lines) == len(defined)

    def test_iterates_sidecar_matches_trace(self, tmp_path):
        _, out = self.run_solve(tmp_path)
        trace_ks = [json.loads(l)["k"] for l in Path(out / "trace.jsonl").read_text().splitlines()]
        sidecar = [json.loads(l) for l in Path(out / "iterates.jsonl").read_text().splitlines()]
        assert [row["k"] for row in sidecar] == trace_ks
        assert all(isinstance(row["z"], list) for row in sidecar)

    def test_read_trace_roundtrip(self, tmp_path):
        _, out = self.run_solve(tmp_path)
        records = read_trace(str(out / "trace.jsonl"), str(out / "iterates.jsonl"))
        rows = [json.loads(l) for l in Path(out / "trace.jsonl").read_text().splitlines()]
        assert len(records) == len(rows)
        for rec, row in zip(records, rows):
            assert rec.k == row["k"]
            assert rec.J == row["J"]
            assert rec.model_value == row["L"]
            assert rec.rho == row["rho"]
            assert rec.accepted == row["accepted"]
            assert rec.z is not None

    def test_reruns_are_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path, seed=5, start_jitter=0.2)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["solve", "--config", config_path, "--trace", str(a)]) == EXIT_OK
        assert main(["solve", "--config", config_path, "--trace", str(b)]) == EXIT_OK
        assert hashlib.sha256(a.read_bytes()).hexdigest() == \
               hashlib.sha256(b.read_bytes()).hexdigest()

    def test_trace_and_report_flags_replace_the_configured_paths(self, tmp_path, capsys):
        _, out = self.run_solve(tmp_path)
        again = tmp_path / "again"
        assert main(["solve", "--config", str(tmp_path / "run.json"),
                     "--trace", str(again / "trace.jsonl"),
                     "--report", str(again / "report.json")]) == EXIT_OK
        for name in ("trace.jsonl", "report.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_different_seed_changes_jittered_start(self, tmp_path):
        base = {"start_jitter": 0.3}
        path_a = write_config(tmp_path, name="a.json", seed=1, **base)
        path_b = write_config(tmp_path, name="b.json", seed=2, **base)
        a = tmp_path / "ta.jsonl"
        b = tmp_path / "tb.jsonl"
        main(["solve", "--config", path_a, "--trace", str(a)])
        main(["solve", "--config", path_b, "--trace", str(b)])
        first_a = json.loads(a.read_text().splitlines()[0])
        first_b = json.loads(b.read_text().splitlines()[0])
        assert first_a["J"] != first_b["J"]


class TestExitCodes:
    def test_config_error_exit(self, tmp_path, capsys):
        missing = str(tmp_path / "none.json")
        assert main(["solve", "--config", missing]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_problem_exit(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "warp-drive"})
        assert main(["solve", "--config", path]) == EXIT_CONFIG

    def test_bad_builtin_override_exit(self, tmp_path, capsys):
        # A one-element target used to escape as an IndexError traceback.
        path = write_config(tmp_path, problem={"name": "double-integrator-obstacle",
                                               "overrides": {"target": [5.0]}})
        assert main(["solve", "--config", path]) == EXIT_CONFIG
        assert "config error: bad overrides" in capsys.readouterr().err

    def test_iteration_limit_exit(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "double-integrator-obstacle"},
                            trust_region={"max_iterations": 2})
        assert main(["solve", "--config", path]) == EXIT_ITERATIONS

    def test_level_set_exit(self, tmp_path):
        path = write_config(tmp_path, problem={"name": "noncompact-levelset"})
        assert main(["solve", "--config", path]) == EXIT_ASSUMPTION

    def test_subproblem_failure_exit_keeps_artifacts(self, tmp_path, monkeypatch):
        import scvxkit.subproblem as subproblem_module
        from scvxkit.simplex import solve_box_lp
        monkeypatch.setattr(subproblem_module, "solve_box_lp",
                            lambda *args, **kwargs: solve_box_lp(*args, max_iter=1, **kwargs))
        out = tmp_path / "out"
        output = {"trace": str(out / "trace.jsonl"), "summary": str(out / "summary.json")}
        path = write_config(tmp_path, problem={"name": "double-integrator-obstacle"},
                            output=output)
        assert main(["solve", "--config", path]) == EXIT_SOLVER
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "subproblem-failure"
        assert summary["stationarity_residual"] is None
        assert (out / "trace.jsonl").exists()

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        # An existing directory where summary.json belongs.
        target = tmp_path / "taken"
        target.mkdir()
        path = write_config(tmp_path, output={"summary": str(target)})
        assert_unwritable(main(["solve", "--config", path]), capsys, "summary", target)


class TestBench:
    def test_csv_over_directory(self, tmp_path, capsys):
        configs = tmp_path / "configs"
        configs.mkdir()
        (configs / "01-toy.json").write_text(json.dumps(minimal_config()))
        (configs / "02-broken.json").write_text(json.dumps({"schema_version": 999}))
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "--dir", str(configs), "--out", str(out_csv)]) == EXIT_OK
        with open(out_csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["name"] for row in rows] == ["01-toy", "02-broken"]
        assert rows[0]["status"] == "converged-stationary"
        assert float(rows[0]["J_final"]) == pytest.approx(1.0, abs=1e-8)
        assert rows[0]["beta_hat"] != ""
        assert rows[1]["status"] == "error"
        assert "schema_version" in rows[1]["error"]
        with open(out_csv) as handle:
            header = handle.readline().strip()
        assert header == ",".join(BENCH_COLUMNS) == BENCH_HEADER

    @staticmethod
    def row_of(status="converged-stationary", **report):
        """The bench row of a hand-built summary whose report holds these sections."""
        summary = {"status": status, "iterations": 3, "accepted": 2, "J_final": 1.0,
                   "stationarity_residual": 2.5e-14, "diagnostics": {"status": status, **report}}
        return _bench_row("run", summary)

    def test_row_of_a_converged_report(self):
        rate = {"order_q": 1.75, "defined": True, "superlinear_evidence": True}
        row = self.row_of(sharp_minimum={"beta_hat": 8.01}, model_growth={"gamma_hat": 0.1},
                          small_step={"passed": False}, rate=rate)
        assert row == {"name": "run", "status": "converged-stationary", "iterations": "3",
                       "accepted": "2", "J_final": "1.0", "stationarity_residual": "2.5e-14",
                       "beta_hat": "8.01", "gamma_hat": "0.1", "small_step_pass": "false",
                       "rate_order": "1.75", "superlinear": "true", "error": ""}
        row = self.row_of(small_step={"passed": True},
                          rate={**rate, "superlinear_evidence": False})
        assert (row["small_step_pass"], row["rate_order"], row["superlinear"]) == (
            "true", "1.75", "false")

    def test_undefined_rate_leaves_its_cells_empty(self):
        row = self.row_of(model_growth={"gamma_hat": 8.0},
                          rate={"order_q": None, "defined": False, "superlinear_evidence": False})
        assert (row["gamma_hat"], row["rate_order"], row["superlinear"]) == ("8.0", "", "")

    def test_report_without_sections_leaves_the_diagnostics_empty(self):
        row = self.row_of(status="iteration-limit", skipped="needs a converged run")
        assert row["status"] == "iteration-limit" and row["iterations"] == "3"
        assert [row[key] for key in ("beta_hat", "gamma_hat", "small_step_pass", "rate_order",
                                     "superlinear")] == [""] * 5

    def test_nan_growth_constant(self):
        assert self.row_of(model_growth={"gamma_hat": float("nan")})["gamma_hat"] == "nan"

    def test_row_without_summary(self):
        row = _bench_row("broken", None, error="bad config")
        assert row == {**dict.fromkeys(BENCH_HEADER.split(","), ""), "name": "broken",
                       "status": "error", "error": "bad config"}

    def test_unwritable_csv_is_config_error(self, tmp_path, capsys):
        configs = tmp_path / "configs"
        configs.mkdir()
        (configs / "toy.json").write_text(json.dumps(minimal_config()))
        target = tmp_path / "taken"
        target.mkdir()
        code = main(["bench", "--dir", str(configs), "--out", str(target)])
        assert_unwritable(code, capsys, "bench CSV", target)

    def test_missing_directory(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "--dir", str(tmp_path / "nope"), "--out", str(out_csv)]) == EXIT_CONFIG


class TestCheck:
    def test_check_reproduces_solve_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        output = {
            "trace": str(out / "trace.jsonl"),
            "iterates": str(out / "iterates.jsonl"),
            "summary": str(out / "summary.json"),
            "report": str(out / "report.json"),
        }
        config_path = write_config(tmp_path, output=output)
        assert main(["solve", "--config", config_path]) == EXIT_OK
        original = (out / "report.json").read_bytes()
        recheck_path = out / "report2.json"
        assert main(["check", "--config", config_path,
                     "--report", str(recheck_path)]) == EXIT_OK
        assert recheck_path.read_bytes() == original

    @pytest.mark.parametrize("config_name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_check_reproduces_bundled_solve(self, tmp_path, monkeypatch, capsys, config_name):
        monkeypatch.chdir(tmp_path)
        config_path = str(CONFIG_DIR / config_name)
        main(["solve", "--config", config_path])
        recheck_path = tmp_path / "other.json"
        assert main(["check", "--config", config_path,
                     "--report", str(recheck_path)]) == EXIT_OK
        solved = Path(load_config(config_path).output.report).read_bytes()
        assert recheck_path.read_bytes() == solved

    @pytest.mark.parametrize("config_name, path, solved, edited", [
        ("toy-sharp-2d.json", "seed", 3, 0),
        ("toy-sharp-1d.json", "lambda", 10.0, 3.0),
        ("toy-sharp-1d.json", "trust_region.norm_budget", None, 0.5),
        ("toy-sharp-1d.json", "diagnostics.delta", None, 0.05),
        ("toy-sharp-1d.json", "diagnostics.small_step", None, False),
        ("dubins-car.json", "problem.overrides", None, {"dt": 0.6}),
    ], ids=["seed", "lambda", "norm_budget", "delta", "small_step", "overrides"])
    def test_check_uses_the_inputs_of_the_solve(self, tmp_path, monkeypatch, capsys,
                                                config_name, path, solved, edited):
        # One input is edited between solve and check (solved None keeps the
        # bundled value); check re-runs under the input summary.json records.
        monkeypatch.chdir(tmp_path)
        data = json.loads((CONFIG_DIR / config_name).read_text())
        if solved is not None:
            data = with_value(data, path, solved)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(data))
        assert main(["solve", "--config", str(config_path)]) == EXIT_OK
        config_path.write_text(json.dumps(with_value(data, path, edited)))
        recheck_path = tmp_path / "other.json"
        assert main(["check", "--config", str(config_path),
                     "--report", str(recheck_path)]) == EXIT_OK
        config = load_config(str(config_path))
        solved_report = Path(config.output.report).read_bytes()
        assert recheck_path.read_bytes() == solved_report
        # The edit matters: a solve under the edited config reports otherwise.
        edited_path = tmp_path / "edited.json"
        execute_run(replace(config, output=OutputConfig(report=str(edited_path))), quiet=True)
        assert edited_path.read_bytes() != solved_report

    def test_check_rechecks_the_recorded_problem(self, tmp_path, capsys):
        # The config gives only the paths: a config that names another
        # problem re-checks the problem the solve recorded.
        out = tmp_path / "out"
        output = {"trace": str(out / "trace.jsonl"), "iterates": str(out / "iterates.jsonl"),
                  "summary": str(out / "summary.json"), "report": str(out / "report.json")}
        config_path = write_config(tmp_path, output=output)
        assert main(["solve", "--config", config_path]) == EXIT_OK
        write_config(tmp_path, problem={"name": "toy-sharp-2d"}, output=output)
        capsys.readouterr()
        recheck_path = out / "report2.json"
        assert main(["check", "--config", config_path,
                     "--report", str(recheck_path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("check toy-sharp-1d: ")
        assert recheck_path.read_bytes() == (out / "report.json").read_bytes()

    @pytest.mark.parametrize("damage, named", [
        ("no-config", "lacks config"),
        ("no-problem", "problem"),
        ("unknown-key", "trust_region.turbo"),
        ("schema-version-0", "schema_version"),
        ("negative-lambda", "lambda"),
        ("unknown-builtin", "unknown builtin 'bogus'"),
    ], ids=["no-config", "no-problem", "unknown-key", "schema-version-0", "negative-lambda",
            "unknown-builtin"])
    def test_check_summary_without_a_valid_config_is_config_error(self, tmp_path, capsys,
                                                                  damage, named):
        out = tmp_path / "out"
        output = {"trace": str(out / "trace.jsonl"), "iterates": str(out / "iterates.jsonl"),
                  "summary": str(out / "summary.json")}
        config_path = write_config(tmp_path, output=output)
        assert main(["solve", "--config", config_path]) == EXIT_OK
        summary = out / "summary.json"
        data = json.loads(summary.read_text())
        if damage == "no-config":
            del data["config"]
        elif damage == "no-problem":
            del data["config"]["problem"]
        elif damage == "unknown-key":
            data["config"]["trust_region"]["turbo"] = True
        elif damage == "schema-version-0":
            data["config"]["schema_version"] = 0
        elif damage == "unknown-builtin":
            data["config"]["problem"]["name"] = "bogus"
        else:
            data["config"]["lambda"] = -1.0
        summary.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", "--config", config_path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(summary) in err and named in err

    @pytest.mark.parametrize("sidecar", ["unset", "deleted", "truncated"])
    def test_check_without_every_iterate_is_config_error(self, tmp_path, capsys, sidecar):
        out = tmp_path / "out"
        iterates = out / "iterates.jsonl"
        output = {"trace": str(out / "trace.jsonl"), "summary": str(out / "summary.json")}
        if sidecar != "unset":
            output["iterates"] = str(iterates)
        config_path = write_config(tmp_path, output=output)
        assert main(["solve", "--config", config_path]) == EXIT_OK
        if sidecar == "deleted":
            iterates.unlink()
        elif sidecar == "truncated":
            iterates.write_text("".join(iterates.read_text().splitlines(True)[:-1]))
        capsys.readouterr()
        assert main(["check", "--config", config_path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert (str(iterates) if sidecar == "truncated" else "output.iterates") in err

    def test_check_unwritable_report_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        output = {"trace": str(out / "trace.jsonl"), "iterates": str(out / "iterates.jsonl"),
                  "summary": str(out / "summary.json")}
        config_path = write_config(tmp_path, output=output)
        assert main(["solve", "--config", config_path]) == EXIT_OK
        capsys.readouterr()
        code = main(["check", "--config", config_path, "--report", str(out)])
        assert_unwritable(code, capsys, "report", out)

    def test_check_without_solve_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        output = {"trace": str(out / "trace.jsonl"), "summary": str(out / "summary.json")}
        config_path = write_config(tmp_path, output=output)
        assert main(["check", "--config", config_path]) == EXIT_CONFIG

    def test_check_truncated_summary_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        output = {"trace": str(out / "trace.jsonl"), "summary": str(out / "summary.json")}
        config_path = write_config(tmp_path, output=output)
        assert main(["solve", "--config", config_path]) == EXIT_OK
        summary = out / "summary.json"
        summary.write_text(summary.read_text()[:40])
        capsys.readouterr()
        assert main(["check", "--config", config_path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("damaged", ["trace.jsonl", "iterates.jsonl"])
    def test_check_truncated_trace_is_config_error(self, tmp_path, capsys, damaged):
        out = tmp_path / "out"
        output = {"trace": str(out / "trace.jsonl"), "iterates": str(out / "iterates.jsonl"),
                  "summary": str(out / "summary.json")}
        config_path = write_config(tmp_path, output=output)
        assert main(["solve", "--config", config_path]) == EXIT_OK
        target = out / damaged
        text = target.read_text()
        target.write_text(text[:text.index("\n") + 10])
        capsys.readouterr()
        assert main(["check", "--config", config_path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(target) in err and "line 2" in err

    def test_check_summary_without_final_z_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        output = {"trace": str(out / "trace.jsonl"), "summary": str(out / "summary.json")}
        config_path = write_config(tmp_path, output=output)
        assert main(["solve", "--config", config_path]) == EXIT_OK
        summary = out / "summary.json"
        data = json.loads(summary.read_text())
        del data["final_z"]
        summary.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", "--config", config_path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(summary) in err and "final_z" in err

    @pytest.mark.parametrize("damaged, key, value", [
        ("summary.json", "final_z", "abc"),
        ("summary.json", "seed", -1),
        ("summary.json", "seed", 1.5),
        ("trace.jsonl", "J", "x"),
    ])
    def test_check_wrongly_typed_value_is_config_error(self, tmp_path, capsys,
                                                       damaged, key, value):
        out = tmp_path / "out"
        output = {"trace": str(out / "trace.jsonl"), "summary": str(out / "summary.json")}
        config_path = write_config(tmp_path, output=output)
        assert main(["solve", "--config", config_path]) == EXIT_OK
        target = out / damaged
        if target.suffix == ".jsonl":
            rows = [json.loads(line) for line in target.read_text().splitlines()]
            rows[0][key] = value
            target.write_text("".join(json.dumps(row) + "\n" for row in rows))
        else:
            data = json.loads(target.read_text())
            # seed sits in the recorded config, the other keys at the top.
            (data if key in data else data["config"])[key] = value
            target.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", "--config", config_path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(target) in err and key in err

    @pytest.mark.parametrize("damage", ["short-final-z", "long-terminal-iterate",
                                        "long-accepted-iterate", "unknown-status"])
    def test_check_saved_run_that_does_not_fit_is_config_error(self, tmp_path, capsys, damage):
        # toy-sharp-2d has n_z = 2: the saved vectors must have that length
        # and the status must be one a solve ends with.
        out = tmp_path / "out"
        output = {"trace": str(out / "trace.jsonl"), "iterates": str(out / "iterates.jsonl"),
                  "summary": str(out / "summary.json")}
        config_path = write_config(tmp_path, problem={"name": "toy-sharp-2d"}, output=output)
        assert main(["solve", "--config", config_path]) == EXIT_OK
        if damage.endswith("iterate"):
            target = out / "iterates.jsonl"
            trace = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
            k = trace[-1]["k"] if damage == "long-terminal-iterate" else \
                next(row["k"] for row in trace if row["accepted"])
            rows = [json.loads(line) for line in target.read_text().splitlines()]
            for row in rows:
                if row["k"] == k:
                    row["z"] = row["z"] + [2.0]
            target.write_text("".join(json.dumps(row) + "\n" for row in rows))
        else:
            target = out / "summary.json"
            data = json.loads(target.read_text())
            if damage == "short-final-z":
                data["final_z"] = data["final_z"][:1]
            else:
                data["status"] = "bogus"
            target.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", "--config", config_path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(target) in err

    def test_check_needs_output_paths(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert main(["check", "--config", config_path]) == EXIT_CONFIG


class TestNumpyOnlyRuntime:
    def test_solve_without_scipy(self, tmp_path):
        # scipy is installed for the test oracles only; hiding it catches an
        # import of it anywhere in the package.
        src = Path(scvxkit.__file__).resolve().parents[1]
        config = Path(__file__).resolve().parents[1] / "configs" / "toy-sharp-1d.json"
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from scvxkit.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code, "solve", "--config", str(config)],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (tmp_path / "out" / "toy-sharp-1d" / "report.json").exists()


class TestExecuteRun:
    def test_execute_run_summary_fields(self, tmp_path):
        from scvxkit.cli import RunConfig
        config = RunConfig(problem_name="toy-sharp-2d")
        code, summary = execute_run(config, quiet=True)
        assert code == EXIT_OK
        assert summary["accepted"] >= 1
        assert summary["iterations"] >= summary["accepted"]
        assert summary["J0"] >= summary["J_final"]
        np.testing.assert_allclose(summary["final_z"], [1.0, 1.0], atol=1e-8)

    def test_summary_records_the_inputs_parse_config_reads(self):
        # Output paths stay out; a null lambda is recorded as the weight the
        # problem was built with.
        from scvxkit import builtin
        from scvxkit.cli import RunConfig
        config = RunConfig(problem_name="toy-sharp-2d", seed=3, start_jitter=0.25)
        _, summary = execute_run(config, quiet=True)
        recorded = parse_config(json.loads(json.dumps(summary["config"])))
        weight = builtin("toy-sharp-2d").default_penalty_weight
        assert recorded == replace(config, penalty_weight=weight)
        assert "output" not in summary["config"]

    def test_report_layout(self):
        from scvxkit.cli import RunConfig
        _, summary = execute_run(RunConfig(problem_name="toy-sharp-2d"), quiet=True)
        layout = [
            ("status", None),
            ("level_set", ["passed", "verdict", "max_objective", "j0", "max_norm",
                           "norm_budget"]),
            ("ratio_tail", ["tail_rho", "trending_to_one", "sufficient", "n_defined", "note"]),
            ("sharp_minimum", ["beta_hat", "delta", "norm", "seed", "n_samples", "worst_ratio",
                               "worst_point"]),
            ("model_growth", ["gamma_hat", "norm", "epsilon", "n_lps", "worst_point"]),
            ("strong_convergence", ["label", "cauchy_ok", "bound_ok", "beta_hat", "m_tail",
                                    "tail_errors"]),
            ("rate", ["order_q", "defined", "reason", "superlinear_evidence", "error_ratios"]),
            ("subdifferential", ["passed", "min_estimate", "n_directions", "step"]),
            ("small_step", ["passed", "eta", "epsilon", "max_step_norm", "n_probes",
                            "failures"]),
        ]
        report = summary["diagnostics"]
        assert list(report) == [name for name, _ in layout]
        for name, keys in layout[1:]:
            assert list(report[name]) == keys, name
        assert report["sharp_minimum"]["norm"] == "inf"
        assert report["subdifferential"]["step"] == 1e-6

    def test_converged_small_radius_reuses_terminal_lp(self, monkeypatch):
        # At a final radius <= 1 the terminal record solved the probe's LP:
        # the same linearization over the same box.
        from scvxkit import builtin, check_stationarity, diagnostics
        from scvxkit.cli import DiagnosticsConfig, RunConfig

        def refuse(*args):
            raise AssertionError("the stationarity LP was solved a second time")

        monkeypatch.setattr(diagnostics, "check_stationarity", refuse)
        config = RunConfig(problem_name="dubins-car",
                           diagnostics=DiagnosticsConfig(small_step=False))
        _, summary = execute_run(config, quiet=True)
        assert summary["status"] == "converged-stationary"
        assert summary["final_radius"] <= 1.0
        composite, _ = builtin("dubins-car").build()
        expected = check_stationarity(composite, np.asarray(summary["final_z"]),
                                      summary["stationarity_probe_radius"])
        assert summary["stationarity_residual"] == expected

    def test_large_final_radius_still_probes(self, monkeypatch):
        from scvxkit import diagnostics
        from scvxkit.cli import DiagnosticsConfig, RunConfig
        calls = []
        probe = diagnostics.check_stationarity
        monkeypatch.setattr(diagnostics, "check_stationarity",
                            lambda *args: calls.append(args[2]) or probe(*args))
        config = RunConfig(problem_name="toy-sharp-1d",
                           diagnostics=DiagnosticsConfig(small_step=False))
        _, summary = execute_run(config, quiet=True)
        assert summary["final_radius"] == pytest.approx(10.24)
        assert calls == [1.0]
        assert summary["stationarity_residual"] == 0.0
