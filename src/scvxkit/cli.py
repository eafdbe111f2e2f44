"""Command-line front end: solve one config, bench a directory, re-check a run.

Configs are strict JSON: unknown keys are rejected with their path, and the
schema_version field must match SCHEMA_VERSION.  The trace is JSON Lines
with one fixed-field record per iteration; iterate vectors go to a separate
sidecar file so trace size stays bounded.  Identical configs (seeds
included) produce byte-identical traces.  Every JSON artifact is strict
JSON: non-finite floats are written as null.

Exit codes: 0 converged, 1 config or parse error, 2 iteration limit,
3 assumption violation (level set or norm budget), 4 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from .composite import CompositeError
from .diagnostics import certify, run_diagnostics
from .loop import (
    STATUS_CONVERGED,
    STATUS_ITERATIONS,
    STATUS_LEVEL_SET,
    STATUS_SUBPROBLEM,
    IterationRecord,
    SolveResult,
    TrustRegionParams,
    run_scvx,
)
from .problems import BUILTIN_NAMES, builtin

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ITERATIONS = 2
EXIT_ASSUMPTION = 3
EXIT_SOLVER = 4

_STATUS_EXIT = {
    STATUS_CONVERGED: EXIT_OK,
    STATUS_ITERATIONS: EXIT_ITERATIONS,
    STATUS_LEVEL_SET: EXIT_ASSUMPTION,
    STATUS_SUBPROBLEM: EXIT_SOLVER,
}

# bench CSV column -> (section, key) of its value, the section None for the
# summary itself and a report section's name otherwise.  A section the report
# lacks, or one whose "defined" is false (a rate), leaves the cell empty.
_BENCH_FIELDS = {
    "status": (None, "status"), "iterations": (None, "iterations"),
    "accepted": (None, "accepted"), "J_final": (None, "J_final"),
    "stationarity_residual": (None, "stationarity_residual"),
    "beta_hat": ("sharp_minimum", "beta_hat"), "gamma_hat": ("model_growth", "gamma_hat"),
    "small_step_pass": ("small_step", "passed"), "rate_order": ("rate", "order_q"),
    "superlinear": ("rate", "superlinear_evidence"),
}
BENCH_COLUMNS = ("name", *_BENCH_FIELDS, "error")


class ConfigError(Exception):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """JSON true and false are not numbers here, though Python bools are ints."""
    return _is_int(value) or isinstance(value, float)


def _is_positive(value) -> bool:
    return _is_number(value) and 0 < value < math.inf


@dataclass(frozen=True)
class DiagnosticsConfig:
    delta: float = 0.1
    small_step: bool = True

    def __post_init__(self):
        if not isinstance(self.small_step, bool):
            raise TypeError("small_step must be true or false")
        if not _is_positive(self.delta):
            raise ValueError("delta must be a positive number")


@dataclass(frozen=True)
class OutputConfig:
    trace: Optional[str] = None
    iterates: Optional[str] = None
    summary: Optional[str] = None
    report: Optional[str] = None
    plot_dir: Optional[str] = None

    def __post_init__(self):
        for f in fields(self):
            if not isinstance(getattr(self, f.name), (str, type(None))):
                raise TypeError(f"{f.name} must be a string path")


@dataclass(frozen=True)
class RunConfig:
    problem_name: str
    overrides: dict = field(default_factory=dict)
    penalty_weight: Optional[float] = None
    seed: int = 0
    start_jitter: float = 0.0
    trust_region: TrustRegionParams = field(default_factory=TrustRegionParams)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        # Messages use the config keys; penalty_weight is read from "lambda".
        if self.penalty_weight is not None:
            if not _is_positive(self.penalty_weight):
                raise ValueError("lambda must be a positive finite number or null")
            object.__setattr__(self, "penalty_weight", float(self.penalty_weight))
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        if not (_is_number(self.start_jitter) and 0 <= self.start_jitter < math.inf):
            raise ValueError("start_jitter must be a finite number >= 0")
        object.__setattr__(self, "start_jitter", float(self.start_jitter))


def _require_keys(data: dict, allowed: set, path: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown config key '{path}{key}'")


def _section(data: dict, key: str, cls):
    """Build the dataclass cls from the optional object data[key].

    Unknown keys are named by their path; the dataclass validates its own
    values, and whatever it rejects becomes a ConfigError.
    """
    section = data.get(key)
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"config key '{key}' must be an object")
    _require_keys(section, {f.name for f in fields(cls)}, key + ".")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} settings: {exc}") from None


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _require_keys(data, {"schema_version", "problem", "lambda", "seed", "start_jitter",
                         "trust_region", "diagnostics", "output"}, "")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    problem = data.get("problem")
    if not isinstance(problem, dict):
        raise ConfigError("config key 'problem' must be an object")
    _require_keys(problem, {"name", "overrides"}, "problem.")
    name = problem.get("name")
    if not isinstance(name, str):
        raise ConfigError("config key 'problem.name' must be a string")
    # Only an absent or null value means no overrides; [], 0 and "" are errors.
    overrides = {} if problem.get("overrides") is None else problem["overrides"]
    if not isinstance(overrides, dict):
        raise ConfigError("config key 'problem.overrides' must be an object")

    # A null top-level value means the default; RunConfig checks the rest.
    top = {attr: data[key] for key, attr in (("lambda", "penalty_weight"), ("seed", "seed"),
                                             ("start_jitter", "start_jitter"))
           if data.get(key) is not None}
    try:
        return RunConfig(
            problem_name=name,
            overrides=overrides,
            trust_region=_section(data, "trust_region", TrustRegionParams),
            diagnostics=_section(data, "diagnostics", DiagnosticsConfig),
            output=_section(data, "output", OutputConfig),
            **top,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None


def _read_json(path, what: str, lines: bool = False):
    """Parse the strict-JSON file at path; what names the file in errors.

    With lines=True the file is JSON Lines and the result is the list of its
    rows.  An unreadable file, bytes that are not UTF-8, malformed JSON, the
    NaN/Infinity tokens and numbers such as 1e999 that overflow to +-inf all
    become a ConfigError.
    """
    def reject_constant(token):
        raise ConfigError(f"{what} {path} is not strict JSON: {token} is not allowed")

    def finite_float(token):
        value = float(token)
        if not math.isfinite(value):
            raise ConfigError(f"{what} {path} is not strict JSON: {token} overflows to {value}")
        return value

    line = 0  # lines before the text being parsed
    try:
        text = Path(path).read_text(encoding="utf-8")
        if not lines:
            return json.loads(text, parse_constant=reject_constant, parse_float=finite_float)
        rows = []
        for line, row in enumerate(text.splitlines()):
            rows.append(json.loads(row, parse_constant=reject_constant,
                                   parse_float=finite_float))
        return rows
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc.msg} "
                          f"at line {line + exc.lineno} column {exc.colno}") from None


def _is_vector(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _number_or_null(value) -> bool:
    return value is None or _is_number(value)


def _require(row, types: dict, what: str, path):
    """row, if it is a JSON object holding every key of types with a value
    that passes the key's test; else a ConfigError naming the file."""
    if not isinstance(row, dict):
        raise ConfigError(f"{what} {path} holds a {type(row).__name__} where an object belongs")
    missing = [key for key in types if key not in row]
    if missing:
        raise ConfigError(f"{what} {path} lacks {', '.join(missing)}")
    wrong = [key for key, ok in types.items() if not ok(row[key])]
    if wrong:
        raise ConfigError(f"{what} {path} has a wrongly typed {', '.join(wrong)}")
    return row


def load_config(path: str) -> RunConfig:
    return parse_config(_read_json(path, "config"))


def _jsonable(obj):
    """obj as plain JSON values: arrays and tuples become lists, numpy
    scalars Python scalars, and non-finite floats None."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


@contextlib.contextmanager
def _output(path, what: str, newline: Optional[str] = None):
    """path opened for writing, its directory created; what names the file
    in errors, and an OSError becomes a ConfigError as in _read_json."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline=newline) as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc}") from None


def _write_json(path: Optional[str], obj, what: str) -> None:
    """Write obj as indented strict JSON and a newline to path, or to stdout if None."""
    with _output(path, what) if path is not None else contextlib.nullcontext(sys.stdout) as handle:
        json.dump(_jsonable(obj), handle, indent=2, allow_nan=False)
        handle.write("\n")


def _write_jsonl(path: str, rows, what: str) -> None:
    with _output(path, what) as handle:
        for row in rows:
            handle.write(json.dumps(_jsonable(row), allow_nan=False) + "\n")


# trace.jsonl key -> IterationRecord field, in the order the keys are written.
_TRACE_FIELDS = {
    "k": "k", "J": "J", "L": "model_value", "rho": "rho", "radius": "radius",
    "step_norm": "step_norm", "accepted": "accepted",
    "predicted_decrease": "predicted_decrease", "actual_decrease": "actual_decrease",
}
# Tests the values of a trace row must pass; non-finite floats were written as null.
_TRACE_TYPES = {**{key: _number_or_null for key in _TRACE_FIELDS},
                "k": _is_int, "J": _is_number, "accepted": lambda v: isinstance(v, bool)}


def write_trace(path: str, trace: List[IterationRecord]) -> None:
    _write_jsonl(path, ({key: getattr(rec, name) for key, name in _TRACE_FIELDS.items()}
                        for rec in trace), "trace")


def write_iterates(path: str, trace: List[IterationRecord]) -> None:
    _write_jsonl(path, ({"k": rec.k, "z": rec.z} for rec in trace), "iterates")


def read_trace(trace_path: str, iterates_path: Optional[str]) -> List[IterationRecord]:
    """Rebuild iteration records from a trace file and its iterates sidecar.

    The sidecar is read after the trace and must hold every iterate the
    trace numbers.  A sidecar that is not configured or not there, a file
    that cannot be parsed, or a row that lacks a key or holds a wrongly
    typed value is a ConfigError naming the file.
    """
    rows = [_require(row, _TRACE_TYPES, "trace", trace_path)
            for row in _read_json(trace_path, "trace", lines=True)]
    if not iterates_path or not Path(iterates_path).exists():
        raise ConfigError(f"check needs the iterates sidecar output.iterates "
                          f"({iterates_path or 'not set'}); set it and run solve")
    iterates = {}
    for row in _read_json(iterates_path, "iterates", lines=True):
        _require(row, {"k": _is_int, "z": _is_vector}, "iterates", iterates_path)
        iterates[row["k"]] = np.asarray(row["z"], dtype=float)
    missing = [row["k"] for row in rows if row["k"] not in iterates]
    if missing:
        raise ConfigError(f"iterates {iterates_path} lacks the iterate of k={missing[0]}")
    return [IterationRecord(z=iterates[row["k"]],
                            **{name: row[key] for key, name in _TRACE_FIELDS.items()})
            for row in rows]


# plots/ file -> IterationRecord field; records where the field is None are skipped.
_PLOT_FIELDS = {"objective.dat": "J", "step_norm.dat": "step_norm", "ratio.dat": "rho"}


def write_plot_data(plot_dir: str, trace: List[IterationRecord]) -> None:
    """Two-column text files: iteration index against J, step norm, ratio."""
    for file_name, name in _PLOT_FIELDS.items():
        with _output(Path(plot_dir) / file_name, "plot data") as handle:
            for rec in trace:
                value = getattr(rec, name)
                if value is not None:
                    handle.write(f"{rec.k} {value!r}\n")


def _prepare(config: RunConfig):
    try:
        bench = builtin(config.problem_name, **config.overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    composite, disc = bench.build(config.penalty_weight)
    start = np.asarray(bench.default_start, dtype=float).copy()
    if config.start_jitter > 0.0:
        rng = np.random.default_rng(config.seed)
        start = start + config.start_jitter * rng.uniform(-1.0, 1.0, start.size)
    return composite, disc, start


def _diagnose(composite, disc, result: SolveResult, config: RunConfig, j0: float) -> dict:
    """run_diagnostics with the settings config gives."""
    return run_diagnostics(composite, result, j0, seed=config.seed,
                           norm_budget=config.trust_region.norm_budget, disc=disc,
                           **asdict(config.diagnostics))


def execute_run(config: RunConfig, quiet: bool = False) -> tuple[int, dict]:
    """Solve one configured instance and write every requested artifact."""
    composite, disc, start = _prepare(config)
    j0 = composite.value(start)
    t0 = time.perf_counter()
    result = run_scvx(composite, start, config.trust_region)
    runtime = time.perf_counter() - t0
    exit_code = _STATUS_EXIT[result.status]
    summary = {
        # The run's inputs as the object parse_config reads, output paths
        # left out; lambda is the weight the problem was built with.
        "config": {"schema_version": SCHEMA_VERSION,
                   "problem": {"name": config.problem_name, "overrides": config.overrides},
                   "lambda": composite.psi.penalty_weight, "seed": config.seed,
                   "start_jitter": config.start_jitter,
                   "trust_region": asdict(config.trust_region),
                   "diagnostics": asdict(config.diagnostics)},
        "status": result.status,
        "message": result.message,
        "exit_code": exit_code,
        "iterations": result.iterations,
        "accepted": result.accepted_count,
        "J0": j0,
        "J_final": result.J_final,
        **certify(composite, result, config.trust_region.r_init),
        "final_z": list(result.final_z),
        "runtime_s": runtime,
    }

    if config.output.trace:
        write_trace(config.output.trace, result.trace)
    if config.output.iterates:
        write_iterates(config.output.iterates, result.trace)
    if config.output.summary:
        _write_json(config.output.summary, summary, "summary")
    if config.output.plot_dir:
        write_plot_data(config.output.plot_dir, result.trace)

    summary["diagnostics"] = _diagnose(composite, disc, result, config, j0)
    if config.output.report:
        _write_json(config.output.report, summary["diagnostics"], "report")

    if not quiet:
        print(f"{config.problem_name}: status={result.status} iterations={result.iterations} "
              f"accepted={result.accepted_count} J={result.J_final:.9g} "
              f"stationarity={summary['stationarity_residual']:.3g}")
    return exit_code, summary


def cmd_solve(args) -> int:
    config = load_config(args.config)
    output = replace(config.output, trace=args.trace or config.output.trace,
                     report=args.report or config.output.report)
    exit_code, _ = execute_run(replace(config, output=output))
    return exit_code


def _bench_cell(value) -> str:
    """A CSV cell: strings as they are, bools as true/false, numbers by repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def _bench_row(name: str, summary: Optional[dict], error: str = "") -> dict:
    row = dict.fromkeys(BENCH_COLUMNS, "")
    row.update(name=name, status="error", error=error)
    if summary is None:
        return row
    sections = {**summary["diagnostics"], None: summary}
    for column, (section, key) in _BENCH_FIELDS.items():
        values = sections.get(section)
        if values is not None and values.get("defined", True):
            row[column] = _bench_cell(values[key])
    return row


def cmd_bench(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"bench directory not found: {directory}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    for config_path in sorted(directory.glob("*.json")):
        name = config_path.stem
        try:
            config = load_config(str(config_path))
            _, summary = execute_run(config, quiet=True)
            rows.append(_bench_row(name, summary))
        except ConfigError as exc:
            rows.append(_bench_row(name, None, error=str(exc)))
        except Exception as exc:  # keep the batch alive
            rows.append(_bench_row(name, None, error=f"{type(exc).__name__}: {exc}"))
        print(f"bench {name}: {rows[-1]['status']}")
    with _output(args.out, "bench CSV", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(BENCH_COLUMNS))
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def cmd_check(args) -> int:
    # The config gives only the saved run's paths; its inputs come from the summary.
    output = load_config(args.config).output
    if not output.trace or not output.summary:
        raise ConfigError("check needs output.trace and output.summary in the config")
    trace_file = Path(output.trace)
    summary_file = Path(output.summary)
    if not trace_file.exists() or not summary_file.exists():
        raise ConfigError("check needs an existing solve run; run solve first")
    summary = _require(_read_json(summary_file, "summary"),
                       {"final_z": _is_vector, "status": lambda v: isinstance(v, str),
                        "J_final": _number_or_null, "J0": _is_number,
                        "config": lambda v: isinstance(v, dict)}, "summary", summary_file)
    try:
        config = replace(parse_config(summary["config"]), output=output)
        composite, disc, _ = _prepare(config)
    except ConfigError as exc:
        raise ConfigError(f"summary {summary_file} holds a bad config: {exc}") from None
    trace = read_trace(str(trace_file), config.output.iterates)
    # The saved run must be one of this problem: vectors of its length and a
    # status a solve ends with.
    if len(summary["final_z"]) != composite.n_z:
        raise ConfigError(f"summary {summary_file} holds a final_z of length "
                          f"{len(summary['final_z'])}; the problem has {composite.n_z}")
    for rec in trace:
        if rec.z.size != composite.n_z:
            raise ConfigError(f"iterates {config.output.iterates} holds an iterate of length "
                              f"{rec.z.size} at k={rec.k}; the problem has {composite.n_z}")
    if summary["status"] not in _STATUS_EXIT:
        raise ConfigError(f"summary {summary_file} holds the unknown status "
                          f"{summary['status']!r}")

    result = SolveResult(
        final_z=np.asarray(summary["final_z"], dtype=float),
        status=summary["status"], trace=trace, J_final=summary["J_final"],
    )
    report = _diagnose(composite, disc, result, config, summary["J0"])
    report_target = args.report or config.output.report
    print(f"check {config.problem_name}: status={summary['status']} "
          f"report={'written' if report_target else 'stdout only'}")
    _write_json(report_target or None, report, "report")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scvxkit",
        description="Penalty trust-region solver and convergence diagnostics",
        epilog="built-in problems: " + ", ".join(BUILTIN_NAMES),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one configured instance")
    solve.add_argument("--config", required=True, help="path to a JSON run config")
    solve.add_argument("--trace", default=None, help="override the trace output path")
    solve.add_argument("--report", default=None, help="override the diagnostics report path")

    bench = sub.add_parser("bench", help="run every config in a directory")
    bench.add_argument("--dir", required=True, help="directory of JSON run configs")
    bench.add_argument("--out", required=True, help="CSV summary output path")

    check = sub.add_parser("check", help="re-run diagnostics on a saved solve")
    check.add_argument("--config", required=True,
                       help="path to a JSON run config; only its output paths are read")
    check.add_argument("--report", default=None, help="override the report output path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"solve": cmd_solve, "bench": cmd_bench, "check": cmd_check}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CompositeError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
