"""Benchmark harness for scvxkit.

    python3 perfbench/run.py --workload ocp-sweep --seed 0 --seconds 30 --trace 0

Run from the repository root.  One process drives one solve at a time
(closed loop, one client) with BLAS pinned to one thread.  Passes over
the workload's instances repeat until --seconds is used up.  The first
pass's outputs are checked against the references recorded for the seed,
and every later pass must repeat them bit for bit.  With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 half the time runs untraced and half traced, and the object holds
the per-layer metrics.  Every output is checked outside the timed region;
the exit code is 1 when any check fails and 2 when the package is missing.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# Before numpy is imported, here and in the set-up children that inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCES = BENCH_DIR / "references.json"

SETUP_REPEATS = 9
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# The span tree's self times must add up to the traced wall time within
# this share; the rest is the harness's own loop between operations.
SELF_TIME_SHARE = 0.02

# Runs in a fresh interpreter: import plus building every instance.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from pathlib import Path
import workloads
workloads.make_workloads(Path(sys.argv[3]))[sys.argv[4]].build(int(sys.argv[5]), Path(sys.argv[6]))
print(repr(time.perf_counter() - t0))
"""


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "scvxkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(workload: str, seed: int, scratch: Path) -> list:
    times = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), str(SRC), str(ROOT),
             workload, str(seed), str(scratch / f"setup{i}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Calibration:
    """A fixed kernel shaped like the simplex's dense pivot.

    A rank-1 update of a tableau-sized array plus the small-array calls
    around it.  It runs after every operation, outside the operation's
    timing.  Host load slows it and the solver alike, so pass time divided
    by its time cancels most of the drift of a shared machine.
    """

    ROWS, COLS, PIVOTS = 230, 450, 300

    def __init__(self):
        self.tableau = np.random.default_rng(0).standard_normal((self.ROWS, self.COLS))

    def __call__(self) -> float:
        t = self.tableau.copy()
        t0 = time.perf_counter()
        for i in range(self.PIVOTS):
            r, c = i % self.ROWS, (7 * i) % self.COLS
            col = t[:, c].copy()
            t -= np.outer(col, t[r] / (abs(t[r, c]) + 10.0)) * 1e-3
            int(np.argmin(np.where(t[-1] > 0.0, t[-1], np.inf)))
            np.flatnonzero(t[:, c] > 0.1)
        return time.perf_counter() - t0


def run_pass(workload, cases, tracer=None, calibrate=None):
    """One closed-loop pass.

    Returns the summed operation time, the same in calibration units (each
    operation divided by the mean of the calibration runs just before and
    after it, 0 without calibrate) and one result per case.
    """
    results = []
    wall = norm = 0.0
    cal_before = calibrate() if calibrate is not None else 0.0
    for case in cases:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.tag = case.label
            idx = tracer.open("bench.op")
        try:
            results.append(workload.run_op(case))
        except Exception:  # an operation that raises is a failed operation
            results.append(traceback.format_exc(limit=3))
        finally:
            if tracer is not None:
                tracer.close(idx)
        took = time.perf_counter() - t0
        wall += took
        if calibrate is not None:
            cal_after = calibrate()
            norm += took / (0.5 * (cal_before + cal_after))
            cal_before = cal_after
    return wall, norm, results


def outcomes(workload, cases, results) -> list:
    from workloads import Outcome

    out = []
    for case, result in zip(cases, results):
        if isinstance(result, str):
            out.append(Outcome(instance=case.label, error=f"raised: {result.strip()}"))
            continue
        try:
            out.append(workload.outcome(case, result))
        except Exception:
            out.append(Outcome(instance=case.label,
                               error=f"unreadable output: {traceback.format_exc(limit=3)}"))
    return out


class Run:
    """Passes of one workload plus the checks on every operation."""

    def __init__(self, workload, cases, references):
        self.calibrate = Calibration()
        self.workload = workload
        self.cases = cases
        self.references = references
        self.first = None
        self.attempted = 0
        self.failures: list = []

    def one_pass(self, tracer=None) -> tuple[float, float]:
        """Wall seconds of the pass, and the same in calibration-kernel units."""
        from workloads import check

        wall, norm, results = run_pass(self.workload, self.cases, tracer, self.calibrate)
        done = outcomes(self.workload, self.cases, results)
        if self.first is None:
            self.first = done
        for got, first in zip(done, self.first):
            reasons = check(got, self.references.get(got.instance))
            if got.key() != first.key():
                reasons.append(f"differs from the first pass: {got.key()} vs {first.key()}")
            self.attempted += 1
            if reasons:
                self.failures.append(f"{got.instance}: {'; '.join(reasons)}")
        return wall, norm

    def timed(self, seconds: float, min_passes: int, tracer=None) -> tuple[list, list]:
        """Passes until the next would overrun seconds; wall and normalized times."""
        walls, norms = [], []
        start = time.perf_counter()
        while True:
            wall, norm = self.one_pass(tracer)
            walls.append(wall)
            norms.append(norm)
            per_pass = (time.perf_counter() - start) / len(walls)
            if len(walls) >= min_passes and per_pass * (len(walls) + 1) > seconds:
                return walls, norms


def high_percentile(walls: list) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(walls)
    if n < 11:
        return f"no percentile has 10 samples beyond it at n={n}; max {max(walls):.4f} s"
    p = int(100 * (n - 10) / n)
    return f"p{p} {statistics.quantiles(walls, n=100)[p - 1]:.4f} s"


def layer_metrics(tracer, setup_tracer, walls_traced, overhead, workload, cases) -> dict:
    n = len(walls_traced)
    wall = sum(walls_traced) / n
    agg = tracer.aggregate()
    setup = setup_tracer.aggregate()
    k = tracer.counts

    def total(*names):
        return sum(agg[name]["total"] for name in names if name in agg) / n

    def self_s(*names):
        return sum(agg[name]["self"] for name in names if name in agg) / n

    def count(name):
        return agg[name]["count"] / n if name in agg else 0

    def mean(key, per):
        return k[key] / k[per] if k[per] else 0.0

    solves = tracer.solves
    iterations = sum(s["iterations"] for s in solves) / n
    accepted = sum(s["accepted"] for s in solves) / n
    rejected = sum(s["rejected"] for s in solves) / n
    simplex_s = total("simplex.solve_box_lp")
    diag_probes = [name for name in agg if name.startswith("diagnostics.")]
    diagnostics_s = total(*diag_probes)
    return {
        "problems.build_s": (sum(setup[name]["total"] for name in ("problems.builtin", "problems.build")), "s"),
        "composite.value_calls": (count("composite.value"), "count"),
        "composite.value_s": (total("composite.value"), "s"),
        "composite.linearize_calls": (count("composite.linearize"), "count"),
        "composite.linearize_s": (total("composite.linearize"), "s"),
        "loop.iterations": (iterations, "count"),
        "loop.accepted": (accepted, "count"),
        "loop.rejected": (rejected, "count"),
        "loop.accept_ratio": (accepted / (accepted + rejected) if accepted + rejected else 0.0, "fraction"),
        "loop.min_radius": (min((s["min_radius"] for s in solves), default=0.0), "1"),
        "loop.rho1_crossings": (sum(s["rho1_crossings"] for s in solves) / n, "count"),
        "loop.self_s": (self_s("loop.run_scvx"), "s"),
        "subproblem.solves": (count("subproblem.solve_subproblem"), "count"),
        "subproblem.build_lp_s": (total("subproblem.build_lp"), "s"),
        "subproblem.self_s": (self_s("subproblem.solve_subproblem", "subproblem.solve_min_norm_step"), "s"),
        "subproblem.lp_rows": (mean("subproblem.lp_rows", "subproblem.lps"), "count"),
        "subproblem.lp_cols": (mean("subproblem.lp_cols", "subproblem.lps"), "count"),
        "subproblem.lp_nnz_fraction": (mean("subproblem.lp_nnz_fraction", "subproblem.lps"), "fraction"),
        "subproblem.min_norm_solves": (count("subproblem.solve_min_norm_step"), "count"),
        "subproblem.min_norm_s": (total("subproblem.solve_min_norm_step"), "s"),
        "simplex.calls": (k["simplex.calls"] / n, "count"),
        "simplex.s": (simplex_s, "s"),
        "simplex.share": (simplex_s / wall, "fraction"),
        "simplex.pivots": (k["simplex.pivots"] / n, "count"),
        "simplex.pivots_per_lp": (mean("simplex.pivots", "simplex.calls"), "count"),
        "simplex.us_per_pivot": (1e6 * simplex_s * n / k["simplex.pivots"] if k["simplex.pivots"] else 0.0, "us"),
        "simplex.phase1_lps": (k["simplex.phase1_lps"] / n, "count"),
        "simplex.rows": (mean("simplex.rows", "simplex.calls"), "count"),
        "simplex.cols": (mean("simplex.cols", "simplex.calls"), "count"),
        "simplex.nnz_fraction": (mean("simplex.nnz_fraction", "simplex.calls"), "fraction"),
        "simplex.tableau_cells": (mean("simplex.tableau_cells", "simplex.calls"), "count"),
        "simplex.gflop_computed": (k["simplex.flop"] / n / 1e9, "GFLOP"),
        "simplex.gb_moved_computed": (k["simplex.bytes"] / n / 1e9, "GB"),
        "simplex.failures": (k["simplex.failures"] / n, "count"),
        "diagnostics.s": (diagnostics_s, "s"),
        "diagnostics.share": (diagnostics_s / wall, "fraction"),
        "diagnostics.sharp_minimum_s": (total("diagnostics.estimate_sharp_minimum"), "s"),
        "diagnostics.growth_s": (total("diagnostics.estimate_growth_constant"), "s"),
        "diagnostics.subdifferential_s": (total("diagnostics.check_subdifferential_inequality"), "s"),
        "diagnostics.small_step_s": (total("diagnostics.find_small_step_eta"), "s"),
        "diagnostics.stationarity_s": (total("diagnostics.check_stationarity"), "s"),
        "cli.artifact_s": (total("cli.write_trace", "cli.write_iterates", "cli.write_plot_data",
                                 "cli.json_dump"), "s"),
        "cli.artifact_bytes": (workload.artifact_bytes(cases), "bytes"),
        "cli.self_s": (self_s("cli.execute_run", "cli.run_diagnostics"), "s"),
        "trace.overhead": (overhead, "fraction"),
    }


def self_time_gap(tracer, walls_traced) -> float:
    """Share of the traced wall time that no span's self time accounts for."""
    agg = tracer.aggregate()
    covered = sum(entry["self"] for entry in agg.values())
    return 1.0 - covered / sum(walls_traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scvxkit" / "__init__.py").is_file():
        print(f"scvxkit sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import workloads
    from tracing import Tracer, install

    catalog = workloads.make_workloads(ROOT)
    if args.workload not in catalog:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(catalog)}")
    workload = catalog[args.workload]
    table = json.loads(REFERENCES.read_text())[args.workload]
    ref_key = str(args.seed % workloads.REFERENCE_SEEDS) if workload.seeded else "*"
    references = table.get(ref_key, {})

    env = environment(args.seed)
    print("env: " + json.dumps(env))
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        setup_times = measure_setup(args.workload, args.seed, scratch)
        cases = workload.build(args.seed, scratch / "run")
        run = Run(workload, cases, references)
        if args.trace:
            walls_plain, norms_plain = run.timed(args.seconds / 2, MIN_TRACED_PASSES)
            setup_tracer, tracer = Tracer(), Tracer()
            with install(setup_tracer), setup_tracer.span("bench.setup"):
                workload.build(args.seed, scratch / "traced-setup")
            with install(tracer):
                walls, norms = run.timed(args.seconds / 2, MIN_TRACED_PASSES, tracer)
            # compared in calibration units, so host drift between the two halves cancels
            overhead = statistics.median(norms) / statistics.median(norms_plain) - 1.0
            named = layer_metrics(tracer, setup_tracer, walls, overhead, workload, cases)
            gap = self_time_gap(tracer, walls)
            if not 0.0 <= gap <= SELF_TIME_SHARE:
                run.failures.append(f"span self times leave {gap:.2%} of the traced wall time "
                                    f"unaccounted (allowed 0 to {SELF_TIME_SHARE:.0%})")
            print(f"trace: {len(walls)} traced passes, median {statistics.median(walls):.4f} s; "
                  f"{len(walls_plain)} untraced, median {statistics.median(walls_plain):.4f} s; "
                  f"self times cover all but {gap:.3%} of traced wall")
            for solve in tracer.solves[:len(cases)]:
                print("loop: " + json.dumps(solve))
        else:
            walls, norms = run.timed(args.seconds, MIN_PASSES)
            feasible = [o.feasible for o in run.first]
            # Raw wall_s is printed and recorded but is not a bounded metric:
            # host drift spreads it 12-26% between runs, wider than any bound.
            named = {
                "wall_cal": (statistics.median(norms), "cal"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "feasible_fraction": (sum(feasible) / len(feasible), "fraction"),
            }
            print(f"wall_s: median {statistics.median(walls):.4f} s, {high_percentile(walls)}, "
                  f"n={len(walls)} passes")
            print(f"wall_cal: median {named['wall_cal'][0]:.4f} calibration-kernel units per pass")
            print(f"setup_s: median {named['setup_s'][0]:.4f} s of n={len(setup_times)} fresh processes")
            print(f"peak_rss_mb: {named['peak_rss_mb'][0]:.1f} MB")
            print(f"feasible_fraction: {sum(feasible)}/{len(feasible)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for o in run.first:
        print(f"instance: {o.instance} status={o.status} iterations={o.iterations} "
              f"J_final={o.J_final!r} worst_row={o.worst_row} violation={o.worst_violation:.3g} "
              f"feasible={o.feasible}")
    failed = len(run.failures)
    print(f"failed_fraction: {failed}/{run.attempted} = {failed / run.attempted:.4f}")
    for reason in run.failures[:20]:
        print("FAILED " + reason)

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()}
    record = {"env": env, "workload": args.workload, "trace": args.trace, "metrics": metrics,
              "pass_wall_s": walls,
              "outcomes": [vars(o) for o in run.first], "failures": run.failures}
    if args.trace:
        record["loop"] = tracer.solves[:len(cases)]
        record["spans"] = tracer.spans
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=float) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
