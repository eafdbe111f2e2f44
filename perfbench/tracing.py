"""Spans and counters taken from outside scvxkit.

install() replaces each traced public function at every module attribute of
the package that binds it (loop.py imports linearize by name, so patching
composite.linearize alone would miss the loop's calls) and restores the
originals on exit.  Nothing in the package changes.  Spans stay in memory;
the harness writes them out when the run ends.

A span records its name, start, end and parent.  Its root is the harness
span of the operation that caused it, so the spans of one solve share that
root's index as their identifier.  Counters are taken from the arguments
and results at the same boundaries; the time spent computing them is itself
a span ("trace.observe"), so it is not billed to the layer that called.
"""

from __future__ import annotations

import inspect
import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Bytes the dense rank-1 update tableau -= outer(col, row) streams per
# tableau cell: write the outer-product temporary, then read it and the
# tableau and write the tableau back, 8 bytes each.
BYTES_PER_CELL_PER_PIVOT = 32
# Multiply and subtract per cell.
FLOPS_PER_CELL_PER_PIVOT = 2

# Probes cli.run_diagnostics calls, named after the layer they belong to.
DIAGNOSTIC_PROBES = (
    "check_level_set",
    "check_ratio_limit",
    "estimate_sharp_minimum",
    "estimate_growth_constant",
    "check_strong_convergence",
    "estimate_rate",
    "check_subdifferential_inequality",
    "find_small_step_eta",
    "active_set_report",
)
CLI_WRITERS = ("write_trace", "write_iterates", "write_plot_data")


class Tracer:
    """In-memory span tree plus named counters."""

    def __init__(self):
        # [name, start, end, parent index or -1, root index]
        self.spans: list = []
        self._stack: list = []
        self.counts = defaultdict(float)
        # one dict per run_scvx call: outer-loop evidence for that solve
        self.solves: list = []
        self.tag = ""

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, observe=None):
        """Return fn inside a span; observe(tracer, bound_args, result, exc) runs after it."""
        signature = inspect.signature(fn) if observe is not None else None

        def traced(*args, **kwargs):
            idx = self.open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.close(idx)
                if observe is not None:
                    with self.span("trace.observe"):
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        observe(self, bound.arguments, result, error)

        return traced

    def aggregate(self) -> dict:
        """Per span name: count, total and self seconds.

        Self time is a span's duration minus the part its children cover.
        "total" counts only outermost spans of a name, so a name that nests
        in itself is not counted twice.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["count"] += 1
            entry["self"] += (end - start) - child[idx]
            if not self._has_ancestor(idx, name):
                entry["total"] += end - start
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _observe_box_lp(tracer, args, result, error):
    c = np.asarray(args["c"], dtype=float)
    n = c.size
    a_ub = args["a_ub"]
    a = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
    b = np.asarray(args["b_ub"], dtype=float).reshape(-1) if np.size(args["b_ub"]) else np.zeros(0)
    lb = np.asarray(args["lb"], dtype=float)
    ub = np.asarray(args["ub"], dtype=float)
    m = a.shape[0] + int(np.count_nonzero(np.isfinite(ub)))
    # Same shift the simplex makes: rows whose b - A lb < 0 need an
    # artificial and force phase 1 (upper-bound rows never do, as ub >= lb).
    n_art = int(np.count_nonzero(b - a @ lb < 0.0)) if a.size else 0
    cells = (m + 1) * (n + m + n_art + 1)
    pivots = result.iterations if result is not None else getattr(error, "iterations", 0)
    k = tracer.counts
    k["simplex.calls"] += 1
    k["simplex.rows"] += a.shape[0]
    k["simplex.cols"] += n
    k["simplex.nnz_fraction"] += np.count_nonzero(a) / a.size if a.size else 0.0
    k["simplex.phase1_lps"] += n_art > 0
    k["simplex.tableau_cells"] += cells
    k["simplex.pivots"] += pivots
    k["simplex.flop"] += pivots * (FLOPS_PER_CELL_PER_PIVOT * cells)
    k["simplex.bytes"] += pivots * (BYTES_PER_CELL_PER_PIVOT * cells)
    k["simplex.failures"] += error is not None


def _observe_build_lp(tracer, args, result, error):
    if result is None:
        return
    a = result.a_ub
    k = tracer.counts
    k["subproblem.lps"] += 1
    k["subproblem.lp_rows"] += result.n_rows
    k["subproblem.lp_cols"] += result.n_variables
    k["subproblem.lp_nnz_fraction"] += np.count_nonzero(a) / a.size if a.size else 0.0


def _observe_run_scvx(tracer, args, result, error):
    if result is None:
        return
    from scvxkit.loop import TrustRegionParams

    params = args["params"] or TrustRegionParams()
    radii = [rec.radius for rec in result.trace]
    rhos = [rec.rho for rec in result.trace if rec.rho is not None]
    crossings = sum((a >= params.rho1) != (b >= params.rho1) for a, b in zip(rhos, rhos[1:]))
    accepted = result.accepted_count
    tracer.solves.append({
        "instance": tracer.tag,
        "status": result.status,
        "iterations": result.iterations,
        "accepted": accepted,
        # A record without a ratio is the terminal stationarity check, not a
        # rejected step.
        "rejected": len(rhos) - accepted,
        "terminal": result.iterations - len(rhos),
        "final_radius": radii[-1] if radii else params.r_init,
        "min_radius": min(radii) if radii else params.r_init,
        "rho1_crossings": int(crossings),
    })


def _patch_everywhere(modules, fn, replacement, undo) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, replacement)
                undo.append((module, attr, fn))


@contextmanager
def install(tracer: Tracer):
    """Trace every layer boundary of scvxkit while the block runs."""
    import scvxkit
    from scvxkit import cli, composite, diagnostics, loop, problems, simplex, subproblem

    modules = (scvxkit, cli, composite, diagnostics, loop, problems, simplex, subproblem)
    functions = [
        (problems.builtin, "problems.builtin", None),
        (problems.transcribe, "problems.transcribe", None),
        (composite.linearize, "composite.linearize", None),
        (loop.run_scvx, "loop.run_scvx", _observe_run_scvx),
        (loop.check_stationarity, "diagnostics.check_stationarity", None),
        (subproblem.solve_subproblem, "subproblem.solve_subproblem", None),
        (subproblem.build_lp, "subproblem.build_lp", _observe_build_lp),
        (subproblem.solve_min_norm_step, "subproblem.solve_min_norm_step", None),
        (simplex.solve_box_lp, "simplex.solve_box_lp", _observe_box_lp),
        (cli.execute_run, "cli.execute_run", None),
        (cli.run_diagnostics, "cli.run_diagnostics", None),
    ]
    functions += [(getattr(diagnostics, n), "diagnostics." + n, None) for n in DIAGNOSTIC_PROBES]
    functions += [(getattr(cli, n), "cli." + n, None) for n in CLI_WRITERS]
    methods = [
        (problems.Benchmark, "build", "problems.build"),
        (composite.CompositeObjective, "value", "composite.value"),
    ]
    # cli writes summary.json and report.json with json.dump inline; give it
    # a json namespace whose dump is traced.
    traced_json = types.ModuleType("json")
    traced_json.__dict__.update(vars(json))
    traced_json.dump = tracer.wrap("cli.json_dump", json.dump)

    undo: list = []
    try:
        for fn, name, observe in functions:
            _patch_everywhere(modules, fn, tracer.wrap(name, fn, observe), undo)
        for owner, attr, name in methods:
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original))
            undo.append((owner, attr, original))
        undo.append((cli, "json", cli.json))
        cli.json = traced_json
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
