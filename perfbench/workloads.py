"""The benchmark's workloads: what one pass runs and how its outputs are checked.

A pass is one closed-loop sweep: a single client solves each instance in
turn and starts the next solve only when the previous one has returned.
An operation is one solve (ocp-sweep, lqr-exact) or one certified run
through cli.execute_run (certify-bundled).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from scvxkit import cli, loop, problems
from scvxkit.loop import STATUS_CONVERGED, STATUS_SUBPROBLEM, TrustRegionParams

# A solve counts as feasible when it converged and no equality or
# inequality row is violated by more than this.
FEASIBILITY_TOL = 1e-6
# ROADMAP item 2's tolerance on J_final against the recorded reference.
REFERENCE_RTOL = 1e-9
# Seeded starts cycle through this many recorded perturbations, so every
# seed has a reference (record_references.py writes them).
REFERENCE_SEEDS = 100


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks compare."""

    instance: str
    status: str = "raised"
    iterations: int = 0
    J0: float = math.nan
    J_final: float = math.nan
    worst_row: str = ""
    worst_violation: float = math.nan
    error: str = ""

    @property
    def feasible(self) -> bool:
        return self.status == STATUS_CONVERGED and self.worst_violation <= FEASIBILITY_TOL

    def key(self) -> tuple:
        """Bit-exact identity of the result, for comparing passes."""
        return (self.instance, self.status, self.iterations, float(self.J_final).hex())


def worst_violation(composite, labels, z) -> tuple[str, float]:
    """Label and size of the most violated equality or inequality row."""
    values = composite.g.value(z)
    psi = composite.psi
    size = np.zeros(values.size)
    eq = slice(psi.eq_range.start, psi.eq_range.stop)
    ineq = slice(psi.ineq_range.start, psi.ineq_range.stop)
    size[eq] = np.abs(values[eq])
    size[ineq] = np.maximum(values[ineq], 0.0)
    row = int(np.argmax(size))
    if size[row] == 0.0:
        return "none", 0.0
    return (labels[row] if labels else f"g[{row}]"), float(size[row])


def strict_json_errors(path: Path) -> list[str]:
    """Parse a .json or .jsonl artifact, rejecting NaN and Infinity."""

    def reject(token):
        raise ValueError(f"non-finite number {token}")

    text = path.read_text()
    docs = text.splitlines() if path.suffix == ".jsonl" else [text]
    for lineno, doc in enumerate(docs, 1):
        try:
            json.loads(doc, parse_constant=reject)
        except ValueError as exc:
            return [f"{path.name}:{lineno} is not strict JSON: {exc}"]
    return []


def perturbed_start(start, jitter: float, seed: int) -> np.ndarray:
    """Same perturbation as the CLI's seed/start_jitter."""
    start = np.asarray(start, dtype=float).copy()
    if jitter > 0.0:
        rng = np.random.default_rng(seed % REFERENCE_SEEDS)
        start = start + jitter * rng.uniform(-1.0, 1.0, start.size)
    return start


@dataclass
class SolveCase:
    label: str
    composite: object
    labels: tuple
    start: np.ndarray
    j0: float
    params: TrustRegionParams


class SolveWorkload:
    """run_scvx on built-in optimal control instances, nothing else."""

    def __init__(self, name: str, instances, start_jitter: float, max_iterations: int):
        self.name = name
        self.instances = instances  # (problem, n_nodes, lambda or None)
        self.start_jitter = start_jitter
        self.params = TrustRegionParams(max_iterations=max_iterations)

    @property
    def seeded(self) -> bool:
        """Whether the seed changes what the solver is given."""
        return self.start_jitter > 0.0

    def build(self, seed: int, scratch: Path) -> list:
        cases = []
        for problem, n_nodes, weight in self.instances:
            bench = problems.builtin(problem, n_nodes=n_nodes)
            composite, disc = bench.build(weight)
            start = perturbed_start(bench.default_start, self.start_jitter, seed)
            lam = bench.default_penalty_weight if weight is None else weight
            cases.append(SolveCase(
                label=f"{problem}/N={n_nodes}/lambda={lam:g}", composite=composite,
                labels=disc.labels, start=start, j0=composite.value(start), params=self.params,
            ))
        return cases

    @staticmethod
    def run_op(case: SolveCase):
        return loop.run_scvx(case.composite, case.start, case.params)

    @staticmethod
    def outcome(case: SolveCase, result) -> Outcome:
        row, size = worst_violation(case.composite, case.labels, result.final_z)
        out = Outcome(instance=case.label, status=result.status, iterations=result.iterations,
                      J0=case.j0, J_final=result.J_final, worst_row=row, worst_violation=size)
        if result.status == STATUS_SUBPROBLEM:
            out.error = f"subproblem failure: {result.message}"
        return out

    def artifact_bytes(self, cases) -> int:
        return 0


@dataclass
class CertifyCase:
    label: str
    config: cli.RunConfig
    composite: object
    labels: tuple
    out_dir: Path


class CertifyWorkload:
    """Every bundled config through cli.execute_run, diagnostics and artifacts included."""

    name = "certify-bundled"

    def __init__(self, config_dir: Path):
        self.config_dir = config_dir

    def _configs(self):
        return [(p.stem, cli.load_config(str(p))) for p in sorted(self.config_dir.glob("*.json"))]

    @property
    def seeded(self) -> bool:
        return any(config.start_jitter > 0.0 for _, config in self._configs())

    def build(self, seed: int, scratch: Path) -> list:
        cases = []
        for label, config in self._configs():
            out_dir = scratch / label
            out_dir.mkdir(parents=True, exist_ok=True)
            output = cli.OutputConfig(
                trace=str(out_dir / "trace.jsonl"), iterates=str(out_dir / "iterates.jsonl"),
                summary=str(out_dir / "summary.json"), report=str(out_dir / "report.json"),
                plot_dir=str(out_dir / "plots"),
            )
            config = replace(config, seed=seed % REFERENCE_SEEDS, output=output)
            bench = problems.builtin(config.problem_name, **config.overrides)
            composite, disc = bench.build(config.penalty_weight)
            cases.append(CertifyCase(label=label, config=config, composite=composite,
                                     labels=disc.labels if disc is not None else (),
                                     out_dir=out_dir))
        return cases

    @staticmethod
    def run_op(case: CertifyCase):
        return cli.execute_run(case.config, quiet=True)

    @staticmethod
    def outcome(case: CertifyCase, result) -> Outcome:
        _, summary = result
        z = np.asarray(summary["final_z"], dtype=float)
        row, size = worst_violation(case.composite, case.labels, z)
        out = Outcome(instance=case.label, status=summary["status"],
                      iterations=summary["iterations"], J0=summary["J0"],
                      J_final=summary["J_final"], worst_row=row, worst_violation=size)
        errors = [e for path in sorted(case.out_dir.rglob("*.json*")) for e in strict_json_errors(path)]
        if summary["status"] == STATUS_SUBPROBLEM:
            errors.insert(0, f"subproblem failure: {summary['message']}")
        out.error = "; ".join(errors)
        return out

    @staticmethod
    def artifact_bytes(cases) -> int:
        return sum(p.stat().st_size for case in cases for p in case.out_dir.rglob("*") if p.is_file())


def check(outcome: Outcome, reference) -> list[str]:
    """Reasons the operation failed; empty when it passed every check."""
    reasons = [outcome.error] if outcome.error else []
    if outcome.status == "raised":
        return reasons
    if outcome.J_final > outcome.J0:
        reasons.append(f"J_final {outcome.J_final!r} above J0 {outcome.J0!r}")
    if reference is None:
        reasons.append("no recorded reference")
        return reasons
    if outcome.status != reference["status"]:
        reasons.append(f"status {outcome.status} differs from reference {reference['status']}")
    j_ref = reference["J_final"]
    if outcome.J_final > j_ref + REFERENCE_RTOL * (1.0 + abs(j_ref)):
        reasons.append(f"J_final {outcome.J_final!r} above reference {j_ref!r}")
    return reasons


def make_workloads(root: Path) -> dict:
    return {
        # Nonconvex: about 40% of outer iterations are rejections and the
        # simplex takes ~98% of the time.  Starts are the built-in defaults
        # (start_jitter 0): a start perturbation as small as 1e-12 flips the
        # double integrator to the other side of the obstacle and moves a
        # pass between ~150 and ~400 iterations, which no per-seed bound
        # could hold.
        "ocp-sweep": SolveWorkload(
            "ocp-sweep",
            [("double-integrator-obstacle", 8, None), ("double-integrator-obstacle", 10, None),
             ("double-integrator-obstacle", 12, None), ("dubins-car", 8, None),
             ("dubins-car", 12, None)],
            start_jitter=0.0, max_iterations=300,
        ),
        # Exact model: no step is rejected and the path does not depend on
        # the start, so seeded starts keep every status and iteration count.
        # The largest LPs of any workload, solved cold.  N=24 at lambda=10
        # is the unbounded penalty case and ends in level-set-violation.
        "lqr-exact": SolveWorkload(
            "lqr-exact",
            [("convex-lqr-box", 20, 100.0), ("convex-lqr-box", 24, 100.0),
             ("convex-lqr-box", 32, 100.0), ("convex-lqr-box", 40, 100.0),
             ("convex-lqr-box", 24, 10.0)],
            start_jitter=1e-3, max_iterations=300,
        ),
        # Many tiny min-norm LPs plus the diagnostics and cli layers, which
        # the solve-only workloads never touch.
        "certify-bundled": CertifyWorkload(root / "configs"),
    }
