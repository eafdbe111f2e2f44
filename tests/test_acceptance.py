"""Acceptance suite: twelve binding criteria, one test each, in order.

Each test appends a single [PASS]/[FAIL] line to the shared acceptance log
(printed in the terminal summary) and then asserts.  Tolerances are stated
inline; none of them may be loosened to make a run pass.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from scvxkit import (
    TrustRegionParams,
    builtin,
    check_stationarity,
    check_strong_convergence,
    estimate_sharp_minimum,
    find_small_step_eta,
    run_scvx,
)
from scvxkit.cli import load_config, main
from scvxkit.composite import fd_check_jacobian, linearize
from scvxkit.diagnostics import (
    check_ratio_limit,
    check_subdifferential_inequality,
    estimate_growth_constant,
    estimate_rate,
)
from scvxkit.loop import STATUS_CONVERGED, STATUS_LEVEL_SET, IterationRecord
from scvxkit.subproblem import solve_subproblem

import oracles

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_NAMES = ("convex-lqr-box", "double-integrator-obstacle", "dubins-car",
               "toy-sharp-1d", "toy-sharp-2d", "noncompact-levelset")
CONVERGING_NAMES = ("convex-lqr-box", "double-integrator-obstacle", "dubins-car",
                    "toy-sharp-1d", "toy-sharp-2d")


def report(log, num, title, ok, detail):
    log.append(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} - {title}: {detail}")
    assert ok, f"criterion {num:02d} {title}: {detail}"


def jittered_start(bench, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    start = np.asarray(bench.default_start, dtype=float)
    return start + scale * rng.uniform(-1.0, 1.0, start.size)


@pytest.fixture(scope="module")
def benchmark_runs():
    """One default-parameter run per converging builtin, shared across tests."""
    runs = {}
    for name in CONVERGING_NAMES:
        bench = builtin(name)
        comp, disc = bench.build()
        result = run_scvx(comp, bench.default_start)
        runs[name] = (bench, comp, disc, result)
    return runs


@pytest.fixture(scope="module")
def slow_ramp_runs():
    """Toy runs tuned for a long accepted tail (small initial radius, slow
    growth, distant start), which is what the strong-convergence label needs."""
    params = TrustRegionParams(r_init=0.5, grow_factor=2.0)
    out = {}
    for name, start in (("toy-sharp-1d", [5.0]), ("toy-sharp-2d", [4.0, -3.0])):
        comp, _ = builtin(name).build()
        out[name] = (comp, run_scvx(comp, np.asarray(start), params))
    return out


def test_criterion_01_monotone_descent(acceptance_log):
    t0 = time.perf_counter()
    violations = 0
    runs = 0
    for name in BENCH_NAMES:
        bench = builtin(name)
        comp, _ = bench.build()
        for seed in range(10):
            start = jittered_start(bench, seed)
            result = run_scvx(comp, start)
            runs += 1
            previous = comp.value(start)
            for rec in result.trace:
                if rec.accepted:
                    if not rec.J < previous:
                        violations += 1
                previous = rec.J if rec.accepted else previous
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report(acceptance_log, 1, "monotone descent", ok,
           f"{len(BENCH_NAMES)} problems x 10 seeds = {runs} runs, "
           f"{violations} accepted steps failed to decrease J, {elapsed:.1f}s")


def test_criterion_02_subproblem_oracle_equivalence(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for _ in range(100):
        comp, radius = oracles.lattice_model_instance(rng)
        n = comp.g.input_dim
        lin = linearize(comp, np.zeros(n))
        sol = solve_subproblem(lin, radius)
        grid_min, _ = oracles.model_min_on_grid(
            lin.g_value, lin.g_jacobian, len(comp.psi.cost_range), comp.psi.n_eq,
            comp.psi.penalty_weight, radius, points=41)
        worst = max(worst, abs(sol.model_value - grid_min))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    report(acceptance_log, 2, "subproblem oracle equivalence", ok,
           f"100 instances (n_z <= 3, 41-point grid per axis), "
           f"max |LP - grid| = {worst:.3g}, {elapsed:.1f}s")


def test_criterion_03_convex_exactness(acceptance_log, benchmark_runs):
    bench, comp, _, result = benchmark_runs["convex-lqr-box"]
    _, direct_value = oracles.direct_affine_ocp_solve(bench.problem)
    gap = abs(result.J_final - direct_value)
    rhos = [rec.rho for rec in result.trace if rec.rho is not None]
    worst_rho_gap = max((abs(r - 1.0) for r in rhos), default=0.0)
    ok = (result.status == STATUS_CONVERGED and gap <= 1e-6
          and worst_rho_gap <= 1e-9 and len(rhos) >= 1)
    report(acceptance_log, 3, "convex exactness", ok,
           f"|J_final - direct LP| = {gap:.3g}, "
           f"{len(rhos)} defined ratios, max |rho - 1| = {worst_rho_gap:.3g}")


def test_criterion_04_exact_penalty_recovery(acceptance_log, benchmark_runs):
    details = []
    ok = True
    # toy-sharp-1d: any weight above 2 recovers the constrained optimum.
    comp_toy, _ = builtin("toy-sharp-1d").build(10.0)
    toy = run_scvx(comp_toy, np.array([3.0]))
    toy_eq = comp_toy.max_equality_violation(toy.final_z)
    ok &= toy.status == STATUS_CONVERGED and toy_eq <= 1e-6
    details.append(f"toy-sharp-1d (weight 10): eq violation {toy_eq:.3g}")
    # double-integrator-obstacle at its documented default weight 50.
    _, comp_dio, _, dio = benchmark_runs["double-integrator-obstacle"]
    eq = comp_dio.max_equality_violation(dio.final_z)
    ineq = comp_dio.max_inequality_violation(dio.final_z)
    ok &= dio.status == STATUS_CONVERGED and eq <= 1e-6 and ineq <= 1e-6
    details.append(f"double-integrator-obstacle (weight 50): eq {eq:.3g}, ineq {ineq:.3g}")
    report(acceptance_log, 4, "exact penalty recovery", ok, "; ".join(details))


def test_criterion_05_jacobian_validation(acceptance_log):
    rng = np.random.default_rng(5)
    worst = 0.0
    worst_name = ""
    for name in BENCH_NAMES:
        bench = builtin(name)
        comp, _ = bench.build()
        for _ in range(20):
            z = bench.default_start + 0.3 * rng.normal(size=comp.n_z)
            err = fd_check_jacobian(comp.g, z)
            if err > worst:
                worst, worst_name = err, name
    ok = worst <= 1e-5
    report(acceptance_log, 5, "jacobian validation", ok,
           f"6 builtins x 20 seeded points, worst relative error "
           f"{worst:.3g} ({worst_name})")


def test_criterion_06_sharp_minimum_certificates(acceptance_log, benchmark_runs):
    _, comp, _, result = benchmark_runs["toy-sharp-1d"]
    cert = estimate_sharp_minimum(comp, result.final_z, delta=0.1)
    growth = estimate_growth_constant(comp, result.final_z)
    sweep = oracles.sweep_sharp_constant(float(result.final_z[0]), delta=0.1)
    sharp_ok = cert["beta_hat"] >= 0.9 * sweep and growth["gamma_hat"] > 0.0
    # Smooth control case: a pure quadratic has no sharp minimum and the
    # certificate has to say so through a collapsing beta_hat.
    quad = oracles.quadratic_composite(2)
    quad_cert = estimate_sharp_minimum(quad, np.zeros(2), delta=1e-3)
    smooth_ok = quad_cert["beta_hat"] <= 1e-2
    ok = sharp_ok and smooth_ok
    report(acceptance_log, 6, "sharp minimum certificates", ok,
           f"toy-sharp-1d beta_hat {cert['beta_hat']:.4g} vs 0.9*sweep "
           f"{0.9 * sweep:.4g}, gamma_hat {growth['gamma_hat']:.4g}; "
           f"quadratic beta_hat {quad_cert['beta_hat']:.3g} <= 1e-2")


def test_criterion_07_small_step_property(acceptance_log, benchmark_runs):
    details = []
    ok = True
    for name in ("toy-sharp-1d", "toy-sharp-2d"):
        _, comp, _, result = benchmark_runs[name]
        epsilon = 0.1 / 2.0
        probe = find_small_step_eta(comp, result.final_z, epsilon)
        ok &= probe["passed"] and probe["n_probes"] >= 64 and probe["eta"] > 0.0
        details.append(f"{name}: eta {probe['eta']:.3g}, max step "
                       f"{probe['max_step_norm']:.3g} < eps {epsilon}, "
                       f"{probe['n_probes']} probes")
    report(acceptance_log, 7, "small step property", ok,
           "; ".join(details) + " (quasi-infinite radius)")


def test_criterion_08_strong_convergence_tail_bound(acceptance_log,
                                                    benchmark_runs, slow_ramp_runs):
    labeled = []
    checked = []
    ok = True
    candidates = []
    for name, (comp, result) in slow_ramp_runs.items():
        candidates.append((f"{name} (slow ramp)", comp, result, 0.1))
    for name in CONVERGING_NAMES:
        _, comp, _, result = benchmark_runs[name]
        delta = 0.1 if name.startswith("toy") else 0.01
        candidates.append((name, comp, result, delta))

    for label_name, comp, result, delta in candidates:
        if result.status != STATUS_CONVERGED:
            continue
        beta = estimate_sharp_minimum(comp, result.final_z, delta=delta)["beta_hat"]
        verdict = check_strong_convergence(result.trace, result.final_z, beta)
        if verdict["label"] != "strong-convergent":
            checked.append(f"{label_name}: inconclusive")
            continue
        labeled.append(label_name)
        # Re-verify the distance bound from the raw records, independently
        # of the report internals.
        accepted = [rec for rec in result.trace if rec.accepted]
        tail = accepted[-verdict["m_tail"]:]
        j_final = accepted[-1].J
        for rec in tail:
            err = float(np.max(np.abs(rec.z - result.final_z)))
            bound = (rec.J - j_final) / beta + 1e-8
            if not err <= bound:
                ok = False
                checked.append(f"{label_name}: err {err:.3g} > bound {bound:.3g}")
                break
        else:
            checked.append(f"{label_name}: tail bound holds over {len(tail)} iterates")
    ok = ok and len(labeled) >= 1
    report(acceptance_log, 8, "strong convergence tail bound", ok,
           f"{len(labeled)} labeled run(s) [{', '.join(labeled)}]; " + "; ".join(checked))


def test_criterion_09_stationarity_at_termination(acceptance_log,
                                                  benchmark_runs, slow_ramp_runs):
    details = []
    ok = True
    everything = [(name, comp, result)
                  for name, (_, comp, _, result) in benchmark_runs.items()]
    everything += [(f"{name} (slow ramp)", comp, result)
                   for name, (comp, result) in slow_ramp_runs.items()]
    for name, comp, result in everything:
        if result.status != STATUS_CONVERGED:
            ok = False
            details.append(f"{name}: did not converge")
            continue
        probe_radius = min(1.0, result.trace[-1].radius)
        residual = check_stationarity(comp, result.final_z, probe_radius)
        bound = 1e-6 * (1.0 + abs(result.J_final))
        sub = check_subdifferential_inequality(comp, result.final_z)
        run_ok = residual <= bound and sub["passed"] and sub["n_directions"] >= 64
        ok &= run_ok
        details.append(f"{name}: residual {residual:.2g} (bound {bound:.2g}), "
                       f"dJ min {sub['min_estimate']:.2g} on {sub['n_directions']} dirs")
    report(acceptance_log, 9, "stationarity at termination", ok, "; ".join(details))


def test_criterion_10_assumption_violation_detection(acceptance_log):
    bench = builtin("noncompact-levelset")
    comp, _ = bench.build()
    statuses = []
    for seed in range(3):
        result = run_scvx(comp, jittered_start(bench, seed))
        statuses.append(result.status)
    ok = all(s == STATUS_LEVEL_SET for s in statuses) and \
        all(s != STATUS_CONVERGED for s in statuses)
    report(acceptance_log, 10, "assumption violation detection", ok,
           f"noncompact-levelset over 3 jittered starts -> "
           f"{sorted(set(statuses))}, never converged")


def test_criterion_11_deterministic_traces(acceptance_log, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config_dir = REPO_ROOT / "configs"
    config_paths = sorted(config_dir.glob("*.json"))
    assert config_paths, "bundled configs missing"
    mismatched = []
    for config_path in config_paths:
        config = load_config(str(config_path))
        trace_file = Path(config.output.trace)
        code_a = main(["solve", "--config", str(config_path)])
        bytes_a = trace_file.read_bytes()
        trace_file.unlink()
        code_b = main(["solve", "--config", str(config_path)])
        bytes_b = trace_file.read_bytes()
        if bytes_a != bytes_b or code_a != code_b:
            mismatched.append(config_path.stem)
    ok = not mismatched
    report(acceptance_log, 11, "deterministic traces", ok,
           f"{len(config_paths)} bundled configs re-run, "
           + ("all traces byte-identical" if ok else f"mismatches: {mismatched}"))


def test_criterion_12_rate_and_ratio_reports(acceptance_log,
                                             benchmark_runs, slow_ramp_runs):
    produced = 0
    ok = True
    details = []
    everything = [(name, result) for name, (_, _, _, result) in benchmark_runs.items()]
    everything += [(f"{name} (slow ramp)", result)
                   for name, (comp, result) in slow_ramp_runs.items()]
    for name, result in everything:
        if result.status != STATUS_CONVERGED:
            continue
        ratio = check_ratio_limit(result.trace)
        rate = estimate_rate(result.trace, result.final_z)
        if ratio is None or rate is None:
            ok = False
            details.append(f"{name}: report missing")
            continue
        produced += 1
        tag = f"q={rate['order_q']:.2f}" if rate["defined"] else rate["reason"]
        details.append(f"{name}: rho tail n={ratio['n_defined']}, rate {tag}")
    # Synthetic quadratic tail: exact textbook order two within +-0.1.
    errors = oracles.quadratic_error_sequence()
    trace = [IterationRecord(k=k, z=np.array([e]), J=float(e), step_norm=0.0,
                             model_value=0.0, predicted_decrease=1.0,
                             actual_decrease=0.0, rho=0.9, radius=1.0,
                             accepted=True)
             for k, e in enumerate(errors)]
    est = estimate_rate(trace, np.zeros(1))
    synth_ok = est["defined"] and abs(est["order_q"] - 2.0) <= 0.1
    ok = ok and produced == len(everything) and synth_ok
    report(acceptance_log, 12, "rate and ratio reports", ok,
           f"reports produced for {produced}/{len(everything)} converged runs; "
           f"synthetic quadratic order {est['order_q']:.3f} (want 2 +- 0.1); "
           + "; ".join(details))