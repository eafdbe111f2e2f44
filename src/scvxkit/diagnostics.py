"""Empirical probes for the conditions behind trust-region convergence.

Every probe here measures, on a concrete solved instance, a quantity that
convergence arguments usually assume: sharp growth of the objective around
the minimizer, growth of the convex model in every direction, smallness of
model steps near the minimizer, the tail behavior of the iterate sequence,
one-sided directional derivatives at the final point, and confinement to
the starting sublevel set.  Distances and directions use the inf-norm,
the norm of the trust region and its steps, so the sharpness and growth
constants compare directly with the radius.  The model growth constant is
exact, from LPs; the other estimates are sampled with seeded generators, signed
axes included, so a negative finding (a non-sharp minimum) is reproducible.

Each probe returns its section of the diagnostics report: a dict whose
keys, in order, are the ones the report writes.  Arrays and numpy scalars
are left for the writer to turn into JSON.

The trust-region ratio tail is reported but never asserted against: a ratio
limit of one is not something the method guarantees, so the report is
observational only.

certify and run_diagnostics turn one finished run into its evidence: the
summary's certificate fields and the full report, in the order they are
written.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .composite import CompositeObjective, linearize
from .loop import (STATUS_CONVERGED, IterationRecord, SolveResult, TrustRegionParams,
                   check_stationarity)
from .subproblem import SubproblemError, build_lp, lp_solve, solve_min_norm_step

# Relative rise above J(z0) that the level-set check forgives.
LEVEL_SET_TOL = 1e-12
# Random directions each sampled probe draws on top of the 2n signed axes.
N_DIRECTIONS = 64
# Probe points of each small-step section.
N_PROBES = 64
# Accepted iterates in the strong-convergence, rate and ratio tails.
M_TAIL = 5
# Step of the one-sided differences, and half-width of the growth LPs' box.
SUBDIFFERENTIAL_STEP = 1e-6
# Times the small-step probe halves eta before it reports a failure.
SMALL_STEP_HALVINGS = 3
# The small-step probe's stand-in for an unconstrained subproblem at z: the
# radius QUASI_INFINITE_FACTOR * (1 + ||z||_inf).  A minimum-norm step that
# still reaches UNBOUNDED_FRACTION of it shows the model unbounded below.
QUASI_INFINITE_FACTOR = 1e6
UNBOUNDED_FRACTION = 0.5
# Slack on the tail distances' monotonicity and on their sharp-growth bound.
STRONG_CONVERGENCE_TOL = 1e-8
# Relative slack below -(1 + |J|) that a directional derivative may reach.
SUBDIFFERENTIAL_TOL = 1e-6
# Relative distance from zero at which an inequality counts as active.
ACTIVE_TOL = 1e-6


def unit_directions(n: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit-norm direction set: the 2n signed axes plus
    N_DIRECTIONS seeded draws.  n must be at least 1: in R^0 every draw
    is empty and none can be scaled to unit norm."""
    if n < 1:
        raise ValueError(f"unit directions need a dimension n >= 1, got n={n}")
    eye = np.eye(n)
    rows = [*eye, *-eye]
    rng = np.random.default_rng(seed)
    while len(rows) < 2 * n + N_DIRECTIONS:
        u = rng.uniform(-1.0, 1.0, n)
        scale = np.max(np.abs(u), initial=0.0)
        if scale < 1e-12:
            continue
        rows.append(u / scale)
    return np.asarray(rows)


def _shell_ratios(objective: CompositeObjective, z_bar: np.ndarray, dirs: np.ndarray,
                  scales: Sequence[float]) -> Tuple[float, np.ndarray]:
    """J(z_bar) and the ratios (J(z_bar + s*u) - J(z_bar)) / s for each
    shell s and direction u, shell by shell, from one value call."""
    scales = np.asarray(scales, dtype=float)
    shells = z_bar + scales[:, None, None] * dirs
    values = objective.value(np.vstack([z_bar, shells.reshape(-1, z_bar.size)]))
    j_bar = float(values[0])
    return j_bar, ((values[1:].reshape(scales.size, -1) - j_bar) / scales[:, None]).ravel()


def estimate_sharp_minimum(objective: CompositeObjective, z_bar, delta: float,
                           seed: int = 0) -> dict:
    """Sample (J(z) - J(z_bar)) / dist on shells at delta/10, delta/3, delta.

    beta_hat is the smallest ratio found.  It is positive at a sharp
    minimizer, near zero at a smooth one, and negative when z_bar is not
    even locally minimal along some sampled direction: a finding, not an
    error.  worst_point is the sampled z with that ratio, so the constant
    can be re-derived from the report alone.
    """
    if not 0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    z_bar = np.asarray(z_bar, dtype=float)
    dirs = unit_directions(z_bar.size, seed=seed)
    scales = (delta / 10.0, delta / 3.0, delta)
    _, ratios = _shell_ratios(objective, z_bar, dirs, scales)
    worst = int(np.argmin(ratios))
    return {"beta_hat": float(ratios[worst]), "delta": float(delta), "norm": "inf",
            "seed": seed, "n_samples": ratios.size, "worst_ratio": ratios[worst],
            "worst_point": z_bar + scales[worst // len(dirs)] * dirs[worst % len(dirs)]}


def estimate_growth_constant(objective: CompositeObjective, z_bar) -> dict:
    """Exact smallest slope (L(d) - L(0)) / eps of the model on the eps-sphere.

    eps is SUBDIFFERENTIAL_STEP.  An eps-box LP that descends gives it alone,
    as a positively homogeneous model descends most on the sphere; else the
    2n face LPs d_i = +-eps do.  Slopes divide by eps, never by a tiny ||d||.
    worst_point is the d behind gamma_hat; a failed n_lps-th LP gives NaN and failure.
    A face LP differs from the LP before it only in its step bounds, so each
    restarts from the last one's final basis (solve_box_lp's warm=).
    """
    eps = SUBDIFFERENTIAL_STEP
    lin = linearize(objective, z_bar)
    n = lin.n_z
    box = build_lp(lin, eps)
    slopes, steps, warm = [], [], None
    try:
        for i in range(-1, 2 * n):  # the box, then its faces
            lb, ub = box.lb.copy(), box.ub.copy()
            if i >= 0:
                lb[i % n] = ub[i % n] = eps if i < n else -eps
            sol = lp_solve(replace(box, lb=lb, ub=ub), warm=warm)
            warm = sol.warm
            steps.append(sol.x[:n])
            slopes.append((lin.model_value(steps[-1]) - lin.base_value) / eps)
            if i < 0 and slopes[0] < -SUBDIFFERENTIAL_TOL * (1.0 + abs(lin.base_value)):
                break
    except SubproblemError as exc:
        return {"gamma_hat": np.nan, "norm": "inf", "epsilon": eps, "n_lps": len(steps) + 1,
                "worst_point": None, "failure": str(exc)}
    worst = 0 if len(slopes) == 1 else 1 + int(np.argmin(slopes[1:]))
    return {"gamma_hat": slopes[worst], "norm": "inf", "epsilon": eps, "n_lps": len(slopes),
            "worst_point": steps[worst]}


def _small_step(objective: CompositeObjective, z_bar, eta: float, epsilon: float,
                seed: int, give_up: bool) -> Optional[dict]:
    """The check_small_step section; None once give_up and a probe reaches epsilon."""
    if not (0 < eta < np.inf and 0 < epsilon < np.inf):
        raise ValueError("eta and epsilon must be positive and finite")
    z_bar = np.asarray(z_bar, dtype=float)
    rng = np.random.default_rng(seed)
    norms = []
    failures = []
    for i in range(N_PROBES):
        z = z_bar + 0.99 * eta * rng.uniform(-1.0, 1.0, z_bar.size)
        try:
            radius = QUASI_INFINITE_FACTOR * (1.0 + float(np.max(np.abs(z), initial=0.0)))
            step = solve_min_norm_step(linearize(objective, z), radius).step
            norm = float(np.max(np.abs(step), initial=0.0))
            if norm >= UNBOUNDED_FRACTION * radius:
                failures.append(f"probe {i}: model unbounded below")
                norm = np.inf
        except SubproblemError as exc:
            failures.append(f"probe {i}: {exc}")
            norm = np.inf
        if give_up and norm >= epsilon:
            return None
        norms.append(norm)
    max_norm = float(np.max(norms, initial=0.0))
    return {"passed": bool(max_norm < epsilon), "eta": float(eta), "epsilon": float(epsilon),
            "max_step_norm": max_norm, "n_probes": N_PROBES, "failures": failures}


def check_small_step(objective: CompositeObjective, z_bar, eta: float,
                     epsilon: float, seed: int = 0) -> dict:
    """Probe whether model steps stay below epsilon within an eta-ball.

    Each of the N_PROBES seeded probe points z gets an effectively
    unconstrained subproblem, over the quasi-infinite radius
    QUASI_INFINITE_FACTOR * (1 + ||z||_inf); its step is the smallest-norm
    optimizer, so a pass certifies that small steps exist, not merely that
    the LP picked one.  passed is exactly max_step_norm < epsilon.  A probe
    whose step reaches UNBOUNDED_FRACTION of that radius (the model is
    unbounded below) or whose LP fails counts as an infinite step and adds a
    line to failures.
    """
    return _small_step(objective, z_bar, eta, epsilon, seed, give_up=False)


def find_small_step_eta(objective: CompositeObjective, z_bar, epsilon: float,
                        seed: int = 0) -> dict:
    """Shrink eta from epsilon by halving until the small-step probe passes.

    Returns the first passing section, or the last failing one if no eta in
    the halving schedule works.  Every halving but the last is returned only
    if it passes, so it gives up at its first probe that reaches epsilon.
    """
    for halvings in range(SMALL_STEP_HALVINGS + 1):
        section = _small_step(objective, z_bar, epsilon / 2.0 ** halvings, epsilon, seed,
                              give_up=halvings < SMALL_STEP_HALVINGS)
        if section is not None and section["passed"]:
            break
    return section


def _distances(records: Sequence[IterationRecord], z_bar: np.ndarray) -> np.ndarray:
    """Inf-norm distance from each record's iterate to z_bar."""
    return np.array([np.max(np.abs(rec.z - z_bar), initial=0.0) for rec in records])


def check_strong_convergence(trace: Sequence[IterationRecord], z_bar,
                             beta_hat: float) -> dict:
    """Check the accepted tail against the sharp-growth distance bound.

    tail_errors are the distances of the last M_TAIL accepted iterates to
    z_bar.  cauchy_ok says they are nonincreasing, bound_ok that each
    satisfies dist <= (J - J_final) / beta_hat.  label is
    "strong-convergent" when both hold and "inconclusive" otherwise; with
    fewer than three accepted iterates or beta_hat <= 0 the tail is not
    examined (m_tail 0).  Short tails and non-sharp minima are not
    counterexamples.
    """
    z_bar = np.asarray(z_bar, dtype=float)
    accepted = [rec for rec in trace if rec.accepted]
    if len(accepted) < 3 or not (beta_hat > 0):
        return {"label": "inconclusive", "cauchy_ok": False, "bound_ok": False,
                "beta_hat": float(beta_hat), "m_tail": 0, "tail_errors": np.zeros(0)}
    tail = accepted[-M_TAIL:]
    j_final = accepted[-1].J
    errors = _distances(tail, z_bar)
    cauchy_ok = bool(np.all(np.diff(errors) <= STRONG_CONVERGENCE_TOL))
    bound_ok = all(
        err <= (rec.J - j_final) / beta_hat + STRONG_CONVERGENCE_TOL
        for err, rec in zip(errors, tail)
    )
    label = "strong-convergent" if (cauchy_ok and bound_ok) else "inconclusive"
    return {"label": label, "cauchy_ok": cauchy_ok, "bound_ok": bound_ok,
            "beta_hat": float(beta_hat), "m_tail": len(tail), "tail_errors": errors}


def check_ratio_limit(trace: Sequence[IterationRecord]) -> dict:
    """Report whether |rho - 1| is nonincreasing over the last M_TAIL accepted
    ratios (trending_to_one), and whether there are M_TAIL of them
    (sufficient); n_defined counts every accepted ratio.  Observed, never
    asserted."""
    rhos = [rec.rho for rec in trace if rec.accepted and rec.rho is not None]
    tail = np.asarray(rhos[-M_TAIL:], dtype=float)
    gaps = np.abs(tail - 1.0)
    return {"tail_rho": tail,
            "trending_to_one": bool(tail.size >= 2 and np.all(np.diff(gaps) <= 1e-12)),
            "sufficient": len(rhos) >= M_TAIL, "n_defined": len(rhos),
            "note": "observational only; no assertion is attached to this limit"}


def active_set_report(problem, z_final) -> dict:
    """Count active inequalities of a discretized problem at z_final.

    An inequality is active within tolerance of zero, relative to its value.
    verdict compares active_count with threshold, the control dimension
    times the number of control nodes: "exact" matches the count a fully
    determined control would need, "shortfall" and "excess" flag the gap.
    Discretized problems routinely land off "exact"; that observation is
    the point.
    """
    composite = problem.composite
    psi = composite.psi
    values = composite.g.value(z_final)
    ineq = values[psi.ineq_range.start:psi.ineq_range.stop]
    labels = problem.labels[psi.ineq_range.start:psi.ineq_range.stop]
    active = [label for label, v in zip(labels, ineq) if abs(v) <= ACTIVE_TOL * (1.0 + abs(v))]
    threshold = problem.ocp.n_u * (problem.ocp.n_nodes - 1)
    count = len(active)
    if count == threshold:
        verdict = "exact"
    elif count < threshold:
        verdict = "shortfall"
    else:
        verdict = "excess"
    return {"active_count": count, "threshold": threshold, "verdict": verdict,
            "tolerance": ACTIVE_TOL, "active_labels": active}


def fit_convergence_order(errors: Sequence[float]) -> Tuple[float, np.ndarray]:
    """Least-squares slope of successive log-errors plus the raw ratios."""
    e = np.asarray(errors, dtype=float)
    if e.size < 3 or np.any(e <= 0):
        raise ValueError("need at least three positive errors")
    logs = np.log(e)
    slope, _ = np.polyfit(logs[:-1], logs[1:], 1)
    return float(slope), e[1:] / e[:-1]


def estimate_rate(trace: Sequence[IterationRecord], z_bar) -> dict:
    """Fit a convergence order to the last M_TAIL + 1 accepted iterates.

    Trailing accepted iterates equal to z_bar are left out first: a run's
    final point is its last accepted iterate, whose distance 0 says nothing
    about the rate.  order_q is the least-squares slope of log e_{k+1}
    against log e_k over the distances e to z_bar, error_ratios the ratios
    e_{k+1} / e_k, and superlinear_evidence wants them strictly decreasing
    and ending below 0.1.  defined is False, with the reason, when the tail
    is too short or holds exact zeros (finite termination): a fine outcome
    that simply leaves no rate to estimate.
    """
    z_bar = np.asarray(z_bar, dtype=float)
    accepted = [rec for rec in trace if rec.accepted]
    while accepted and np.array_equal(accepted[-1].z, z_bar):
        accepted.pop()
    errors = _distances(accepted[-(M_TAIL + 1):], z_bar)
    if errors.size < 3 or np.any(errors <= 0):
        reason = ("tail too short" if errors.size < 3
                  else "finite termination: exact zeros in the tail")
        return {"order_q": None, "defined": False, "reason": reason,
                "superlinear_evidence": False, "error_ratios": np.zeros(0)}
    order, ratios = fit_convergence_order(errors)
    return {"order_q": order, "defined": True, "reason": "",
            "superlinear_evidence": bool(np.all(np.diff(ratios) < 0) and ratios[-1] < 0.1),
            "error_ratios": ratios}


def check_subdifferential_inequality(objective: CompositeObjective, z_bar,
                                     seed: int = 0) -> dict:
    """Estimate dJ(z_bar; s) over unit directions by one-sided differences.

    At a minimizer every direction has a nonnegative one-sided derivative;
    passed requires the smallest estimate, min_estimate, to clear
    -SUBDIFFERENTIAL_TOL * (1 + |J|).  n_directions counts the signed axes
    as well as the N_DIRECTIONS random draws.
    """
    z_bar = np.asarray(z_bar, dtype=float)
    dirs = unit_directions(z_bar.size, seed=seed)
    j_bar, estimates = _shell_ratios(objective, z_bar, dirs, (SUBDIFFERENTIAL_STEP,))
    threshold = -SUBDIFFERENTIAL_TOL * (1.0 + abs(j_bar))
    return {"passed": bool(np.min(estimates) >= threshold),
            "min_estimate": float(np.min(estimates)), "n_directions": dirs.shape[0],
            "step": SUBDIFFERENTIAL_STEP}


def check_level_set(trace: Sequence[IterationRecord], j0: float,
                    norm_budget: float = TrustRegionParams.norm_budget) -> dict:
    """Verify J stayed at or below J(z0) and iterates stayed inside the budget.

    verdict is "objective-increase" when some J rose above j0 by more than
    LEVEL_SET_TOL relative, else "norm-budget-exceeded" when some iterate's
    inf-norm (max_norm) passed norm_budget, else "ok"; passed means "ok".
    """
    if not 0 < norm_budget < np.inf:
        raise ValueError("norm_budget must be positive and finite")
    max_j = max((rec.J for rec in trace), default=j0)
    max_norm = max((float(np.max(np.abs(rec.z), initial=0.0)) for rec in trace),
                   default=0.0)
    if max_j > j0 + LEVEL_SET_TOL * (1.0 + abs(j0)):
        verdict = "objective-increase"
    elif max_norm > norm_budget:
        verdict = "norm-budget-exceeded"
    else:
        verdict = "ok"
    return {"passed": verdict == "ok", "verdict": verdict, "max_objective": float(max_j),
            "j0": float(j0), "max_norm": float(max_norm), "norm_budget": float(norm_budget)}


def certify(objective: CompositeObjective, result: SolveResult, r_init: float) -> dict:
    """The run's certificate: the summary fields that measure its final point.

    stationarity_residual is the model decrease that one subproblem finds at
    the final point within the box of half-width stationarity_probe_radius
    = min(1, final radius).  final_radius is the last record's radius, or
    r_init for a run without one.  A converged run at a final radius <= 1
    reuses its terminal record's predicted decrease; otherwise the probe
    solves the LP, and a SubproblemError gives NaN.
    """
    final_radius = result.trace[-1].radius if result.trace else r_init
    probe_radius = min(1.0, final_radius)
    if result.status == STATUS_CONVERGED and final_radius <= 1.0:
        # The terminal record solved this very LP: the final point's
        # linearization over a box of the probe radius.
        residual = result.trace[-1].predicted_decrease
    else:
        try:
            residual = check_stationarity(objective, result.final_z, probe_radius)
        except SubproblemError:
            # A run that failed in the LP usually fails the probe's LP too.
            residual = np.nan
    return {"stationarity_residual": residual, "stationarity_probe_radius": probe_radius,
            "max_equality_violation": objective.max_equality_violation(result.final_z),
            "max_inequality_violation": objective.max_inequality_violation(result.final_z),
            "final_radius": final_radius}


def run_diagnostics(objective: CompositeObjective, result: SolveResult, j0: float, *,
                    delta: float, small_step: bool, seed: int, norm_budget: float,
                    disc=None) -> dict:
    """The full diagnostics report of one finished run that started at J = j0.

    The level-set and ratio-tail sections always run; the probes centred on
    the final point need a converged run, else "skipped" says why.  The
    small-step probe runs if small_step, with epsilon half the sharp-minimum
    shell radius delta, and the active-set section needs the discretized
    problem disc.
    """
    z_bar = result.final_z
    report: dict = {"status": result.status,
                    "level_set": check_level_set(result.trace, j0, norm_budget=norm_budget),
                    "ratio_tail": check_ratio_limit(result.trace)}
    if result.status != STATUS_CONVERGED:
        report["skipped"] = "minimizer-centric probes need a converged run"
        return report
    report["sharp_minimum"] = estimate_sharp_minimum(objective, z_bar, delta, seed=seed)
    report["model_growth"] = estimate_growth_constant(objective, z_bar)
    report["strong_convergence"] = check_strong_convergence(
        result.trace, z_bar, report["sharp_minimum"]["beta_hat"])
    report["rate"] = estimate_rate(result.trace, z_bar)
    report["subdifferential"] = check_subdifferential_inequality(objective, z_bar, seed=seed)
    if small_step:
        report["small_step"] = find_small_step_eta(objective, z_bar, delta / 2.0, seed=seed)
    if disc is not None:
        report["active_set"] = active_set_report(disc, z_bar)
    return report
