"""Empirical probes for the conditions behind trust-region convergence.

Every probe here measures, on a concrete solved instance, a quantity that
convergence arguments usually assume: sharp growth of the objective around
the minimizer, growth of the convex model in every direction, smallness of
model steps near the minimizer, the tail behavior of the iterate sequence,
one-sided directional derivatives at the final point, and confinement to
the starting sublevel set.  Distances and directions use the inf-norm,
the norm of the trust region and its steps, so the sharpness and growth
constants compare directly with the radius.  Estimates are sampled with seeded generators,
signed axis directions always included, so reports are reproducible and a
negative finding (for example a non-sharp minimum) is itself a result.

Each probe returns its section of the diagnostics report: a dict whose
keys, in order, are the ones the report writes.  Arrays and numpy scalars
are left for the writer to turn into JSON.

The trust-region ratio tail is reported but never asserted against: a ratio
limit of one is not something the method guarantees, so the report is
observational only.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .composite import CompositeObjective, linearize
from .loop import LEVEL_SET_TOL, IterationRecord
from .subproblem import SubproblemError, solve_min_norm_step

# Step magnitudes at which the convex model is sampled; its ratios are
# nondecreasing in the magnitude, so the smallest approaches the derivative.
GROWTH_SCALES = (1e-4, 1e-2, 1.0)
# Step of the one-sided differences that estimate directional derivatives.
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


def unit_directions(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit-norm direction set: signed axes plus seeded draws."""
    eye = np.eye(n)
    rows = [*eye, *-eye]
    rng = np.random.default_rng(seed)
    while len(rows) < 2 * n + count:
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


def _certificate(ratios: np.ndarray, dirs: np.ndarray, scales: Sequence[float], seed: int,
                 centre=None, **constant) -> dict:
    """Report section of a sampled growth constant, the smallest of ratios.

    constant holds the one of beta_hat and gamma_hat the probe fills; the
    other stays None.  worst_ratio is that smallest ratio and worst_point
    the sampled step s*u behind it, or centre + s*u for a probe that samples
    around centre.  n_samples counts every ratio, all shells included.
    """
    worst = int(np.argmin(ratios))
    step = scales[worst // len(dirs)] * dirs[worst % len(dirs)]
    return {"beta_hat": None, "gamma_hat": None, "delta": None, **constant, "norm": "inf",
            "seed": seed, "n_samples": ratios.size, "worst_ratio": ratios[worst],
            "worst_point": step if centre is None else centre + step}


def estimate_sharp_minimum(objective: CompositeObjective, z_bar, delta: float,
                           n_samples: int = 64, seed: int = 0) -> dict:
    """Sample (J(z) - J(z_bar)) / dist on shells at delta/10, delta/3, delta.

    beta_hat is the smallest ratio found.  It is positive at a sharp
    minimizer, near zero at a smooth one, and negative when z_bar is not
    even locally minimal along some sampled direction: a finding, not an
    error.  worst_point is the sampled z with that ratio, so the constant
    can be re-derived from the report alone.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    z_bar = np.asarray(z_bar, dtype=float)
    dirs = unit_directions(z_bar.size, n_samples, seed=seed)
    scales = (delta / 10.0, delta / 3.0, delta)
    _, ratios = _shell_ratios(objective, z_bar, dirs, scales)
    return _certificate(ratios, dirs, scales, seed, centre=z_bar,
                        beta_hat=float(np.min(ratios)), delta=float(delta))


def estimate_growth_constant(objective: CompositeObjective, z_bar, n_samples: int = 64,
                             seed: int = 0) -> dict:
    """Sample (L(d) - L(0)) / ||d|| over directions and small magnitudes.

    The model is convex, so each direction's ratio is nondecreasing in the
    magnitude and the small-scale samples approach the directional
    derivative from above; gamma_hat is the smallest ratio found, and a
    negative value certifies that the model descends.  worst_point is the
    step d with that ratio.
    """
    z_bar = np.asarray(z_bar, dtype=float)
    lin = linearize(objective, z_bar)
    dirs = unit_directions(z_bar.size, n_samples, seed=seed)
    ratios = np.concatenate([(lin.model_value(scale * dirs) - lin.base_value) / scale
                             for scale in GROWTH_SCALES])
    return _certificate(ratios, dirs, GROWTH_SCALES, seed, gamma_hat=float(np.min(ratios)))


def _small_step(objective: CompositeObjective, z_bar, eta: float, epsilon: float,
                n_probes: int, seed: int, give_up: bool) -> Optional[dict]:
    """The check_small_step section; None once give_up and a probe reaches epsilon."""
    if eta <= 0 or epsilon <= 0:
        raise ValueError("eta and epsilon must be positive")
    z_bar = np.asarray(z_bar, dtype=float)
    rng = np.random.default_rng(seed)
    norms = []
    failures = []
    for i in range(n_probes):
        z = z_bar + 0.99 * eta * rng.uniform(-1.0, 1.0, z_bar.size)
        try:
            radius = QUASI_INFINITE_FACTOR * (1.0 + float(np.max(np.abs(z))))
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
            "max_step_norm": max_norm, "n_probes": n_probes, "failures": failures}


def check_small_step(objective: CompositeObjective, z_bar, eta: float,
                     epsilon: float, n_probes: int = 64, seed: int = 0) -> dict:
    """Probe whether model steps stay below epsilon within an eta-ball.

    Each probe point z gets an effectively unconstrained subproblem, over
    the quasi-infinite radius QUASI_INFINITE_FACTOR * (1 + ||z||_inf); its
    step is the smallest-norm optimizer, so a pass certifies that small
    steps exist, not merely that the LP picked one.  passed is exactly
    max_step_norm < epsilon.  A probe whose step reaches UNBOUNDED_FRACTION
    of that radius (the model is unbounded below) or whose LP fails counts
    as an infinite step and adds a line to failures.
    """
    return _small_step(objective, z_bar, eta, epsilon, n_probes, seed, give_up=False)


def find_small_step_eta(objective: CompositeObjective, z_bar, epsilon: float,
                        n_probes: int = 64, seed: int = 0) -> dict:
    """Shrink eta from epsilon by halving until the small-step probe passes.

    Returns the first passing section, or the last failing one if no eta in
    the halving schedule works.  Every halving but the last is returned only
    if it passes, so it gives up at its first probe that reaches epsilon.
    """
    for halvings in range(SMALL_STEP_HALVINGS + 1):
        section = _small_step(objective, z_bar, epsilon / 2.0 ** halvings, epsilon, n_probes,
                              seed, give_up=halvings < SMALL_STEP_HALVINGS)
        if section is not None and section["passed"]:
            break
    return section


def _distances(records: Sequence[IterationRecord], z_bar: np.ndarray) -> np.ndarray:
    """Inf-norm distance from each record's iterate to z_bar."""
    return np.array([np.max(np.abs(rec.z - z_bar), initial=0.0) for rec in records])


def check_strong_convergence(trace: Sequence[IterationRecord], z_bar,
                             beta_hat: float, m_tail: int = 5) -> dict:
    """Check the accepted tail against the sharp-growth distance bound.

    tail_errors are the distances of the last m_tail accepted iterates to
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
    tail = accepted[-min(m_tail, len(accepted)):]
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


def check_ratio_limit(trace: Sequence[IterationRecord], m_tail: int = 5) -> dict:
    """Report whether |rho - 1| is nonincreasing over the last m_tail accepted
    ratios (trending_to_one), and whether there are m_tail of them
    (sufficient); n_defined counts every accepted ratio.  Observed, never
    asserted."""
    rhos = [rec.rho for rec in trace if rec.accepted and rec.rho is not None]
    tail = np.asarray(rhos[-m_tail:]) if rhos else np.zeros(0)
    gaps = np.abs(tail - 1.0)
    return {"tail_rho": tail,
            "trending_to_one": bool(tail.size >= 2 and np.all(np.diff(gaps) <= 1e-12)),
            "sufficient": len(rhos) >= m_tail, "n_defined": len(rhos),
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
    threshold = problem.active_set_threshold
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


def estimate_rate(trace: Sequence[IterationRecord], z_bar, m_tail: int = 5) -> dict:
    """Fit a convergence order to the last accepted iterates.

    order_q is the least-squares slope of log e_{k+1} against log e_k over
    the distances e to z_bar, error_ratios the ratios e_{k+1} / e_k, and
    superlinear_evidence wants them strictly decreasing and ending below
    0.1.  defined is False, with the reason, when the tail is too short or
    holds exact zeros (finite termination): a fine outcome that simply
    leaves no rate to estimate.
    """
    z_bar = np.asarray(z_bar, dtype=float)
    accepted = [rec for rec in trace if rec.accepted]
    errors = _distances(accepted[-(m_tail + 1):], z_bar)
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
                                     n_directions: int = 64, seed: int = 0) -> dict:
    """Estimate dJ(z_bar; s) over unit directions by one-sided differences.

    At a minimizer every direction has a nonnegative one-sided derivative;
    passed requires the smallest estimate, min_estimate, to clear
    -SUBDIFFERENTIAL_TOL * (1 + |J|).  n_directions counts the signed axes
    as well as the n_directions random draws.
    """
    z_bar = np.asarray(z_bar, dtype=float)
    dirs = unit_directions(z_bar.size, n_directions, seed=seed)
    j_bar, estimates = _shell_ratios(objective, z_bar, dirs, (SUBDIFFERENTIAL_STEP,))
    threshold = -SUBDIFFERENTIAL_TOL * (1.0 + abs(j_bar))
    return {"passed": bool(np.min(estimates) >= threshold),
            "min_estimate": float(np.min(estimates)), "n_directions": dirs.shape[0],
            "step": SUBDIFFERENTIAL_STEP}


def check_level_set(trace: Sequence[IterationRecord], j0: float,
                    norm_budget: float = 1e4) -> dict:
    """Verify J stayed at or below J(z0) and iterates stayed inside the budget.

    verdict is "objective-increase" when some J rose above j0 by more than
    LEVEL_SET_TOL relative, else "norm-budget-exceeded" when some iterate's
    inf-norm (max_norm) passed norm_budget, else "ok"; passed means "ok".
    """
    max_j = max((rec.J for rec in trace), default=j0)
    max_norm = max((float(np.max(np.abs(rec.z))) for rec in trace), default=0.0)
    if max_j > j0 + LEVEL_SET_TOL * (1.0 + abs(j0)):
        verdict = "objective-increase"
    elif max_norm > norm_budget:
        verdict = "norm-budget-exceeded"
    else:
        verdict = "ok"
    return {"passed": verdict == "ok", "verdict": verdict, "max_objective": float(max_j),
            "j0": float(j0), "max_norm": float(max_norm), "norm_budget": float(norm_budget)}
