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

The trust-region ratio tail is reported but never asserted against: a ratio
limit of one is not something the method guarantees, so the report is
observational only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .composite import CompositeObjective, linearize
from .loop import IterationRecord
from .subproblem import SubproblemError, solve_min_norm_step

# Step magnitudes at which the convex model is sampled; its ratios are
# nondecreasing in the magnitude, so the smallest approaches the derivative.
GROWTH_SCALES = (1e-4, 1e-2, 1.0)
# Step of the one-sided differences that estimate directional derivatives.
SUBDIFFERENTIAL_STEP = 1e-6
# Times the small-step probe halves eta before it reports a failure.
SMALL_STEP_HALVINGS = 3
# Slack on the tail distances' monotonicity and on their sharp-growth bound.
STRONG_CONVERGENCE_TOL = 1e-8
# Relative slack below -(1 + |J|) that a directional derivative may reach.
SUBDIFFERENTIAL_TOL = 1e-6
# Relative distance from zero at which an inequality counts as active.
ACTIVE_TOL = 1e-6
# Relative rise above J(z0) that the level-set check forgives.
LEVEL_SET_TOL = 1e-12


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
                  scales: Sequence[float]):
    """J(z_bar), the points z_bar + s*u for each shell s and direction u,
    and their ratios (J(z) - J(z_bar)) / s, shell by shell."""
    j_bar = objective.value(z_bar)
    points = np.concatenate([z_bar + scale * dirs for scale in scales])
    radii = np.repeat(np.asarray(scales, dtype=float), len(dirs))
    ratios = np.array([(objective.value(z) - j_bar) / r for z, r in zip(points, radii)])
    return j_bar, points, ratios


@dataclass(frozen=True)
class SharpMinimumCertificate:
    """Sampled growth constants around a candidate minimizer.

    beta_hat bounds objective growth ratios on shells around the point;
    gamma_hat bounds model growth ratios over directions at the point.  A
    probe fills its own field and leaves the other as None.  Negative values
    are valid findings: they certify that no sharp growth was observed.
    Samples are stored so every ratio can be re-derived from the reported
    points alone.
    """

    norm: ClassVar[str] = "inf"

    beta_hat: Optional[float]
    gamma_hat: Optional[float]
    delta: Optional[float]
    seed: int
    n_samples: int
    sample_points: np.ndarray
    sample_ratios: np.ndarray


def estimate_sharp_minimum(objective: CompositeObjective, z_bar, delta: float,
                           n_samples: int = 64, seed: int = 0) -> SharpMinimumCertificate:
    """Sample (J(z) - J(z_bar)) / dist on shells at delta/10, delta/3, delta.

    beta_hat is the smallest ratio found.  It is positive at a sharp
    minimizer, near zero at a smooth one, and negative when z_bar is not
    even locally minimal along some sampled direction.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    z_bar = np.asarray(z_bar, dtype=float)
    dirs = unit_directions(z_bar.size, n_samples, seed=seed)
    _, points, ratios = _shell_ratios(objective, z_bar, dirs,
                                      (delta / 10.0, delta / 3.0, delta))
    return SharpMinimumCertificate(
        beta_hat=float(np.min(ratios)), gamma_hat=None, delta=float(delta),
        seed=seed, n_samples=ratios.size, sample_points=points, sample_ratios=ratios,
    )


def estimate_growth_constant(objective: CompositeObjective, z_bar, n_samples: int = 64,
                             seed: int = 0) -> SharpMinimumCertificate:
    """Sample (L(d) - L(0)) / ||d|| over directions and small magnitudes.

    The model is convex, so each direction's ratio is nondecreasing in the
    magnitude and the small-scale samples approach the directional
    derivative from above; gamma_hat is the smallest ratio found.
    """
    z_bar = np.asarray(z_bar, dtype=float)
    lin = linearize(objective, z_bar)
    base = lin.base_value
    dirs = unit_directions(z_bar.size, n_samples, seed=seed)
    points = []
    ratios = []
    for scale in GROWTH_SCALES:
        steps = scale * dirs
        values = lin.model_value_many(steps)
        points.extend(steps)
        ratios.extend((values - base) / scale)
    points = np.asarray(points)
    ratios = np.asarray(ratios)
    return SharpMinimumCertificate(
        beta_hat=None, gamma_hat=float(np.min(ratios)), delta=None,
        seed=seed, n_samples=ratios.size, sample_points=points, sample_ratios=ratios,
    )


@dataclass(frozen=True)
class SmallStepReport:
    """Minimum-norm model steps at random points near a stationary point.

    Each probe point gets an effectively unconstrained subproblem; the
    reported step is the smallest-norm optimizer, so a pass certifies that
    small steps exist, not merely that the LP picked one.  passed is exactly
    max_step_norm < epsilon; failed probes count as infinite steps.
    """

    eta: float
    epsilon: float
    n_probes: int
    max_step_norm: float
    passed: bool
    step_norms: np.ndarray
    failures: Tuple[str, ...]


def check_small_step(objective: CompositeObjective, z_bar, eta: float,
                     epsilon: float, n_probes: int = 64, seed: int = 0) -> SmallStepReport:
    """Probe whether model steps stay below epsilon within an eta-ball."""
    if eta <= 0 or epsilon <= 0:
        raise ValueError("eta and epsilon must be positive")
    z_bar = np.asarray(z_bar, dtype=float)
    rng = np.random.default_rng(seed)
    norms = []
    failures: List[str] = []
    for i in range(n_probes):
        z = z_bar + 0.99 * eta * rng.uniform(-1.0, 1.0, z_bar.size)
        try:
            lin = linearize(objective, z)
            sol = solve_min_norm_step(lin, np.inf)
            if sol.status == "unbounded":
                failures.append(f"probe {i}: model unbounded below")
                norms.append(np.inf)
            else:
                norms.append(float(np.max(np.abs(sol.step), initial=0.0)))
        except SubproblemError as exc:
            failures.append(f"probe {i}: {exc}")
            norms.append(np.inf)
    norms = np.asarray(norms)
    max_norm = float(np.max(norms)) if norms.size else 0.0
    return SmallStepReport(
        eta=float(eta), epsilon=float(epsilon), n_probes=n_probes,
        max_step_norm=max_norm, passed=bool(max_norm < epsilon),
        step_norms=norms, failures=tuple(failures),
    )


def find_small_step_eta(objective: CompositeObjective, z_bar, epsilon: float,
                        n_probes: int = 64, seed: int = 0) -> SmallStepReport:
    """Shrink eta from epsilon by halving until the small-step probe passes.

    Returns the first passing report, or the last failing one if no eta in
    the halving schedule works.
    """
    for halvings in range(SMALL_STEP_HALVINGS + 1):
        report = check_small_step(objective, z_bar, epsilon / 2.0 ** halvings, epsilon,
                                  n_probes=n_probes, seed=seed)
        if report.passed:
            break
    return report


def _distances(records: Sequence[IterationRecord], z_bar: np.ndarray) -> np.ndarray:
    """Inf-norm distance from each record's iterate to z_bar."""
    return np.array([np.max(np.abs(rec.z - z_bar), initial=0.0) for rec in records])


@dataclass(frozen=True)
class StrongConvergenceReport:
    """Tail evidence that the whole iterate sequence settled to one point.

    label is "strong-convergent" when the accepted tail distances to the
    final point are nonincreasing and each tail iterate satisfies
    dist <= (J - J_final) / beta_hat.  Anything else is "inconclusive":
    short tails and non-sharp minima are not counterexamples.
    """

    label: str
    tail_errors: np.ndarray
    cauchy_ok: bool
    bound_ok: bool
    beta_hat: float
    m_tail: int
    j_final: float


def check_strong_convergence(trace: Sequence[IterationRecord], z_bar,
                             beta_hat: float, m_tail: int = 5) -> StrongConvergenceReport:
    """Check the accepted tail against the sharp-growth distance bound."""
    z_bar = np.asarray(z_bar, dtype=float)
    accepted = [rec for rec in trace if rec.accepted and rec.z is not None]
    if len(accepted) < 3 or not (beta_hat > 0):
        return StrongConvergenceReport(
            label="inconclusive", tail_errors=np.zeros(0), cauchy_ok=False,
            bound_ok=False, beta_hat=float(beta_hat), m_tail=0,
            j_final=accepted[-1].J if accepted else np.nan,
        )
    tail = accepted[-min(m_tail, len(accepted)):]
    j_final = accepted[-1].J
    errors = _distances(tail, z_bar)
    cauchy_ok = bool(np.all(np.diff(errors) <= STRONG_CONVERGENCE_TOL))
    bound_ok = all(
        err <= (rec.J - j_final) / beta_hat + STRONG_CONVERGENCE_TOL
        for err, rec in zip(errors, tail)
    )
    label = "strong-convergent" if (cauchy_ok and bound_ok) else "inconclusive"
    return StrongConvergenceReport(
        label=label, tail_errors=errors, cauchy_ok=cauchy_ok, bound_ok=bound_ok,
        beta_hat=float(beta_hat), m_tail=len(tail), j_final=float(j_final),
    )


@dataclass(frozen=True)
class RhoTailReport:
    """Observed trust-region ratio tail; reported, never asserted."""

    tail_rho: np.ndarray
    trending_to_one: bool
    sufficient: bool
    n_defined: int


def check_ratio_limit(trace: Sequence[IterationRecord], m_tail: int = 5) -> RhoTailReport:
    """Report whether |rho - 1| is nonincreasing over the last m_tail accepted
    ratios, and whether there are m_tail of them."""
    rhos = [rec.rho for rec in trace if rec.accepted and rec.rho is not None]
    sufficient = len(rhos) >= m_tail
    tail = np.asarray(rhos[-m_tail:]) if rhos else np.zeros(0)
    gaps = np.abs(tail - 1.0)
    trending = bool(tail.size >= 2 and np.all(np.diff(gaps) <= 1e-12))
    return RhoTailReport(tail_rho=tail, trending_to_one=trending,
                         sufficient=sufficient, n_defined=len(rhos))


@dataclass(frozen=True)
class ActiveSetReport:
    """Count of inequality components sitting on their boundary.

    verdict compares the count with the control dimension times the number
    of control nodes: "exact" matches the count a fully determined control
    would need, "shortfall" and "excess" flag the gap.  Discretized
    problems routinely land off "exact"; that observation is the point.
    """

    active_count: int
    threshold: int
    tolerance: float
    verdict: str
    active_labels: Tuple[str, ...]


def active_set_report(problem, z_final) -> ActiveSetReport:
    """Count active inequalities of a discretized problem at z_final."""
    composite = problem.composite
    psi = composite.psi
    values = composite.g.value(z_final)
    ineq = values[psi.ineq_range.start:psi.ineq_range.stop]
    labels = problem.labels[psi.ineq_range.start:psi.ineq_range.stop]
    active = [
        (label, v) for label, v in zip(labels, ineq)
        if abs(v) <= ACTIVE_TOL * (1.0 + abs(v))
    ]
    threshold = problem.active_set_threshold
    count = len(active)
    if count == threshold:
        verdict = "exact"
    elif count < threshold:
        verdict = "shortfall"
    else:
        verdict = "excess"
    return ActiveSetReport(
        active_count=count, threshold=threshold, tolerance=ACTIVE_TOL, verdict=verdict,
        active_labels=tuple(label for label, _ in active),
    )


@dataclass(frozen=True)
class RateEstimate:
    """Convergence order fitted on the accepted tail errors.

    order_q is the least-squares slope of log e_{k+1} against log e_k;
    superlinear_evidence additionally wants strictly decreasing error
    ratios ending below 0.1.  defined is False when the tail is too short
    or hits exact zeros (finite termination), which is a fine outcome that
    simply leaves no rate to estimate.
    """

    order_q: Optional[float]
    error_ratios: np.ndarray
    superlinear_evidence: bool
    defined: bool
    reason: str = ""


def fit_convergence_order(errors: Sequence[float]) -> Tuple[float, np.ndarray]:
    """Least-squares slope of successive log-errors plus the raw ratios."""
    e = np.asarray(errors, dtype=float)
    if e.size < 3 or np.any(e <= 0):
        raise ValueError("need at least three positive errors")
    logs = np.log(e)
    slope, _ = np.polyfit(logs[:-1], logs[1:], 1)
    return float(slope), e[1:] / e[:-1]


def estimate_rate(trace: Sequence[IterationRecord], z_bar, m_tail: int = 5) -> RateEstimate:
    """Fit a convergence order to the last accepted iterates."""
    z_bar = np.asarray(z_bar, dtype=float)
    accepted = [rec for rec in trace if rec.accepted and rec.z is not None]
    errors = _distances(accepted[-(m_tail + 1):], z_bar)
    if errors.size < 3:
        return RateEstimate(order_q=None, error_ratios=np.zeros(0),
                            superlinear_evidence=False, defined=False,
                            reason="tail too short")
    if np.any(errors <= 0):
        return RateEstimate(order_q=None, error_ratios=np.zeros(0),
                            superlinear_evidence=False, defined=False,
                            reason="finite termination: exact zeros in the tail")
    order, ratios = fit_convergence_order(errors)
    superlinear = bool(np.all(np.diff(ratios) < 0) and ratios[-1] < 0.1)
    return RateEstimate(order_q=order, error_ratios=ratios,
                        superlinear_evidence=superlinear, defined=True)


@dataclass(frozen=True)
class SubdifferentialReport:
    """One-sided directional derivative estimates at a candidate minimizer.

    At a minimizer every direction must have a nonnegative one-sided
    derivative; passed requires all estimates to clear
    -SUBDIFFERENTIAL_TOL * (1 + |J|).
    """

    n_directions: int
    min_estimate: float
    passed: bool
    step: float
    estimates: np.ndarray


def check_subdifferential_inequality(objective: CompositeObjective, z_bar,
                                     n_directions: int = 64,
                                     seed: int = 0) -> SubdifferentialReport:
    """Estimate dJ(z_bar; s) over random unit directions by one-sided differences."""
    z_bar = np.asarray(z_bar, dtype=float)
    dirs = unit_directions(z_bar.size, n_directions, seed=seed)
    j_bar, _, estimates = _shell_ratios(objective, z_bar, dirs, (SUBDIFFERENTIAL_STEP,))
    threshold = -SUBDIFFERENTIAL_TOL * (1.0 + abs(j_bar))
    return SubdifferentialReport(
        n_directions=dirs.shape[0], min_estimate=float(np.min(estimates)),
        passed=bool(np.min(estimates) >= threshold), step=SUBDIFFERENTIAL_STEP,
        estimates=estimates,
    )


@dataclass(frozen=True)
class LevelSetReport:
    """Confinement of the run to its starting sublevel set and norm budget."""

    passed: bool
    verdict: str  # "ok" | "objective-increase" | "norm-budget-exceeded"
    max_objective: float
    j0: float
    max_norm: float
    norm_budget: float


def check_level_set(trace: Sequence[IterationRecord], j0: float,
                    norm_budget: float = 1e4) -> LevelSetReport:
    """Verify J stayed at or below J(z0) and iterates stayed inside the budget."""
    max_j = max((rec.J for rec in trace), default=j0)
    norms = [float(np.max(np.abs(rec.z))) for rec in trace if rec.z is not None]
    max_norm = max(norms, default=0.0)
    if max_j > j0 + LEVEL_SET_TOL * (1.0 + abs(j0)):
        verdict = "objective-increase"
    elif max_norm > norm_budget:
        verdict = "norm-budget-exceeded"
    else:
        verdict = "ok"
    return LevelSetReport(passed=(verdict == "ok"), verdict=verdict,
                          max_objective=float(max_j), j0=float(j0),
                          max_norm=float(max_norm), norm_budget=float(norm_budget))
