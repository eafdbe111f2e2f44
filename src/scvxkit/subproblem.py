"""Trust-region subproblems over the convex piecewise-linear model.

The model L(d) = psi(G(z) + dG(z) d) restricted to an inf-norm ball is an
LP after the usual epigraph rewrite: each absolute-value term gets one
auxiliary bounded by the term from both sides, each hinge term gets one
nonnegative auxiliary bounded below by the term, and the trust region
becomes box bounds on the step variables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .composite import Linearization
from .simplex import (
    BoxLpSolution,
    SimplexError,
    SimplexIterationLimitError,
    solve_box_lp,
)

# Quasi-infinite trust region: a box this much wider than the base point is
# treated as unconstrained.  A solution that still reaches deep into the box
# is evidence the model is unbounded below.
QUASI_INFINITE_FACTOR = 1e6
UNBOUNDED_FRACTION = 0.5


class SubproblemError(Exception):
    """Subproblem solve failure; carries the best step found, if any."""

    def __init__(self, message: str, best_step=None, iterations: int = 0):
        self.best_step = best_step
        self.iterations = iterations
        super().__init__(message)


@dataclass(frozen=True)
class TrustRegionSubproblem:
    """Minimize the convex model over an inf-norm ball around the base point."""

    lin: Linearization
    radius: float
    radius_infinite: bool = False

    def __post_init__(self):
        if not self.radius_infinite:
            if not (np.isfinite(self.radius) and self.radius > 0):
                raise ValueError("trust-region radius must be positive and finite")

    @property
    def effective_radius(self) -> float:
        if self.radius_infinite:
            return QUASI_INFINITE_FACTOR * (1.0 + float(np.max(np.abs(self.lin.base_point))))
        return float(self.radius)


@dataclass(frozen=True)
class LpStandardForm:
    """Epigraph LP for one subproblem: min c@x, a_ub@x <= b_ub, lb <= x <= ub.

    Variables are [step (n_step), eq auxiliaries, ineq auxiliaries].  The true
    model value at the optimum is c@x + objective_offset, the offset holding
    the constant cost-component part.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    objective_offset: float
    n_step: int
    eq_aux: range
    ineq_aux: range

    @property
    def n_variables(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.a_ub.shape[0]

    @property
    def n_trust_bounds(self) -> int:
        return 2 * self.n_step

    def model_value_of(self, x: np.ndarray) -> float:
        """Objective the LP assigns to a variable vector, offset included."""
        return float(self.c @ x) + self.objective_offset


@dataclass(frozen=True)
class SubproblemSolution:
    step: np.ndarray
    model_value: float
    predicted_decrease: float
    status: str  # "optimal" | "unbounded"
    iterations: int = 0


def build_lp(sub: TrustRegionSubproblem) -> LpStandardForm:
    """Rewrite the trust-region model minimization as a standard-form LP.

    Sizes are exact: n_step + n_eq + n_ineq variables and
    2 * n_eq + n_ineq inequality rows.
    """
    lin = sub.lin
    psi = lin.psi
    jac = lin.g_jacobian
    val = lin.g_value
    n = lin.n_z
    n_eq = psi.n_eq
    n_ineq = psi.n_ineq
    n_vars = n + n_eq + n_ineq
    radius = sub.effective_radius

    cost_rows = slice(psi.cost_range.start, psi.cost_range.stop)
    eq_rows = slice(psi.eq_range.start, psi.eq_range.stop)
    ineq_rows = slice(psi.ineq_range.start, psi.ineq_range.stop)

    c = np.zeros(n_vars)
    c[:n] = jac[cost_rows].sum(axis=0)
    c[n:] = psi.penalty_weight
    offset = float(np.sum(val[cost_rows]))

    a_ub = np.zeros((2 * n_eq + n_ineq, n_vars))
    b_ub = np.zeros(2 * n_eq + n_ineq)
    # t_i >= +(g_i + a_i d)  and  t_i >= -(g_i + a_i d)
    a_ub[:n_eq, :n] = jac[eq_rows]
    a_ub[:n_eq, n:n + n_eq] = -np.eye(n_eq)
    b_ub[:n_eq] = -val[eq_rows]
    a_ub[n_eq:2 * n_eq, :n] = -jac[eq_rows]
    a_ub[n_eq:2 * n_eq, n:n + n_eq] = -np.eye(n_eq)
    b_ub[n_eq:2 * n_eq] = val[eq_rows]
    # s_i >= g_i + a_i d, with s_i >= 0 from its bound
    a_ub[2 * n_eq:, :n] = jac[ineq_rows]
    a_ub[2 * n_eq:, n + n_eq:] = -np.eye(n_ineq)
    b_ub[2 * n_eq:] = -val[ineq_rows]

    lb = np.zeros(n_vars)
    lb[:n] = -radius
    ub = np.full(n_vars, np.inf)
    ub[:n] = radius

    return LpStandardForm(
        c=c,
        a_ub=a_ub,
        b_ub=b_ub,
        lb=lb,
        ub=ub,
        objective_offset=offset,
        n_step=n,
        eq_aux=range(n, n + n_eq),
        ineq_aux=range(n + n_eq, n_vars),
    )


def _solve_box_lp(what: str, n_step: int, c, a_ub, b_ub, lb, ub,
                  max_iter: int | None = None) -> BoxLpSolution:
    """solve_box_lp with failures raised as SubproblemError; an iteration-limit
    failure keeps the step part (first n_step entries) of its best point."""
    try:
        return solve_box_lp(c, a_ub, b_ub, lb, ub, max_iter=max_iter)
    except SimplexIterationLimitError as exc:
        best = exc.x_best[:n_step] if exc.x_best is not None else None
        raise SubproblemError(str(exc), best_step=best, iterations=exc.iterations) from exc
    except SimplexError as exc:
        raise SubproblemError(f"{what} failed: {exc}") from exc


def lp_solve(lp: LpStandardForm, max_iter: int | None = None) -> BoxLpSolution:
    """Solve the epigraph LP; the reported objective includes the offset."""
    sol = _solve_box_lp("LP solve", lp.n_step, lp.c, lp.a_ub, lp.b_ub, lp.lb, lp.ub,
                        max_iter=max_iter)
    objective = sol.objective + lp.objective_offset if sol.status == "optimal" else -np.inf
    return replace(sol, objective=objective)


def solve_subproblem(sub: TrustRegionSubproblem) -> SubproblemSolution:
    """Minimize the model over the trust region exactly.

    predicted_decrease is L(0) - L(d*), never meaningfully negative since
    d = 0 is always feasible.  With radius_infinite set, an optimizer pushed
    deep into the quasi-infinite box is reported as status "unbounded".
    """
    lp = build_lp(sub)
    sol = lp_solve(lp)
    step = sol.x[:lp.n_step].copy()
    status = "optimal"
    if sol.status == "unbounded":
        status = "unbounded"
    elif sub.radius_infinite:
        if np.max(np.abs(step), initial=0.0) >= UNBOUNDED_FRACTION * sub.effective_radius:
            status = "unbounded"
    model_value = sol.objective if np.isfinite(sol.objective) else -np.inf
    predicted = sub.lin.base_value - model_value
    return SubproblemSolution(
        step=step,
        model_value=model_value,
        predicted_decrease=predicted,
        status=status,
        iterations=sol.iterations,
    )


def solve_min_norm_step(sub: TrustRegionSubproblem, value_slack: float | None = None) -> SubproblemSolution:
    """Find the minimum inf-norm optimizer of the subproblem.

    Two LPs: the first establishes the optimal model value v*, the second
    minimizes an epigraph variable w >= |d_i| subject to the model staying
    within value_slack of v*.  Used by probes that must certify that a
    small-norm optimizer exists, where an arbitrary vertex optimizer of a
    nearly flat model could sit far away.
    """
    lp = build_lp(sub)
    first = lp_solve(lp)
    if first.status == "unbounded":
        step = first.x[:lp.n_step].copy()
        return SubproblemSolution(step=step, model_value=-np.inf,
                                  predicted_decrease=np.inf, status="unbounded",
                                  iterations=first.iterations)
    v_star = first.objective
    if value_slack is None:
        value_slack = 1e-9 * (1.0 + abs(v_star))

    n_vars = lp.n_variables
    n = lp.n_step
    m = lp.n_rows
    radius = sub.effective_radius

    c2 = np.zeros(n_vars + 1)
    c2[-1] = 1.0

    a2 = np.zeros((m + 1 + 2 * n, n_vars + 1))
    b2 = np.zeros(m + 1 + 2 * n)
    a2[:m, :n_vars] = lp.a_ub
    b2[:m] = lp.b_ub
    a2[m, :n_vars] = lp.c
    b2[m] = v_star - lp.objective_offset + value_slack
    # d_i - w <= 0 and -d_i - w <= 0
    a2[m + 1:m + 1 + n, :n] = np.eye(n)
    a2[m + 1:m + 1 + n, -1] = -1.0
    a2[m + 1 + n:, :n] = -np.eye(n)
    a2[m + 1 + n:, -1] = -1.0

    lb2 = np.concatenate([lp.lb, [0.0]])
    ub2 = np.concatenate([lp.ub, [radius]])

    sol = _solve_box_lp("min-norm LP", n, c2, a2, b2, lb2, ub2)

    step = sol.x[:n].copy()
    model_value = float(lp.c @ sol.x[:n_vars]) + lp.objective_offset
    status = "optimal"
    if sub.radius_infinite and np.max(np.abs(step), initial=0.0) >= UNBOUNDED_FRACTION * radius:
        # Even the smallest optimizer sits deep in the quasi-infinite box:
        # treat the model as unbounded below, same as the plain solve.
        status = "unbounded"
    return SubproblemSolution(
        step=step,
        model_value=model_value,
        predicted_decrease=sub.lin.base_value - model_value,
        status=status,
        iterations=first.iterations + sol.iterations,
    )
