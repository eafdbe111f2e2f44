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
# The minimum-norm LP keeps the model within this relative slack of v*.
MIN_NORM_VALUE_SLACK = 1e-9


class SubproblemError(Exception):
    """Subproblem solve failure."""


@dataclass(frozen=True)
class LpStandardForm:
    """One LP: min c@x, a_ub@x <= b_ub, lb <= x <= ub.

    The first n_step variables are the step, boxed by half_width; the true
    objective is c@x + objective_offset.  quasi_infinite marks a box that
    stands in for an infinite radius.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    objective_offset: float
    n_step: int
    half_width: float
    quasi_infinite: bool

    @property
    def n_variables(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.a_ub.shape[0]


@dataclass(frozen=True)
class SubproblemSolution:
    step: np.ndarray
    model_value: float
    predicted_decrease: float
    status: str  # "optimal" | "unbounded"
    iterations: int = 0


def build_lp(lin: Linearization, radius: float) -> LpStandardForm:
    """Rewrite the model minimization over the inf-norm ball as an LP.

    radius must be positive; np.inf gives the quasi-infinite box
    QUASI_INFINITE_FACTOR * (1 + ||z||_inf).  Variables are [step, eq
    auxiliaries, ineq auxiliaries]: n_step + n_eq + n_ineq of them, in
    2 * n_eq + n_ineq inequality rows.
    """
    if not radius > 0:
        raise ValueError("trust-region radius must be positive")
    quasi_infinite = bool(np.isinf(radius))
    if quasi_infinite:
        half_width = QUASI_INFINITE_FACTOR * (1.0 + float(np.max(np.abs(lin.base_point))))
    else:
        half_width = float(radius)
    psi = lin.psi
    jac = lin.g_jacobian
    val = lin.g_value
    n = lin.n_z
    n_eq = psi.n_eq
    n_ineq = psi.n_ineq
    n_vars = n + n_eq + n_ineq

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
    lb[:n] = -half_width
    ub = np.full(n_vars, np.inf)
    ub[:n] = half_width

    return LpStandardForm(
        c=c,
        a_ub=a_ub,
        b_ub=b_ub,
        lb=lb,
        ub=ub,
        objective_offset=offset,
        n_step=n,
        half_width=half_width,
        quasi_infinite=quasi_infinite,
    )


def lp_solve(lp: LpStandardForm) -> BoxLpSolution:
    """Solve an LP; the objective includes the offset (-inf when unbounded).

    Simplex failures become SubproblemError; an iteration-limit failure
    keeps the simplex message as it is.
    """
    try:
        sol = solve_box_lp(lp.c, lp.a_ub, lp.b_ub, lp.lb, lp.ub)
    except SimplexIterationLimitError as exc:
        raise SubproblemError(str(exc)) from exc
    except SimplexError as exc:
        raise SubproblemError(f"LP solve failed: {exc}") from exc
    objective = sol.objective + lp.objective_offset if sol.status == "optimal" else -np.inf
    return replace(sol, objective=objective)


def _solution(lin: Linearization, lp: LpStandardForm, sol: BoxLpSolution,
              model_value: float, iterations: int) -> SubproblemSolution:
    """Package a solved LP's step.  The model counts as unbounded below when
    the simplex says so, or when the step reaches UNBOUNDED_FRACTION of a
    quasi-infinite box."""
    step = sol.x[:lp.n_step].copy()
    unbounded = sol.status == "unbounded" or (
        lp.quasi_infinite
        and np.max(np.abs(step), initial=0.0) >= UNBOUNDED_FRACTION * lp.half_width)
    return SubproblemSolution(
        step=step,
        model_value=model_value,
        predicted_decrease=lin.base_value - model_value,
        status="unbounded" if unbounded else "optimal",
        iterations=iterations,
    )


def solve_subproblem(lin: Linearization, radius: float) -> SubproblemSolution:
    """Minimize the model over the trust region exactly.

    predicted_decrease is L(0) - L(d*), never meaningfully negative since
    d = 0 is always feasible.
    """
    lp = build_lp(lin, radius)
    sol = lp_solve(lp)
    return _solution(lin, lp, sol, sol.objective, sol.iterations)


def solve_min_norm_step(lin: Linearization, radius: float) -> SubproblemSolution:
    """Find the minimum inf-norm optimizer of the subproblem.

    Two LPs: the first establishes the optimal model value v*, the second
    minimizes an epigraph variable w >= |d_i| subject to the model staying
    within MIN_NORM_VALUE_SLACK * (1 + |v*|) of v*.  Used by probes that must
    certify that a small-norm optimizer exists, where an arbitrary vertex
    optimizer of a nearly flat model could sit far away.
    """
    lp = build_lp(lin, radius)
    first = lp_solve(lp)
    if first.status == "unbounded":
        return _solution(lin, lp, first, first.objective, first.iterations)
    v_star = first.objective

    n_vars = lp.n_variables
    n = lp.n_step
    m = lp.n_rows

    c2 = np.zeros(n_vars + 1)
    c2[-1] = 1.0

    a2 = np.zeros((m + 1 + 2 * n, n_vars + 1))
    b2 = np.zeros(m + 1 + 2 * n)
    a2[:m, :n_vars] = lp.a_ub
    b2[:m] = lp.b_ub
    a2[m, :n_vars] = lp.c
    b2[m] = v_star - lp.objective_offset + MIN_NORM_VALUE_SLACK * (1.0 + abs(v_star))
    # d_i - w <= 0 and -d_i - w <= 0
    a2[m + 1:m + 1 + n, :n] = np.eye(n)
    a2[m + 1:m + 1 + n, -1] = -1.0
    a2[m + 1 + n:, :n] = -np.eye(n)
    a2[m + 1 + n:, -1] = -1.0

    min_norm = LpStandardForm(
        c=c2, a_ub=a2, b_ub=b2,
        lb=np.concatenate([lp.lb, [0.0]]), ub=np.concatenate([lp.ub, [lp.half_width]]),
        objective_offset=0.0, n_step=n, half_width=lp.half_width,
        quasi_infinite=lp.quasi_infinite,
    )
    sol = lp_solve(min_norm)
    model_value = float(lp.c @ sol.x[:n_vars]) + lp.objective_offset
    return _solution(lin, min_norm, sol, model_value, first.iterations + sol.iterations)
