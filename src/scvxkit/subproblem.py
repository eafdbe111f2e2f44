"""Trust-region subproblems over the convex piecewise-linear model.

The model L(d) = psi(G(z) + dG(z) d) restricted to an inf-norm ball is an
LP after the usual epigraph rewrite: each absolute-value term gets one
auxiliary bounded by the term from both sides, each hinge term gets one
nonnegative auxiliary bounded below by the term, and the trust region
becomes box bounds on the step variables.  Every LP is assembled by
LpStandardForm.extend: build_lp appends the auxiliaries and their rows to
the step box, and the minimum-norm LP appends its norm bound and rows to
build_lp's LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .composite import Linearization
from .simplex import (
    BoxLpSolution,
    SimplexError,
    SimplexIterationLimitError,
    WarmStart,
    solve_box_lp,
)

# The minimum-norm LP keeps the model within this relative slack of v*.
MIN_NORM_VALUE_SLACK = 1e-9


class SubproblemError(Exception):
    """Subproblem solve failure."""


@dataclass(frozen=True)
class LpStandardForm:
    """One LP: min c@x, a_ub@x <= b_ub, lb <= x <= ub.

    The true objective is c@x + objective_offset.  The LPs of this module
    put the step variables first.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    objective_offset: float

    @property
    def n_variables(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.a_ub.shape[0]

    def extend(self, c, lb, ub, b_ub, blocks) -> LpStandardForm:
        """This LP with variables and rows appended; this LP is left as it is.

        The new variables follow the old ones, with costs c and bounds
        lb <= x <= ub.  The new rows a @ x <= b_ub follow the old rows, and
        a is zero but for blocks: (i, j, values) puts the 2-d values at new
        row i and variable j onward.  The old rows get zero coefficients on
        the new variables.  The blocks go straight into the one new a_ub:
        rows assembled in an array of their own, then copied, made build_lp
        about 6x slower at convex-lqr-box N=40 (a second large allocation).
        """
        m, n = self.a_ub.shape
        a = np.zeros((m + len(b_ub), n + len(c)))
        a[:m, :n] = self.a_ub
        for i, j, values in blocks:
            a[m + i:m + i + values.shape[0], j:j + values.shape[1]] = values
        return LpStandardForm(
            c=np.concatenate([self.c, c]),
            a_ub=a,
            b_ub=np.concatenate([self.b_ub, b_ub]),
            lb=np.concatenate([self.lb, lb]),
            ub=np.concatenate([self.ub, ub]),
            objective_offset=self.objective_offset,
        )


@dataclass(frozen=True)
class SubproblemSolution:
    step: np.ndarray
    model_value: float
    predicted_decrease: float
    # solve_subproblem only: the LP's warm state and the linearization it
    # solved, which solve_subproblem's last= reads.
    warm: WarmStart | None = field(default=None, repr=False, compare=False)
    lin: Linearization | None = field(default=None, repr=False, compare=False)


def build_lp(lin: Linearization, radius: float) -> LpStandardForm:
    """Rewrite the model minimization over the inf-norm ball as an LP.

    radius must be positive and finite, so the LP is bounded below: the
    step is boxed and every auxiliary is >= 0 with a positive cost.
    Variables are [step, eq auxiliaries, ineq auxiliaries]: n_z + n_eq +
    n_ineq of them, in 2 * n_eq + n_ineq inequality rows, appended with
    LpStandardForm.extend to the step box.
    """
    if not 0 < radius < np.inf:
        raise ValueError("trust-region radius must be positive and finite")
    psi = lin.psi
    jac = lin.g_jacobian
    val = lin.g_value
    n = lin.n_z
    n_eq = psi.n_eq
    n_aux = n_eq + psi.n_ineq

    cost_rows = slice(psi.cost_range.start, psi.cost_range.stop)
    eq_rows = slice(psi.eq_range.start, psi.eq_range.stop)
    ineq_rows = slice(psi.ineq_range.start, psi.ineq_range.stop)

    # np.add.reduce and zeros plus a constant do what .sum(), np.sum and
    # np.full do, bit for bit, without their Python-level wrappers; those
    # cost build_lp 10-15% inside lqr-exact solves.
    step_box = LpStandardForm(
        c=np.add.reduce(jac[cost_rows], axis=0),
        a_ub=np.zeros((0, n)),
        b_ub=np.zeros(0),
        lb=np.zeros(n) - radius,
        ub=np.zeros(n) + radius,
        objective_offset=float(np.add.reduce(val[cost_rows])),
    )

    # t_i >= +(g_i + a_i d) and t_i >= -(g_i + a_i d); s_i >= g_i + a_i d,
    # with s_i >= 0 from its bound.  Each line holds one row block.
    minus_eye = -np.eye(n_eq)
    blocks = [
        (0, 0, jac[eq_rows]), (0, n, minus_eye),
        (n_eq, 0, -jac[eq_rows]), (n_eq, n, minus_eye),
        (2 * n_eq, 0, jac[ineq_rows]), (2 * n_eq, n + n_eq, -np.eye(psi.n_ineq)),
    ]
    b = np.concatenate([-val[eq_rows], val[eq_rows], -val[ineq_rows]])
    zeros = np.zeros(n_aux)
    return step_box.extend(zeros + psi.penalty_weight, zeros, zeros + np.inf, b, blocks)


def lp_solve(lp: LpStandardForm, warm: WarmStart | None = None,
             dual_start: bool = False) -> BoxLpSolution:
    """Solve an LP, warm from solve_box_lp's warm state if one is given, or
    from its dual start.

    The objective includes the offset.  Simplex failures become
    SubproblemError; an iteration-limit failure keeps the simplex message
    as it is.
    """
    try:
        sol = solve_box_lp(lp.c, lp.a_ub, lp.b_ub, lp.lb, lp.ub, warm=warm,
                           dual_start=dual_start)
    except SimplexIterationLimitError as exc:
        raise SubproblemError(str(exc)) from exc
    except SimplexError as exc:
        raise SubproblemError(f"LP solve failed: {exc}") from exc
    return replace(sol, objective=sol.objective + lp.objective_offset)


def solve_subproblem(lin: Linearization, radius: float,
                     last: SubproblemSolution | None = None) -> SubproblemSolution:
    """Minimize the model over the trust region exactly.

    predicted_decrease is L(0) - L(d*), never meaningfully negative since
    d = 0 is always feasible.  last is the solution of the LP before this
    one, if any; this function alone decides what its warm state does:

    - From this same lin (the re-solve after a rejected step, whose LP
      differs only in its box), the LP restarts from last's final basis
      (solve_box_lp's warm=).  The restart may reach another optimal vertex
      than a cold solve, so its answer is kept only when the LP's optimum
      is certified unique (WarmStart.unique); otherwise its tableau is
      released and the LP is solved cold.
    - From a linearization with an equal g_jacobian, entry for entry, and
      an equal psi (an affine inner map, say), the LP differs only in b_ub
      and the box, and it restarts from last's final basis, kept as it is.
    - From any other linearization whose last LP certified its optimum
      unique, last's tableau is released and the LP solved from
      solve_box_lp's dual start, which skips phase 1.  That answer is kept
      under the same certificate as a rejection's restart; otherwise its
      tableau is released and the LP is solved cold.
    - Otherwise, last's tableau (if any) is released before the LP is
      built and solved cold.

    So two tableaux are never held at once.
    """
    warm = last.warm if last is not None else None
    rejection = warm is not None and last.lin is lin
    dual_start = False
    if warm is not None and not rejection and not (
            last.lin.psi == lin.psi and np.array_equal(last.lin.g_jacobian, lin.g_jacobian)):
        dual_start = warm.unique()
        warm.release()
        warm = None
    lp = build_lp(lin, radius)
    sol = lp_solve(lp, warm, dual_start)
    if (rejection or dual_start) and not sol.warm.unique():
        sol.warm.release()
        sol = lp_solve(lp)
    return SubproblemSolution(step=sol.x[:lin.n_z].copy(), model_value=sol.objective,
                              predicted_decrease=lin.base_value - sol.objective,
                              warm=sol.warm, lin=lin)


def solve_min_norm_step(lin: Linearization, radius: float) -> SubproblemSolution:
    """Find the minimum inf-norm optimizer of the subproblem.

    Two LPs: the first establishes the optimal model value v*, the second
    minimizes an epigraph variable w >= |d_i| subject to the model staying
    within MIN_NORM_VALUE_SLACK * (1 + |v*|) of v*.  Used by probes that must
    certify that a small-norm optimizer exists, where an arbitrary vertex
    optimizer of a nearly flat model could sit far away.
    """
    lp = build_lp(lin, radius)
    v_star = lp_solve(lp).objective

    n_vars = lp.n_variables
    n = lin.n_z
    # The value row keeps the model near v*; 2n rows hold d_i - w <= 0 and
    # -d_i - w <= 0.
    b = np.zeros(1 + 2 * n)
    b[0] = v_star - lp.objective_offset + MIN_NORM_VALUE_SLACK * (1.0 + abs(v_star))
    blocks = [(0, 0, lp.c[None]), (1, 0, np.eye(n)), (1 + n, 0, -np.eye(n)),
              (1, n_vars, np.full((2 * n, 1), -1.0))]
    # The old costs move into the value row; the LP minimizes w alone.
    min_norm = replace(lp, c=np.zeros(n_vars), objective_offset=0.0)
    sol = lp_solve(min_norm.extend([1.0], [0.0], [radius], b, blocks))
    model_value = float(lp.c @ sol.x[:n_vars]) + lp.objective_offset
    return SubproblemSolution(step=sol.x[:n].copy(), model_value=model_value,
                              predicted_decrease=lin.base_value - model_value)
