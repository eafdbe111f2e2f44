"""Dense two-phase simplex for small box-constrained linear programs.

Solves  min c @ x  s.t.  a_ub @ x <= b_ub,  lb <= x <= ub  on a dense
tableau.  Lower bounds must be finite (the caller shifts variables so this
holds by construction); upper bounds may be +inf.  Pivoting starts with
Dantzig's rule and falls back to Bland's rule after a stall, which
guarantees termination on degenerate problems.  Each pivot updates only the
rows with a nonzero pivot-column entry times the columns with a nonzero
pivot-row entry; the other cells of the tableau cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute-plus-relative tolerances. Feasibility guards right-hand sides,
# optimality guards reduced costs, and the pivot tolerance rejects
# near-singular pivot elements.
FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
STALL_LIMIT = 30
ITERATIONS_PER_VARIABLE = 50


class SimplexError(Exception):
    """Base class for simplex failures."""


class InfeasibleError(SimplexError):
    pass


class SimplexIterationLimitError(SimplexError):
    """Pivot budget exhausted; carries the number of pivots made."""

    def __init__(self, message: str, iterations: int):
        self.iterations = iterations
        super().__init__(message)


@dataclass(frozen=True)
class BoxLpSolution:
    x: np.ndarray
    objective: float
    status: str  # "optimal" | "unbounded"
    iterations: int


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    # Only cells in a row with a nonzero pivot-column entry and a column with
    # a nonzero pivot-row entry can change; every other cell would receive
    # x - a*0 or x - 0*b, which leaves x as it is up to the sign of a zero.
    piv_row = tableau[row] / tableau[row, col]
    col_vals = tableau[:, col]
    rows = np.flatnonzero(col_vals)
    rows = rows[rows != row]
    cols = np.flatnonzero(piv_row)
    tableau[np.ix_(rows, cols)] -= np.outer(col_vals[rows], piv_row[cols])
    tableau[row] = piv_row
    basis[row] = col


def _run(tableau: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
         budget: int) -> tuple[str, int]:
    """Drive the tableau to optimality over the allowed columns.

    Returns the status ("optimal", "unbounded", or "limit" once budget
    pivots are made) and the number of pivots made.
    """
    m = tableau.shape[0] - 1
    pivots = 0
    bland = False
    stall = 0
    last_obj = -tableau[-1, -1]
    cost_scale = 1.0 + float(np.max(np.abs(tableau[-1, :-1]))) if tableau.shape[1] > 1 else 1.0
    rc_tol = OPT_TOL * cost_scale

    while True:
        reduced = np.where(allowed, tableau[-1, :-1], np.inf)
        if bland:
            eligible = np.flatnonzero(reduced < -rc_tol)
            if eligible.size == 0:
                return "optimal", pivots
            col = int(eligible[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -rc_tol:
                return "optimal", pivots

        column = tableau[:m, col]
        col_scale = 1.0 + (float(np.max(np.abs(column))) if column.size else 0.0)
        positive = np.flatnonzero(column > PIVOT_TOL * col_scale)
        if positive.size == 0:
            return "unbounded", pivots

        rhs = tableau[:m, -1]
        ratios = rhs[positive] / column[positive]
        best = float(np.min(ratios))
        tie = positive[ratios <= best + 1e-12 * (1.0 + abs(best))]
        if bland:
            row = int(tie[np.argmin(basis[tie])])
        else:
            # among ratio ties prefer the largest pivot element for stability
            row = int(tie[np.argmax(column[tie])])

        _pivot(tableau, basis, row, col)

        rhs = tableau[:m, -1]
        rhs_scale = 1.0 + (float(np.max(np.abs(rhs))) if rhs.size else 0.0)
        rhs[(rhs < 0.0) & (rhs > -FEAS_TOL * rhs_scale)] = 0.0

        pivots += 1
        if pivots >= budget:
            return "limit", pivots

        obj = -tableau[-1, -1]
        if obj < last_obj - 1e-12 * (1.0 + abs(last_obj)):
            stall = 0
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        last_obj = obj


def solve_box_lp(c, a_ub, b_ub, lb, ub, max_iter: int | None = None) -> BoxLpSolution:
    """Solve min c@x s.t. a_ub@x <= b_ub, lb <= x <= ub.

    All lower bounds must be finite.  Raises InfeasibleError when the
    constraints are inconsistent and SimplexIterationLimitError when the
    pivot budget (50 per tableau column by default) runs out.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if not np.all(np.isfinite(lb)):
        raise ValueError("solve_box_lp requires finite lower bounds")
    if np.any(ub < lb):
        raise InfeasibleError("empty box: some ub < lb")

    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1) if np.size(b_ub) else np.zeros(0)

    # Shift to y = x - lb >= 0 and turn finite upper bounds into rows.
    rows = [a_ub]
    rhs = [b_ub - a_ub @ lb]
    finite_ub = np.flatnonzero(np.isfinite(ub))
    if finite_ub.size:
        ub_rows = np.zeros((finite_ub.size, n))
        ub_rows[np.arange(finite_ub.size), finite_ub] = 1.0
        rows.append(ub_rows)
        rhs.append(ub[finite_ub] - lb[finite_ub])
    a_all = np.vstack(rows)
    b_all = np.concatenate(rhs)
    m = a_all.shape[0]

    flip = b_all < 0.0
    a_all = np.where(flip[:, None], -a_all, a_all)
    b_all = np.where(flip, -b_all, b_all)
    slack_sign = np.where(flip, -1.0, 1.0)
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    n_cols = n + m + n_art

    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m, :n] = a_all
    tableau[np.arange(m), n + np.arange(m)] = slack_sign
    if n_art:
        tableau[art_rows, n + m + np.arange(n_art)] = 1.0
    tableau[:m, -1] = b_all

    basis = np.empty(m, dtype=int)
    basis[~flip] = n + np.flatnonzero(~flip)
    basis[flip] = n + m + np.arange(n_art)

    if max_iter is None:
        max_iter = ITERATIONS_PER_VARIABLE * n_cols
    pivots = 0
    allowed = np.ones(n_cols, dtype=bool)

    # Phase 1: minimize the sum of artificials.
    if n_art:
        tableau[-1, :] = 0.0
        tableau[-1, n + m:n_cols] = 1.0
        for r in art_rows:
            tableau[-1] -= tableau[r]
        status, pivots = _run(tableau, basis, allowed, max_iter)
        if status == "limit":
            raise SimplexIterationLimitError(
                "pivot budget exhausted before a feasible point was found", pivots)
        if status == "unbounded":  # cannot happen: phase-1 objective is bounded below
            raise SimplexError("phase 1 reported unbounded")
        feas_scale = 1.0 + float(np.max(np.abs(b_all)))
        if -tableau[-1, -1] > FEAS_TOL * feas_scale:
            raise InfeasibleError("constraints are inconsistent")

        # Drive leftover artificials out of the basis; drop redundant rows.
        drop = []
        for r in range(m):
            if basis[r] < n + m:
                continue
            row_entries = np.abs(tableau[r, :n + m])
            j = int(np.argmax(row_entries))
            if row_entries[j] > PIVOT_TOL:
                _pivot(tableau, basis, r, j)
            else:
                drop.append(r)
        if drop:
            keep = np.setdiff1d(np.arange(m), np.array(drop, dtype=int))
            tableau = np.vstack([tableau[keep], tableau[-1:]])
            basis = basis[keep]
            m = basis.size
        allowed[n_cols - n_art:] = False  # artificial columns stay out of phase 2

    # Phase 2: original objective.
    full_c = np.zeros(n_cols + 1)
    full_c[:n] = c
    tableau[-1, :] = full_c
    for r in range(m):
        coef = tableau[-1, basis[r]]
        if coef != 0.0:
            tableau[-1] -= coef * tableau[r]

    status, phase2 = _run(tableau, basis, allowed, max_iter - pivots)
    pivots += phase2
    if status == "limit":
        raise SimplexIterationLimitError("pivot budget exhausted in phase 2", pivots)

    y = np.zeros(n_cols)
    y[basis] = tableau[:m, -1]
    x = y[:n] + lb
    if status == "unbounded":
        return BoxLpSolution(x=x, objective=-np.inf, status="unbounded", iterations=pivots)
    return BoxLpSolution(x=x, objective=float(c @ x), status="optimal", iterations=pivots)
