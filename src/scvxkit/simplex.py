"""Dense two-phase simplex for small box-constrained linear programs.

Solves  min c @ x  s.t.  a_ub @ x <= b_ub,  lb <= x <= ub  on a dense
tableau.  Lower bounds must be finite (the caller shifts variables so this
holds by construction); upper bounds may be +inf.  Pivoting starts with
Dantzig's rule and falls back to Bland's rule after a stall, which
guarantees termination on degenerate problems.  The tableau is column-major
with the rhs in column 0 and the artificial columns last, so phase 2 runs on
a contiguous leading slice, without a copy.  Each pivot updates only the
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


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int,
           rows: np.ndarray) -> None:
    # rows are the nonzero rows of column col, the pivot row among them.  A
    # cell outside them x the nonzero pivot-row columns would get x - a*0 or
    # x - 0*b, which leaves x as it is up to the sign of a zero.  The pivot
    # row takes the update too and is then overwritten.  The flat view holds
    # (i, j) at j * shape[0] + i; on any other layout reshape would copy.
    if not tableau.flags.f_contiguous:
        raise ValueError("_pivot needs a Fortran-contiguous tableau")
    piv_row = tableau[row] / tableau[row, col]
    cols = piv_row.nonzero()[0]
    flat = tableau.reshape(-1, order="F")
    flat[(cols * tableau.shape[0])[:, None] + rows] -= piv_row[cols][:, None] * tableau[rows, col]
    tableau[row] = piv_row
    basis[row] = col


def _run(tableau: np.ndarray, basis: np.ndarray, width: int, budget: int) -> tuple[str, int]:
    """Drive the tableau to optimality over its first width columns.

    The cost scale behind the optimality tolerance is taken over the whole
    objective row; pivots then see only the leading width columns.  Returns
    the status ("optimal", "unbounded", or "limit" when a pivot beyond the
    budget is needed) and the number of pivots made.
    """
    m = tableau.shape[0] - 1
    cost_scale = 1.0 + float(np.max(np.abs(tableau[-1, 1:]))) if tableau.shape[1] > 1 else 1.0
    rc_tol = OPT_TOL * cost_scale
    tableau = tableau[:, :width]
    reduced = tableau[-1, 1:]
    rhs = tableau[:m, 0]
    pivots = 0
    bland = False
    stall = 0
    last_obj = -tableau[-1, 0]

    while True:
        if bland:
            eligible = (reduced < -rc_tol).nonzero()[0]
            if eligible.size == 0:
                return "optimal", pivots
            col = int(eligible[0]) + 1
        else:
            col = int(reduced.argmin()) + 1
            if tableau[-1, col] >= -rc_tol:
                return "optimal", pivots

        # The entering reduced cost is negative, so the objective row is the
        # last of the column's nonzero rows.
        rows = tableau[:, col].nonzero()[0]
        body = rows[:-1]
        column = tableau[body, col]
        col_scale = 1.0 + (float(np.abs(column).max()) if column.size else 0.0)
        positive = column > PIVOT_TOL * col_scale
        candidates = body[positive]
        if candidates.size == 0:
            return "unbounded", pivots

        column = column[positive]
        ratios = rhs[candidates] / column
        best = float(ratios.min())
        tie = ratios <= best + 1e-12 * (1.0 + abs(best))
        candidates = candidates[tie]
        if bland:
            row = int(candidates[basis[candidates].argmin()])
        else:
            # among ratio ties prefer the largest pivot element for stability
            row = int(candidates[column[tie].argmax()])

        if pivots >= budget:
            return "limit", pivots
        _pivot(tableau, basis, row, col, rows)
        pivots += 1
        if rhs.min() < 0.0:
            rhs_scale = 1.0 + float(np.abs(rhs).max())
            rhs[(rhs < 0.0) & (rhs > -FEAS_TOL * rhs_scale)] = 0.0

        obj = -tableau[-1, 0]
        if obj < last_obj - 1e-12 * (1.0 + abs(last_obj)):
            stall = 0
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        last_obj = obj


def _tableau(a_ub: np.ndarray, b_ub: np.ndarray, lb: np.ndarray,
             ub: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Starting tableau of the LP in y = x - lb >= 0, written in place.

    Rows are the a_ub rows, one row y_j <= ub_j - lb_j per finite ub_j and
    a zero objective row.  A row with a negative rhs is negated, its slack
    enters with -1 and an artificial starts basic in it; upper-bound rows
    have rhs >= 0.  Returns the tableau, the basis, those rows and the
    width of the rhs, structural and slack columns: all phase 2 sees.
    """
    m_ub, n = a_ub.shape
    rhs = b_ub - a_ub @ lb
    finite_ub = np.flatnonzero(np.isfinite(ub))
    m = m_ub + finite_ub.size
    art_rows = np.flatnonzero(rhs < 0.0)
    width = n + m + 1

    # Column-major, so the phase-2 slice and _pivot's flat view are views.
    tableau = np.zeros((m + 1, width + art_rows.size), order="F")
    tableau[:m_ub, 0] = rhs
    tableau[m_ub:m, 0] = ub[finite_ub] - lb[finite_ub]
    tableau[:m_ub, 1:n + 1] = a_ub
    tableau[np.arange(m_ub, m), 1 + finite_ub] = 1.0
    slack = n + 1 + np.arange(m)
    tableau[np.arange(m), slack] = 1.0
    tableau[art_rows, :n + 1] *= -1.0
    tableau[art_rows, slack[art_rows]] = -1.0
    tableau[art_rows, width + np.arange(art_rows.size)] = 1.0

    basis = slack.copy()
    basis[art_rows] = width + np.arange(art_rows.size)
    return tableau, basis, art_rows, width


def solve_box_lp(c, a_ub, b_ub, lb, ub, max_iter: int | None = None) -> BoxLpSolution:
    """Solve min c@x s.t. a_ub@x <= b_ub, lb <= x <= ub.

    c, a_ub, b_ub and lb must be finite and ub may be +inf, else ValueError.
    Raises InfeasibleError when the constraints are inconsistent and
    SimplexIterationLimitError when the pivot budget (50 per tableau column
    by default) runs out.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1) if np.size(b_ub) else np.zeros(0)
    if not all(np.all(np.isfinite(v)) for v in (c, a_ub, b_ub, lb)) or np.any(np.isnan(ub)):
        raise ValueError("solve_box_lp requires finite c, a_ub, b_ub and lb, and ub without NaN")
    if np.any(ub < lb):
        raise InfeasibleError("empty box: some ub < lb")

    tableau, basis, art_rows, width = _tableau(a_ub, b_ub, lb, ub)
    m = basis.size
    if max_iter is None:
        max_iter = ITERATIONS_PER_VARIABLE * (tableau.shape[1] - 1)
    pivots = 0

    # Phase 1: minimize the sum of artificials.
    if art_rows.size:
        feas_scale = 1.0 + float(np.max(np.abs(tableau[:m, 0])))
        tableau[-1, width:] = 1.0
        for r in art_rows:
            tableau[-1] -= tableau[r]
        status, pivots = _run(tableau, basis, tableau.shape[1], max_iter)
        if status == "limit":
            raise SimplexIterationLimitError(
                "pivot budget exhausted before a feasible point was found", pivots)
        # The phase-1 objective is bounded below, yet on badly scaled rows every
        # positive entry of the entering column can fall under PIVOT_TOL *
        # col_scale, and _run then reports it unbounded (ROADMAP item 5(a)).
        if status == "unbounded":
            raise SimplexError("phase 1 reported unbounded")
        if -tableau[-1, 0] > FEAS_TOL * feas_scale:
            raise InfeasibleError("constraints are inconsistent")

        # Drive leftover artificials out of the basis.  Pivots keep each
        # artificial column the exact negative of its row's slack column in
        # the constraint rows, so where an artificial is basic (at 1) that
        # slack reads -1: the row always has an entry to pivot on.
        for r in range(m):
            if basis[r] >= width:
                j = int(np.abs(tableau[r, 1:width]).argmax()) + 1
                _pivot(tableau, basis, r, j, tableau[:, j].nonzero()[0])

    # Phase 2: original objective, without the artificial columns.
    tableau[-1, :] = 0.0
    tableau[-1, 1:n + 1] = c
    for r in range(m):
        coef = tableau[-1, basis[r]]
        if coef != 0.0:
            tableau[-1] -= coef * tableau[r]

    status, phase2 = _run(tableau, basis, width, max_iter - pivots)
    pivots += phase2
    if status == "limit":
        raise SimplexIterationLimitError("pivot budget exhausted in phase 2", pivots)

    y = np.zeros(width)
    y[basis] = tableau[:m, 0]
    x = y[1:n + 1] + lb
    if status == "unbounded":
        return BoxLpSolution(x=x, objective=-np.inf, status="unbounded", iterations=pivots)
    return BoxLpSolution(x=x, objective=float(c @ x), status="optimal", iterations=pivots)
