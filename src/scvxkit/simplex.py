"""Dense two-phase simplex for small box-constrained linear programs.

Solves  min c @ x  s.t.  a_ub @ x <= b_ub,  lb <= x <= ub  on a dense
tableau.  Lower bounds must be finite (the caller shifts variables so this
holds by construction); upper bounds may be +inf.  Pivoting starts with
Dantzig's rule and falls back to Bland's rule after a stall, which
guarantees termination on degenerate problems.  The tableau is column-major
with the rhs in column 0 and the artificial columns last, so phase 2 runs on
a contiguous leading slice, without a copy.  Each pivot updates only the
rows with a nonzero pivot-column entry times the columns with a nonzero
pivot-row entry; the other cells of the tableau cannot change.  The update
runs in blocks of whole columns, at most PIVOT_BLOCK_CELLS cells each (one
column where a column alone holds more), so a pivot's scratch memory stays
bounded instead of growing with rows x columns; every cell still gets the
one x - p*q it would get in a single update, so the blocks change no bit.

The primal (_run, in both phases), the dual (_dual_run) and phase 1 share
three steps, each written once: _scale, the 1 + max |values| base of every
relative tolerance; _ratio_ties, the min-ratio test with its 1e-12 tie
band, ties going to the largest divisor; and _price, which writes an
objective row reduced against the basis, skipping the rows whose basic
variable costs nothing.  Dantzig's and Bland's rules share one optimality
test.

An optimal solve keeps its final phase-2 tableau and basis as a WarmStart.
An LP with the same c and a_ub and the same finite upper bounds differs
only in its rhs column, which the tableau's slack block recomputes: that
block holds B^-1 times the row flips, and the rhs is the same product
applied to the flipped rhs.  The old basis stays dual feasible, so a dual
simplex (Koberstein, "The dual simplex method, techniques for a fast and
stable implementation", PhD thesis, Paderborn, 2005) restores a feasible
rhs and phase 2 finishes, in place.

Both starts share what solve_box_lp works out once: the shifted rhs,
b_ub - a_ub @ lb on the a_ub rows and ub - lb on the finite upper-bound
rows, which the cold start (_tableau, then _phase_one) writes into its
tableau and the restart multiplies by the slack block; and the default
pivot budget, ITERATIONS_PER_VARIABLE per column of the starting tableau
past the rhs, the cold start's artificial columns included.  Only a cold
start prices its phase-2 objective row; a restart keeps the old one.

Every failure is a SimplexError whose iterations counts the pivots the
solve made before it; each stage raises its own.

An optimal solution's warm state also says, through WarmStart.unique,
whether its x is the LP's only optimum.  When every nonbasic reduced cost
of the final tableau is positive beyond the optimality tolerance, any
other feasible point makes some nonbasic variable positive and so costs
more: strict complementarity at the final basis proves the optimum unique
(Mangasarian, "Uniqueness of solution in linear programming", Linear
Algebra Appl. 25, 1979).  A restart from another basis may reach another
optimal vertex only where this certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Absolute-plus-relative tolerances. Feasibility guards right-hand sides,
# optimality guards reduced costs, and the pivot tolerance rejects
# near-singular pivot elements.
FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
STALL_LIMIT = 30
# Cells per block of a pivot's rank-1 update: each of its three scratch
# arrays (flat indices, products, gathered cells) then takes 64 KB at most,
# under glibc's default 128 KB mmap threshold, so the allocator reuses them
# from its heap instead of mapping fresh pages for every pivot.
PIVOT_BLOCK_CELLS = 8192
ITERATIONS_PER_VARIABLE = 50
_NO_FEASIBLE_POINT = "pivot budget exhausted before a feasible point was found"


class SimplexError(Exception):
    """Base class for simplex failures; iterations counts the pivots made."""

    def __init__(self, message: str, iterations: int = 0):
        self.iterations = iterations
        super().__init__(message)


class InfeasibleError(SimplexError):
    pass


class SimplexIterationLimitError(SimplexError):
    """Pivot budget exhausted."""


def _scale(values: np.ndarray) -> float:
    """1 + max |values|, or 1 for no values: the base of a relative tolerance."""
    return 1.0 + float(np.abs(values).max(initial=0.0))


class WarmStart:
    """The final phase-2 tableau and basis of an optimal solve.

    Opaque to callers: pass it as solve_box_lp's warm=, ask unique() while
    it is kept, or release() it to free the tableau.  A solve from it
    re-solves the tableau in place, so a state serves one solve only, and
    both that solve and release() leave it empty.
    """

    __slots__ = ("tableau", "basis", "finite_ub")

    def __init__(self, tableau: np.ndarray, basis: np.ndarray, finite_ub: np.ndarray):
        self.tableau = tableau
        self.basis = basis
        self.finite_ub = finite_ub

    def release(self) -> None:
        """Drop the tableau and basis; the state can seed no further solve."""
        self.tableau = self.basis = None

    def _kept(self) -> tuple[np.ndarray, np.ndarray]:
        if self.tableau is None:
            raise ValueError("warm start already used by an earlier solve or released")
        return self.tableau, self.basis

    def unique(self) -> bool:
        """Whether the kept tableau certifies its LP's optimum unique.

        True when every nonbasic reduced cost exceeds OPT_TOL * (1 + max
        |reduced cost|), the max taken over the kept tableau's final
        objective row: strict complementarity at the final basis (see the
        module docstring).  This is not _run's tolerance, whose scale is
        taken over the whole objective row, artificial columns included,
        at phase-2 entry; on the double-integrator start LP at radius 1
        _run scales OPT_TOL by 101 and this test by 51.  It costs no pivot.
        """
        tableau, basis = self._kept()
        reduced = tableau[-1, 1:]
        nonbasic = np.ones(reduced.size, dtype=bool)
        nonbasic[basis - 1] = False
        return bool(np.all(reduced[nonbasic] > OPT_TOL * _scale(reduced)))

    def take(self, m: int, finite_ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tableau and basis for an LP of m constraint rows, upper-bound rows
        included, and this finite-ub pattern."""
        tableau, basis = self._kept()
        if not np.array_equal(self.finite_ub, finite_ub) or basis.size != m:
            raise ValueError("warm start comes from an LP of another shape or another "
                             "pattern of finite ub entries")
        self.release()
        return tableau, basis


@dataclass(frozen=True)
class BoxLpSolution:
    x: np.ndarray
    objective: float
    status: str  # "optimal" | "unbounded"
    iterations: int
    # Set on an optimal solution only: the state solve_box_lp's warm= takes.
    warm: WarmStart | None = field(default=None, repr=False, compare=False)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int,
           rows: np.ndarray) -> None:
    # rows are the nonzero rows of column col, the pivot row among them.  A
    # cell outside them x the nonzero pivot-row columns would get x - a*0 or
    # x - 0*b, which leaves x as it is up to the sign of a zero.  The pivot
    # row takes the update too and is then overwritten.  The flat view holds
    # (i, j) at j * shape[0] + i; on any other layout ravel would copy.
    if not tableau.flags.f_contiguous:
        raise ValueError("_pivot needs a Fortran-contiguous tableau")
    piv_row = tableau[row] / tableau[row, col]
    cols = piv_row.nonzero()[0]
    starts = (cols * tableau.shape[0])[:, None]
    piv_vals = piv_row[cols][:, None]
    # Gathered before any update: the block that holds column col zeroes it.
    col_vals = tableau[rows, col]
    flat = tableau.ravel("F")
    step = PIVOT_BLOCK_CELLS // rows.size or 1  # whole columns per block
    for j in range(0, cols.size, step):
        flat[starts[j:j + step] + rows] -= piv_vals[j:j + step] * col_vals
    tableau[row] = piv_row
    basis[row] = col


def _ratio_ties(numerators: np.ndarray, divisors: np.ndarray,
                indices: np.ndarray) -> tuple[np.ndarray, int]:
    """The min-ratio test over positive divisors.

    Returns the indices whose ratio numerators / divisors lies within
    1e-12 (relative) of the smallest, and among them the first with the
    largest divisor: the most stable pivot element.
    """
    ratios = numerators / divisors
    least = float(ratios.min())
    tie = ratios <= least + 1e-12 * (1.0 + abs(least))
    ties = indices[tie]
    return ties, int(ties[divisors[tie].argmax()])


def _price(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """Write the objective row of cost, one entry per tableau column.

    The row is cost less cost[basis[r]] times row r, for each row r in
    order whose basic variable has a nonzero cost.  Basic columns are unit
    columns, so no subtraction changes another basic variable's entry.
    """
    tableau[-1] = cost
    coefs = cost[basis]
    for r in coefs.nonzero()[0]:
        tableau[-1] -= coefs[r] * tableau[r]


def _run(tableau: np.ndarray, basis: np.ndarray, width: int, budget: int, pivots: int,
         limit: str) -> tuple[str, int]:
    """Drive the tableau to optimality over its first width columns.

    The cost scale behind the optimality tolerance is taken over the whole
    objective row; pivots then see only the leading width columns.  pivots
    is the count the solve has made so far and budget its total; a pivot
    beyond the budget raises SimplexIterationLimitError(limit).  Returns
    "optimal" or "unbounded" and the solve's pivot count.
    """
    m = tableau.shape[0] - 1
    rc_tol = OPT_TOL * _scale(tableau[-1, 1:])
    tableau = tableau[:, :width]
    reduced = tableau[-1, 1:]
    rhs = tableau[:m, 0]
    bland = False
    stall = 0
    last_obj = -tableau[-1, 0]
    if reduced.size == 0:  # no priced column: optimal, as Bland's branch finds
        return "optimal", pivots

    while True:
        # Bland's rule takes the first eligible column, or column 1 when none
        # is eligible, which then passes the optimality test.
        col = int((reduced < -rc_tol).argmax() if bland else reduced.argmin()) + 1
        if tableau[-1, col] >= -rc_tol:
            return "optimal", pivots

        # The entering reduced cost is negative, so the objective row is the
        # last of the column's nonzero rows.
        rows = tableau[:, col].nonzero()[0]
        body = rows[:-1]
        column = tableau[body, col]
        positive = column > PIVOT_TOL * _scale(column)
        candidates = body[positive]
        if candidates.size == 0:
            return "unbounded", pivots
        ties, row = _ratio_ties(rhs[candidates], column[positive], candidates)
        if bland:
            row = int(ties[basis[ties].argmin()])

        if pivots >= budget:
            raise SimplexIterationLimitError(limit, pivots)
        _pivot(tableau, basis, row, col, rows)
        pivots += 1
        if rhs.min() < 0.0:
            rhs[(rhs < 0.0) & (rhs > -FEAS_TOL * _scale(rhs))] = 0.0

        obj = -tableau[-1, 0]
        if obj < last_obj - 1e-12 * (1.0 + abs(last_obj)):
            stall = 0
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        last_obj = obj


def _tableau(a_ub: np.ndarray, rhs: np.ndarray,
             finite_ub: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Cold starting tableau of the LP in y = x - lb >= 0, written in place.

    rhs is solve_box_lp's shifted rhs, which a warm restart uses too: the
    a_ub rows' b_ub - a_ub @ lb, then ub_j - lb_j for each j where the mask
    finite_ub holds.  Rows are the a_ub rows, one row y_j <= ub_j - lb_j per
    finite ub_j and a zero objective row.  A row with a negative rhs is
    negated, its slack enters with -1 and an artificial starts basic in it;
    upper-bound rows have rhs >= 0 because ub >= lb.  Returns the tableau,
    the basis, those rows and the width of the rhs, structural and slack
    columns: all phase 2 sees.
    """
    m_ub, n = a_ub.shape
    m = rhs.size
    art_rows = np.flatnonzero(rhs < 0.0)
    width = n + m + 1

    # Column-major, so the phase-2 slice and _pivot's flat view are views.
    tableau = np.zeros((m + 1, width + art_rows.size), order="F")
    tableau[:m, 0] = rhs
    tableau[:m_ub, 1:n + 1] = a_ub
    tableau[np.arange(m_ub, m), 1 + np.flatnonzero(finite_ub)] = 1.0
    slack = n + 1 + np.arange(m)
    tableau[np.arange(m), slack] = 1.0
    tableau[art_rows, :n + 1] *= -1.0
    tableau[art_rows, slack[art_rows]] = -1.0
    tableau[art_rows, width + np.arange(art_rows.size)] = 1.0

    basis = slack.copy()
    basis[art_rows] = width + np.arange(art_rows.size)
    return tableau, basis, art_rows, width


def _phase_one(tableau: np.ndarray, basis: np.ndarray, width: int, budget: int) -> int:
    """Phase 1 on a cold tableau of _tableau: make its basis feasible.

    The artificial columns are those past width; without one the slack
    basis is feasible already.  budget is the pivot budget of the whole
    solve, which solve_box_lp sets for both starts.  Minimizes the sum of
    the artificials, then drives those left basic out of the basis, and
    returns the pivots made; the objective row is left for the caller to
    price.
    """
    if tableau.shape[1] == width:
        return 0
    feas_scale = _scale(tableau[:-1, 0])
    cost = np.zeros(tableau.shape[1])
    cost[width:] = 1.0
    _price(tableau, basis, cost)
    status, pivots = _run(tableau, basis, tableau.shape[1], budget, 0, _NO_FEASIBLE_POINT)
    # The phase-1 objective is bounded below, yet on badly scaled rows every
    # positive entry of the entering column can fall under PIVOT_TOL times
    # its _scale, and _run then reports it unbounded (ROADMAP item 5(a)).
    if status == "unbounded":
        raise SimplexError("phase 1 reported unbounded", pivots)
    if -tableau[-1, 0] > FEAS_TOL * feas_scale:
        raise InfeasibleError("constraints are inconsistent", pivots)

    # Drive leftover artificials out of the basis, each pivot counted
    # against the budget.  Pivots keep each artificial column the exact
    # negative of its row's slack column in the constraint rows, so where
    # an artificial is basic (at 1) that slack reads -1: the row always
    # has an entry to pivot on.
    for r in np.flatnonzero(basis >= width):
        j = int(np.abs(tableau[r, 1:width]).argmax()) + 1
        if pivots >= budget:
            raise SimplexIterationLimitError(_NO_FEASIBLE_POINT, pivots)
        _pivot(tableau, basis, r, j, tableau[:, j].nonzero()[0])
        pivots += 1
    return pivots


def _dual_run(tableau: np.ndarray, basis: np.ndarray, budget: int, pivots: int) -> int:
    """Dual simplex from a dual-feasible tableau until its rhs is feasible.

    The leaving row has the most negative rhs; the entering column has a
    negative entry in that row and the smallest ratio of reduced cost to
    minus that entry, ties going to the entry largest in magnitude.  pivots is the count the
    solve has made so far and budget its total.  Returns the solve's pivot
    count; raises InfeasibleError when a row cannot be made feasible and
    SimplexIterationLimitError when a pivot beyond the budget is needed.
    """
    m = tableau.shape[0] - 1
    rhs = tableau[:m, 0]
    reduced = tableau[-1, 1:]
    while m:
        row = int(rhs.argmin())
        if rhs[row] >= -FEAS_TOL * _scale(rhs):
            rhs[rhs < 0.0] = 0.0
            break
        body = tableau[row, 1:]
        eligible = (body < -PIVOT_TOL * _scale(body)).nonzero()[0]
        if eligible.size == 0:
            raise InfeasibleError("constraints are inconsistent", pivots)
        # Reduced costs sit above -OPT_TOL; a slightly negative one counts as 0.
        col = _ratio_ties(np.maximum(reduced[eligible], 0.0), -body[eligible], eligible)[1] + 1
        if pivots >= budget:
            raise SimplexIterationLimitError(_NO_FEASIBLE_POINT, pivots)
        _pivot(tableau, basis, row, col, tableau[:, col].nonzero()[0])
        pivots += 1
    return pivots


def _checked(c, a_ub, b_ub, lb, ub) -> tuple[np.ndarray, ...]:
    """The LP data as float arrays of the shapes solve_box_lp documents."""
    c, a_ub, b_ub, lb, ub = (np.asarray(v, dtype=float) for v in (c, a_ub, b_ub, lb, ub))
    if c.ndim != 1:
        raise ValueError(f"solve_box_lp: c must be 1-D, got shape {c.shape}")
    n = c.size
    if a_ub.ndim != 2 or a_ub.shape[1] != n:
        raise ValueError(f"solve_box_lp: a_ub must have shape (m, {n}), got {a_ub.shape}")
    for name, value, shape in (("b_ub", b_ub, a_ub.shape[:1]), ("lb", lb, (n,)),
                               ("ub", ub, (n,))):
        if value.shape != shape:
            raise ValueError(f"solve_box_lp: {name} must have shape {shape}, got {value.shape}")
    if not all(np.all(np.isfinite(v)) for v in (c, a_ub, b_ub, lb)) or np.any(np.isnan(ub)):
        raise ValueError("solve_box_lp requires finite c, a_ub, b_ub and lb, and ub without NaN")
    return c, a_ub, b_ub, lb, ub


def solve_box_lp(c, a_ub, b_ub, lb, ub, max_iter: int | None = None,
                 warm: WarmStart | None = None) -> BoxLpSolution:
    """Solve min c@x s.t. a_ub@x <= b_ub, lb <= x <= ub.

    c must be 1-D of some length n, a_ub of shape (m, n), b_ub of shape
    (m,), and lb and ub of shape (n,); c, a_ub, b_ub and lb must be finite
    and ub may be +inf.  Anything else is a ValueError naming the argument.
    Raises InfeasibleError when the constraints are inconsistent and
    SimplexIterationLimitError when the pivot budget (50 per tableau column
    by default) runs out.  Every failure is a SimplexError whose iterations
    counts the pivots the solve made before it.

    warm is the WarmStart of an earlier optimal solution whose LP had the
    same c, the same a_ub and finite ub entries at the same places; only
    b_ub, lb and the finite ub values may differ.  The solve then starts
    from that LP's final basis with a dual simplex instead of phase 1, and
    raises what a cold solve raises; it never falls back to a cold solve.
    A state from an LP of another shape or finite-ub pattern, or one an
    earlier solve already took, is a ValueError.  c and a_ub are not
    compared: passing a state for other ones gives a wrong answer.

    An optimal solution's warm.unique() says whether its final tableau
    certifies x as the LP's only optimum (see the module docstring).
    """
    c, a_ub, b_ub, lb, ub = _checked(c, a_ub, b_ub, lb, ub)
    n = c.size
    finite_ub = np.isfinite(ub)
    if np.any(ub < lb):
        raise InfeasibleError("empty box: some ub < lb")
    # The rhs in y = x - lb of the a_ub rows, then of y_j <= ub_j - lb_j.
    rhs = np.concatenate([b_ub - a_ub @ lb, ub[finite_ub] - lb[finite_ub]])
    width = n + rhs.size + 1

    if warm is None:
        tableau, basis, _, _ = _tableau(a_ub, rhs, finite_ub)
    else:
        tableau, basis = warm.take(rhs.size, finite_ub)
    if max_iter is None:  # artificial columns included on a cold start
        max_iter = ITERATIONS_PER_VARIABLE * (tableau.shape[1] - 1)
    if warm is None:
        pivots = _phase_one(tableau, basis, width, max_iter)
        # Phase 2 objective row: c, without the artificial columns.
        cost = np.zeros(tableau.shape[1])
        cost[1:n + 1] = c
        _price(tableau, basis, cost)
    else:
        # The slack block is B^-1 D, with D the row flips of the first LP,
        # and the rhs column is B^-1 D rhs; the objective row's slack block
        # turns rhs into the objective entry the same way.
        np.matmul(tableau[:, n + 1:width], rhs, out=tableau[:, 0])
        pivots = _dual_run(tableau, basis, max_iter, 0)

    status, pivots = _run(tableau, basis, width, max_iter, pivots,
                          "pivot budget exhausted in phase 2")

    y = np.zeros(width)
    y[basis] = tableau[:-1, 0]
    x = y[1:n + 1] + lb
    if status == "unbounded":
        return BoxLpSolution(x=x, objective=-np.inf, status="unbounded", iterations=pivots)
    return BoxLpSolution(x=x, objective=float(c @ x), status="optimal", iterations=pivots,
                         warm=WarmStart(tableau[:, :width], basis, finite_ub))

