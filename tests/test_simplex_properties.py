"""Property tests: solve_box_lp against scipy's HiGHS on generated LPs.

Four families of well-scaled LPs: random feasible ones, degenerate ones
with a zero rhs, infeasible ones and unbounded ones.  Entries are quarter
integers in [-5, 5], so rows and costs stay within a factor of 20 of each
other; badly scaled rows are a known weakness of the feasibility tolerances
and are left out here.  The status must match HiGHS, and the objective must
agree within 1e-6 (1 + |f|).  A fifth property restarts solved LPs warm at a
new rhs and box and holds the warm solve to the same test.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scvxkit.simplex import InfeasibleError, solve_box_lp

import oracles

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None)
HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}

quarters = st.integers(-20, 20).map(lambda k: k / 4.0)


def matrices(rows, cols):
    return hnp.arrays(float, (rows, cols), elements=quarters)


@st.composite
def box_lps(draw, max_n=6, max_m=8):
    """A random LP with a box around a known interior point x0."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    c = draw(matrices(1, n))[0]
    a_ub = draw(matrices(m, n))
    lb = draw(hnp.arrays(float, n, elements=st.integers(-12, 0).map(lambda k: k / 4.0)))
    width = draw(hnp.arrays(float, n, elements=st.integers(1, 20).map(lambda k: k / 4.0)))
    open_top = draw(hnp.arrays(bool, n))
    ub = np.where(open_top, np.inf, lb + width)
    x0 = lb + 0.5 * np.minimum(width, 1.0)
    return c, a_ub, lb, ub, x0


def outcome(c, a_ub, b_ub, lb, ub, warm=None):
    try:
        sol = solve_box_lp(c, a_ub, b_ub, lb, ub, warm=warm)
    except InfeasibleError:
        return "infeasible", None
    if sol.status == "optimal":
        tol = 1e-7 * (1.0 + float(np.max(np.abs(b_ub), initial=0.0)))
        assert np.all(a_ub @ sol.x <= b_ub + tol)
        assert np.all(sol.x >= lb - tol) and np.all(sol.x <= ub + tol)
    return sol.status, sol.objective


def assert_agrees_with_highs(c, a_ub, b_ub, lb, ub, warm=None):
    ref = oracles.scipy_box_lp(c, a_ub, b_ub, lb, ub)
    status, objective = outcome(c, a_ub, b_ub, lb, ub, warm)
    assert status == HIGHS_STATUS[ref.status]
    if status == "optimal":
        assert abs(objective - ref.fun) <= 1e-6 * (1.0 + abs(ref.fun))
    return status


@PROPERTY_SETTINGS
@given(box_lps(), st.data())
def test_random_feasible(lp, data):
    c, a_ub, lb, ub, x0 = lp
    slack = data.draw(hnp.arrays(float, a_ub.shape[0], elements=st.integers(0, 8).map(
        lambda k: k / 4.0)))
    # x0 is feasible, so HiGHS says optimal or unbounded, never infeasible.
    assert assert_agrees_with_highs(c, a_ub, a_ub @ x0 + slack, lb, ub) != "infeasible"


@PROPERTY_SETTINGS
@given(box_lps())
def test_zero_rhs_degenerate(lp):
    # lb = 0 and b = 0: the origin is a vertex on which every row is active.
    c, a_ub, lb, ub, _ = lp
    ub = ub - lb
    assert_agrees_with_highs(c, a_ub, np.zeros(a_ub.shape[0]), np.zeros_like(lb), ub)


@PROPERTY_SETTINGS
@given(box_lps(max_m=6), st.integers(0, 5), st.integers(1, 8))
def test_infeasible(lp, pick, gap):
    # Row r and its negation shifted by gap/4 leave no room between them.
    c, a_ub, lb, ub, x0 = lp
    row = np.ones_like(c) if a_ub.shape[0] == 0 else a_ub[pick % a_ub.shape[0]]
    level = float(row @ x0)
    a_ub = np.vstack([a_ub, row, -row])
    b_ub = np.concatenate([a_ub[:-2] @ x0 + 1.0, [level, -level - gap / 4.0]])
    assert assert_agrees_with_highs(c, a_ub, b_ub, lb, ub) == "infeasible"


@PROPERTY_SETTINGS
@given(box_lps(), st.integers(0, 5), st.integers(1, 8))
def test_unbounded(lp, pick, descent):
    # Variable k has no upper bound, a falling cost, and no row that
    # grows with it, so x0 + t e_k is feasible for all t >= 0.
    c, a_ub, lb, ub, x0 = lp
    k = pick % c.size
    ub = ub.copy()
    ub[k] = np.inf
    c = c.copy()
    c[k] = -descent / 4.0
    a_ub = a_ub.copy()
    a_ub[:, k] = -np.abs(a_ub[:, k])
    assert assert_agrees_with_highs(c, a_ub, a_ub @ x0 + 1.0, lb, ub) == "unbounded"


@PROPERTY_SETTINGS
@given(box_lps(), st.data())
def test_warm_restart_at_new_rhs_and_box(lp, data):
    # Solve a feasible LP, then move b_ub, lb and the finite ub entries; the
    # infinite ones stay infinite.  The moved LP may be infeasible.
    c, a_ub, lb, ub, x0 = lp
    shifts = st.integers(-8, 8).map(lambda k: k / 4.0)
    sol = solve_box_lp(c, a_ub, a_ub @ x0 + 1.0, lb, ub)
    if sol.status != "optimal":
        return
    b_ub = a_ub @ x0 + 1.0 + data.draw(hnp.arrays(float, a_ub.shape[0], elements=shifts))
    lb = lb + data.draw(hnp.arrays(float, c.size, elements=shifts))
    width = data.draw(hnp.arrays(float, c.size, elements=st.integers(0, 20).map(
        lambda k: k / 4.0)))
    ub = np.where(np.isfinite(ub), lb + width, np.inf)
    cold = assert_agrees_with_highs(c, a_ub, b_ub, lb, ub)
    assert assert_agrees_with_highs(c, a_ub, b_ub, lb, ub, warm=sol.warm) == cold
