"""Tests for the dense two-phase simplex on box-constrained LPs.

The reference answers come from scipy's HiGHS and, for tiny instances,
from exhaustive vertex enumeration.
"""

import tracemalloc

import numpy as np
import pytest

from scvxkit import simplex
from scvxkit.composite import linearize
from scvxkit.diagnostics import QUASI_INFINITE_FACTOR
from scvxkit.problems import builtin
from scvxkit.simplex import (
    InfeasibleError,
    SimplexIterationLimitError,
    solve_box_lp,
)
from scvxkit.subproblem import build_lp

import oracles

PHASE_ONE_LIMIT = "pivot budget exhausted before a feasible point was found"
PHASE_TWO_LIMIT = "pivot budget exhausted in phase 2"


def floor_lp(n=3):
    """max sum(x) over [0, 3]^n with every x_i >= 1: the n floor rows start
    infeasible, so the solve takes n pivots in phase 1 and n in phase 2."""
    return -np.ones(n), -np.eye(n), -np.ones(n), np.zeros(n), np.full(n, 3.0)


def random_bounded_lp(rng, n=None, m=None):
    n = n or int(rng.integers(2, 7))
    m = m if m is not None else int(rng.integers(0, 9))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m, n))
    lb = rng.uniform(-3.0, 0.0, size=n)
    ub = lb + rng.uniform(0.5, 5.0, size=n)
    # Anchor the rhs so a known interior point stays feasible.
    x_feas = rng.uniform(lb, ub)
    b_ub = a_ub @ x_feas + rng.uniform(0.1, 2.0, size=m)
    return c, a_ub, b_ub, lb, ub


def sparse_epigraph_lp(rng, n=60, n_eq=40, n_ineq=40, per_row=2, radius=1.0, weight=10.0):
    """An LP laid out like subproblem.build_lp: step variables boxed by the
    radius, one |.| epigraph auxiliary per equality row, one hinge auxiliary
    per inequality row, and a Jacobian with per_row nonzeros per row.  At the
    default sizes about 2% of a_ub is nonzero and phase 1 is needed."""
    jac = np.zeros((n_eq + n_ineq, n))
    for r in range(jac.shape[0]):
        jac[r, rng.choice(n, per_row, replace=False)] = rng.normal(size=per_row)
    val = rng.normal(size=n_eq + n_ineq)
    c = np.concatenate([rng.normal(size=n), np.full(n_eq + n_ineq, weight)])
    a_ub = np.zeros((2 * n_eq + n_ineq, n + n_eq + n_ineq))
    a_ub[:n_eq, :n] = jac[:n_eq]
    a_ub[n_eq:2 * n_eq, :n] = -jac[:n_eq]
    a_ub[:2 * n_eq, n:n + n_eq] = np.vstack([-np.eye(n_eq)] * 2)
    a_ub[2 * n_eq:, :n] = jac[n_eq:]
    a_ub[2 * n_eq:, n + n_eq:] = -np.eye(n_ineq)
    b_ub = np.concatenate([-val[:n_eq], val[:n_eq], -val[n_eq:]])
    lb = np.concatenate([np.full(n, -radius), np.zeros(n_eq + n_ineq)])
    ub = np.concatenate([np.full(n, radius), np.full(n_eq + n_ineq, np.inf)])
    return c, a_ub, b_ub, lb, ub


def klee_minty_lp(n):
    """max sum_j 2^(n-1-j) x_j over the Klee-Minty cube, whose row i reads
    sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^(i+1) (0-based).  Dantzig's rule
    visits all 2^n vertices; the optimum is x = (0, ..., 0, 5^n)."""
    c = -(2.0 ** np.arange(n - 1, -1, -1))
    i, j = np.indices((n, n))
    a_ub = np.where(j < i, 2.0 ** (i - j + 1), 0.0) + np.eye(n)
    return c, a_ub, 5.0 ** np.arange(1, n + 1), np.zeros(n), np.full(n, np.inf)


def builtin_subproblem_lp(name, radius):
    """The first subproblem LP of a built-in at N=8 from its default start.
    radius np.inf stands for the quasi-infinite box of the small-step probe."""
    bench = builtin(name, n_nodes=8)
    composite, _ = bench.build()
    start = bench.default_start
    if radius == np.inf:
        radius = QUASI_INFINITE_FACTOR * (1.0 + float(np.max(np.abs(start))))
    lp = build_lp(linearize(composite, start), radius)
    return lp.c, lp.a_ub, lp.b_ub, lp.lb, lp.ub


def equality_pair_lp():
    """min x subject to x + y <= 2 and x + y >= 2 in [0, 5]^2.  Phase 1
    ends with the artificial of the second row basic at zero, so one more
    pivot drives it out."""
    c = np.array([1.0, 0.0])
    a_ub = np.array([[1.0, 1.0], [-1.0, -1.0]])
    return c, a_ub, np.array([2.0, -2.0]), np.zeros(2), np.array([5.0, 5.0])


def cold_tableau(a_ub, b_ub, lb, ub):
    """simplex._tableau of the LP, from the shifted rhs and finite-ub mask
    that solve_box_lp works out for both of its starts."""
    finite_ub = np.isfinite(ub)
    rhs = np.concatenate([b_ub - a_ub @ lb, ub[finite_ub] - lb[finite_ub]])
    return simplex._tableau(a_ub, rhs, finite_ub)


def cycling_lp():
    """A textbook degenerate LP that cycles under naive pivoting."""
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a_ub = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    return c, a_ub, np.array([0.0, 0.0, 1.0]), np.zeros(4), np.full(4, np.inf)


class TestAgainstScipy:
    def test_random_bounded_instances(self, rng):
        for _ in range(60):
            c, a_ub, b_ub, lb, ub = random_bounded_lp(rng)
            sol = solve_box_lp(c, a_ub, b_ub, lb, ub)
            ref = oracles.scipy_box_lp(c, a_ub, b_ub, lb, ub)
            assert ref.success
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-7)
            # The reported point must actually be feasible and consistent.
            assert np.all(a_ub @ sol.x <= b_ub + 1e-8)
            assert np.all(sol.x >= lb - 1e-9)
            assert np.all(sol.x <= ub + 1e-9)
            assert float(c @ sol.x) == pytest.approx(sol.objective, abs=1e-9)

    def test_negative_rhs_instances(self, rng):
        # Forces phase 1 to introduce and then retire artificial variables.
        for _ in range(40):
            c, a_ub, b_ub, lb, ub = random_bounded_lp(rng, m=int(rng.integers(1, 7)))
            b_ub = b_ub - np.abs(rng.normal(size=b_ub.size)) * 2.0
            ref = oracles.scipy_box_lp(c, a_ub, b_ub, lb, ub)
            if not ref.success:
                with pytest.raises(InfeasibleError):
                    solve_box_lp(c, a_ub, b_ub, lb, ub)
                continue
            sol = solve_box_lp(c, a_ub, b_ub, lb, ub)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-7)

    def test_duplicated_rows_are_handled(self, rng):
        c, a_ub, b_ub, lb, ub = random_bounded_lp(rng, n=3, m=3)
        a_dup = np.vstack([a_ub, a_ub])
        b_dup = np.concatenate([b_ub, b_ub])
        sol = solve_box_lp(c, a_dup, b_dup, lb, ub)
        ref = oracles.scipy_box_lp(c, a_dup, b_dup, lb, ub)
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


class TestAgainstVertexEnumeration:
    def test_tiny_instances(self, rng):
        for _ in range(25):
            c, a_ub, b_ub, lb, ub = random_bounded_lp(rng, n=int(rng.integers(2, 4)),
                                                      m=int(rng.integers(0, 4)))
            sol = solve_box_lp(c, a_ub, b_ub, lb, ub)
            _, best = oracles.vertex_min_box_lp(c, a_ub, b_ub, lb, ub)
            assert sol.objective == pytest.approx(best, abs=1e-7)


class TestKnownInstances:
    def test_box_only_is_bang_bang(self):
        c = np.array([1.0, -2.0, 0.5])
        lb = np.array([-1.0, -1.0, -1.0])
        ub = np.array([2.0, 3.0, 4.0])
        sol = solve_box_lp(c, np.zeros((0, 3)), np.zeros(0), lb, ub)
        np.testing.assert_allclose(sol.x, [-1.0, 3.0, -1.0], atol=1e-9)
        assert sol.objective == pytest.approx(-7.5)

    def test_classic_cycling_instance(self):
        # The stall fallback to Bland's rule must still reach the optimum -1/20.
        sol = solve_box_lp(*cycling_lp())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)

    def test_equality_like_pair(self):
        # x + y >= 2 and x + y <= 2 pin the sum; minimize x.
        sol = solve_box_lp(*equality_pair_lp())
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.x[0] + sol.x[1] == pytest.approx(2.0, abs=1e-9)
        # One pivot in phase 1, one that drives the artificial out, one in phase 2.
        assert sol.iterations == 3

    def test_empty_lp_is_optimal(self):
        # No variable and no row: an objective row that prices no column is
        # optimal, cold and restarted alike.
        lp = (np.zeros(0), np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0))
        sol = solve_box_lp(*lp)
        assert (sol.status, sol.objective, sol.iterations) == ("optimal", 0.0, 0)
        assert sol.x.shape == (0,)
        assert sol.warm.unique()
        again = solve_box_lp(*lp, warm=sol.warm)
        assert (again.status, again.objective, again.iterations) == ("optimal", 0.0, 0)

    def test_degenerate_stall_reaches_blands_rule(self, monkeypatch):
        # Zero rhs and a positive first row leave x = 0 the only feasible
        # point, so every pivot is degenerate: the objective stays at 0,
        # the stall passes STALL_LIMIT and Bland's rule takes over.
        rng = np.random.default_rng(3)
        a_ub = rng.normal(size=(200, 40))
        a_ub[0] = np.abs(a_ub[0]) + 0.1
        c = rng.normal(size=40)
        lp = (c, a_ub, np.zeros(200), np.zeros(40), np.full(40, np.inf))
        objectives = []
        pivot = simplex._pivot

        def recording_pivot(tableau, basis, row, col, rows):
            pivot(tableau, basis, row, col, rows)
            objectives.append(tableau[-1, 0])

        monkeypatch.setattr(simplex, "_pivot", recording_pivot)
        sol = solve_box_lp(*lp)
        assert sol.status == "optimal"
        assert sol.iterations > simplex.STALL_LIMIT
        assert len(objectives) == sol.iterations
        assert all(value == 0.0 for value in objectives)
        assert sol.objective == pytest.approx(oracles.scipy_box_lp(*lp).fun, abs=1e-9)


class TestStatusesAndErrors:
    def test_unbounded_detected(self):
        sol = solve_box_lp(np.array([-1.0]), np.zeros((0, 1)), np.zeros(0),
                           np.array([0.0]), np.array([np.inf]))
        assert sol.status == "unbounded"
        assert sol.objective == -np.inf

    def test_unbounded_with_rows(self):
        # min -x - y with only x <= 1 pinned; y escapes upward.
        c = np.array([-1.0, -1.0])
        a_ub = np.array([[1.0, 0.0]])
        b_ub = np.array([1.0])
        sol = solve_box_lp(c, a_ub, b_ub, np.zeros(2), np.array([np.inf, np.inf]))
        assert sol.status == "unbounded"

    def test_empty_box_raises(self):
        with pytest.raises(InfeasibleError):
            solve_box_lp(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                         np.array([2.0]), np.array([1.0]))

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
        "known defect: feasibility tolerances scale with the largest |rhs|, so the 1e6 row "
        "hides the small row's infeasibility; the fix changes pivots and re-records the "
        "references, ROADMAP item 5(a), and drops this marker"))
    def test_badly_scaled_infeasible_row_raises(self):
        # Row 2 asks -1e-5 x <= -2e-5, that is x >= 2, beyond ub = 1.
        with pytest.raises(InfeasibleError):
            solve_box_lp([1.0], [[1e6], [-1e-5]], [1e6, -2e-5], [0.0], [1.0])

    @pytest.mark.xfail(strict=True, raises=simplex.SimplexError, reason=(
        "known defect: every positive entry of a phase-1 entering column falls under "
        "PIVOT_TOL * col_scale, so _run calls the bounded phase-1 objective unbounded; "
        "the fix belongs with the per-row tolerances of ROADMAP item 5(a)"))
    def test_badly_scaled_phase_one_is_not_unbounded(self):
        # Rows scaled by 10^U(-6, 6), as in the per-row verdict note of ROADMAP
        # item 5(a); HiGHS finds the optimum.
        c = [0.8411878972050212, 2.3547165237895866, -0.061015455392154874,
             0.052561041976055094]
        a_ub = [[1.2332870212205029e-06, 7.7034848802895527e-07,
                 -3.5141169218779016e-07, 1.3905784236905828e-06],
                [4.5266371905023038e+02, 1.6618255071460382e+02,
                 -3.1607589069014631e+02, -1.0556185964792532e+02],
                [-8.2747090515271237e+04, -2.0809707299110561e+05,
                 -2.5033267844781899e+05, 5.9367002382074762e+05],
                [1.8949095889410242e-04, -2.3286517972764416e-04,
                 1.1962876720833968e-04, -1.0917420214220142e-04]]
        b_ub = [-9.1061413433203431e-07, -1.0808220041385885e+03,
                5.5595262174145249e+05, -2.1389871961103050e-04]
        lb = [-0.9894310079413491, -0.7986724771948853, -0.6208061750350187,
              -0.6662457678690127]
        ub = [-0.45607512669438055, np.inf, np.inf, 1.0448626883785384]
        ref = oracles.scipy_box_lp(c, a_ub, b_ub, lb, ub)
        assert ref.status == 0
        sol = solve_box_lp(c, a_ub, b_ub, lb, ub)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-9)

    def test_inconsistent_rows_raise(self):
        # x >= 3 cannot hold inside [0, 2].
        with pytest.raises(InfeasibleError):
            solve_box_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-3.0]),
                         np.array([0.0]), np.array([2.0]))

    @pytest.mark.parametrize("c, a_ub, b_ub, lb, ub", [
        ([1.0], np.zeros((0, 1)), np.zeros(0), [-np.inf], [1.0]),
        # Before these were rejected: unbounded, optimal at NaN, optimal at
        # x = 0 with the row ignored (twice), and unbounded.
        ([-1.0], np.zeros((0, 1)), np.zeros(0), [0.0], [np.nan]),
        ([np.nan], np.zeros((0, 1)), np.zeros(0), [0.0], [1.0]),
        ([-1.0], [[np.nan]], [1.0], [0.0], [1.0]),
        ([1.0], [[1.0]], [np.nan], [0.0], [1.0]),
        ([-1.0], [[np.inf]], [1.0], [0.0], [1.0]),
        ([np.inf], np.zeros((0, 1)), np.zeros(0), [0.0], [1.0]),
        ([-1.0], [[1.0]], [-np.inf], [0.0], [1.0]),
    ], ids=["lb-inf", "ub-nan", "c-nan", "a_ub-nan", "b_ub-nan", "a_ub-inf", "c-inf",
            "b_ub-inf"])
    def test_infinite_lower_bound_rejected(self, c, a_ub, b_ub, lb, ub):
        # Non-finite LP data, other than ub = +inf, is a ValueError.
        with pytest.raises(ValueError):
            solve_box_lp(c, a_ub, b_ub, lb, ub)

    @pytest.mark.parametrize("c, a_ub, b_ub, lb, ub, name", [
        # Before these were rejected: optimal at x = [1, 9] with the one ub
        # entry bounding x0 alone, an IndexError, and numpy's broadcast and
        # matmul messages.
        ([-1.0, -1.0], [[1.0, 1.0]], [10.0], [0.0, 0.0], [1.0], "ub"),
        ([-1.0, -1.0], [[1.0, 1.0]], [10.0], [0.0, 0.0], 1.0, "ub"),
        ([-1.0, -1.0], [[1.0, 1.0]], [10.0], [0.0], [1.0, 1.0], "lb"),
        ([-1.0, -1.0], [[1.0, 1.0]], [10.0, 5.0], [0.0, 0.0], [1.0, 1.0], "b_ub"),
        ([-1.0, -1.0], [[1.0, 1.0, 1.0]], [10.0], [0.0, 0.0], [1.0, 1.0], "a_ub"),
        ([-1.0, -1.0], [1.0, 1.0], [10.0], [0.0, 0.0], [1.0, 1.0], "a_ub"),
        ([[-1.0, -1.0]], [[1.0, 1.0]], [10.0], [0.0, 0.0], [1.0, 1.0], "c"),
    ], ids=["short-ub", "scalar-ub", "short-lb", "long-b_ub", "wide-a_ub", "flat-a_ub",
            "2d-c"])
    def test_misshaped_argument_rejected(self, c, a_ub, b_ub, lb, ub, name):
        with pytest.raises(ValueError, match=f"solve_box_lp: {name} must"):
            solve_box_lp(c, a_ub, b_ub, lb, ub)

    def test_iteration_limit_carries_pivot_count(self):
        # A budget of 3 completes phase 1, so phase 2 is where it runs out.
        assert solve_box_lp(*floor_lp()).iterations == 6
        for max_iter, message in ((2, PHASE_ONE_LIMIT), (3, PHASE_TWO_LIMIT),
                                  (4, PHASE_TWO_LIMIT), (5, PHASE_TWO_LIMIT)):
            with pytest.raises(SimplexIterationLimitError) as err:
                solve_box_lp(*floor_lp(), max_iter=max_iter)
            assert str(err.value) == message
            assert err.value.iterations == max_iter

    def test_budget_of_exactly_the_pivots_needed_suffices(self):
        # The budget bounds the pivots made, not the pivots plus one.
        for max_iter in range(1, 8):
            if max_iter < 6:
                with pytest.raises(SimplexIterationLimitError):
                    solve_box_lp(*floor_lp(), max_iter=max_iter)
                continue
            sol = solve_box_lp(*floor_lp(), max_iter=max_iter)
            assert (sol.status, sol.iterations) == ("optimal", 6)
            np.testing.assert_array_equal(sol.x, np.full(3, 3.0))

    def test_pivot_rejects_row_major_tableau(self):
        # reshape would copy a C-order tableau and the update would be lost.
        tableau = np.array([[2.0, 1.0, 4.0], [1.0, 3.0, 1.0], [0.0, -1.0, 0.0]])
        with pytest.raises(ValueError, match="Fortran-contiguous"):
            simplex._pivot(tableau, np.array([1, 2]), 0, 1, np.arange(3))

    def test_phase_one_shift(self):
        # min x subject to -x <= -2 within [0, 10]: feasibility needs x >= 2.
        sol = solve_box_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]),
                           np.array([0.0]), np.array([10.0]))
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_shifted_lower_bounds(self, rng):
        # Nonzero lower bounds exercise the internal change of variables.
        c = np.array([1.0, 1.0])
        lb = np.array([-5.0, 3.0])
        ub = np.array([-1.0, 7.0])
        sol = solve_box_lp(c, np.zeros((0, 2)), np.zeros(0), lb, ub)
        np.testing.assert_allclose(sol.x, [-5.0, 3.0], atol=1e-9)


class TestWarmStart:
    """solve_box_lp(..., warm=) from an earlier optimal solution's state."""

    def test_identical_lp_takes_no_pivot(self, rng):
        for lp in [sparse_epigraph_lp(rng), floor_lp(), builtin_subproblem_lp("dubins-car", 1.0)]:
            cold = solve_box_lp(*lp)
            assert cold.iterations > 0
            again = solve_box_lp(*lp, warm=cold.warm)
            assert again.iterations == 0 and again.status == "optimal"
            np.testing.assert_allclose(again.x, cold.x, rtol=0.0, atol=1e-9)
            assert again.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)

    def test_new_rhs_and_box_match_a_cold_solve(self, rng):
        for _ in range(20):
            c, a_ub, b_ub, lb, ub = sparse_epigraph_lp(rng, n=20, n_eq=12, n_ineq=12)
            first = solve_box_lp(c, a_ub, b_ub, lb, ub)
            b_ub = b_ub + rng.normal(scale=0.5, size=b_ub.size)
            radius = rng.uniform(0.1, 2.0)
            lb[:20], ub[:20] = -radius, radius
            warm = solve_box_lp(c, a_ub, b_ub, lb, ub, warm=first.warm)
            cold = solve_box_lp(c, a_ub, b_ub, lb, ub)
            assert warm.status == cold.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert warm.iterations < cold.iterations

    def test_state_serves_one_solve(self):
        first = solve_box_lp(*floor_lp())
        second = solve_box_lp(*floor_lp(), warm=first.warm)
        with pytest.raises(ValueError, match="already used"):
            solve_box_lp(*floor_lp(), warm=first.warm)
        assert solve_box_lp(*floor_lp(), warm=second.warm).iterations == 0

    def test_released_state_serves_no_solve(self):
        state = solve_box_lp(*floor_lp()).warm
        state.release()
        assert state.tableau is None
        with pytest.raises(ValueError, match="released"):
            state.unique()
        with pytest.raises(ValueError, match="released"):
            solve_box_lp(*floor_lp(), warm=state)

    @pytest.mark.parametrize("change", ["fewer-rows", "more-variables", "ub-pattern"])
    def test_state_of_another_lp_shape_rejected(self, change):
        c, a_ub, b_ub, lb, ub = floor_lp()
        state = solve_box_lp(c, a_ub, b_ub, lb, ub).warm
        if change == "fewer-rows":
            a_ub, b_ub = a_ub[:2], b_ub[:2]
        elif change == "more-variables":
            c, lb, ub = np.append(c, 1.0), np.append(lb, 0.0), np.append(ub, 1.0)
            a_ub = np.hstack([a_ub, np.zeros((3, 1))])
        else:
            ub = np.array([3.0, np.inf, 3.0])
        with pytest.raises(ValueError, match="another shape"):
            solve_box_lp(c, a_ub, b_ub, lb, ub, warm=state)

    def test_failures_raise_as_a_cold_solve_does(self):
        # min x0 + 2 x1 subject to x0 + x1 >= b in [0, 3]^2: at b = 2 the
        # optimum x = (2, 0) has x0 basic, and b = 5 pushes x0 past its
        # bound, which one dual pivot repairs: x = (3, 2).
        def lp(b):
            return (np.array([1.0, 2.0]), np.array([[-1.0, -1.0]]), np.array([-b]),
                    np.zeros(2), np.full(2, 3.0))

        sol = solve_box_lp(*lp(5.0), warm=solve_box_lp(*lp(2.0)).warm)
        assert (sol.status, sol.iterations) == ("optimal", 1)
        np.testing.assert_allclose(sol.x, [3.0, 2.0], rtol=0.0, atol=1e-12)
        with pytest.raises(SimplexIterationLimitError) as err:
            solve_box_lp(*lp(5.0), max_iter=0, warm=solve_box_lp(*lp(2.0)).warm)
        assert (str(err.value), err.value.iterations) == (PHASE_ONE_LIMIT, 0)
        with pytest.raises(InfeasibleError):
            solve_box_lp(*lp(7.0), warm=solve_box_lp(*lp(2.0)).warm)

    def test_only_optimal_solutions_keep_a_state(self):
        sol = solve_box_lp(np.array([-1.0]), np.zeros((0, 1)), np.zeros(0),
                           np.array([0.0]), np.array([np.inf]))
        assert sol.status == "unbounded" and sol.warm is None


class TestFailurePivotCounts:
    """Every failure is a SimplexError whose iterations counts the pivots made."""

    @staticmethod
    def corner_lp(b):
        """min x0 + x1 subject to -x0 - x1 <= b0, x0 <= b1, x1 <= b2 in [0, 3]^2."""
        return (np.ones(2), np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
                np.asarray(b, dtype=float), np.zeros(2), np.full(2, 3.0))

    def test_cold_infeasible_counts_its_phase_one_pivots(self):
        # x0 + x1 >= 4 cannot hold with x0, x1 <= 1; phase 1 pivots twice first.
        with pytest.raises(InfeasibleError) as err:
            solve_box_lp(*self.corner_lp([-4.0, 1.0, 1.0]))
        assert err.value.iterations == 2

    def test_warm_infeasible_counts_its_dual_pivots(self):
        first = solve_box_lp(*self.corner_lp([-1.0, 1.0, 1.0]))
        with pytest.raises(InfeasibleError) as err:
            solve_box_lp(*self.corner_lp([-4.0, 1.0, 1.0]), warm=first.warm)
        assert err.value.iterations == 1

    def test_empty_box_makes_no_pivot(self):
        with pytest.raises(InfeasibleError) as err:
            solve_box_lp(np.ones(2), np.zeros((0, 2)), np.zeros(0), np.zeros(2),
                         np.array([1.0, -1.0]))
        assert err.value.iterations == 0

    def test_drive_out_limit_is_a_phase_one_limit(self):
        # Phase 1 ends after one pivot with an artificial still basic, and
        # the pivot that would drive it out is beyond the budget.
        with pytest.raises(SimplexIterationLimitError) as err:
            solve_box_lp(*equality_pair_lp(), max_iter=1)
        assert (str(err.value), err.value.iterations) == (PHASE_ONE_LIMIT, 1)

    def test_iterations_are_the_pivots_made(self, monkeypatch):
        def dual_lp(b):
            return (np.array([1.0, 2.0]), np.array([[-1.0, -1.0]]), np.array([-b]),
                    np.zeros(2), np.full(2, 3.0))

        # Cold and warm infeasible, the dual simplex's limit, the limit in
        # phase 1 (budgets 0-2) and in phase 2 (3-5), and the limit in driving
        # an artificial out (1) and in phase 2 after it (2).
        cases = [
            (self.corner_lp([-4.0, 1.0, 1.0]), {}),
            (self.corner_lp([-4.0, 1.0, 1.0]),
             {"warm": solve_box_lp(*self.corner_lp([-1.0, 1.0, 1.0])).warm}),
            (dual_lp(5.0), {"max_iter": 0, "warm": solve_box_lp(*dual_lp(2.0)).warm}),
        ] + [(floor_lp(), {"max_iter": max_iter}) for max_iter in range(6)] + [
            (equality_pair_lp(), {"max_iter": max_iter}) for max_iter in (1, 2)]
        pivots = []
        pivot = simplex._pivot
        monkeypatch.setattr(simplex, "_pivot", lambda *args: (pivots.append(1), pivot(*args)))
        for lp, kwargs in cases:
            pivots.clear()
            with pytest.raises(simplex.SimplexError) as err:
                solve_box_lp(*lp, **kwargs)
            assert err.value.iterations == len(pivots)


class TestUniqueOptimum:
    """WarmStart.unique: strict complementarity at the final basis."""

    @staticmethod
    def cover_lp(c):
        """min c @ x subject to x0 + x1 >= 1 in [0, 2]^2."""
        return (np.asarray(c, dtype=float), np.array([[-1.0, -1.0]]), np.array([-1.0]),
                np.zeros(2), np.full(2, 2.0))

    @pytest.mark.parametrize("c, objective", [([1.0, 1.0], 1.0), ([0.0, 1.0], 0.0)],
                             ids=["tied-costs", "cost-free"])
    def test_non_unique_optimum_is_not_certified(self, c, objective):
        # Tied costs leave the whole segment x0 + x1 = 1 optimal; a cost-free
        # x0 may sit anywhere in [1, 2] at x1 = 0.
        sol = solve_box_lp(*self.cover_lp(c))
        assert sol.status == "optimal" and sol.objective == pytest.approx(objective, abs=1e-12)
        assert not sol.warm.unique()

    def test_strictly_complementary_optimum_is_certified(self):
        sol = solve_box_lp(*self.cover_lp([1.0, 2.0]))
        np.testing.assert_allclose(sol.x, [1.0, 0.0], rtol=0.0, atol=1e-12)
        assert sol.warm.unique()

    def test_restart_reports_its_own_certificate(self):
        # A restart reads the certificate off its own final tableau.
        first = solve_box_lp(*self.cover_lp([1.0, 2.0]))
        assert first.warm.unique()
        again = solve_box_lp(*self.cover_lp([1.0, 2.0]), warm=first.warm)
        assert again.warm.unique() and again.iterations == 0
        tied = solve_box_lp(*self.cover_lp([1.0, 1.0]))
        assert not solve_box_lp(*self.cover_lp([1.0, 1.0]), warm=tied.warm).warm.unique()

    def test_certified_answers_match_highs(self, rng):
        certified = 0
        for _ in range(60):
            lp = random_bounded_lp(rng)
            sol = solve_box_lp(*lp)
            if not sol.warm.unique():
                continue
            certified += 1
            ref = oracles.scipy_box_lp(*lp, tol=1e-10)
            np.testing.assert_allclose(sol.x, ref.x, rtol=0.0,
                                       atol=1e-9 * (1.0 + np.abs(sol.x).max()))
        assert certified >= 50


class TestTableauAssembly:
    """The tableau written in place must equal the stacked assembly of
    oracles.stacked_tableau bit for bit, signs of zero included."""

    @staticmethod
    def assert_same_as_stacked(a_ub, b_ub, lb, ub):
        tableau, basis, art_rows, width = cold_tableau(a_ub, b_ub, lb, ub)
        ref, ref_basis, ref_art_rows, ref_width = oracles.stacked_tableau(a_ub, b_ub, lb, ub)
        assert tableau.flags.f_contiguous
        assert tableau.shape == ref.shape
        assert tableau.tobytes(order="F") == ref.tobytes(order="F")
        np.testing.assert_array_equal(basis, ref_basis)
        np.testing.assert_array_equal(art_rows, ref_art_rows)
        assert width == ref_width
        return art_rows

    def test_random_lps_with_flipped_rows(self, rng):
        flipped = finite = infinite = 0
        for _ in range(60):
            c, a_ub, b_ub, lb, ub = random_bounded_lp(rng, m=int(rng.integers(0, 9)))
            a_ub[rng.random(a_ub.shape) < 0.3] = 0.0
            b_ub = b_ub - np.abs(rng.normal(size=b_ub.size)) * 2.0
            if b_ub.size:
                # An all-zero row with a -0.0 rhs: its shifted rhs is a
                # zero of either sign, never flipped.
                a_ub[0] = 0.0
                b_ub[0] = -0.0
            ub = np.where(rng.random(ub.size) < 0.4, np.inf, ub)
            art_rows = self.assert_same_as_stacked(a_ub, b_ub, lb, ub)
            flipped += art_rows.size
            finite += int(np.isfinite(ub).sum())
            infinite += int(np.isinf(ub).sum())
        assert flipped and finite and infinite

    def test_negative_zero_rhs_is_not_flipped(self):
        a_ub = np.array([[0.0, 1.0], [2.0, -1.0]])
        b_ub = np.array([-0.0, -3.0])
        lb = np.zeros(2)
        ub = np.array([1.0, np.inf])
        tableau, _, art_rows, _ = cold_tableau(a_ub, b_ub, lb, ub)
        np.testing.assert_array_equal(art_rows, [1])
        assert np.signbit(tableau[0, 0])
        self.assert_same_as_stacked(a_ub, b_ub, lb, ub)

    @pytest.mark.parametrize("radius", [1.0, np.inf])
    @pytest.mark.parametrize("name", ["double-integrator-obstacle", "dubins-car"])
    def test_builtin_subproblem_lps(self, name, radius):
        _, a_ub, b_ub, lb, ub = builtin_subproblem_lp(name, radius)
        self.assert_same_as_stacked(a_ub, b_ub, lb, ub)


def solve_outcome(*lp, **kwargs):
    """Everything a caller can observe of one solve, as comparable bytes."""
    try:
        sol = solve_box_lp(*lp, **kwargs)
    except SimplexIterationLimitError as exc:
        return ("iteration-limit", str(exc), exc.iterations)
    except InfeasibleError:
        return ("infeasible",)
    return (sol.status, sol.x.tobytes(), sol.objective.hex(), sol.iterations)


class TestPivotMatchesDenseUpdate:
    """The restricted pivot update must reproduce the dense rank-1 update:
    same pivots, same iteration counts, same bits in every result."""

    @staticmethod
    def assert_same_as_dense(monkeypatch, *lp, **kwargs):
        restricted = solve_outcome(*lp, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(simplex, "_pivot", oracles.dense_pivot)
            dense = solve_outcome(*lp, **kwargs)
        assert restricted == dense
        return restricted

    @pytest.mark.parametrize("stall_limit", [simplex.STALL_LIMIT, 1])
    def test_sparse_epigraph_lps(self, rng, monkeypatch, stall_limit):
        # stall_limit 1 hands every degenerate pivot over to Bland's rule.
        monkeypatch.setattr(simplex, "STALL_LIMIT", stall_limit)
        for _ in range(4):
            lp = sparse_epigraph_lp(rng)
            outcome = self.assert_same_as_dense(monkeypatch, *lp)
            assert outcome[0] == "optimal" and outcome[-1] > 50

    @pytest.mark.parametrize("stall_limit", [simplex.STALL_LIMIT, 1])
    def test_classic_cycling_instance(self, monkeypatch, stall_limit):
        monkeypatch.setattr(simplex, "STALL_LIMIT", stall_limit)
        assert self.assert_same_as_dense(monkeypatch, *cycling_lp())[0] == "optimal"

    @pytest.mark.parametrize("radius", [1.0, 1e-3, np.inf])
    @pytest.mark.parametrize("name", ["double-integrator-obstacle", "dubins-car"])
    def test_builtin_subproblem_lps(self, monkeypatch, name, radius):
        outcome = self.assert_same_as_dense(monkeypatch, *builtin_subproblem_lp(name, radius))
        assert outcome[0] == "optimal" and outcome[-1] > 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_klee_minty_takes_every_vertex(self, monkeypatch, n):
        outcome = self.assert_same_as_dense(monkeypatch, *klee_minty_lp(n))
        assert outcome[0] == "optimal" and outcome[-1] == 2 ** n - 1
        assert float.fromhex(outcome[2]) == -(5.0 ** n)

    def test_negative_rhs_instances(self, rng, monkeypatch):
        # Phase 1, then the pivot that drives a leftover artificial out.
        statuses = {self.assert_same_as_dense(monkeypatch, *equality_pair_lp())[0]}
        for _ in range(40):
            c, a_ub, b_ub, lb, ub = random_bounded_lp(rng, m=int(rng.integers(1, 7)))
            b_ub = b_ub - np.abs(rng.normal(size=b_ub.size)) * 2.0
            statuses.add(self.assert_same_as_dense(monkeypatch, c, a_ub, b_ub, lb, ub)[0])
        assert statuses == {"optimal", "infeasible"}

    def test_iteration_limit_in_either_phase(self, monkeypatch):
        for max_iter, message in ((2, PHASE_ONE_LIMIT), (5, PHASE_TWO_LIMIT)):
            outcome = self.assert_same_as_dense(monkeypatch, *floor_lp(), max_iter=max_iter)
            assert outcome == ("iteration-limit", message, max_iter)
        # No negative rhs, so all five pivots run in phase 2.
        rng = np.random.default_rng(1)
        n, m = 20, 15
        c = -rng.uniform(0.1, 1.0, size=n)
        a_ub = rng.uniform(0.0, 1.0, size=(m, n))
        b_ub = rng.uniform(1.0, 2.0, size=m)
        outcome = self.assert_same_as_dense(monkeypatch, c, a_ub, b_ub, np.zeros(n),
                                            np.full(n, 3.0), max_iter=5)
        assert outcome == ("iteration-limit", PHASE_TWO_LIMIT, 5)


def quarter_tableau(rng, m, n, density):
    """A Fortran-order tableau of quarter-integer entries, some of them -0.0,
    so that exact cancellations and the signs of zeros show in its bytes."""
    values = rng.integers(-8, 9, size=(m, n)) / 4.0
    values[rng.random((m, n)) >= density] = 0.0
    values[rng.random((m, n)) < 0.1] = -0.0
    return np.asfortranarray(values)


class TestBlockedPivot:
    """_pivot's blocks of whole columns, at most PIVOT_BLOCK_CELLS cells each,
    must leave the bytes of one rank-1 update of the nonzero rows x columns."""

    @staticmethod
    def assert_same_as_one_shot(monkeypatch, tableau, row, col, cells):
        monkeypatch.setattr(simplex, "PIVOT_BLOCK_CELLS", cells)
        rows = tableau[:, col].nonzero()[0]
        basis = np.arange(tableau.shape[0] - 1)
        expected, expected_basis = tableau.copy(order="F"), basis.copy()
        oracles.one_shot_pivot(expected, expected_basis, row, col, rows)
        simplex._pivot(tableau, basis, row, col, rows)
        assert tableau.tobytes() == expected.tobytes()
        assert basis.tobytes() == expected_basis.tobytes()

    @pytest.mark.parametrize("cells", [1, 5, 64, 10 ** 9])
    def test_random_sparse_tableaux(self, monkeypatch, cells):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, n = int(rng.integers(2, 30)), int(rng.integers(2, 60))
            tableau = quarter_tableau(rng, m, n, 0.3)
            tableau[0, :] = rng.integers(1, 9, size=n) / 4.0  # a pivot row for any column
            col = int(rng.integers(1, n))
            row = int(rng.choice(tableau[:-1, col].nonzero()[0]))
            self.assert_same_as_one_shot(monkeypatch, tableau, row, col, cells)

    @pytest.mark.parametrize("cells", [1, 5, 64, 10 ** 9])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_entering_column_in_another_block(self, monkeypatch, cells, position):
        # At cells < 10**9 the pivot row's 40 nonzero columns span several
        # blocks, and the entering one is the first of them or the last: the
        # column is read before any block, in particular its own, changes it.
        rng = np.random.default_rng(12)
        tableau = quarter_tableau(rng, 12, 41, 0.5)
        col = 1 if position == "first" else 40
        tableau[:, col] = rng.integers(1, 9, size=12) / 4.0
        tableau[4, 1:] = rng.integers(1, 9, size=40) / 4.0
        self.assert_same_as_one_shot(monkeypatch, tableau, 4, col, cells)

    @pytest.mark.parametrize("cells", [1, 5, 64, 10 ** 9])
    def test_pivot_row_with_one_nonzero(self, monkeypatch, cells):
        rng = np.random.default_rng(13)
        tableau = quarter_tableau(rng, 10, 20, 0.5)
        tableau[3, :] = 0.0
        tableau[3, 7] = -0.75
        self.assert_same_as_one_shot(monkeypatch, tableau, 3, 7, cells)

    def test_solves_match_across_block_sizes(self, rng, monkeypatch):
        lps = [sparse_epigraph_lp(rng) for _ in range(2)] + [cycling_lp(), floor_lp()]
        for lp in lps:
            monkeypatch.setattr(simplex, "PIVOT_BLOCK_CELLS", 16)
            blocked = solve_outcome(*lp)
            monkeypatch.setattr(simplex, "PIVOT_BLOCK_CELLS", 10 ** 9)
            assert blocked == solve_outcome(*lp)

    def test_scratch_memory_is_bounded(self):
        # Updated in one piece, the dense 400 x 800 pivot below needs three
        # scratch arrays of 320,000 cells each, about 7.7 MB; blocked, each
        # holds PIVOT_BLOCK_CELLS cells at most.
        rng = np.random.default_rng(14)
        tableau = np.asfortranarray(rng.normal(size=(400, 800)))
        basis = np.arange(399)
        rows = tableau[:, 7].nonzero()[0]
        tracemalloc.start()
        try:
            simplex._pivot(tableau, basis, 3, 7, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000


def unit_basis_tableau(rng, m, n):
    """A Fortran-order (m + 1) x n tableau of normal entries, about a tenth
    of them -0.0, and a random basis of m columns, each a unit column whose
    zeros are partly -0.0.  The entries are not exact, so the order of the
    subtractions shows in the bytes of a priced row."""
    tableau = rng.normal(size=(m + 1, n))
    tableau[rng.random((m + 1, n)) < 0.1] = -0.0
    basis = rng.choice(np.arange(1, n), size=m, replace=False)
    tableau[:, basis] = np.where(rng.random((m + 1, m)) < 0.3, -0.0, 0.0)
    tableau[np.arange(m), basis] = 1.0
    return np.asfortranarray(tableau), basis


class TestSharedSteps:
    """_price and _ratio_ties, which the primal, the dual and phase 1
    share, must give the bytes of the row-by-row loops and ratio tests
    they replace, kept in oracles."""

    def test_price_matches_the_row_by_row_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            m = int(rng.integers(1, 12))
            n = m + int(rng.integers(2, 20))
            tableau, basis = unit_basis_tableau(rng, m, n)
            cost = rng.normal(size=n)
            cost[rng.random(n) < 0.3] = 0.0
            cost[rng.random(n) < 0.1] = -0.0
            cost[0] = 0.0
            expected = tableau.copy(order="F")
            oracles.row_by_row_price(expected, basis, cost)
            simplex._price(tableau, basis, cost)
            assert tableau.tobytes() == expected.tobytes()

    def test_phase_one_price_matches_the_artificial_loop(self, rng):
        priced = 0
        for _ in range(20):
            c, a_ub, b_ub, lb, ub = random_bounded_lp(rng, m=int(rng.integers(1, 7)))
            b_ub = b_ub - np.abs(rng.normal(size=b_ub.size)) * 2.0
            tableau, basis, art_rows, width = cold_tableau(a_ub, b_ub, lb, ub)
            expected = tableau.copy(order="F")
            oracles.phase_one_price(expected, art_rows, width)
            cost = np.zeros(tableau.shape[1])
            cost[width:] = 1.0
            simplex._price(tableau, basis, cost)
            assert tableau.tobytes() == expected.tobytes()
            priced += art_rows.size > 1
        assert priced > 0

    def test_phase_two_price_of_solved_tableaux(self, rng):
        # _phase_one's tableaux after real pivots, priced from c.
        lps = [sparse_epigraph_lp(rng) for _ in range(2)] + [equality_pair_lp(), floor_lp()]
        for c, a_ub, b_ub, lb, ub in lps:
            tableau, basis, _, width = cold_tableau(a_ub, b_ub, lb, ub)
            budget = simplex.ITERATIONS_PER_VARIABLE * (tableau.shape[1] - 1)
            simplex._phase_one(tableau, basis, width, budget)
            cost = np.zeros(tableau.shape[1])
            cost[1:c.size + 1] = c
            expected = tableau.copy(order="F")
            oracles.row_by_row_price(expected, basis, cost)
            simplex._price(tableau, basis, cost)
            assert tableau.tobytes() == expected.tobytes()

    def test_primal_ratio_ties_match_the_parent_test(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            k = int(rng.integers(1, 12))
            # Quarter-integer divisors and half-integer ratios divide exactly,
            # so equal ratios tie exactly; some move inside the tie band and
            # some past it.
            column = rng.integers(1, 9, size=k) / 4.0
            values = column * (rng.integers(0, 3, size=k) / 2.0)
            values[rng.random(k) < 0.3] *= 1.0 + 5e-13
            values[rng.random(k) < 0.1] *= 1.0 + 1e-9
            values[(values == 0.0) & (rng.random(k) < 0.5)] = -0.0
            candidates = np.sort(rng.choice(40, size=k, replace=False))
            rhs = rng.random(40)
            rhs[candidates] = values
            basis = rng.permutation(60)[:40]
            ties, row = simplex._ratio_ties(rhs[candidates], column, candidates)
            expected_ties, expected_row = oracles.primal_ratio_row(rhs, column, candidates,
                                                                   basis, False)
            assert ties.tobytes() == expected_ties.tobytes()
            assert row == expected_row
            # Bland's rule, as _run applies it, to the same ties.
            _, bland_row = oracles.primal_ratio_row(rhs, column, candidates, basis, True)
            assert int(ties[basis[ties].argmin()]) == bland_row

    def test_dual_ratio_ties_match_the_parent_test(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            size = int(rng.integers(1, 30))
            body = rng.integers(-8, 9, size=size) / 4.0
            body[0] = -rng.integers(1, 9) / 4.0  # at least one eligible column
            body[body == 0.0] = -0.0
            reduced = -body * (rng.integers(0, 3, size=size) / 2.0)
            reduced[rng.random(size) < 0.3] *= 1.0 + 5e-13
            reduced[rng.random(size) < 0.1] *= 1.0 + 1e-9
            reduced[rng.random(size) < 0.1] = -1e-12  # counts as 0
            reduced[rng.random(size) < 0.1] = -0.0
            eligible = (body < 0.0).nonzero()[0]
            ties, col = simplex._ratio_ties(np.maximum(reduced[eligible], 0.0),
                                            -body[eligible], eligible)
            expected_ties, expected_col = oracles.dual_ratio_col(reduced, body, eligible)
            assert ties.tobytes() == expected_ties.tobytes()
            assert col + 1 == expected_col

    @staticmethod
    def entering_columns(monkeypatch, stall_limit):
        # min -3 y1 - y2 - 2 y3 s.t. y1 <= 0, y2 + y3 <= 1, y >= 0.
        entering = []
        pivot = simplex._pivot

        def recording(tableau, basis, row, col, rows):
            entering.append(col)
            pivot(tableau, basis, row, col, rows)

        monkeypatch.setattr(simplex, "STALL_LIMIT", stall_limit)
        monkeypatch.setattr(simplex, "_pivot", recording)
        sol = solve_box_lp(np.array([-3.0, -1.0, -2.0]),
                           np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), np.array([0.0, 1.0]),
                           np.zeros(3), np.full(3, np.inf))
        assert sol.status == "optimal" and sol.objective == -2.0
        assert sol.x.tolist() == [0.0, 0.0, 1.0]
        return entering

    def test_dantzig_enters_the_most_negative_column(self, monkeypatch):
        assert self.entering_columns(monkeypatch, simplex.STALL_LIMIT) == [1, 3]

    def test_blands_rule_enters_the_first_eligible_column(self, monkeypatch):
        # y1 enters on the rhs-0 row: a degenerate pivot, so at STALL_LIMIT 1
        # Bland's rule takes over.  It enters y2, the first eligible column,
        # where Dantzig's rule enters y3; then y3.  No column is then
        # eligible, and the solve ends optimal.
        assert self.entering_columns(monkeypatch, 1) == [1, 2, 3]
