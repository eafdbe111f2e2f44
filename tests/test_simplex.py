"""Tests for the dense two-phase simplex on box-constrained LPs.

The reference answers come from scipy's HiGHS and, for tiny instances,
from exhaustive vertex enumeration.
"""

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

    def test_infinite_lower_bound_rejected(self):
        with pytest.raises(ValueError):
            solve_box_lp(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                         np.array([-np.inf]), np.array([1.0]))

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


class TestTableauAssembly:
    """The tableau written in place must equal the stacked assembly of
    oracles.stacked_tableau bit for bit, signs of zero included."""

    @staticmethod
    def assert_same_as_stacked(a_ub, b_ub, lb, ub):
        tableau, basis, art_rows, width = simplex._tableau(a_ub, b_ub, lb, ub)
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
        tableau, _, art_rows, _ = simplex._tableau(a_ub, b_ub, lb, ub)
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
