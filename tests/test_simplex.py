"""Tests for the dense two-phase simplex on box-constrained LPs.

The reference answers come from scipy's HiGHS and, for tiny instances,
from exhaustive vertex enumeration.
"""

import numpy as np
import pytest

from scvxkit.simplex import (
    InfeasibleError,
    SimplexIterationLimitError,
    solve_box_lp,
)

import oracles


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
        # A textbook degenerate LP that cycles under naive pivoting; the
        # stall fallback to Bland's rule must still reach the optimum -1/20.
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        a_ub = np.array([
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        b_ub = np.array([0.0, 0.0, 1.0])
        lb = np.zeros(4)
        ub = np.full(4, np.inf)
        sol = solve_box_lp(c, a_ub, b_ub, lb, ub)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)

    def test_equality_like_pair(self):
        # x + y >= 2 and x + y <= 2 pin the sum; minimize x.
        c = np.array([1.0, 0.0])
        a_ub = np.array([[1.0, 1.0], [-1.0, -1.0]])
        b_ub = np.array([2.0, -2.0])
        lb = np.zeros(2)
        ub = np.array([5.0, 5.0])
        sol = solve_box_lp(c, a_ub, b_ub, lb, ub)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.x[0] + sol.x[1] == pytest.approx(2.0, abs=1e-9)


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

    def test_inconsistent_rows_raise(self):
        # x >= 3 cannot hold inside [0, 2].
        with pytest.raises(InfeasibleError):
            solve_box_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-3.0]),
                         np.array([0.0]), np.array([2.0]))

    def test_infinite_lower_bound_rejected(self):
        with pytest.raises(ValueError):
            solve_box_lp(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                         np.array([-np.inf]), np.array([1.0]))

    def test_iteration_limit_carries_best_point(self, rng):
        c, a_ub, b_ub, lb, ub = random_bounded_lp(rng, n=6, m=8)
        with pytest.raises(SimplexIterationLimitError) as err:
            solve_box_lp(c, a_ub, b_ub, lb, ub, max_iter=1)
        exc = err.value
        assert exc.iterations <= 1
        if exc.x_best is not None:
            assert np.isfinite(exc.objective_best)
            assert exc.x_best.size == 6

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
