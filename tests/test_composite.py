"""Tests for the composite objective layer: validation, evaluation,
linearization, and the finite-difference Jacobian check."""

import numpy as np
import pytest

from scvxkit import CompositeObjective, ConvexOuter, SmoothMap
from scvxkit.composite import (
    DimensionMismatchError,
    NonFiniteError,
    as_decision_vector,
    fd_check_jacobian,
    linearize,
)

import oracles


def make_toy():
    """J(z) = z^2 + 10 |z - 1| built directly, matching the packaged toy."""
    smooth = SmoothMap(
        input_dim=1, output_dim=2,
        evaluate=lambda z: np.stack([z[..., 0] ** 2, z[..., 0] - 1.0], axis=-1),
        jacobian=lambda z: np.array([[2.0 * z[0]], [1.0]]),
    )
    outer = ConvexOuter(range(0, 1), range(1, 2), range(2, 2), 10.0)
    return CompositeObjective(g=smooth, psi=outer)


class TestDecisionVector:
    def test_accepts_lists(self):
        z = as_decision_vector([1.0, 2.0], 2)
        assert isinstance(z, np.ndarray)
        assert z.dtype == np.float64

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            as_decision_vector([1.0, 2.0], 3)

    def test_wrong_rank(self):
        with pytest.raises(DimensionMismatchError):
            as_decision_vector(np.zeros((2, 2)), 4)

    def test_non_finite_reports_index(self):
        with pytest.raises(NonFiniteError) as err:
            as_decision_vector([0.0, np.nan, 1.0], 3)
        assert "1" in str(err.value)

    def test_scalar_promoted(self):
        z = as_decision_vector(3.0, 1)
        assert z.shape == (1,)


class TestSmoothMap:
    def test_value_shape_checked(self):
        bad = SmoothMap(input_dim=1, output_dim=2,
                        evaluate=lambda z: np.array([1.0]),
                        jacobian=lambda z: np.zeros((2, 1)))
        with pytest.raises(DimensionMismatchError):
            bad.value(np.array([0.0]))

    def test_value_finiteness_checked(self):
        bad = SmoothMap(input_dim=1, output_dim=1,
                        evaluate=lambda z: np.array([np.inf]),
                        jacobian=lambda z: np.zeros((1, 1)))
        with pytest.raises(NonFiniteError):
            bad.value(np.array([0.0]))

    def test_jacobian_shape_checked(self):
        bad = SmoothMap(input_dim=2, output_dim=1,
                        evaluate=lambda z: np.array([0.0]),
                        jacobian=lambda z: np.zeros((1, 1)))
        with pytest.raises(DimensionMismatchError):
            bad.jac(np.zeros(2))

    def test_jacobian_nan_reports_row(self):
        bad = SmoothMap(input_dim=1, output_dim=2,
                        evaluate=lambda z: np.zeros(2),
                        jacobian=lambda z: np.array([[0.0], [np.nan]]))
        with pytest.raises(NonFiniteError) as err:
            bad.jac(np.zeros(1))
        assert "1" in str(err.value)


class TestConvexOuter:
    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            ConvexOuter(range(0, 1), range(2, 3), range(3, 3), 1.0)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            ConvexOuter(range(0, 2), range(1, 3), range(3, 3), 1.0)

    def test_rejects_strided_range(self):
        with pytest.raises(ValueError):
            ConvexOuter(range(0, 4, 2), range(4, 4), range(4, 4), 1.0)

    def test_rejects_bad_weight(self):
        for weight in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                ConvexOuter(range(0, 1), range(1, 1), range(1, 1), weight)

    def test_apply_known_value(self):
        outer = ConvexOuter(range(0, 2), range(2, 4), range(4, 6), 3.0)
        v = np.array([1.0, 2.0, -0.5, 0.25, -1.0, 2.0])
        # cost 3, eq penalty 3*(0.5+0.25), ineq penalty 3*max(0,-1)+3*2
        assert outer.apply(v) == pytest.approx(3.0 + 3.0 * 0.75 + 3.0 * 2.0)

    def test_apply_matches_oracle(self, rng):
        for _ in range(50):
            n_cost = int(rng.integers(0, 3))
            n_eq = int(rng.integers(0, 3))
            n_ineq = int(rng.integers(0, 3))
            dim = n_cost + n_eq + n_ineq
            if dim == 0:
                continue
            weight = float(rng.uniform(0.5, 20.0))
            outer = ConvexOuter(range(0, n_cost), range(n_cost, n_cost + n_eq),
                                range(n_cost + n_eq, dim), weight)
            v = rng.normal(size=dim) * 3.0
            expected = oracles.outer_value(v, n_cost, n_eq, weight)
            assert outer.apply(v) == pytest.approx(expected, abs=1e-12)

    def test_apply_matches_one_dimensional_sums_bitwise(self, rng):
        # apply goes through apply_many; traces stay byte-identical only if
        # that equals summing each 1-D block, pairwise blocks included.
        for _ in range(200):
            n_cost, n_eq, n_ineq = (int(k) for k in rng.integers(0, 300, size=3))
            dim = n_cost + n_eq + n_ineq
            if dim == 0:
                continue
            weight = float(rng.uniform(0.5, 20.0))
            outer = ConvexOuter(range(0, n_cost), range(n_cost, n_cost + n_eq),
                                range(n_cost + n_eq, dim), weight)
            v = rng.normal(size=dim) * 10.0 ** rng.uniform(-6, 6)
            cost = float(np.sum(v[:n_cost]))
            eq = float(np.sum(np.abs(v[n_cost:n_cost + n_eq])))
            ineq = float(np.sum(np.maximum(v[n_cost + n_eq:], 0.0)))
            value = outer.apply(v)
            assert type(value) is float
            assert value.hex() == (cost + weight * (eq + ineq)).hex()

    def test_apply_many_matches_rowwise(self, rng):
        outer = ConvexOuter(range(0, 2), range(2, 3), range(3, 5), 7.0)
        rows = rng.normal(size=(40, 5))
        batch = outer.apply_many(rows)
        single = np.array([outer.apply(r) for r in rows])
        np.testing.assert_array_equal(batch, single)

    def test_convexity_sampled(self, rng):
        outer = ConvexOuter(range(0, 1), range(1, 3), range(3, 4), 4.0)
        for _ in range(100):
            a = rng.normal(size=4) * 2.0
            b = rng.normal(size=4) * 2.0
            theta = float(rng.uniform())
            mixed = outer.apply(theta * a + (1.0 - theta) * b)
            assert mixed <= theta * outer.apply(a) + (1.0 - theta) * outer.apply(b) + 1e-10

    def test_lipschitz_bound(self, rng):
        # psi is Lipschitz with constant max(1, weight) in the 1-norm.
        for weight, expected in ((0.5, 1.0), (1.0, 1.0), (8.0, 8.0)):
            outer = ConvexOuter(range(0, 1), range(1, 2), range(2, 3), weight)
            for _ in range(50):
                a = rng.normal(size=3) * 3.0
                b = rng.normal(size=3) * 3.0
                gap = abs(outer.apply(a) - outer.apply(b))
                assert gap <= expected * np.abs(a - b).sum() + 1e-10


class TestCompositeObjective:
    def test_rejects_dimension_mismatch(self):
        smooth = SmoothMap(input_dim=1, output_dim=3,
                           evaluate=lambda z: np.zeros(3),
                           jacobian=lambda z: np.zeros((3, 1)))
        outer = ConvexOuter(range(0, 1), range(1, 2), range(2, 2), 1.0)
        with pytest.raises(DimensionMismatchError):
            CompositeObjective(g=smooth, psi=outer)

    def test_value_on_toy(self):
        comp = make_toy()
        assert comp.value(np.array([3.0])) == pytest.approx(9.0 + 20.0)
        assert comp.value(np.array([1.0])) == pytest.approx(1.0)

    def test_violation_queries(self):
        comp = make_toy()
        z = np.array([2.5])
        assert comp.max_equality_violation(z) == pytest.approx(1.5)
        assert comp.max_inequality_violation(z) == 0.0


class TestLinearization:
    def test_model_at_zero_equals_objective_bitwise(self, rng):
        comp = make_toy()
        for _ in range(20):
            z = rng.normal(size=1) * 4.0
            lin = linearize(comp, z)
            # Exact equality: both go through the identical outer apply path.
            assert lin.model_value(np.zeros(1)) == comp.value(z)
            assert lin.base_value == comp.value(z)

    def test_affine_model_is_exact(self, rng):
        for _ in range(20):
            comp, _ = oracles.lattice_model_instance(rng)
            n = comp.g.input_dim
            z = rng.normal(size=n)
            lin = linearize(comp, z)
            for _ in range(5):
                d = rng.normal(size=n)
                assert lin.model_value(d) == pytest.approx(comp.value(z + d), abs=1e-10)

    def test_model_value_many_matches_loop(self, rng):
        comp = make_toy()
        lin = linearize(comp, np.array([2.0]))
        steps = rng.normal(size=(30, 1))
        batch = lin.model_value_many(steps)
        single = np.array([lin.model_value(d) for d in steps])
        np.testing.assert_array_equal(batch, single)

    def test_model_never_below_tangent(self, rng):
        # The outer function is convex, so the model majorizes every tangent
        # plane; sanity-check the first-order behaviour near d = 0.
        comp = make_toy()
        lin = linearize(comp, np.array([0.3]))
        lipschitz = max(1.0, comp.psi.penalty_weight)
        for _ in range(20):
            d = rng.normal(size=1) * 1e-6
            assert lin.model_value(d) >= lin.base_value - 1.01 * lipschitz * np.abs(
                lin.g_jacobian @ d).sum() - 1e-15


class TestJacobianCheck:
    def test_correct_jacobian_passes(self):
        comp = make_toy()
        err = fd_check_jacobian(comp.g, np.array([1.7]))
        assert err < 1e-7

    def test_corrupted_jacobian_fails(self):
        smooth = SmoothMap(
            input_dim=1, output_dim=2,
            evaluate=lambda z: np.stack([z[..., 0] ** 2, z[..., 0] - 1.0], axis=-1),
            jacobian=lambda z: np.array([[2.0 * z[0] + 0.05], [1.0]]),
        )
        err = fd_check_jacobian(smooth, np.array([1.7]))
        assert err > 1e-3

    def test_matches_independent_differences(self, rng):
        comp = make_toy()
        z = rng.normal(size=1) * 2.0
        analytic = comp.g.jac(z)
        numeric = oracles.fd_jacobian(lambda v: comp.g.value(v), z)
        assert np.max(np.abs(analytic - numeric)) < 1e-6
