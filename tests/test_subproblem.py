"""Tests for the trust-region LP subproblem: standard-form assembly,
optimality against independent solvers, unboundedness detection over the
small-step probe's quasi-infinite box, and the minimum-norm tie-break."""

import numpy as np
import pytest

from scvxkit import SubproblemError
from scvxkit import diagnostics
from scvxkit.composite import linearize
from scvxkit.diagnostics import QUASI_INFINITE_FACTOR, UNBOUNDED_FRACTION, check_small_step
import scvxkit.subproblem as subproblem_module
from scvxkit.simplex import solve_box_lp
from scvxkit.subproblem import (
    build_lp,
    lp_solve,
    solve_min_norm_step,
    solve_subproblem,
)

import oracles


def random_composite(rng, n=None):
    n = n or int(rng.integers(1, 5))
    n_cost = int(rng.integers(1, 4))
    n_eq = int(rng.integers(0, 4))
    n_ineq = int(rng.integers(0, 4))
    dim = n_cost + n_eq + n_ineq
    g0 = rng.normal(size=dim) * 2.0
    a_mat = rng.normal(size=(dim, n))
    weight = float(rng.choice([1.0, 2.0, 5.0, 10.0]))
    return oracles.affine_composite(g0, a_mat, n_cost, n_eq, weight), n_cost, n_eq


def probe_radius(z):
    """Half-width of the quasi-infinite box check_small_step solves over at z."""
    return QUASI_INFINITE_FACTOR * (1.0 + float(np.max(np.abs(z))))


def probe_failures(comp, z):
    """Failure lines of a small-step probe held close around z."""
    return check_small_step(comp, z, eta=1e-3, epsilon=0.1)["failures"]


class TestBuildLp:
    def test_sizes_and_bounds(self, rng):
        for _ in range(25):
            comp, n_cost, n_eq = random_composite(rng)
            n = comp.g.input_dim
            n_ineq = comp.psi.n_ineq
            lin = linearize(comp, rng.normal(size=n))
            radius = float(rng.uniform(0.1, 3.0))
            lp = build_lp(lin, radius)
            assert lp.n_variables == n + n_eq + n_ineq
            assert lp.n_rows == 2 * n_eq + n_ineq
            assert lp.n_step == n
            np.testing.assert_allclose(lp.lb[:n], -radius)
            np.testing.assert_allclose(lp.ub[:n], radius)
            assert np.all(lp.lb[n:] == 0.0)
            assert np.all(np.isinf(lp.ub[n:]))
            # Aux variable costs all carry the penalty weight.
            np.testing.assert_allclose(lp.c[n:], comp.psi.penalty_weight)

    def test_offset_is_cost_component_sum(self, rng):
        comp, n_cost, _ = random_composite(rng)
        n = comp.g.input_dim
        z = rng.normal(size=n)
        lin = linearize(comp, z)
        lp = build_lp(lin, 1.0)
        assert lp.objective_offset == pytest.approx(lin.g_value[:n_cost].sum(), abs=1e-12)

    def test_model_value_of_matches_linearization(self, rng):
        for _ in range(20):
            comp, _, _ = random_composite(rng)
            n = comp.g.input_dim
            lin = linearize(comp, rng.normal(size=n))
            lp = build_lp(lin, 1.5)
            sol = lp_solve(lp)
            step = sol.x[:n]
            # At an optimal vertex the aux variables are tight, so the LP
            # objective equals the true model value at the recovered step.
            assert sol.objective == pytest.approx(lin.model_value(step), abs=1e-8)

    def test_bad_radius_rejected(self):
        comp, _, _ = random_composite(np.random.default_rng(0))
        lin = linearize(comp, np.zeros(comp.g.input_dim))
        # Only finite trust boxes reach the LP layer; the small-step probe
        # passes its quasi-infinite box as a finite radius.
        for radius in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                build_lp(lin, radius)


class TestOptimality:
    def test_matches_scipy_on_random_instances(self, rng):
        for _ in range(40):
            comp, n_cost, n_eq = random_composite(rng)
            n = comp.g.input_dim
            z = rng.normal(size=n)
            lin = linearize(comp, z)
            radius = float(rng.uniform(0.2, 2.5))
            sol = solve_subproblem(lin, radius)
            ref = oracles.scipy_model_min(lin.g_value, lin.g_jacobian,
                                          n_cost, n_eq, comp.psi.penalty_weight, radius)
            assert np.isfinite(sol.model_value)
            assert sol.model_value == pytest.approx(ref, abs=1e-7)
            assert np.max(np.abs(sol.step)) <= radius + 1e-9

    def test_matches_grid_on_lattice_instances(self, rng):
        for _ in range(20):
            comp, radius = oracles.lattice_model_instance(rng)
            n = comp.g.input_dim
            lin = linearize(comp, np.zeros(n))
            sol = solve_subproblem(lin, radius)
            grid_min, _ = oracles.model_min_on_grid(
                lin.g_value, lin.g_jacobian, comp.psi.n_cost, comp.psi.n_eq,
                comp.psi.penalty_weight, radius)
            assert sol.model_value == pytest.approx(grid_min, abs=1e-9)

    def test_predicted_decrease_never_negative(self, rng):
        for _ in range(30):
            comp, _, _ = random_composite(rng)
            n = comp.g.input_dim
            lin = linearize(comp, rng.normal(size=n))
            sol = solve_subproblem(lin, float(rng.uniform(0.1, 2.0)))
            assert sol.predicted_decrease >= -1e-9

    def test_stationary_point_of_sharp_abs(self):
        # J = 2|z| at its minimizer: the zero step is optimal at any radius.
        comp = oracles.abs_composite(2.0)
        lin = linearize(comp, np.zeros(1))
        sol = solve_subproblem(lin, 5.0)
        assert sol.predicted_decrease == pytest.approx(0.0, abs=1e-10)
        assert sol.model_value == pytest.approx(0.0, abs=1e-10)

    def test_linear_cost_hits_box_corner(self):
        comp = oracles.linear_composite([3.0, -4.0])
        lin = linearize(comp, np.array([0.5, -0.5]))
        sol = solve_subproblem(lin, 1.0)
        np.testing.assert_allclose(sol.step, [-1.0, 1.0], atol=1e-9)
        # One unit of trust region buys the 1-norm of the gradient.
        assert sol.predicted_decrease == pytest.approx(7.0, abs=1e-9)


class TestUnboundedDetection:
    def test_linear_model_flagged_unbounded(self):
        comp = oracles.linear_composite([1.0])
        radius = probe_radius(np.zeros(1))
        sol = solve_subproblem(linearize(comp, np.zeros(1)), radius)
        # The optimizer was pushed at least half way into the huge box ...
        assert sol.predicted_decrease >= UNBOUNDED_FRACTION * radius
        # ... which the small-step probe reports as a model unbounded below.
        failures = probe_failures(comp, np.zeros(1))
        assert failures and all(f.endswith("model unbounded below") for f in failures)

    def test_sharp_model_stays_optimal(self):
        comp = oracles.abs_composite(2.0)
        lin = linearize(comp, np.zeros(1))
        sol = solve_subproblem(lin, probe_radius(np.zeros(1)))
        assert np.max(np.abs(sol.step)) < 1e-6
        assert probe_failures(comp, np.zeros(1)) == []

    def test_quasi_infinite_radius_scales_with_base_point(self, monkeypatch):
        # The probe passes each point's quasi-infinite half-width as the radius.
        radii = []

        def recording_min_norm_step(lin, radius):
            radii.append(radius)
            return solve_min_norm_step(lin, radius)

        monkeypatch.setattr(diagnostics, "solve_min_norm_step", recording_min_norm_step)
        comp = oracles.abs_composite(2.0)
        for z in (np.zeros(1), np.array([50.0])):
            probe_failures(comp, z)
        near, far = radii[0], radii[-1]
        assert far > near
        assert near >= 1e6
        assert build_lp(linearize(comp, np.zeros(1)), near).half_width == near


class TestMinNormStep:
    def test_flat_model_returns_zero_step(self, rng):
        # Constant map: every step is optimal, only the zero step is minimal.
        comp = oracles.affine_composite([1.0], np.zeros((1, 3)), 1, 0, 1.0)
        lin = linearize(comp, rng.normal(size=3))
        sol = solve_min_norm_step(lin, 2.0)
        assert np.isfinite(sol.model_value)
        assert np.max(np.abs(sol.step)) < 1e-7

    def test_degenerate_direction_squeezed(self):
        # Model |d0| ignores d1 entirely; min-norm must not wander in d1.
        a_mat = np.array([[1.0, 0.0]])
        comp = oracles.affine_composite([0.0], a_mat, 0, 1, 3.0)
        lin = linearize(comp, np.zeros(2))
        sol = solve_min_norm_step(lin, 1.0)
        assert np.max(np.abs(sol.step)) < 1e-7

    def test_value_stays_near_optimum(self, rng):
        for _ in range(15):
            comp, n_cost, n_eq = random_composite(rng)
            n = comp.g.input_dim
            lin = linearize(comp, rng.normal(size=n))
            plain = solve_subproblem(lin, 1.0)
            mn = solve_min_norm_step(lin, 1.0)
            assert np.isfinite(mn.model_value)
            tol = 1e-6 * (1.0 + abs(plain.model_value))
            assert mn.model_value <= plain.model_value + tol
            assert np.max(np.abs(mn.step)) <= np.max(np.abs(plain.step)) + 1e-7

    def test_descending_model_reported_unbounded(self):
        comp = oracles.linear_composite([1.0])
        radius = probe_radius(np.zeros(1))
        sol = solve_min_norm_step(linearize(comp, np.zeros(1)), radius)
        assert np.max(np.abs(sol.step)) >= UNBOUNDED_FRACTION * radius
        assert "probe 0: model unbounded below" in probe_failures(comp, np.zeros(1))


class TestFailurePropagation:
    def test_iteration_limit_becomes_subproblem_error(self, rng, monkeypatch):
        monkeypatch.setattr(subproblem_module, "solve_box_lp",
                            lambda *args: solve_box_lp(*args, max_iter=1))
        # Equality rows with nonzero values give negative right-hand sides,
        # so the LP starts in phase 1; cost rows alone start in phase 2.
        # Negative cost gradients send every step entry to its upper bound,
        # one pivot each, so the budget of one pivot runs out in either case.
        for n_eq, message in ((2, "pivot budget exhausted before a feasible point was found"),
                              (0, "pivot budget exhausted in phase 2")):
            a_mat = rng.normal(size=(2 + n_eq, 4))
            a_mat[:2] = -np.abs(a_mat[:2])
            comp = oracles.affine_composite(rng.uniform(1.0, 2.0, size=2 + n_eq), a_mat, 2,
                                            n_eq, 10.0)
            lp = build_lp(linearize(comp, np.zeros(4)), 1.0)
            with pytest.raises(SubproblemError) as err:
                lp_solve(lp)
            # A failed run writes this message into summary.json word for word.
            assert str(err.value) == message
            assert err.value.__cause__.iterations == 1
