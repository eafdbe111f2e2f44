"""Tests for the trust-region LP subproblem: standard-form assembly,
optimality against independent solvers, unboundedness detection over the
small-step probe's quasi-infinite box, the minimum-norm tie-break, and the
choice between a restarted and a cold LP."""

import functools

import numpy as np
import pytest

from scvxkit import SubproblemError
from scvxkit import diagnostics
from scvxkit.composite import Linearization, linearize
from scvxkit.diagnostics import QUASI_INFINITE_FACTOR, UNBOUNDED_FRACTION, check_small_step
from scvxkit.loop import STATUS_CONVERGED, run_scvx
from scvxkit.problems import builtin
import scvxkit.subproblem as subproblem_module
from scvxkit.simplex import WarmStart, solve_box_lp
from scvxkit.subproblem import (
    MIN_NORM_VALUE_SLACK,
    LpStandardForm,
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


CONVERGING_NAMES = ("convex-lqr-box", "double-integrator-obstacle", "dubins-car",
                    "toy-sharp-1d", "toy-sharp-2d")


@functools.lru_cache(maxsize=None)
def final_point(name):
    """The final point of the built-in's default run, which converges, and its model."""
    bench = builtin(name)
    comp, _ = bench.build()
    result = run_scvx(comp, bench.default_start)
    assert result.status == STATUS_CONVERGED
    return result.final_z, linearize(comp, result.final_z)


def lp_arrays(lp):
    return (lp.c, lp.a_ub, lp.b_ub, lp.lb, lp.ub)


class TestExtend:
    @staticmethod
    def random_lp(rng):
        n, m = (int(k) for k in rng.integers(1, 5, size=2))
        a_ub = rng.normal(size=(m, n))
        a_ub[0, 0] = -0.0
        return LpStandardForm(c=rng.normal(size=n), a_ub=a_ub, b_ub=rng.normal(size=m),
                              lb=-rng.uniform(size=n), ub=rng.uniform(size=n),
                              objective_offset=float(rng.normal()))

    def test_old_lp_leads_and_new_parts_follow(self, rng):
        for _ in range(10):
            lp = self.random_lp(rng)
            m, n = lp.a_ub.shape
            p, k = (int(v) for v in rng.integers(0, 4, size=2))
            c, lb, ub = rng.normal(size=p), np.zeros(p), np.full(p, np.inf)
            rows, b = rng.normal(size=(k, n + p)), rng.normal(size=k)
            # Two blocks that tile the new rows.
            out = lp.extend(c, lb, ub, b, [(0, 0, rows[:, :n]), (0, n, rows[:, n:])])
            assert (out.n_variables, out.n_rows) == (n + p, m + k)
            # The old LP is the leading block, bit for bit.
            assert out.a_ub[:m, :n].tobytes() == lp.a_ub.tobytes()
            # The old rows get +0.0 on the new variables.
            assert out.a_ub[:m, n:].tobytes() == np.zeros((m, p)).tobytes()
            # The new rows, costs and bounds follow the old ones.
            assert out.a_ub[m:].tobytes() == rows.tobytes()
            for new, old, added in ((out.c, lp.c, c), (out.b_ub, lp.b_ub, b),
                                    (out.lb, lp.lb, lb), (out.ub, lp.ub, ub)):
                assert new.tobytes() == old.tobytes() + added.tobytes()
            assert out.objective_offset == lp.objective_offset

    def test_cells_outside_the_blocks_are_zero(self):
        lp = LpStandardForm(c=np.ones(2), a_ub=np.array([[1.0, 2.0]]), b_ub=np.ones(1),
                            lb=np.zeros(2), ub=np.ones(2), objective_offset=0.0)
        out = lp.extend([1.0], [0.0], [1.0], [3.0, 4.0], [(1, 1, np.array([[5.0, -1.0]]))])
        np.testing.assert_array_equal(out.a_ub, [[1.0, 2.0, 0.0], [0.0, 0.0, 0.0],
                                                 [0.0, 5.0, -1.0]])
        np.testing.assert_array_equal(out.b_ub, [1.0, 3.0, 4.0])

    def test_input_lp_left_unchanged(self, rng):
        lp = self.random_lp(rng)
        before = [a.tobytes() for a in lp_arrays(lp)]
        n = lp.n_variables
        out = lp.extend([1.0], [0.0], [2.0], np.ones(2), [(0, 0, np.ones((2, n + 1)))])
        for a in lp_arrays(out):
            a[...] = 7.0
        assert [a.tobytes() for a in lp_arrays(lp)] == before

    def test_min_norm_lp_leads_with_build_lp(self, rng, monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return solve_box_lp(*args, **kwargs)

        monkeypatch.setattr(subproblem_module, "solve_box_lp", recording)
        for _ in range(10):
            comp, _, _ = random_composite(rng)
            lin = linearize(comp, rng.normal(size=comp.g.input_dim))
            calls.clear()
            solve_min_norm_step(lin, 1.5)
            lp = build_lp(lin, 1.5)
            trust, min_norm = calls
            assert [a.tobytes() for a in trust] == [a.tobytes() for a in lp_arrays(lp)]
            c, a_ub, b_ub, lb, ub = min_norm
            m, n_vars = lp.a_ub.shape
            assert a_ub[:m, :n_vars].tobytes() == lp.a_ub.tobytes()
            for new, old in ((b_ub, lp.b_ub), (lb, lp.lb), (ub, lp.ub)):
                assert new[:old.size].tobytes() == old.tobytes()
            # The trust LP's costs move into the value row; w alone is minimized.
            assert a_ub[m, :n_vars].tobytes() == lp.c.tobytes()
            assert c.tolist() == [0.0] * n_vars + [1.0]
            assert (lb[-1], ub[-1], a_ub.shape) == (0.0, 1.5, (m + 1 + 2 * lin.n_z, n_vars + 1))


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
                lin.g_value, lin.g_jacobian, len(comp.psi.cost_range), comp.psi.n_eq,
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
        assert build_lp(linearize(comp, np.zeros(1)), near).ub[0] == near


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

    @pytest.mark.parametrize("name, box", [
        *[(name, "unit") for name in CONVERGING_NAMES],
        ("convex-lqr-box", "quasi-infinite"),
        *[pytest.param(name, "quasi-infinite", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "known defect, ROADMAP item 5(a): the simplex's feasibility tolerance "
                "scales with the largest |rhs|, here the quasi-infinite step bounds, so the "
                "value row may be broken by many times the slack (double-integrator-obstacle "
                "3.9e3x, dubins-car 194x, the toys 5.6x); item 5(a) drops this marker")))
          for name in ("double-integrator-obstacle", "dubins-car", "toy-sharp-1d",
                       "toy-sharp-2d")],
    ])
    def test_step_meets_the_value_slack(self, name, box):
        # At unit radius the steps stay within 1.03x the slack.
        z, lin = final_point(name)
        radius = 1.0 if box == "unit" else probe_radius(z)
        v_star = solve_subproblem(lin, radius).model_value
        step = solve_min_norm_step(lin, radius).step
        assert lin.model_value(step) <= v_star + 2.0 * MIN_NORM_VALUE_SLACK * (1.0 + abs(v_star))

    def test_descending_model_reported_unbounded(self):
        comp = oracles.linear_composite([1.0])
        radius = probe_radius(np.zeros(1))
        sol = solve_min_norm_step(linearize(comp, np.zeros(1)), radius)
        assert np.max(np.abs(sol.step)) >= UNBOUNDED_FRACTION * radius
        assert "probe 0: model unbounded below" in probe_failures(comp, np.zeros(1))


class TestFailurePropagation:
    def test_iteration_limit_becomes_subproblem_error(self, rng, monkeypatch):
        monkeypatch.setattr(subproblem_module, "solve_box_lp",
                            lambda *args, **kwargs: solve_box_lp(*args, max_iter=1, **kwargs))
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


class TestRestart:
    """solve_subproblem given the last solution: a restart at its own
    linearization (after a rejected step) is kept only when certified
    unique; one at another linearization with the same Jacobian and psi is
    kept; at any other linearization a last LP certified unique leads to a
    dual start, kept only when certified unique too; any other state is
    released and the LP solved cold."""

    @staticmethod
    def resolve(monkeypatch, name, same_lin):
        """The re-solve at radius 0.5 from the radius-1 solution, a cold solve
        of the same LP, and (warm, certified unique) for each LP solve of the
        re-solve."""
        bench = builtin(name)
        lin = linearize(bench.build()[0], bench.default_start)
        last = solve_subproblem(lin, 1.0)
        if not same_lin:
            lin = Linearization(lin.g_value + 1e-3, lin.g_jacobian, lin.psi)
        calls = []

        def box_lp(*args, **kwargs):
            sol = solve_box_lp(*args, **kwargs)
            calls.append((kwargs.get("warm") is not None, sol.warm.unique()))
            return sol

        with monkeypatch.context() as patch:
            patch.setattr(subproblem_module, "solve_box_lp", box_lp)
            again = solve_subproblem(lin, 0.5, last)
        return again, solve_subproblem(lin, 0.5), calls

    def test_certified_restart_is_kept(self, monkeypatch):
        again, cold, calls = self.resolve(monkeypatch, "convex-lqr-box", same_lin=True)
        assert calls == [(True, True)]
        np.testing.assert_allclose(again.step, cold.step, rtol=0.0, atol=1e-9)
        assert again.model_value == pytest.approx(cold.model_value, rel=1e-12, abs=1e-12)

    def test_uncertified_restart_falls_back_cold(self, monkeypatch):
        # The first LP of the double integrator has a non-unique optimum.
        again, cold, calls = self.resolve(monkeypatch, "double-integrator-obstacle",
                                          same_lin=True)
        assert [warm for warm, _ in calls] == [True, False] and not calls[0][1]
        np.testing.assert_array_equal(again.step, cold.step)
        assert again.model_value == cold.model_value

    def test_restart_at_another_linearization_is_kept_uncertified(self, monkeypatch):
        again, _, calls = self.resolve(monkeypatch, "double-integrator-obstacle",
                                       same_lin=False)
        assert calls == [(True, False)]

    @pytest.mark.parametrize("other", ["jacobian", "psi"])
    def test_state_of_another_model_is_released_for_a_cold_solve(self, other):
        # One accepted step on from the start, the Jacobian changes; at
        # another penalty weight, only psi does.  A restart from either state
        # would solve another LP than the one built.
        bench = builtin("double-integrator-obstacle")
        comp = bench.build()[0]
        last = solve_subproblem(linearize(comp, bench.default_start), 1.0)
        if other == "jacobian":
            lin = linearize(comp, bench.default_start + last.step)
        else:
            lin = linearize(bench.build(5.0)[0], bench.default_start)
        cold = solve_subproblem(lin, 1.0)
        again = solve_subproblem(lin, 1.0, last)
        assert last.warm.tableau is None
        np.testing.assert_array_equal(again.step, cold.step)
        assert again.model_value == cold.model_value

    @staticmethod
    def new_jacobian(monkeypatch, name, refuse=False):
        """The LP at a 0.1% larger Jacobian from the radius-1 solution, a cold
        solve of it, (dual start, certified unique) for each LP solve, and
        the dual starts' states.  With refuse, no dual start's answer
        certifies."""
        bench = builtin(name)
        lin = linearize(bench.build()[0], bench.default_start)
        last = solve_subproblem(lin, 1.0)
        lin = Linearization(lin.g_value, lin.g_jacobian * 1.001, lin.psi)
        calls, dual = [], []
        unique = WarmStart.unique

        def box_lp(*args, **kwargs):
            assert kwargs.get("warm") is None
            sol = solve_box_lp(*args, **kwargs)
            if kwargs.get("dual_start"):
                dual.append(sol.warm)
            calls.append((kwargs.get("dual_start", False), sol.warm.unique()))
            return sol

        with monkeypatch.context() as patch:
            patch.setattr(subproblem_module, "solve_box_lp", box_lp)
            if refuse:
                patch.setattr(WarmStart, "unique",
                              lambda state: all(state is not d for d in dual) and unique(state))
            again = solve_subproblem(lin, 1.0, last)
        assert last.warm.tableau is None
        return again, solve_subproblem(lin, 1.0), calls, dual

    def test_certified_dual_start_is_kept(self, monkeypatch):
        again, cold, calls, _ = self.new_jacobian(monkeypatch, "convex-lqr-box")
        assert calls == [(True, True)]
        np.testing.assert_allclose(again.step, cold.step, rtol=0.0,
                                   atol=1e-9 * (1.0 + np.abs(cold.step).max()))
        assert again.model_value == pytest.approx(cold.model_value, rel=1e-12, abs=1e-12)

    def test_uncertified_last_lp_leads_to_a_cold_solve(self, monkeypatch):
        # The first LP of the double integrator has a non-unique optimum.
        again, cold, calls, _ = self.new_jacobian(monkeypatch, "double-integrator-obstacle")
        assert [start for start, _ in calls] == [False]
        np.testing.assert_array_equal(again.step, cold.step)

    def test_uncertified_dual_start_falls_back_cold(self, monkeypatch):
        again, cold, calls, dual = self.new_jacobian(monkeypatch, "convex-lqr-box",
                                                     refuse=True)
        assert [start for start, _ in calls] == [True, False] and not calls[0][1]
        assert dual[0].tableau is None
        np.testing.assert_array_equal(again.step, cold.step)
        assert again.model_value == cold.model_value

    def test_no_last_solution_is_solved_cold(self, monkeypatch):
        bench = builtin("convex-lqr-box")
        lin = linearize(bench.build()[0], bench.default_start)
        starts = []

        def box_lp(*args, **kwargs):
            starts.append((kwargs.get("warm") is not None, kwargs.get("dual_start", False)))
            return solve_box_lp(*args, **kwargs)

        monkeypatch.setattr(subproblem_module, "solve_box_lp", box_lp)
        solve_subproblem(lin, 1.0)
        assert starts == [(False, False)]
