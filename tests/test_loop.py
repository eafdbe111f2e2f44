"""Tests for the outer trust-region iteration: ratio and radius rules,
stopping behaviour, trace semantics, and failure statuses."""

import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scvxkit.loop as loop_module
import scvxkit.subproblem as subproblem_module
from scvxkit import (
    CompositeObjective,
    ConvexOuter,
    SmoothMap,
    SubproblemError,
    TrustRegionParams,
    builtin,
    check_stationarity,
    run_scvx,
)
from scvxkit.composite import linearize
from scvxkit.loop import (
    STATUS_CONVERGED,
    STATUS_ITERATIONS,
    STATUS_LEVEL_SET,
    STATUS_SUBPROBLEM,
    update_radius,
)
from scvxkit.problems import BUILTIN_NAMES
from scvxkit.simplex import solve_box_lp
from scvxkit.subproblem import solve_subproblem

import oracles


def toy_composite(name="toy-sharp-1d", weight=None):
    comp, _ = builtin(name).build(weight)
    return comp


def stop_tolerances(result, j0, params):
    """The stop tolerance stop_predicted_decrease * (1 + |J|) at the J each record started from."""
    before = [j0] + [rec.J for rec in result.trace[:-1]]
    return [params.stop_predicted_decrease * (1.0 + abs(j)) for j in before]


@pytest.fixture(scope="module")
def converged_runs():
    """(result, J0, params) of converged runs with rejected steps."""
    params = TrustRegionParams(r_init=1000.0, r_max=1000.0)
    comp = toy_composite()
    runs = [(run_scvx(comp, np.array([30.0]), params), comp.value(np.array([30.0])), params)]
    for name in ("toy-sharp-2d", "dubins-car"):
        bench = builtin(name)
        comp = bench.build()[0]
        runs.append((run_scvx(comp, bench.default_start), comp.value(bench.default_start),
                     TrustRegionParams()))
    assert all(result.status == STATUS_CONVERGED for result, _, _ in runs)
    return runs


class TestRatio:
    """rho on real traces.  The stop test on the predicted decrease comes
    before the ratio, so every record but the terminal one has a ratio."""

    def test_zero_predicted_gives_none(self):
        [rec] = run_scvx(toy_composite(), np.array([1.0])).trace
        assert rec.predicted_decrease == 0.0
        assert rec.rho is None

    def test_tiny_predicted_gives_none(self, converged_runs):
        for result, j0, params in converged_runs:
            tols = stop_tolerances(result, j0, params)
            assert result.trace[-1].rho is None
            assert result.trace[-1].predicted_decrease <= tols[-1]
            for rec, tol in zip(result.trace[:-1], tols):
                assert rec.rho is not None and rec.predicted_decrease > tol

    def test_defined_ratio_value(self, converged_runs):
        for result, _, _ in converged_runs:
            for rec in result.trace[:-1]:
                assert rec.rho == rec.actual_decrease / rec.predicted_decrease

    def test_negative_actual_allowed(self, converged_runs):
        rises = [rec for result, _, _ in converged_runs for rec in result.trace
                 if rec.actual_decrease < 0.0]
        assert rises
        assert all(rec.rho < 0.0 and not rec.accepted for rec in rises)

    def test_custom_threshold(self):
        # A looser stop tolerance ends dubins-car on a predicted decrease
        # that the default tolerance would still turn into a ratio.
        bench = builtin("dubins-car")
        comp = bench.build()[0]
        params = TrustRegionParams(stop_predicted_decrease=1e-4)
        result = run_scvx(comp, bench.default_start, params)
        tols = stop_tolerances(result, comp.value(bench.default_start), params)
        last = result.trace[-1]
        assert last.rho is None
        assert 1e-8 * (1.0 + abs(last.J)) < last.predicted_decrease <= tols[-1]
        assert all(rec.predicted_decrease > tol
                   for rec, tol in zip(result.trace[:-1], tols))


class TestRadiusUpdate:
    def setup_method(self):
        self.params = TrustRegionParams()

    def test_reject_shrinks(self):
        accepted, radius = update_radius(-0.5, 1.0, self.params)
        assert not accepted
        assert radius == pytest.approx(0.5)

    def test_marginal_accept_shrinks(self):
        accepted, radius = update_radius(0.1, 1.0, self.params)
        assert accepted
        assert radius == pytest.approx(0.5)

    def test_moderate_accept_keeps(self):
        accepted, radius = update_radius(0.5, 1.0, self.params)
        assert accepted
        assert radius == pytest.approx(1.0)

    def test_good_accept_grows(self):
        accepted, radius = update_radius(0.9, 1.0, self.params)
        assert accepted
        assert radius == pytest.approx(3.2)

    def test_clamping(self):
        _, lo = update_radius(-1.0, 1.5e-10, self.params)
        assert lo == self.params.r_min
        _, hi = update_radius(0.99, 900.0, self.params)
        assert hi == self.params.r_max

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rho=st.floats() | st.just(-np.inf), data=st.data())
    def test_result_stays_in_bounds(self, rho, data):
        # run_scvx relies on this: it feeds the result back without a clip.
        positive = st.floats(min_value=1e-300, max_value=1e300)
        r_min = data.draw(positive)
        r_max = data.draw(st.floats(min_value=r_min, max_value=1e300))
        factor = st.floats(min_value=1.0, exclude_min=True, allow_infinity=True)
        params = TrustRegionParams(r_min=r_min, r_init=r_min, r_max=r_max,
                                   shrink_factor=data.draw(factor),
                                   grow_factor=data.draw(factor))
        radius = data.draw(st.floats(min_value=r_min, max_value=r_max))
        _, new_radius = update_radius(rho, radius, params)
        assert r_min <= new_radius <= r_max

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TrustRegionParams(rho1=0.8, rho2=0.7)
        with pytest.raises(ValueError):
            TrustRegionParams(shrink_factor=1.0)
        with pytest.raises(ValueError):
            TrustRegionParams(r_init=0.0)
        with pytest.raises(ValueError):
            TrustRegionParams(max_iterations=0)
        with pytest.raises(ValueError):
            TrustRegionParams(norm_budget=-1.0)
        with pytest.raises(ValueError):
            TrustRegionParams(stop_predicted_decrease=0.0)
        for bad in ({"norm_budget": np.nan}, {"norm_budget": np.inf}, {"r_init": np.nan},
                    {"rho1": np.nan}, {"shrink_factor": np.nan},
                    {"stop_predicted_decrease": np.nan},
                    {"max_iterations": 2.5}, {"max_iterations": True}):
            with pytest.raises((TypeError, ValueError)):
                TrustRegionParams(**bad)
        # JSON true and false are not numbers, though Python bools are ints.
        for f in fields(TrustRegionParams):
            for flag in (True, False):
                with pytest.raises(TypeError):
                    TrustRegionParams(**{f.name: flag})
        assert TrustRegionParams(max_iterations=np.int64(5)).max_iterations == 5


class TestRunOnToy:
    def test_converges_to_kink(self):
        comp = toy_composite()
        result = run_scvx(comp, np.array([3.0]))
        assert result.status == STATUS_CONVERGED
        assert result.final_z[0] == pytest.approx(1.0, abs=1e-8)
        assert result.J_final == pytest.approx(1.0, abs=1e-8)

    def test_accepted_objectives_strictly_decrease(self):
        comp = toy_composite()
        result = run_scvx(comp, np.array([-4.0]))
        accepted = [rec.J for rec in result.trace if rec.accepted]
        assert len(accepted) >= 1
        assert all(b < a for a, b in zip(accepted, accepted[1:]))

    def test_no_iterate_above_start(self):
        comp = toy_composite()
        j0 = comp.value(np.array([3.0]))
        result = run_scvx(comp, np.array([3.0]))
        assert all(rec.J <= j0 + 1e-12 for rec in result.trace)

    def test_trace_indices_consecutive(self):
        result = run_scvx(toy_composite(), np.array([3.0]))
        assert [rec.k for rec in result.trace] == list(range(len(result.trace)))

    def test_rejected_record_keeps_previous_point(self):
        # Post-decision semantics: a rejected record carries the unmoved
        # iterate, so its z and J match the preceding record's.  Start where
        # the quadratic slope beats the penalty slope so an oversized radius
        # overshoots badly and gets rejected.
        comp = toy_composite()
        result = run_scvx(comp, np.array([30.0]),
                          TrustRegionParams(r_init=1000.0, r_max=1000.0))
        rejected = [i for i, rec in enumerate(result.trace) if not rec.accepted and rec.rho is not None]
        assert rejected, "expected at least one rejection from an oversized radius"
        for i in rejected:
            if i == 0:
                continue
            assert result.trace[i].J == result.trace[i - 1].J
            np.testing.assert_array_equal(result.trace[i].z, result.trace[i - 1].z)

    def test_rejection_shrinks_radius(self):
        comp = toy_composite()
        result = run_scvx(comp, np.array([30.0]),
                          TrustRegionParams(r_init=1000.0, r_max=1000.0))
        for prev, cur in zip(result.trace, result.trace[1:]):
            if not prev.accepted and prev.rho is not None:
                assert cur.radius < prev.radius

    def test_terminal_record_shape(self):
        result = run_scvx(toy_composite(), np.array([3.0]))
        last = result.trace[-1]
        assert last.rho is None
        assert not last.accepted
        assert last.actual_decrease == 0.0
        assert last.predicted_decrease <= 1e-8 * (1.0 + abs(last.J))

    def test_stationary_start_stops_immediately(self):
        result = run_scvx(toy_composite(), np.array([1.0]))
        assert result.status == STATUS_CONVERGED
        assert result.accepted_count == 0
        assert len(result.trace) == 1
        assert result.trace[0].k == 0
        assert result.final_z[0] == 1.0

    def test_two_dimensional_toy(self):
        comp = toy_composite("toy-sharp-2d")
        result = run_scvx(comp, np.array([3.0, -2.0]))
        assert result.status == STATUS_CONVERGED
        np.testing.assert_allclose(result.final_z, [1.0, 1.0], atol=1e-8)


class TestTerminationStatuses:
    def test_iteration_limit(self):
        bench = builtin("double-integrator-obstacle")
        comp, _ = bench.build()
        result = run_scvx(comp, bench.default_start,
                          TrustRegionParams(max_iterations=2))
        assert result.status == STATUS_ITERATIONS
        assert len(result.trace) == 2

    def test_level_set_violation_on_noncompact(self):
        comp, _ = builtin("noncompact-levelset").build()
        result = run_scvx(comp, np.array([0.0]))
        assert result.status == STATUS_LEVEL_SET
        assert "budget" in result.message
        assert result.status != STATUS_CONVERGED

    def test_small_norm_budget_trips_early(self):
        comp, _ = builtin("noncompact-levelset").build()
        result = run_scvx(comp, np.array([0.0]), TrustRegionParams(norm_budget=2.0))
        assert result.status == STATUS_LEVEL_SET
        assert len(result.trace) <= 6

    def test_subproblem_failure_attaches_trace(self, monkeypatch):
        comp = toy_composite()

        calls = {"n": 0}
        real = loop_module.solve_subproblem

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise SubproblemError("synthetic failure")
            return real(*args)

        monkeypatch.setattr(loop_module, "solve_subproblem", flaky)
        result = run_scvx(comp, np.array([30.0]))
        assert result.status == STATUS_SUBPROBLEM
        assert "synthetic failure" in result.message
        assert isinstance(result.trace, list)

    def test_non_finite_trial_objective_is_a_rejection(self):
        # J(z) = exp(800 z) / 800 - 2 z: the first unit step from 0 lands at
        # exp(800) = inf, which must shrink the radius, not end the run.
        def evaluate(z):
            with np.errstate(over="ignore"):
                return np.exp(800.0 * z) / 800.0 - 2.0 * z

        smooth = SmoothMap(1, 1, evaluate, lambda z: (np.exp(800.0 * z) - 2.0)[:, None])
        comp = CompositeObjective(smooth, ConvexOuter(range(0, 1), range(1, 1), range(1, 1), 1.0))
        result = run_scvx(comp, np.zeros(1))
        first = result.trace[0]
        assert not first.accepted and first.rho == -np.inf and first.actual_decrease == -np.inf
        assert result.trace[1].radius == first.radius / 2.0
        assert result.status == STATUS_CONVERGED
        assert result.final_z[0] == pytest.approx(np.log(2.0) / 800.0, rel=1e-3)

    def test_demotion_guard_never_accepts_flat_steps(self):
        # Whatever path the solver takes, an accepted record must show a
        # real objective decrease.
        comp = toy_composite()
        result = run_scvx(comp, np.array([3.0]))
        for prev, cur in zip(result.trace, result.trace[1:]):
            if cur.accepted:
                assert cur.actual_decrease > 0.0
        for rec in result.trace:
            if rec.accepted:
                assert rec.actual_decrease > 1e-12 * (1.0 + abs(rec.J))


class TestStationarityProbe:
    def test_sharp_minimizer_is_stationary(self):
        comp = toy_composite()
        assert check_stationarity(comp, np.array([1.0])) == pytest.approx(0.0, abs=1e-10)

    def test_nonstationary_point_has_positive_probe(self):
        comp = toy_composite()
        assert check_stationarity(comp, np.array([2.0])) > 1.0

    def test_linear_cost_probe_equals_gradient_one_norm(self):
        comp = oracles.linear_composite([3.0, -4.0])
        probe = check_stationarity(comp, np.zeros(2), probe_radius=1.0)
        assert probe == pytest.approx(7.0, abs=1e-9)

    def test_abs_minimizer_probe_is_exactly_zero(self):
        comp = oracles.abs_composite(2.0)
        assert check_stationarity(comp, np.zeros(1)) == 0.0

    def test_bad_probe_radius(self):
        comp = toy_composite()
        with pytest.raises(ValueError):
            check_stationarity(comp, np.array([1.0]), probe_radius=0.0)

    def test_probe_consistent_with_direct_subproblem(self):
        comp = toy_composite()
        z = np.array([2.0])
        lin = linearize(comp, z)
        direct = solve_subproblem(lin, 0.5)
        assert check_stationarity(comp, z, probe_radius=0.5) == pytest.approx(
            direct.predicted_decrease, abs=1e-12)


def counted_run(monkeypatch, name, **params):
    """run_scvx on a built-in from its default start, and the radius of each LP solve."""
    radii = []

    def counting(lin, radius, warm=None):
        radii.append(radius)
        return solve_subproblem(lin, radius, warm)

    monkeypatch.setattr(loop_module, "solve_subproblem", counting)
    bench = builtin(name)
    result = run_scvx(bench.build()[0], bench.default_start, TrustRegionParams(**params))
    return result, radii


@pytest.mark.parametrize("r_init", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_one_solve_per_record_at_its_radius(monkeypatch, name, r_init):
    result, radii = counted_run(monkeypatch, name, r_init=r_init)
    assert radii == [rec.radius for rec in result.trace]


class TestWarmStart:
    """The LP after a rejection restarts from the rejected LP's tableau,
    kept only when certified unique, and a fresh linearization at an
    unchanged Jacobian restarts from the last LP's tableau; every other LP
    is solved cold.  Restarts are seen at solve_box_lp's warm=."""

    @staticmethod
    def solve(monkeypatch, comp, z0, cold=False):
        """run_scvx, whether each subproblem's first LP solve restarted, the
        pivots, and the LP arguments and x of each restarted LP solve
        certified unique."""
        starts, restarted, pivots, certified = [], [], [], []

        def subproblem(lin, radius, last=None):
            starts.append(len(restarted))
            return solve_subproblem(lin, radius, None if cold else last)

        def box_lp(*args, **kwargs):
            sol = solve_box_lp(*args, **kwargs)
            restarted.append(kwargs.get("warm") is not None)
            pivots.append(sol.iterations)
            if restarted[-1] and sol.warm.unique():
                certified.append((args, sol.x))
            return sol

        with monkeypatch.context() as patch:
            patch.setattr(loop_module, "solve_subproblem", subproblem)
            patch.setattr(subproblem_module, "solve_box_lp", box_lp)
            result = run_scvx(comp, z0, TrustRegionParams(max_iterations=300))
        return result, [restarted[i] for i in starts], sum(pivots), certified

    @pytest.mark.parametrize("n_nodes", [20, 24, 32, 40])
    def test_convex_lqr_box_matches_cold_run_in_fewer_pivots(self, monkeypatch, n_nodes):
        bench = builtin("convex-lqr-box", n_nodes=n_nodes)
        comp, _ = bench.build(100.0)
        cold, _, cold_pivots, _ = self.solve(monkeypatch, comp, bench.default_start, cold=True)
        warm, warms, warm_pivots, _ = self.solve(monkeypatch, comp, bench.default_start)
        # The inner map is affine: every LP after the first is warm.
        assert not warms[0] and all(warms[1:])
        assert (warm.status, warm.iterations) == (cold.status, cold.iterations)
        assert warm.J_final == pytest.approx(cold.J_final, rel=0.0,
                                             abs=1e-9 * (1.0 + abs(cold.J_final)))
        assert warm_pivots < cold_pivots

    @pytest.mark.parametrize("name, n_nodes", [("double-integrator-obstacle", 8),
                                               ("dubins-car", 12)])
    def test_rejection_restarts_keep_results(self, monkeypatch, name, n_nodes):
        # Every LP forced cold gives the same run; each certified restart
        # gives the x of HiGHS at tight tolerances.
        bench = builtin(name, n_nodes=n_nodes)
        comp, _ = bench.build()
        cold, _, cold_pivots, _ = self.solve(monkeypatch, comp, bench.default_start, cold=True)
        warm, warms, warm_pivots, certified = self.solve(monkeypatch, comp,
                                                         bench.default_start)
        assert any(warms) and certified
        assert (warm.status, warm.iterations) == (cold.status, cold.iterations)
        assert warm.J_final == pytest.approx(cold.J_final, rel=0.0,
                                             abs=1e-10 * (1.0 + abs(cold.J_final)))
        assert warm_pivots < cold_pivots
        for args, x in certified:
            ref = oracles.scipy_box_lp(*args, tol=1e-10)
            np.testing.assert_allclose(x, ref.x, rtol=0.0, atol=1e-9 * (1.0 + np.abs(x).max()))

    @pytest.mark.parametrize("name", ["double-integrator-obstacle", "dubins-car"])
    def test_nonlinear_maps_pass_a_warm_state_only_after_a_rejection(self, monkeypatch, name):
        bench = builtin(name)
        result, warms, _, _ = self.solve(monkeypatch, bench.build()[0], bench.default_start)
        assert result.status == STATUS_CONVERGED
        # Each accepted step changes the Jacobian, so only a rejection's
        # re-solve restarts; the last record is the stationarity stop.
        rejected = [not rec.accepted for rec in result.trace]
        assert any(rejected)
        assert warms == [False] + rejected[:-1]

    def test_warm_state_after_a_rejection_or_at_an_unchanged_jacobian(self, monkeypatch):
        # J(z) = -z, affine wherever it is finite, so the Jacobian never
        # changes; a trial point past 1.5 is off the domain and rejected.
        # A rejection's re-solve and an accepted step's fresh linearization
        # both restart, so every LP after the first is warm.
        smooth = SmoothMap(1, 1, lambda z: np.where(z > 1.5, np.inf, -z),
                           lambda z: np.full((1, 1), -1.0))
        comp = CompositeObjective(smooth, ConvexOuter(range(0, 1), range(1, 1), range(1, 1), 1.0))
        result, warms, _, _ = self.solve(monkeypatch, comp, np.zeros(1))
        accepted = [rec.accepted for rec in result.trace]
        assert 0 < sum(accepted) < len(accepted) - 1
        assert warms == [False] + [True] * (len(warms) - 1)

    @pytest.mark.parametrize("name, n_nodes", [("double-integrator-obstacle", 8),
                                               ("dubins-car", 12), ("convex-lqr-box", 20)])
    def test_no_other_tableau_is_alive_at_an_lp_solve(self, monkeypatch, name, n_nodes):
        # Each LP's tableau is released before the next LP is solved, unless
        # that LP restarts from it: a cold solve never builds its tableau
        # beside an earlier one.  dubins-car N=12 has uncertified restarts,
        # each followed by a cold solve of the same LP.
        tableaux, held = [], {False: [], True: []}

        def box_lp(*args, warm=None, **kwargs):
            held[warm is not None].append(sum(
                t is not None and (warm is None or not np.may_share_memory(t, warm.tableau))
                for t in (ref() for ref in tableaux)))
            sol = solve_box_lp(*args, warm=warm, **kwargs)
            tableaux.append(weakref.ref(sol.warm.tableau))
            return sol

        monkeypatch.setattr(subproblem_module, "solve_box_lp", box_lp)
        bench = builtin(name, n_nodes=n_nodes)
        run_scvx(bench.build()[0], bench.default_start, TrustRegionParams(max_iterations=300))
        assert held[False] and held[True]
        assert held == {False: [0] * len(held[False]), True: [0] * len(held[True])}
