"""Tests for the empirical diagnostics: direction sets, growth constants,
small-step probes, convergence-tail reports, and level-set checks."""

import json

import numpy as np
import pytest

import scvxkit.diagnostics as diagnostics_module
from scvxkit import (
    TrustRegionParams,
    builtin,
    check_strong_convergence,
    estimate_sharp_minimum,
    find_small_step_eta,
    run_scvx,
    transcribe,
)
from scvxkit.diagnostics import (
    SMALL_STEP_HALVINGS,
    SUBDIFFERENTIAL_STEP,
    SUBDIFFERENTIAL_TOL,
    _shell_ratios,
    active_set_report,
    check_level_set,
    check_ratio_limit,
    check_small_step,
    check_subdifferential_inequality,
    estimate_growth_constant,
    estimate_rate,
    fit_convergence_order,
    unit_directions,
)
from scvxkit.composite import linearize
from scvxkit.loop import IterationRecord
from scvxkit.problems import BUILTIN_NAMES
from scvxkit.subproblem import solve_min_norm_step, solve_subproblem

import oracles
from test_problems import tiny_ocp


def record(k, z, J, accepted=True, rho=0.9, radius=1.0):
    return IterationRecord(
        k=k, z=np.atleast_1d(np.asarray(z, dtype=float)), J=float(J),
        step_norm=0.1, model_value=0.0, predicted_decrease=1.0,
        actual_decrease=0.9, rho=rho, radius=radius, accepted=accepted,
    )


class TestDirections:
    def test_distances_use_inf_norm(self):
        # Tail errors are inf-norm distances, the norm of the trust region.
        trace = [record(k, [3.0 * s, -4.0 * s], 10.0 * s)
                 for k, s in enumerate((1.0, 0.5, 0.25, 0.125))]
        report = check_strong_convergence(trace, np.zeros(2), beta_hat=2.0)
        np.testing.assert_array_equal(report["tail_errors"], [4.0, 2.0, 1.0, 0.5])
        est = estimate_rate(trace, np.zeros(2))
        np.testing.assert_array_equal(est["error_ratios"], [0.5, 0.5, 0.5])

    def test_unit_directions_include_axes(self):
        dirs = unit_directions(3, 10, seed=1)
        assert dirs.shape == (2 * 3 + 10, 3)
        eye = np.eye(3)
        np.testing.assert_array_equal(dirs[:3], eye)
        np.testing.assert_array_equal(dirs[3:6], -eye)
        np.testing.assert_allclose(np.max(np.abs(dirs), axis=1), 1.0, atol=1e-12)

    def test_unit_directions_deterministic(self):
        a = unit_directions(4, 8, seed=7)
        b = unit_directions(4, 8, seed=7)
        np.testing.assert_array_equal(a, b)
        c = unit_directions(4, 8, seed=8)
        assert not np.array_equal(a, c)


class TestSharpMinimum:
    def test_abs_value_has_unit_constant(self):
        comp = oracles.abs_composite(1.0)
        cert = estimate_sharp_minimum(comp, np.zeros(1), delta=0.1)
        assert cert["beta_hat"] == pytest.approx(1.0, abs=1e-12)

    def test_smooth_minimum_has_vanishing_constant(self):
        comp = oracles.quadratic_composite(2)
        cert = estimate_sharp_minimum(comp, np.zeros(2), delta=1e-3)
        assert 0.0 < cert["beta_hat"] <= 1e-2

    def test_non_minimizer_goes_negative(self):
        comp = oracles.abs_composite(1.0)
        cert = estimate_sharp_minimum(comp, np.array([0.5]), delta=0.1)
        assert cert["beta_hat"] < 0.0

    def test_toy_constant_matches_sweep(self):
        comp, _ = builtin("toy-sharp-1d").build()
        cert = estimate_sharp_minimum(comp, np.array([1.0]), delta=0.1)
        sweep = oracles.sweep_sharp_constant(1.0, delta=0.1)
        assert cert["beta_hat"] >= 0.9 * sweep
        assert cert["beta_hat"] == pytest.approx(8.0, abs=0.05)

    def test_ratios_are_rederivable(self):
        # The reported worst ratio must be recomputable from its point.
        comp, _ = builtin("toy-sharp-1d").build()
        z_bar = np.array([1.0])
        cert = estimate_sharp_minimum(comp, z_bar, delta=0.2, n_samples=8)
        j_bar = comp.value(z_bar)
        point = cert["worst_point"]
        dist = np.max(np.abs(point - z_bar))
        assert (comp.value(point) - j_bar) / dist == pytest.approx(cert["worst_ratio"], rel=1e-9)
        assert cert["worst_ratio"] == cert["beta_hat"]

    def test_bad_delta(self):
        comp = oracles.abs_composite(1.0)
        with pytest.raises(ValueError):
            estimate_sharp_minimum(comp, np.zeros(1), delta=0.0)


class TestGrowthConstant:
    def test_abs_model_growth(self):
        comp = oracles.abs_composite(1.0)
        cert = estimate_growth_constant(comp, np.zeros(1))
        assert cert["gamma_hat"] == pytest.approx(1.0, abs=1e-12)

    def test_smooth_stationary_model_is_flat(self):
        # At the minimizer of a smooth objective the model has zero slope,
        # so the growth constant collapses to zero.
        comp = oracles.quadratic_composite(1)
        cert = estimate_growth_constant(comp, np.zeros(1))
        assert abs(cert["gamma_hat"]) <= 1e-12

    def test_toy_growth_constant(self):
        comp, _ = builtin("toy-sharp-1d").build()
        cert = estimate_growth_constant(comp, np.array([1.0]))
        assert cert["gamma_hat"] == pytest.approx(8.0, abs=1e-6)


class TestSmallStep:
    def test_passes_at_sharp_minimizer(self):
        comp, _ = builtin("toy-sharp-1d").build()
        report = check_small_step(comp, np.array([1.0]), eta=0.05, epsilon=0.05)
        assert report["passed"]
        assert report["n_probes"] == 64
        assert report["failures"] == []
        assert report["max_step_norm"] < 0.05

    def test_fails_far_from_minimizer(self):
        comp, _ = builtin("toy-sharp-1d").build()
        report = check_small_step(comp, np.array([3.0]), eta=0.01, epsilon=1e-4)
        assert not report["passed"]

    def test_find_eta_halves_until_pass(self):
        comp, _ = builtin("toy-sharp-1d").build()
        report = find_small_step_eta(comp, np.array([1.0]), epsilon=0.05)
        assert report["passed"]
        assert report["eta"] <= 0.05

    def test_find_eta_gives_up_after_halvings(self):
        comp, _ = builtin("toy-sharp-1d").build()
        report = find_small_step_eta(comp, np.array([2.0]), epsilon=1e-6)
        assert not report["passed"]
        assert report["eta"] == pytest.approx(1e-6 / 2.0 ** SMALL_STEP_HALVINGS)

    @pytest.mark.parametrize("name, max_step_norm", [
        ("double-integrator-obstacle", "2.9966126084327698"),
        ("dubins-car", "2.080537491478026"),
    ])
    def test_failing_halvings_stop_at_first_large_step(self, monkeypatch, name, max_step_norm):
        # At these final points probe 0 already reaches epsilon in every
        # halving, so the first three halvings solve one LP each and the last,
        # whose section is returned, solves all 64.  The expected sections are
        # the ones the schedule wrote when every halving ran all its probes.
        bench = builtin(name)
        comp, _ = bench.build()
        z_bar = run_scvx(comp, bench.default_start).final_z
        solves = []

        def counting(lin, radius):
            solves.append(radius)
            return solve_min_norm_step(lin, radius)

        monkeypatch.setattr(diagnostics_module, "solve_min_norm_step", counting)
        section = find_small_step_eta(comp, z_bar, epsilon=0.05)
        assert json.dumps(section) == (
            '{"passed": false, "eta": 0.00625, "epsilon": 0.05, "max_step_norm": '
            + max_step_norm + ', "n_probes": 64, "failures": []}')
        assert len(solves) == SMALL_STEP_HALVINGS + 64

    def test_bad_inputs(self):
        comp = oracles.abs_composite(1.0)
        with pytest.raises(ValueError):
            find_small_step_eta(comp, np.zeros(1), epsilon=0.0)
        with pytest.raises(ValueError):
            check_small_step(comp, np.zeros(1), eta=0.0, epsilon=0.1)
        with pytest.raises(ValueError):
            check_small_step(comp, np.zeros(1), eta=0.1, epsilon=0.0)


class TestStrongConvergence:
    def test_clean_tail_is_labeled(self):
        trace = [record(0, 0.4, 1.0), record(1, 0.2, 0.5),
                 record(2, 0.1, 0.21), record(3, 0.0, 0.0)]
        report = check_strong_convergence(trace, np.zeros(1), beta_hat=2.0)
        assert report["label"] == "strong-convergent"
        assert report["cauchy_ok"] and report["bound_ok"]
        np.testing.assert_allclose(report["tail_errors"], [0.4, 0.2, 0.1, 0.0])

    def test_bound_violation_is_inconclusive(self):
        trace = [record(0, 0.4, 0.5), record(1, 0.2, 0.3),
                 record(2, 0.1, 0.1), record(3, 0.0, 0.0)]
        report = check_strong_convergence(trace, np.zeros(1), beta_hat=2.0)
        assert report["label"] == "inconclusive"
        assert not report["bound_ok"]

    def test_nonmonotone_tail_is_inconclusive(self):
        trace = [record(0, 0.1, 1.0), record(1, 0.3, 0.9),
                 record(2, 0.2, 0.5), record(3, 0.0, 0.0)]
        report = check_strong_convergence(trace, np.zeros(1), beta_hat=2.0)
        assert report["label"] == "inconclusive"
        assert not report["cauchy_ok"]

    def test_nonpositive_beta_is_inconclusive(self):
        trace = [record(k, 0.1 * (3 - k), 0.1 * (3 - k)) for k in range(4)]
        report = check_strong_convergence(trace, np.zeros(1), beta_hat=0.0)
        assert report["label"] == "inconclusive"
        assert report["m_tail"] == 0

    def test_short_tail_is_inconclusive(self):
        trace = [record(0, 0.1, 1.0), record(1, 0.0, 0.0)]
        report = check_strong_convergence(trace, np.zeros(1), beta_hat=2.0)
        assert report["label"] == "inconclusive"

    def test_tail_truncated_to_m_tail(self):
        trace = [record(k, 2.0 ** -(k + 1), 2.0 ** -k) for k in range(8)]
        report = check_strong_convergence(trace, np.zeros(1), beta_hat=0.5, m_tail=5)
        assert report["m_tail"] == 5
        assert report["tail_errors"].size == 5

    def test_rejected_records_ignored(self):
        trace = [record(0, 0.4, 1.0), record(1, 9.9, 9.9, accepted=False),
                 record(2, 0.2, 0.5), record(3, 0.1, 0.21), record(4, 0.0, 0.0)]
        report = check_strong_convergence(trace, np.zeros(1), beta_hat=2.0)
        assert report["label"] == "strong-convergent"


class TestRatioTail:
    def test_trending_tail(self):
        rhos = [0.5, 0.9, 0.99, 0.999, 0.9999, 1.0]
        trace = [record(k, 0.0, 1.0, rho=r) for k, r in enumerate(rhos)]
        report = check_ratio_limit(trace)
        assert report["sufficient"]
        assert report["n_defined"] == 6
        assert report["trending_to_one"]
        np.testing.assert_allclose(report["tail_rho"], rhos[-5:])

    def test_undefined_and_rejected_excluded(self):
        trace = [record(0, 0.0, 1.0, rho=None),
                 record(1, 0.0, 1.0, rho=0.9, accepted=False),
                 record(2, 0.0, 1.0, rho=0.8)]
        report = check_ratio_limit(trace)
        assert report["n_defined"] == 1
        assert not report["sufficient"]

    def test_sufficiency_follows_m_tail(self):
        trace = [record(k, 0.0, 1.0, rho=0.9) for k in range(6)]
        short = check_ratio_limit(trace, m_tail=3)
        assert short["sufficient"] and short["tail_rho"].size == 3
        long = check_ratio_limit(trace, m_tail=8)
        assert not long["sufficient"] and long["tail_rho"].size == 6
        assert check_ratio_limit(trace[:3], m_tail=3)["sufficient"]
        assert not check_ratio_limit(trace[:2], m_tail=3)["sufficient"]

    def test_wandering_tail_not_trending(self):
        rhos = [0.9, 0.99, 0.8, 0.99, 0.9]
        trace = [record(k, 0.0, 1.0, rho=r) for k, r in enumerate(rhos)]
        report = check_ratio_limit(trace)
        assert not report["trending_to_one"]


class TestActiveSet:
    def test_exact_when_controls_saturate(self):
        ocp = tiny_ocp()
        disc = transcribe(ocp, 2.0)
        from scvxkit.problems import simulate_rollout
        z = simulate_rollout(ocp, np.array([[1.0], [-1.0]]))
        report = active_set_report(disc, z)
        assert report["verdict"] == "exact"
        assert report["active_count"] == 2
        assert "control_upper[0][0]" in report["active_labels"]
        assert "control_lower[1][0]" in report["active_labels"]

    def test_shortfall_with_interior_controls(self):
        ocp = tiny_ocp()
        disc = transcribe(ocp, 2.0)
        from scvxkit.problems import simulate_rollout
        z = simulate_rollout(ocp, np.array([[0.5], [0.25]]))
        report = active_set_report(disc, z)
        assert report["verdict"] == "shortfall"
        assert report["active_count"] == 0

    def test_excess_when_path_constraint_joins(self):
        ocp = tiny_ocp()
        disc = transcribe(ocp, 2.0)
        # Hand-built point: first state on the ceiling and both controls
        # saturated gives three active inequalities against a threshold of 2.
        z = np.array([2.0, 3.0, 2.0, 1.0, -1.0])
        report = active_set_report(disc, z)
        assert report["verdict"] == "excess"
        assert report["active_count"] == 3


class TestRate:
    def test_fit_order_two(self):
        errors = oracles.quadratic_error_sequence()
        order, ratios = fit_convergence_order(errors)
        assert order == pytest.approx(2.0, abs=1e-9)
        assert ratios.size == errors.size - 1

    def test_fit_order_one(self):
        errors = [0.5 ** k for k in range(1, 7)]
        order, _ = fit_convergence_order(errors)
        assert order == pytest.approx(1.0, abs=1e-9)

    def test_fit_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_convergence_order([0.1, 0.01])
        with pytest.raises(ValueError):
            fit_convergence_order([0.1, 0.0, 0.01])

    def test_estimate_rate_on_synthetic_quadratic_tail(self):
        errors = oracles.quadratic_error_sequence()
        trace = [record(k, e, e) for k, e in enumerate(errors)]
        est = estimate_rate(trace, np.zeros(1))
        assert est["defined"]
        assert est["order_q"] == pytest.approx(2.0, abs=0.1)
        assert est["superlinear_evidence"]

    def test_estimate_rate_finite_termination(self):
        trace = [record(0, 0.1, 0.1), record(1, 0.01, 0.01), record(2, 0.0, 0.0)]
        est = estimate_rate(trace, np.zeros(1))
        assert not est["defined"]
        assert "finite termination" in est["reason"]

    def test_estimate_rate_short_tail(self):
        trace = [record(0, 0.1, 0.1), record(1, 0.01, 0.01)]
        est = estimate_rate(trace, np.zeros(1))
        assert not est["defined"]
        assert est["reason"] == "tail too short"


class TestSubdifferential:
    def test_passes_at_sharp_minimizer(self):
        comp, _ = builtin("toy-sharp-1d").build()
        report = check_subdifferential_inequality(comp, np.array([1.0]))
        assert report["passed"]
        # One-sided slopes at the kink are 8 and 12; the worst direction
        # reports the smaller one.
        assert report["min_estimate"] == pytest.approx(8.0, abs=1e-3)

    def test_fails_on_descent_direction(self):
        comp = oracles.linear_composite([1.0])
        report = check_subdifferential_inequality(comp, np.zeros(1))
        assert not report["passed"]
        assert report["min_estimate"] == pytest.approx(-1.0, abs=1e-9)

    def test_direction_count_honored(self):
        comp = oracles.abs_composite(1.0)
        report = check_subdifferential_inequality(comp, np.zeros(1), n_directions=10)
        assert report["n_directions"] == 2 * 1 + 10


class TestShellsOnePointAtATime:
    """The shells go through one value call on the whole stack; the report
    sections must equal what one value call per point gives."""

    @staticmethod
    def looped_ratios(comp, z_bar, dirs, scales):
        j_bar = comp.value(z_bar)
        return j_bar, np.array([(comp.value(z_bar + s * u) - j_bar) / s
                                for s in scales for u in dirs])

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_ratio(self, name):
        bench = builtin(name)
        comp, _ = bench.build()
        z_bar = bench.default_start + 0.01
        dirs = unit_directions(z_bar.size, 64, seed=0)
        scales = (1e-3, 1e-2 / 3.0, 1e-6)
        j_bar, ratios = _shell_ratios(comp, z_bar, dirs, scales)
        looped_j, looped = self.looped_ratios(comp, z_bar, dirs, scales)
        assert j_bar == looped_j
        assert ratios.tobytes() == looped.tobytes()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_sharp_minimum_section(self, name):
        bench = builtin(name)
        comp, _ = bench.build()
        z_bar = bench.default_start
        delta, seed = 0.01, 2
        section = estimate_sharp_minimum(comp, z_bar, delta, n_samples=16, seed=seed)
        dirs = unit_directions(z_bar.size, 16, seed=seed)
        scales = (delta / 10.0, delta / 3.0, delta)
        _, ratios = self.looped_ratios(comp, z_bar, dirs, scales)
        worst = int(np.argmin(ratios))
        assert section == {
            "beta_hat": float(np.min(ratios)), "gamma_hat": None, "delta": delta,
            "norm": "inf", "seed": seed, "n_samples": ratios.size,
            "worst_ratio": ratios[worst],
            "worst_point": section["worst_point"],
        }
        assert np.array_equal(section["worst_point"],
                              z_bar + scales[worst // len(dirs)] * dirs[worst % len(dirs)])

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_subdifferential_section(self, name):
        bench = builtin(name)
        comp, _ = bench.build()
        z_bar = bench.default_start
        section = check_subdifferential_inequality(comp, z_bar, n_directions=16, seed=1)
        dirs = unit_directions(z_bar.size, 16, seed=1)
        j_bar, estimates = self.looped_ratios(comp, z_bar, dirs, (SUBDIFFERENTIAL_STEP,))
        assert section == {
            "passed": bool(np.min(estimates) >= -SUBDIFFERENTIAL_TOL * (1.0 + abs(j_bar))),
            "min_estimate": float(np.min(estimates)), "n_directions": dirs.shape[0],
            "step": SUBDIFFERENTIAL_STEP,
        }


class TestLevelSet:
    def test_ok_run(self):
        trace = [record(0, 1.0, 5.0), record(1, 0.5, 3.0)]
        report = check_level_set(trace, j0=5.0)
        assert report["passed"]
        assert report["verdict"] == "ok"

    def test_objective_increase_detected(self):
        trace = [record(0, 1.0, 5.0), record(1, 2.0, 6.0)]
        report = check_level_set(trace, j0=5.0)
        assert not report["passed"]
        assert report["verdict"] == "objective-increase"

    def test_norm_budget_detected(self):
        trace = [record(0, 50.0, 4.0)]
        report = check_level_set(trace, j0=5.0, norm_budget=10.0)
        assert not report["passed"]
        assert report["verdict"] == "norm-budget-exceeded"

    def test_increase_takes_precedence(self):
        trace = [record(0, 50.0, 9.0)]
        report = check_level_set(trace, j0=5.0, norm_budget=10.0)
        assert report["verdict"] == "objective-increase"

    def test_real_run_stays_in_level_set(self):
        comp, _ = builtin("toy-sharp-1d").build()
        result = run_scvx(comp, np.array([3.0]))
        j0 = comp.value(np.array([3.0]))
        report = check_level_set(result.trace, j0)
        assert report["passed"]


@pytest.fixture(scope="module")
def di_descent():
    """The default double-integrator-obstacle run's final point (lambda 50),
    with the slopes of L and of J along the subproblem's step at radius 1e-6."""
    bench = builtin("double-integrator-obstacle")
    comp, _ = bench.build(50.0)
    z_bar = run_scvx(comp, bench.default_start, TrustRegionParams(max_iterations=300)).final_z
    lin = linearize(comp, z_bar)
    d = solve_subproblem(lin, 1e-6).step
    norm = float(np.max(np.abs(d)))
    return (comp, z_bar, (lin.model_value(d) - lin.base_value) / norm,
            (comp.value(z_bar + d) - comp.value(z_bar)) / norm)


class TestSampledConstantsOverstate:
    """Pins of ROADMAP item 2: the sampled growth constant and the sampled
    subdifferential check both miss a direction in which the model and J
    descend.  Under item 2's exact directional-derivative LP both xfails
    pass, and their markers go."""

    def test_model_and_objective_descend_along_the_step(self, di_descent):
        _, _, model_slope, j_slope = di_descent
        assert model_slope < -1e-3 and j_slope < -1e-3  # both read -0.00110

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect, ROADMAP item 2: gamma_hat is the smallest sampled ratio, so it only "
        "bounds the constant from above; it reads 29.91 where the model falls at slope "
        "-0.00110"))
    def test_growth_constant_is_at_most_the_step_slope(self, di_descent):
        comp, z_bar, model_slope, _ = di_descent
        section = estimate_growth_constant(comp, z_bar, n_samples=64, seed=0)
        assert section["gamma_hat"] <= model_slope + 1e-9

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect, ROADMAP item 2: the sampled one-sided differences give min_estimate "
        "29.91 and pass where J falls at slope -0.00110; criterion 09's 'dJ min 30 on 156 "
        "dirs' rests on the same sampling"))
    def test_subdifferential_check_sees_the_descent(self, di_descent):
        comp, z_bar, _, _ = di_descent
        section = check_subdifferential_inequality(comp, z_bar, n_directions=64, seed=0)
        assert section["min_estimate"] < 0.0 and not section["passed"]
