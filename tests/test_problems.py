"""Tests for problem data validation, transcription into the composite
form, rollouts, and the bundled benchmark instances."""

import numpy as np
import pytest

from scvxkit import OptimalControlProblem, builtin, transcribe
from scvxkit.composite import DimensionMismatchError, NonFiniteError, SmoothMap, fd_check_jacobian
from scvxkit.problems import BUILTIN_NAMES, PathConstraint, _dot, _matvec, simulate_rollout

import oracles


def tiny_ocp():
    """Single integrator, three nodes, every feature switched on."""
    return OptimalControlProblem(
        n_x=1, n_u=1, n_nodes=3,
        dynamics=lambda x, u: x + u,
        dynamics_jac=lambda x, u: (np.array([[1.0]]), np.array([[1.0]])),
        initial_state=np.array([0.0]),
        final_state=np.array([1.0]),
        stage_cost=lambda x, u: 0.5 * u[..., 0] ** 2,
        stage_cost_grad=lambda x, u: (np.zeros(1), u),
        terminal_cost=lambda x: x[..., 0],
        terminal_cost_grad=lambda x: np.array([1.0]),
        path_inequalities=(
            PathConstraint(fun=lambda x, u: x[..., 0] - 2.0,
                           grad=lambda x, u: (np.array([1.0]), np.zeros(1)),
                           name="ceiling"),
        ),
        control_bounds=((-1.0, 1.0),),
        name="tiny",
    )


class TestValidation:
    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            OptimalControlProblem(
                n_x=1, n_u=1, n_nodes=1,
                dynamics=lambda x, u: x, dynamics_jac=lambda x, u: (np.eye(1), np.eye(1)),
                initial_state=np.zeros(1),
                stage_cost=lambda x, u: 0.0,
                stage_cost_grad=lambda x, u: (np.zeros(1), np.zeros(1)),
            )

    def test_initial_state_length(self):
        with pytest.raises(ValueError):
            OptimalControlProblem(
                n_x=2, n_u=1, n_nodes=3,
                dynamics=lambda x, u: x, dynamics_jac=lambda x, u: (np.eye(2), np.ones((2, 1))),
                initial_state=np.zeros(1),
                stage_cost=lambda x, u: 0.0,
                stage_cost_grad=lambda x, u: (np.zeros(2), np.zeros(1)),
            )

    def test_control_bounds_count(self):
        with pytest.raises(ValueError):
            OptimalControlProblem(
                n_x=1, n_u=2, n_nodes=3,
                dynamics=lambda x, u: x, dynamics_jac=lambda x, u: (np.eye(1), np.ones((1, 2))),
                initial_state=np.zeros(1),
                stage_cost=lambda x, u: 0.0,
                stage_cost_grad=lambda x, u: (np.zeros(1), np.zeros(2)),
                control_bounds=((-1.0, 1.0),),
            )

    def test_empty_bound_interval(self):
        with pytest.raises(ValueError):
            OptimalControlProblem(
                n_x=1, n_u=1, n_nodes=3,
                dynamics=lambda x, u: x, dynamics_jac=lambda x, u: (np.eye(1), np.eye(1)),
                initial_state=np.zeros(1),
                stage_cost=lambda x, u: 0.0,
                stage_cost_grad=lambda x, u: (np.zeros(1), np.zeros(1)),
                control_bounds=((2.0, -2.0),),
            )

    def test_terminal_cost_needs_gradient(self):
        with pytest.raises(ValueError):
            OptimalControlProblem(
                n_x=1, n_u=1, n_nodes=3,
                dynamics=lambda x, u: x, dynamics_jac=lambda x, u: (np.eye(1), np.eye(1)),
                initial_state=np.zeros(1),
                stage_cost=lambda x, u: 0.0,
                stage_cost_grad=lambda x, u: (np.zeros(1), np.zeros(1)),
                terminal_cost=lambda x: 0.0,
            )


class TestStacking:
    def test_split_join_roundtrip(self, rng):
        ocp = tiny_ocp()
        z = rng.normal(size=ocp.n_z)
        states, controls = ocp.split(z)
        assert states.shape == (3, 1)
        assert controls.shape == (2, 1)
        np.testing.assert_array_equal(ocp.join(states, controls), z)

    def test_split_takes_stacks(self, rng):
        ocp = tiny_ocp()
        points = rng.normal(size=(4, 2, ocp.n_z))
        states, controls = ocp.split(points)
        assert states.shape == (4, 2, 3, 1) and controls.shape == (4, 2, 2, 1)
        for i, j in np.ndindex(4, 2):
            one = ocp.split(points[i, j])
            assert same_bits(states[i, j], one[0]) and same_bits(controls[i, j], one[1])

    def test_n_z(self):
        ocp = tiny_ocp()
        assert ocp.n_z == 3 * 1 + 2 * 1


class TestTranscription:
    def test_label_sequence(self):
        disc = transcribe(tiny_ocp(), 2.0)
        assert list(disc.labels) == [
            "stage_cost[0]", "stage_cost[1]", "terminal_cost",
            "dynamics_defect[0][0]", "dynamics_defect[1][0]",
            "initial_state[0]", "final_state[0]",
            "ceiling[0]", "control_upper[0][0]", "control_lower[0][0]",
            "ceiling[1]", "control_upper[1][0]", "control_lower[1][0]",
        ]

    def test_component_partition(self):
        disc = transcribe(tiny_ocp(), 2.0)
        psi = disc.composite.psi
        assert psi.n_cost == 3
        assert psi.n_eq == 4
        assert psi.n_ineq == 6
        assert disc.composite.g.output_dim == len(disc.labels)
        assert disc.active_set_threshold == 2

    def test_component_values_by_hand(self):
        disc = transcribe(tiny_ocp(), 2.0)
        z = np.array([0.5, 1.0, 2.5, 0.25, -0.5])
        g = disc.composite.g.value(z)
        expected = np.array([
            0.03125, 0.125, 2.5,          # stage costs, terminal cost
            0.25, 2.0,                    # dynamics defects
            0.5, 1.5,                     # boundary mismatches
            -1.5, -0.75, -1.25,           # node 0: ceiling, upper, lower
            -1.0, -1.5, -0.5,             # node 1
        ])
        np.testing.assert_allclose(g, expected, atol=1e-12)
        assert disc.composite.value(z) == pytest.approx(2.65625 + 2.0 * 4.25)

    def test_terminal_cost_absent_still_labeled(self):
        ocp = OptimalControlProblem(
            n_x=1, n_u=1, n_nodes=3,
            dynamics=lambda x, u: x + u,
            dynamics_jac=lambda x, u: (np.array([[1.0]]), np.array([[1.0]])),
            initial_state=np.zeros(1),
            stage_cost=lambda x, u: u[..., 0] ** 2,
            stage_cost_grad=lambda x, u: (np.zeros(1), 2.0 * np.asarray(u)),
        )
        disc = transcribe(ocp, 1.0)
        idx = list(disc.labels).index("terminal_cost")
        g = disc.composite.g.value(np.ones(ocp.n_z))
        assert g[idx] == 0.0

    def test_defect_rows_have_expected_jacobian_blocks(self):
        disc = transcribe(tiny_ocp(), 2.0)
        z = np.array([0.5, 1.0, 2.5, 0.25, -0.5])
        jac = disc.composite.g.jac(z)
        row = list(disc.labels).index("dynamics_defect[0][0]")
        # d defect / d x_1 = +1, d/d x_0 = -A = -1, d/d u_0 = -B = -1.
        np.testing.assert_allclose(jac[row], [-1.0, 1.0, 0.0, -1.0, 0.0], atol=1e-12)

    def test_transcription_jacobian_matches_differences(self, rng):
        disc = transcribe(tiny_ocp(), 2.0)
        z = rng.normal(size=5)
        analytic = disc.composite.g.jac(z)
        numeric = oracles.fd_jacobian(lambda v: disc.composite.g.value(v), z)
        assert np.max(np.abs(analytic - numeric)) < 1e-6


def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns: signs of zero count."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def points_around(start, count, seed):
    """start itself, then seeded points around it at three scales."""
    rng = np.random.default_rng(seed)
    scales = np.repeat([1e-6, 1e-2, 1.0], count)[:, None]
    return np.vstack([start, start + scales * rng.uniform(-1.0, 1.0, (scales.size, start.size))])


class TestStackedEvaluation:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_value_many_matches_one_point_at_a_time(self, name):
        bench = builtin(name)
        comp, disc = bench.build()
        points = points_around(bench.default_start, 20, seed=BUILTIN_NAMES.index(name))
        values = comp.g.value(points)
        assert same_bits(values, [comp.g.value(z) for z in points])
        assert same_bits(comp.value(points), [comp.value(z) for z in points])
        assert all(type(comp.value(z)) is float for z in points)
        if disc is not None:
            assert same_bits(values, [oracles.transcribed_values(disc.ocp, z) for z in points])

    def test_stacked_products_round_like_one_vector(self, rng):
        # The built-ins' sums of products go through these two, so each
        # node gets the bits of its own 1-D a @ b and m @ x.
        for n in (1, 2, 3, 4):
            a, b = rng.normal(size=(2, 7, 5, n))
            m = rng.normal(size=(n, n))
            assert same_bits(_dot(a, b), [[u @ v for u, v in zip(*pair)] for pair in zip(a, b)])
            assert same_bits(_matvec(m, a), [[m @ u for u in row] for row in a])

    def test_tiny_problem_matches_reference(self, rng):
        disc = transcribe(tiny_ocp(), 2.0)
        points = rng.normal(size=(10, 5))
        assert same_bits(disc.composite.g.value(points),
                         [oracles.transcribed_values(disc.ocp, z) for z in points])

    def test_value_many_checks_its_points(self):
        comp, _ = builtin("toy-sharp-2d").build()
        with pytest.raises(DimensionMismatchError):
            comp.value(np.zeros((3, 1)))
        with pytest.raises(NonFiniteError) as err:
            comp.value(np.array([[0.0, 0.0], [0.0, np.nan]]))
        assert err.value.index == 1

    def test_value_many_names_the_first_bad_component(self):
        smooth = SmoothMap(input_dim=1, output_dim=2,
                           evaluate=lambda z: np.stack([z[..., 0], 1.0 / z[..., 0]], axis=-1),
                           jacobian=lambda z: np.zeros((2, 1)))
        with pytest.raises(NonFiniteError) as err, np.errstate(divide="ignore"):
            smooth.value(np.array([[1.0], [0.0]]))
        assert err.value.index == 1
        with pytest.raises(DimensionMismatchError):
            SmoothMap(1, 3, lambda z: z, lambda z: np.zeros((3, 1))).value(np.ones((2, 1)))


class TestRollout:
    def test_rollout_satisfies_dynamics(self):
        ocp = tiny_ocp()
        z = simulate_rollout(ocp, np.array([[0.3], [0.4]]))
        disc = transcribe(ocp, 1.0)
        g = disc.composite.g.value(z)
        labels = list(disc.labels)
        for k in range(2):
            assert g[labels.index(f"dynamics_defect[{k}][0]")] == pytest.approx(0.0, abs=1e-14)
        assert g[labels.index("initial_state[0]")] == 0.0
        # Only the pinned final state may be off.
        assert g[labels.index("final_state[0]")] == pytest.approx(0.7 - 1.0)

    def test_rollout_detects_blowup(self):
        ocp = OptimalControlProblem(
            n_x=1, n_u=1, n_nodes=4,
            dynamics=lambda x, u: np.where(x > 1.5, np.inf, x + 1.0),
            dynamics_jac=lambda x, u: (np.ones((1, 1)), np.zeros((1, 1))),
            initial_state=np.ones(1),
            stage_cost=lambda x, u: 0.0,
            stage_cost_grad=lambda x, u: (np.zeros(1), np.zeros(1)),
        )
        with pytest.raises(NonFiniteError) as err:
            simulate_rollout(ocp, np.zeros((3, 1)))
        assert "node 2" in str(err.value)


class TestBuiltins:
    def test_all_names_construct(self):
        for name in BUILTIN_NAMES:
            bench = builtin(name)
            assert bench.name == name
            comp, disc = bench.build()
            assert comp.n_z == bench.default_start.size
            if isinstance(bench.problem, OptimalControlProblem):
                assert disc is not None
                assert disc.composite is comp
            else:
                assert disc is None

    def test_unknown_name(self):
        with pytest.raises(ValueError) as err:
            builtin("no-such-problem")
        assert "no-such-problem" in str(err.value)

    def test_bad_override_rejected(self):
        with pytest.raises(ValueError):
            builtin("convex-lqr-box", bogus_knob=3)
        with pytest.raises(ValueError):
            builtin("toy-sharp-1d", n_nodes=5)

    def test_override_applied(self):
        bench = builtin("convex-lqr-box", n_nodes=4)
        assert bench.problem.n_nodes == 4
        comp, _ = bench.build()
        assert comp.n_z == 4 * 2 + 3 * 1

    def test_build_weight_handling(self):
        for name in BUILTIN_NAMES:
            bench = builtin(name)
            comp_default, _ = bench.build()
            assert comp_default.psi.penalty_weight == bench.default_penalty_weight, name
            comp_heavy, _ = bench.build(25.0)
            assert comp_heavy.psi.penalty_weight == 25.0, name

    def test_builtin_jacobians_against_differences(self, rng):
        for name in BUILTIN_NAMES:
            bench = builtin(name)
            comp, _ = bench.build()
            z = bench.default_start + 0.3 * rng.normal(size=comp.n_z)
            analytic = comp.g.jac(z)
            numeric = oracles.fd_jacobian(lambda v: comp.g.value(v), z)
            assert np.max(np.abs(analytic - numeric)) < 1e-5, name

    def test_dubins_target_is_reachable(self):
        bench = builtin("dubins-car")
        ocp = bench.problem
        # The pinned final state is the endpoint of a feasible rollout, so
        # some rollout must hit it exactly; recover it by matching the
        # declared final state against the one-arc control family.
        controls = np.tile([0.8, 0.6], (ocp.n_nodes - 1, 1))
        z = simulate_rollout(ocp, controls)
        states, _ = ocp.split(z)
        np.testing.assert_allclose(states[-1], ocp.final_state, atol=1e-12)

    def test_toy_notes_match_behaviour(self):
        bench = builtin("toy-sharp-1d")
        comp, _ = bench.build()
        assert comp.value(np.array([1.0])) == pytest.approx(1.0)
        assert comp.value(np.array([3.0])) == pytest.approx(oracles.toy_sharp_1d_value(3.0))
