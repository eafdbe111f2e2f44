"""Discrete-time optimal control problems and their penalty transcription.

A problem is N state nodes and N-1 control nodes under a one-step dynamics
map.  Transcription stacks the decision vector as all states then all
controls and emits one smooth component per stage cost, dynamics defect,
boundary-condition residual, path inequality, and control-bound residual.
Dynamics and boundary conditions become 1-norm penalty terms, inequalities
become hinge penalty terms, so a single weight converts the whole problem
into an unconstrained composite objective.

Control bounds are deliberately transcribed as penalized inequality
components rather than hard bounds on the decision vector: that keeps every
constraint visible to the active-set diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .composite import (
    CompositeObjective,
    ConvexOuter,
    NonFiniteError,
    SmoothMap,
    as_points,
)

@dataclass(frozen=True)
class PathConstraint:
    """Scalar smooth inequality fun(x, u) <= 0 enforced at control nodes.

    Like every callable of an OptimalControlProblem, fun and grad take
    stacked nodes, x[..., n_x] and u[..., n_u]: fun returns one value per
    node, shape (...), and grad the pair of gradients, shapes (..., n_x)
    and (..., n_u) or anything that broadcasts to them.
    """

    fun: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]
    name: str = "path"


@dataclass(frozen=True)
class OptimalControlProblem:
    """Problem data: dynamics, boundary conditions, costs, and bounds.

    dynamics maps (x_k, u_k) to x_{k+1}; dynamics_jac returns the pair of
    Jacobians with respect to state and control.  stage_cost applies at
    nodes 0..N-2 together with the control; terminal_cost, when present,
    applies to the last state.  control_bounds gives one (lo, hi) interval
    per control component; either side may be infinite.

    Every callable takes stacked nodes: x of shape (..., n_x) and u of
    shape (..., n_u), one node per index of the leading axes, which
    transcription fills with all nodes of one or many decision vectors at
    once.  dynamics returns (..., n_x); the costs return (...); their
    derivatives return (..., n_x) and (..., n_u) gradients and
    (..., n_x, n_x) and (..., n_x, n_u) Jacobians, or arrays that broadcast
    to those shapes (a constant Jacobian may be returned unstacked).  Write
    the callables with trailing-axis indexing, x[..., 0] rather than
    float(x[0]), for example

        stage_cost=lambda x, u: 0.5 * u[..., 0] ** 2

    and give each node the bits it would get alone: a stacked
    (m @ x[..., None])[..., 0] rounds like m @ x, a sum of products may not.
    """

    n_x: int
    n_u: int
    n_nodes: int
    dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dynamics_jac: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]
    initial_state: np.ndarray
    stage_cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stage_cost_grad: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]
    final_state: Optional[np.ndarray] = None
    terminal_cost: Optional[Callable[[np.ndarray], np.ndarray]] = None
    terminal_cost_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    path_inequalities: Tuple[PathConstraint, ...] = ()
    control_bounds: Optional[Tuple[Tuple[float, float], ...]] = None
    name: str = "ocp"

    def __post_init__(self):
        if self.n_x < 1 or self.n_u < 1:
            raise ValueError("n_x and n_u must be positive")
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if np.asarray(self.initial_state, dtype=float).shape != (self.n_x,):
            raise ValueError("initial_state must have length n_x")
        if self.final_state is not None:
            if np.asarray(self.final_state, dtype=float).shape != (self.n_x,):
                raise ValueError("final_state must have length n_x")
        if (self.terminal_cost is None) != (self.terminal_cost_grad is None):
            raise ValueError("terminal_cost and terminal_cost_grad go together")
        if self.control_bounds is not None:
            if len(self.control_bounds) != self.n_u:
                raise ValueError("control_bounds needs one interval per control")
            for lo, hi in self.control_bounds:
                if not lo < hi:
                    raise ValueError("control bounds must be nonempty intervals")

    @property
    def n_z(self) -> int:
        return self.n_x * self.n_nodes + self.n_u * (self.n_nodes - 1)

    def split(self, z) -> Tuple[np.ndarray, np.ndarray]:
        """Decision vectors (..., n_z) -> states (..., N, n_x) and controls (..., N-1, n_u)."""
        z = as_points(z, self.n_z, "decision vector")
        lead, n_state = z.shape[:-1], self.n_x * self.n_nodes
        states = z[..., :n_state].reshape(lead + (self.n_nodes, self.n_x))
        controls = z[..., n_state:].reshape(lead + (self.n_nodes - 1, self.n_u))
        return states, controls

    def join(self, states: np.ndarray, controls: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(states, dtype=float).ravel(),
                               np.asarray(controls, dtype=float).ravel()])


@dataclass(frozen=True)
class DiscretizedProblem:
    """Transcribed problem: the composite objective plus the index map back.

    labels names each component of the inner map in order, so reports can
    speak about defects and bounds instead of raw indices.
    """

    composite: CompositeObjective
    ocp: OptimalControlProblem
    labels: Tuple[str, ...]


def transcribe(ocp: OptimalControlProblem, penalty_weight: float) -> DiscretizedProblem:
    """Stack the problem into a composite exact-penalty objective.

    Rows come in one order, laid out once by a table of row blocks: N cost
    rows (stages, then terminal), the dynamics defects node by node, the
    boundary pins, then at each control node its path inequalities followed
    by its finite control bounds.  The inner map evaluates stacks of
    decision vectors, and for any stack it calls each of the problem's
    callables once, with every node stacked; its Jacobian, per point,
    likewise calls each derivative once.
    """
    n_x, n_u, N = ocp.n_x, ocp.n_u, ocp.n_nodes
    n_z = ocp.n_z
    paths = ocp.path_inequalities

    # Boundary pins: the initial state, and the final state when declared.
    pin_nodes = np.array([0] if ocp.final_state is None else [0, N - 1])
    pin_names = ("initial_state", "final_state")[:len(pin_nodes)]
    targets = np.array([ocp.initial_state, ocp.final_state][:len(pin_nodes)], dtype=float)
    # Finite control bounds as (j, side, sign, bound): the row at node k is
    # sign * u_j - sign * bound <= 0, which is u_j - hi or lo - u_j exactly
    # (sign * (u_j - bound) would turn a +0.0 on a lower bound into -0.0).
    bounds = [(j, side, sign, float(bound)) for j, (lo, hi) in enumerate(ocp.control_bounds or ())
              for side, sign, bound in (("upper", 1.0, hi), ("lower", -1.0, lo)) if np.isfinite(bound)]

    # The row table, in row order: each block's index shape and the label of
    # its row at each index.  Each control node holds its path rows, then its
    # bound rows, named (prefix, suffix) around the node index.
    node_names = [(pc.name, "") for pc in paths] + [(f"control_{side}", f"[{j}]") for j, side, _, _ in bounds]
    table = (
        ((N,), lambda k: f"stage_cost[{k}]" if k < N - 1 else "terminal_cost"),
        ((N - 1, n_x), lambda k, i: f"dynamics_defect[{k}][{i}]"),
        ((len(pin_nodes), n_x), lambda p, i: f"{pin_names[p]}[{i}]"),
        ((N - 1, len(node_names)), lambda k, c: f"{node_names[c][0]}[{k}]{node_names[c][1]}"),
    )
    # Lay the blocks out one after another, each a run of rows.  Labels,
    # values (through the runs), the Jacobian (through the row indices) and
    # the outer ranges all read this one layout.
    labels, runs = [], []
    for shape, label in table:
        runs.append(slice(len(labels), len(labels) + math.prod(shape)))
        labels += [label(*index) for index in np.ndindex(shape)]
    dim = len(labels)
    cost_run, defect_run, pin_run, node_run = runs
    cost_rows, defect_rows, pin_rows, node_rows = (
        np.arange(dim)[run].reshape(shape) for run, (shape, _) in zip(runs, table))
    path_rows, bound_rows = node_rows[:, :len(paths)], node_rows[:, len(paths):]
    # Column indices of each node's state (N, n_x) and control (N-1, n_u).
    x_cols = np.arange(N * n_x).reshape(N, n_x)
    u_cols = N * n_x + np.arange((N - 1) * n_u).reshape(N - 1, n_u)

    def evaluate(z: np.ndarray) -> np.ndarray:
        # split's reshape, inline: SmoothMap.value has already checked z.
        lead = z.shape[:-1]
        states = z[..., :N * n_x].reshape(lead + (N, n_x))
        controls = z[..., N * n_x:].reshape(lead + (N - 1, n_u))
        xs = states[..., :-1, :]
        out = np.empty(lead + (dim,))
        out[..., :N - 1] = ocp.stage_cost(xs, controls)
        out[..., N - 1] = ocp.terminal_cost(states[..., -1, :]) if ocp.terminal_cost is not None else 0.0
        out[..., defect_run] = (states[..., 1:, :] - ocp.dynamics(xs, controls)).reshape(lead + (-1,))
        out[..., pin_run] = (states[..., pin_nodes, :] - targets).reshape(lead + (-1,))
        # The node block in its (node, row) shape: a view, since it is a run.
        nodes = out[..., node_run].reshape(lead + node_rows.shape)
        for i, pc in enumerate(paths):
            nodes[..., i] = pc.fun(xs, controls)
        for i, (j, _, sign, bound) in enumerate(bounds, start=len(paths)):
            nodes[..., i] = sign * controls[..., j] - sign * bound
        return out

    def jacobian(z: np.ndarray) -> np.ndarray:
        states, controls = ocp.split(z)
        xs = states[:-1]
        jac = np.zeros((dim, n_z))
        gx, gu = ocp.stage_cost_grad(xs, controls)
        jac[cost_rows[:-1, None], x_cols[:-1]] = gx
        jac[cost_rows[:-1, None], u_cols] = gu
        if ocp.terminal_cost is not None:
            jac[cost_rows[-1], x_cols[-1]] = ocp.terminal_cost_grad(states[-1])
        a_mat, b_mat = ocp.dynamics_jac(xs, controls)
        jac[defect_rows, x_cols[1:]] = 1.0
        jac[defect_rows[:, :, None], x_cols[:-1, None, :]] = -np.asarray(a_mat, dtype=float)
        jac[defect_rows[:, :, None], u_cols[:, None, :]] = -np.asarray(b_mat, dtype=float)
        jac[pin_rows, x_cols[pin_nodes]] = 1.0
        for i, pc in enumerate(paths):
            gx, gu = pc.grad(xs, controls)
            jac[path_rows[:, i, None], x_cols[:-1]] = gx
            jac[path_rows[:, i, None], u_cols] = gu
        for i, (j, _, sign, _) in enumerate(bounds):
            jac[bound_rows[:, i], u_cols[:, j]] = sign
        return jac

    smooth = SmoothMap(input_dim=n_z, output_dim=dim, evaluate=evaluate, jacobian=jacobian)
    outer = ConvexOuter(
        cost_range=range(dim)[cost_run],
        eq_range=range(defect_run.start, pin_run.stop),
        ineq_range=range(dim)[node_run],
        penalty_weight=float(penalty_weight),
    )
    composite = CompositeObjective(g=smooth, psi=outer)
    return DiscretizedProblem(composite=composite, ocp=ocp, labels=tuple(labels))


def simulate_rollout(ocp: OptimalControlProblem, controls) -> np.ndarray:
    """Forward-simulate the dynamics and stack the result.

    The returned decision vector satisfies every dynamics defect and the
    initial condition by construction; only a declared final state can be
    violated.
    """
    controls = np.asarray(controls, dtype=float).reshape(ocp.n_nodes - 1, ocp.n_u)
    states = np.empty((ocp.n_nodes, ocp.n_x))
    states[0] = np.asarray(ocp.initial_state, dtype=float)
    for k in range(ocp.n_nodes - 1):
        nxt = np.asarray(ocp.dynamics(states[k], controls[k]), dtype=float)
        if not np.all(np.isfinite(nxt)):
            raise NonFiniteError(f"rollout state at node {k + 1}", int(np.argmin(np.isfinite(nxt))))
        states[k + 1] = nxt
    return ocp.join(states, controls)


@dataclass(frozen=True)
class Benchmark:
    """A named instance plus everything needed to run it unattended.

    problem is an OptimalControlProblem, transcribed at the requested
    weight, or a function from weight to CompositeObjective.
    """

    name: str
    problem: Union[OptimalControlProblem, Callable[[float], CompositeObjective]]
    default_penalty_weight: float
    default_start: np.ndarray

    def build(self, penalty_weight: Optional[float] = None
              ) -> Tuple[CompositeObjective, Optional[DiscretizedProblem]]:
        """Materialize the composite objective, optionally reweighted."""
        weight = self.default_penalty_weight if penalty_weight is None else float(penalty_weight)
        if isinstance(self.problem, OptimalControlProblem):
            disc = transcribe(self.problem, weight)
            return disc.composite, disc
        return self.problem(weight), None


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis of stacked vectors.

    A stacked matmul, so each node gets the bits of its own 1-D a @ b;
    (a * b).sum(-1) and np.einsum round differently.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for each stacked vector x[..., n], with the bits of m @ x alone."""
    return (m @ x[..., None])[..., 0]


# math.exp elementwise: np.exp rounds differently.
_exp = np.vectorize(math.exp, otypes=[float])


def _effort_cost(dt: float, n_x: int):
    """Stage cost effort * |u|^2, effort = 0.05 * dt, and its gradient for n_x states."""
    effort = 0.05 * dt

    def stage_cost(x, u):
        return effort * _dot(u, u)

    def stage_cost_grad(x, u):
        return np.zeros(n_x), 2.0 * effort * u

    return stage_cost, stage_cost_grad


def _convex_lqr_box(n_nodes: int = 6, dt: float = 0.25, control_limit: float = 1.0) -> OptimalControlProblem:
    a_mat = np.array([[1.0, dt], [0.0, 1.0]])
    b_mat = np.array([[0.0], [dt]])
    c_x = np.array([0.2, 0.0])
    c_u = np.array([0.1])

    def dynamics(x, u):
        return _matvec(a_mat, x) + _matvec(b_mat, u)

    def dynamics_jac(x, u):
        return a_mat, b_mat

    def stage_cost(x, u):
        return _dot(x, c_x) + _dot(u, c_u)

    def stage_cost_grad(x, u):
        return c_x, c_u

    def terminal_cost(x):
        return _dot(x, c_x)

    def terminal_cost_grad(x):
        return c_x

    return OptimalControlProblem(
        n_x=2, n_u=1, n_nodes=n_nodes,
        dynamics=dynamics, dynamics_jac=dynamics_jac,
        initial_state=np.array([1.0, 0.0]),
        stage_cost=stage_cost, stage_cost_grad=stage_cost_grad,
        terminal_cost=terminal_cost, terminal_cost_grad=terminal_cost_grad,
        control_bounds=((-control_limit, control_limit),),
        name="convex-lqr-box",
    )


def _double_integrator_obstacle(n_nodes: int = 8, dt: float = 0.6,
                                obstacle_center: Tuple[float, float] = (2.5, 0.3),
                                obstacle_radius: float = 1.0,
                                control_limit: float = 2.0,
                                target: Tuple[float, float] = (5.0, 0.0)) -> OptimalControlProblem:
    center = np.asarray(obstacle_center, dtype=float)
    r2 = float(obstacle_radius) ** 2
    a_mat = np.eye(4)
    a_mat[0, 2] = dt
    a_mat[1, 3] = dt
    b_mat = np.zeros((4, 2))
    b_mat[2, 0] = dt
    b_mat[3, 1] = dt

    def dynamics(x, u):
        return np.concatenate([x[..., :2] + dt * x[..., 2:], x[..., 2:] + dt * u], axis=-1)

    def dynamics_jac(x, u):
        return a_mat, b_mat

    stage_cost, stage_cost_grad = _effort_cost(dt, 4)

    def keep_out(x, u):
        diff = x[..., :2] - center
        return r2 - _dot(diff, diff)

    def keep_out_grad(x, u):
        gx = np.zeros(x.shape)
        gx[..., :2] = -2.0 * (x[..., :2] - center)
        return gx, np.zeros(2)

    return OptimalControlProblem(
        n_x=4, n_u=2, n_nodes=n_nodes,
        dynamics=dynamics, dynamics_jac=dynamics_jac,
        initial_state=np.zeros(4),
        final_state=np.array([target[0], target[1], 0.0, 0.0]),
        stage_cost=stage_cost, stage_cost_grad=stage_cost_grad,
        path_inequalities=(PathConstraint(keep_out, keep_out_grad, name="keep_out"),),
        control_bounds=((-control_limit, control_limit), (-control_limit, control_limit)),
        name="double-integrator-obstacle",
    )


def _dubins_car(n_nodes: int = 6, dt: float = 0.5,
                speed_limit: float = 1.0, turn_limit: float = 1.5) -> OptimalControlProblem:
    def dynamics(x, u):
        return np.stack([
            x[..., 0] + dt * u[..., 0] * np.cos(x[..., 2]),
            x[..., 1] + dt * u[..., 0] * np.sin(x[..., 2]),
            x[..., 2] + dt * u[..., 1],
        ], axis=-1)

    def dynamics_jac(x, u):
        s, c = np.sin(x[..., 2]), np.cos(x[..., 2])
        a_mat = np.zeros(x.shape[:-1] + (3, 3))
        a_mat[..., [0, 1, 2], [0, 1, 2]] = 1.0
        a_mat[..., 0, 2] = -dt * u[..., 0] * s
        a_mat[..., 1, 2] = dt * u[..., 0] * c
        b_mat = np.zeros(x.shape[:-1] + (3, 2))
        b_mat[..., 0, 0] = dt * c
        b_mat[..., 1, 0] = dt * s
        b_mat[..., 2, 1] = dt
        return a_mat, b_mat

    stage_cost, stage_cost_grad = _effort_cost(dt, 3)
    ocp = OptimalControlProblem(
        n_x=3, n_u=2, n_nodes=n_nodes,
        dynamics=dynamics, dynamics_jac=dynamics_jac,
        initial_state=np.zeros(3),
        stage_cost=stage_cost, stage_cost_grad=stage_cost_grad,
        control_bounds=((0.0, speed_limit), (-turn_limit, turn_limit)),
        name="dubins-car",
    )
    # Reachable target pose: endpoint of a constant-rate arc at 80% speed.
    nominal = np.tile([0.8 * speed_limit, 0.4 * turn_limit], (n_nodes - 1, 1))
    states, _ = ocp.split(simulate_rollout(ocp, nominal))
    return replace(ocp, final_state=states[-1].copy())


# z ** 2 below is np.float_power, which rounds like the scalar z[0] ** 2;
# an array ** 2 squares and can differ in the last bit.
def _toy_sharp_composite(n: int, weight: float) -> CompositeObjective:
    """J(z) = |z|^2 + weight * sum_i |z_i - 1| on R^n."""
    smooth = SmoothMap(
        input_dim=n, output_dim=1 + n,
        evaluate=lambda z: np.concatenate(
            [np.add.reduce(np.float_power(z, 2), axis=-1)[..., None], z - 1.0], axis=-1),
        jacobian=lambda z: np.vstack([2.0 * z, np.eye(n)]),
    )
    outer = ConvexOuter(range(0, 1), range(1, 1 + n), range(1 + n, 1 + n), weight)
    return CompositeObjective(g=smooth, psi=outer)


def _noncompact_composite(weight: float) -> CompositeObjective:
    # J(z) = -z + exp(-z).  The slope stays at or below -1, so the model
    # always predicts at least a full trust-region radius of decrease and a
    # stationarity stop can never fire; every sublevel set is unbounded.
    smooth = SmoothMap(
        input_dim=1, output_dim=2,
        evaluate=lambda z: np.stack([-z[..., 0], _exp(-z[..., 0])], axis=-1),
        jacobian=lambda z: np.array([[-1.0], [-math.exp(-z[0])]]),
    )
    outer = ConvexOuter(range(0, 2), range(2, 2), range(2, 2), weight)
    return CompositeObjective(g=smooth, psi=outer)


def _rollout_start(make_ocp: Callable[..., OptimalControlProblem], control):
    """make(**overrides) for an OCP whose default start is the rollout of
    one constant control."""
    def make(**overrides):
        ocp = make_ocp(**overrides)
        return ocp, simulate_rollout(ocp, np.tile(control, (ocp.n_nodes - 1, 1)))
    return make


# name -> (make(**overrides) -> (problem, default start), default penalty weight).
# The composite built-ins take no overrides.
_BUILTINS = {
    # Affine dynamics, linear cost, box on the control.  The model is exact,
    # so every defined ratio is 1 and the solve matches a direct LP on the
    # stacked problem.
    "convex-lqr-box": (_rollout_start(_convex_lqr_box, [0.0]), 10.0),
    # Planar double integrator steering around one circular keep-out region
    # to a pinned final state.  Nonconvex through the keep-out components
    # only.  Weights of 5 and up already recover the constrained optimum
    # here; the default 50 leaves a wide margin.
    "double-integrator-obstacle": (_rollout_start(_double_integrator_obstacle, [0.0, 0.0]), 50.0),
    # Unicycle kinematics with speed and turn-rate bounds; the target pose
    # is the endpoint of a feasible arc, so an exact-penalty minimizer
    # reaches it exactly.
    "dubins-car": (_rollout_start(_dubins_car, [0.5, 0.0]), 10.0),
    # J(z) = z^2 + 10|z - 1|.  Minimizer z = 1 for any weight above 2,
    # J(1) = 1.  One-sided slopes at the minimizer are 8 (left) and 12
    # (right): sharp with constant 8, and the model growth constant there
    # is also 8.
    "toy-sharp-1d": (lambda: (partial(_toy_sharp_composite, 1), np.array([3.0])), 10.0),
    # J(z) = |z|^2 + 10(|z1 - 1| + |z2 - 1|).  Minimizer (1, 1) for any
    # weight above 2, J = 2.  Sharp and model growth constants both 8 in
    # the inf norm; the worst direction is a single signed axis.
    "toy-sharp-2d": (lambda: (partial(_toy_sharp_composite, 2), np.array([3.0, -2.0])), 10.0),
    # J(z) = -z + exp(-z), unbounded below (see _noncompact_composite).  Runs
    # end by exhausting the iterate norm budget, never by claiming convergence.
    "noncompact-levelset": (lambda: (_noncompact_composite, np.array([0.0])), 1.0),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, **overrides) -> Benchmark:
    """Return a named builtin instance.

    Overrides feed the instance factory (node count, limits, geometry); the
    penalty weight is not an override here since it belongs to the
    transcription step.  An unknown name, or overrides the factory cannot
    use (wrong name, type, value or length), raise ValueError.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin '{name}'; choose from {BUILTIN_NAMES}")
    make, weight = _BUILTINS[name]
    try:
        problem, start = make(**overrides)
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"bad overrides for builtin '{name}': {exc}") from None
    return Benchmark(name=name, problem=problem, default_penalty_weight=weight,
                     default_start=start)
