"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: dense grids, vertex enumeration, an
external LP solver, hand-rolled finite differences, brute-force sweeps.
The point is that none of it shares code with the solver being tested, so
agreement is evidence rather than tautology.
"""

import itertools

import numpy as np
from scipy.optimize import linprog

from scvxkit import CompositeObjective, ConvexOuter, SmoothMap


def outer_value_rows(values, n_cost, n_eq, weight):
    """Penalty objective over rows, written from scratch: sum of cost
    entries plus weight times (1-norm of eq entries + hinge of ineq entries)."""
    v = np.asarray(values, dtype=float)
    cost = v[:, :n_cost].sum(axis=1)
    eq = np.abs(v[:, n_cost:n_cost + n_eq]).sum(axis=1)
    ineq = np.clip(v[:, n_cost + n_eq:], 0.0, None).sum(axis=1)
    return cost + weight * (eq + ineq)


def outer_value(values, n_cost, n_eq, weight):
    return float(outer_value_rows(np.asarray(values, dtype=float)[None, :],
                                  n_cost, n_eq, weight)[0])


def model_min_on_grid(g_value, jacobian, n_cost, n_eq, weight, radius, points=41):
    """Brute-force minimum of the piecewise-linear model over a box grid.

    Returns (min value, argmin step).  Exact for instances whose kinks line
    up with the grid lattice; a lower-bound witness otherwise.
    """
    jac = np.asarray(jacobian, dtype=float)
    n = jac.shape[1]
    axes = [np.linspace(-radius, radius, points)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    steps = np.stack([m.ravel() for m in mesh], axis=1)
    vals = np.asarray(g_value, dtype=float)[None, :] + steps @ jac.T
    objective = outer_value_rows(vals, n_cost, n_eq, weight)
    best = int(np.argmin(objective))
    return float(objective[best]), steps[best]


def scipy_model_min(g_value, jacobian, n_cost, n_eq, weight, radius):
    """Epigraph LP for the trust-region model, solved by scipy's HiGHS."""
    g = np.asarray(g_value, dtype=float)
    jac = np.asarray(jacobian, dtype=float)
    dim, n = jac.shape
    n_ineq = dim - n_cost - n_eq
    jac_cost = jac[:n_cost]
    jac_eq = jac[n_cost:n_cost + n_eq]
    jac_ineq = jac[n_cost + n_eq:]

    c = np.concatenate([jac_cost.sum(axis=0) if n_cost else np.zeros(n),
                        np.full(n_eq, weight), np.full(n_ineq, weight)])
    rows = []
    rhs = []
    for i in range(n_eq):
        t_col = np.zeros(n_eq + n_ineq)
        t_col[i] = -1.0
        rows.append(np.concatenate([jac_eq[i], t_col]))
        rhs.append(-g[n_cost + i])
        rows.append(np.concatenate([-jac_eq[i], t_col]))
        rhs.append(g[n_cost + i])
    for i in range(n_ineq):
        s_col = np.zeros(n_eq + n_ineq)
        s_col[n_eq + i] = -1.0
        rows.append(np.concatenate([jac_ineq[i], s_col]))
        rhs.append(-g[n_cost + n_eq + i])
    a_ub = np.asarray(rows) if rows else None
    b_ub = np.asarray(rhs) if rhs else None
    bounds = [(-radius, radius)] * n + [(0.0, None)] * (n_eq + n_ineq)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"scipy model LP failed: {res.message}")
    return float(res.fun) + float(g[:n_cost].sum())


def scipy_box_lp(c, a_ub, b_ub, lb, ub):
    """Reference solve of min c@x, a_ub@x <= b_ub, lb <= x <= ub."""
    c = np.asarray(c, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    bounds = [(lo, None if np.isinf(hi) else hi) for lo, hi in zip(lb, ub)]
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, c.size) if np.size(a_ub) else None
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1) if np.size(b_ub) else None
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    return res


def dense_pivot(tableau, basis, row, col, rows):
    """Simplex pivot as a rank-1 update of the whole tableau.

    Drop-in for scvxkit.simplex._pivot, which restricts the same update to
    the nonzero rows (given by rows) and the nonzero pivot-row columns; the
    two must give the same pivots and bits.  rows is ignored here.
    """
    piv_row = tableau[row] / tableau[row, col]
    col_vals = tableau[:, col].copy()
    tableau -= np.outer(col_vals, piv_row)
    tableau[row] = piv_row
    basis[row] = col


def stacked_tableau(a_ub, b_ub, lb, ub):
    """Starting simplex tableau assembled by stacking and flipping copies.

    Reference for scvxkit.simplex._tableau, which writes the same rows
    straight into the tableau: the a_ub rows are stacked on the finite
    upper-bound rows, rows with a negative rhs are negated through copies,
    and the result is copied into a column-major tableau.  Returns the
    tableau, the starting basis, the rows carrying an artificial and the
    width of the rhs, structural and slack columns.
    """
    m_ub, n = a_ub.shape
    rows = [a_ub]
    rhs = [b_ub - a_ub @ lb]
    finite_ub = np.flatnonzero(np.isfinite(ub))
    if finite_ub.size:
        ub_rows = np.zeros((finite_ub.size, n))
        ub_rows[np.arange(finite_ub.size), finite_ub] = 1.0
        rows.append(ub_rows)
        rhs.append(ub[finite_ub] - lb[finite_ub])
    a_all = np.vstack(rows)
    b_all = np.concatenate(rhs)
    m = a_all.shape[0]

    flip = b_all < 0.0
    a_all = np.where(flip[:, None], -a_all, a_all)
    b_all = np.where(flip, -b_all, b_all)
    slack_sign = np.where(flip, -1.0, 1.0)
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    width = n + m + 1

    tableau = np.zeros((m + 1, n + m + n_art + 1), order="F")
    tableau[:m, 0] = b_all
    tableau[:m, 1:n + 1] = a_all
    tableau[np.arange(m), n + 1 + np.arange(m)] = slack_sign
    if n_art:
        tableau[art_rows, width + np.arange(n_art)] = 1.0

    basis = np.empty(m, dtype=int)
    basis[~flip] = n + 1 + np.flatnonzero(~flip)
    basis[flip] = width + np.arange(n_art)
    return tableau, basis, art_rows, width


def vertex_min_box_lp(c, a_ub, b_ub, lb, ub, tol=1e-9):
    """Enumerate basic points of a small finite-box LP and take the best.

    Only valid for finite bounds and a handful of variables; used to check
    the simplex against first principles rather than another solver.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1) if np.size(b_ub) else np.zeros(0)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    planes = [(a_ub[i], b_ub[i]) for i in range(a_ub.shape[0])]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        planes.append((e.copy(), ub[i]))
        planes.append((-e, -lb[i]))
    best_x, best_v = None, np.inf
    for combo in itertools.combinations(range(len(planes)), n):
        a = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if np.any(a_ub @ x > b_ub + tol) or np.any(x > ub + tol) or np.any(x < lb - tol):
            continue
        v = float(c @ x)
        if v < best_v:
            best_v, best_x = v, x
    return best_x, best_v


def fd_jacobian(fun, z, h=1e-7):
    """Plain central-difference Jacobian of a vector-valued function."""
    z = np.asarray(z, dtype=float)
    f0 = np.asarray(fun(z), dtype=float)
    jac = np.zeros((f0.size, z.size))
    for i in range(z.size):
        step = h * (1.0 + abs(z[i]))
        zp = z.copy()
        zp[i] += step
        zm = z.copy()
        zm[i] -= step
        jac[:, i] = (np.asarray(fun(zp), dtype=float) - np.asarray(fun(zm), dtype=float)) / (2.0 * step)
    return jac


def transcribed_values(ocp, z):
    """Inner map of transcribe(ocp, .) at the single point z, one node at a
    time: each callable sees one x of shape (n_x,) and one u of shape
    (n_u,).  Rows follow the documented order: N cost rows (stages, then
    terminal), the dynamics defects node by node, the initial and final
    pins, then at each control node its path inequalities followed by its
    finite control bounds, upper before lower."""
    z = np.asarray(z, dtype=float)
    n_x, n_u, n_nodes = ocp.n_x, ocp.n_u, ocp.n_nodes
    states = z[:n_nodes * n_x].reshape(n_nodes, n_x)
    controls = z[n_nodes * n_x:].reshape(n_nodes - 1, n_u)
    rows = [ocp.stage_cost(states[k], controls[k]) for k in range(n_nodes - 1)]
    rows.append(0.0 if ocp.terminal_cost is None else ocp.terminal_cost(states[-1]))
    for k in range(n_nodes - 1):
        rows.extend(states[k + 1] - ocp.dynamics(states[k], controls[k]))
    rows.extend(states[0] - ocp.initial_state)
    if ocp.final_state is not None:
        rows.extend(states[-1] - ocp.final_state)
    for k in range(n_nodes - 1):
        rows.extend(pc.fun(states[k], controls[k]) for pc in ocp.path_inequalities)
        for j, (lo, hi) in enumerate(ocp.control_bounds or ()):
            if np.isfinite(hi):
                rows.append(controls[k, j] - hi)
            if np.isfinite(lo):
                rows.append(lo - controls[k, j])
    return np.array(rows, dtype=float)


def affine_composite(g0, a_mat, n_cost, n_eq, weight):
    """Composite with affine inner map G(z) = g0 + a_mat @ z."""
    g0 = np.asarray(g0, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float)
    dim, n = a_mat.shape
    smooth = SmoothMap(
        input_dim=n, output_dim=dim,
        evaluate=lambda z, g=g0, a=a_mat: g + (a @ z[..., None])[..., 0],
        jacobian=lambda z, a=a_mat: a.copy(),
    )
    outer = ConvexOuter(range(0, n_cost), range(n_cost, n_cost + n_eq),
                        range(n_cost + n_eq, dim), weight)
    return CompositeObjective(g=smooth, psi=outer)


def lattice_model_instance(rng):
    """Random separable instance whose model kinks sit on the 41-point grid.

    Coefficients are powers of two and offsets are multiples of 1/16, so
    with radius 1.25 (grid spacing 1/16) every one-dimensional kink and both
    box corners land exactly on grid points.  A dense grid then attains the
    continuous minimum exactly, which is what makes it a usable oracle.
    """
    n = int(rng.integers(1, 4))
    dim = int(rng.integers(1, 7))
    kinds = np.sort(rng.integers(0, 3, size=dim))
    n_cost = int(np.count_nonzero(kinds == 0))
    n_eq = int(np.count_nonzero(kinds == 1))
    a_mat = np.zeros((dim, n))
    cols = rng.integers(0, n, size=dim)
    coeffs = rng.choice([-1.0, -0.5, -0.25, 0.25, 0.5, 1.0], size=dim)
    a_mat[np.arange(dim), cols] = coeffs
    g0 = rng.integers(-32, 33, size=dim) / 16.0
    weight = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
    composite = affine_composite(g0, a_mat, n_cost, n_eq, weight)
    return composite, 1.25


def direct_affine_ocp_solve(ocp):
    """Solve a linear-cost, affine-dynamics problem directly as one LP.

    Constraints are kept hard (equalities plus control bounds), so the
    optimal value is the true constrained optimum rather than a penalty
    approximation.
    """
    n_x, n_u, n_nodes = ocp.n_x, ocp.n_u, ocp.n_nodes
    n_z = ocp.n_z
    x_probe = np.zeros(n_x)
    u_probe = np.zeros(n_u)
    a_mat, b_mat = ocp.dynamics_jac(x_probe, u_probe)
    w = np.asarray(ocp.dynamics(x_probe, u_probe), dtype=float)

    c = np.zeros(n_z)
    gx, gu = ocp.stage_cost_grad(x_probe, u_probe)
    for k in range(n_nodes - 1):
        c[k * n_x:(k + 1) * n_x] += gx
        c[n_nodes * n_x + k * n_u:n_nodes * n_x + (k + 1) * n_u] += gu
    if ocp.terminal_cost_grad is not None:
        c[(n_nodes - 1) * n_x:n_nodes * n_x] += np.asarray(
            ocp.terminal_cost_grad(x_probe), dtype=float)

    n_eq = n_x * (n_nodes - 1) + n_x + (n_x if ocp.final_state is not None else 0)
    a_eq = np.zeros((n_eq, n_z))
    b_eq = np.zeros(n_eq)
    row = 0
    for k in range(n_nodes - 1):
        rows = slice(row, row + n_x)
        a_eq[rows, (k + 1) * n_x:(k + 2) * n_x] = np.eye(n_x)
        a_eq[rows, k * n_x:(k + 1) * n_x] = -np.asarray(a_mat, dtype=float)
        a_eq[rows, n_nodes * n_x + k * n_u:n_nodes * n_x + (k + 1) * n_u] = \
            -np.asarray(b_mat, dtype=float)
        b_eq[rows] = w
        row += n_x
    a_eq[row:row + n_x, :n_x] = np.eye(n_x)
    b_eq[row:row + n_x] = np.asarray(ocp.initial_state, dtype=float)
    row += n_x
    if ocp.final_state is not None:
        a_eq[row:row + n_x, (n_nodes - 1) * n_x:n_nodes * n_x] = np.eye(n_x)
        b_eq[row:row + n_x] = np.asarray(ocp.final_state, dtype=float)

    bounds = [(None, None)] * (n_nodes * n_x)
    for k in range(n_nodes - 1):
        if ocp.control_bounds is None:
            bounds.extend([(None, None)] * n_u)
        else:
            for lo, hi in ocp.control_bounds:
                bounds.append((lo if np.isfinite(lo) else None,
                               hi if np.isfinite(hi) else None))
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"direct solve failed: {res.message}")
    return res.x, float(res.fun)


def toy_sharp_1d_value(z):
    """The 1-d sharp toy objective, written out by hand."""
    return float(z) ** 2 + 10.0 * abs(float(z) - 1.0)


def sweep_sharp_constant(z_bar, delta, points=100001):
    """Dense-sweep growth constant of the 1-d toy around z_bar.

    Offsets too small to move z_bar to a distinct float are dropped, and the
    ratio uses the realized offset |z - z_bar| rather than the nominal one.
    """
    zs = z_bar + np.linspace(-delta, delta, points)
    zs = zs[zs != z_bar]
    j_bar = toy_sharp_1d_value(z_bar)
    ratios = [(toy_sharp_1d_value(z) - j_bar) / abs(z - z_bar) for z in zs]
    return float(np.min(ratios))


def quadratic_composite(n):
    """Smooth pure-quadratic objective |z|_2^2 as a cost-only composite."""
    smooth = SmoothMap(
        input_dim=n, output_dim=n,
        evaluate=lambda z: np.asarray(z, dtype=float) ** 2,
        jacobian=lambda z: np.diag(2.0 * np.asarray(z, dtype=float)),
    )
    outer = ConvexOuter(range(0, n), range(n, n), range(n, n), 1.0)
    return CompositeObjective(g=smooth, psi=outer)


def abs_composite(weight=1.0):
    """J(z) = weight * |z| as a single equality-penalty component."""
    smooth = SmoothMap(
        input_dim=1, output_dim=1,
        evaluate=lambda z: np.asarray(z, dtype=float).copy(),
        jacobian=lambda z: np.ones((1, 1)),
    )
    outer = ConvexOuter(range(0, 0), range(0, 1), range(1, 1), weight)
    return CompositeObjective(g=smooth, psi=outer)


def linear_composite(slopes):
    """J(z) = slopes @ z as plain cost components, one per entry."""
    slopes = np.asarray(slopes, dtype=float)
    n = slopes.size
    smooth = SmoothMap(
        input_dim=n, output_dim=n,
        evaluate=lambda z, s=slopes: s * np.asarray(z, dtype=float),
        jacobian=lambda z, s=slopes: np.diag(s),
    )
    outer = ConvexOuter(range(0, n), range(n, n), range(n, n), 1.0)
    return CompositeObjective(g=smooth, psi=outer)


def quadratic_error_sequence(e0=0.1, count=5):
    """Errors following e_{k+1} = e_k^2 exactly: textbook order two."""
    errors = [e0]
    for _ in range(count - 1):
        errors.append(errors[-1] ** 2)
    return np.asarray(errors)
