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


def scipy_box_lp(c, a_ub, b_ub, lb, ub, tol=None):
    """Reference solve of min c@x, a_ub@x <= b_ub, lb <= x <= ub.

    tol, when given, sets HiGHS's primal and dual feasibility tolerances
    (1e-7 by default); a reference for x needs a tight one, since at the
    default HiGHS may stop at a vertex that is optimal only to 1e-7.
    """
    c = np.asarray(c, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    bounds = [(lo, None if np.isinf(hi) else hi) for lo, hi in zip(lb, ub)]
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, c.size) if np.size(a_ub) else None
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1) if np.size(b_ub) else None
    options = {} if tol is None else {"primal_feasibility_tolerance": tol,
                                      "dual_feasibility_tolerance": tol}
    return linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=options)


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


def one_shot_pivot(tableau, basis, row, col, rows):
    """Simplex pivot as one rank-1 update of the nonzero rows x columns.

    Reference for scvxkit.simplex._pivot, which applies the same update in
    blocks of at most PIVOT_BLOCK_CELLS cells; every cell gets the same
    x - p*q, so the two must leave the same bytes, zero signs included.
    """
    piv_row = tableau[row] / tableau[row, col]
    cols = piv_row.nonzero()[0]
    flat = tableau.reshape(-1, order="F")
    flat[(cols * tableau.shape[0])[:, None] + rows] -= piv_row[cols][:, None] * tableau[rows, col]
    tableau[row] = piv_row
    basis[row] = col


def row_by_row_price(tableau, basis, cost):
    """Objective row of cost, reduced against the basis row by row.

    Reference for scvxkit.simplex._price: every row in order, with the
    coefficient read from the objective row as it stands, and rows whose
    coefficient is zero skipped.  With cost 1 on the artificial columns and
    0 elsewhere it gives phase_one_price's bits: 1.0 * row is row.
    """
    tableau[-1] = cost
    for r in range(basis.size):
        coef = tableau[-1, basis[r]]
        if coef != 0.0:
            tableau[-1] -= coef * tableau[r]


def phase_one_price(tableau, art_rows, width):
    """Phase-1 objective row: the sum of the artificials (columns from width
    on), less each row that holds one.  Reference for scvxkit.simplex._price
    with cost 1 on the artificial columns."""
    tableau[-1] = 0.0
    tableau[-1, width:] = 1.0
    for r in art_rows:
        tableau[-1] -= tableau[r]


def primal_ratio_row(rhs, column, candidates, basis, bland):
    """The primal min-ratio test over candidates, rows with a positive
    column entry (column holds those entries); returns the ties and the
    leaving row.  Reference for scvxkit.simplex._ratio_ties in _run."""
    ratios = rhs[candidates] / column
    best = float(ratios.min())
    tie = ratios <= best + 1e-12 * (1.0 + abs(best))
    candidates = candidates[tie]
    if bland:
        return candidates, int(candidates[basis[candidates].argmin()])
    return candidates, int(candidates[column[tie].argmax()])


def dual_ratio_col(reduced, body, eligible):
    """The dual ratio test over eligible, the indices of body's negative
    entries; returns the ties and the entering tableau column (index + 1).
    Reference for scvxkit.simplex._ratio_ties in _dual_run."""
    ratios = np.maximum(reduced[eligible], 0.0) / -body[eligible]
    best = float(ratios.min())
    candidates = eligible[ratios <= best + 1e-12 * (1.0 + best)]
    return candidates, int(candidates[body[candidates].argmin()]) + 1


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


def label_rows(ocp, z):
    """Every row of transcribe(ocp, .) at the single point z, built label
    by label from the problem's own callables, one node at a time.

    Returns (labels, kinds, values, jac): each row's label, its kind
    ("cost", "eq" or "ineq"), its value and its Jacobian row, in the
    documented order: N cost rows (stages, then terminal), the dynamics
    defects node by node, the initial and final pins, then at each control
    node its path inequalities followed by its finite control bounds, upper
    before lower."""
    z = np.asarray(z, dtype=float)
    n_x, n_u, n_nodes = ocp.n_x, ocp.n_u, ocp.n_nodes
    states = z[:n_nodes * n_x].reshape(n_nodes, n_x)
    controls = z[n_nodes * n_x:].reshape(n_nodes - 1, n_u)
    rows = []

    def x_at(k):
        return slice(k * n_x, (k + 1) * n_x)

    def u_at(k):
        start = n_nodes * n_x + k * n_u
        return slice(start, start + n_u)

    def add(label, kind, value, *entries):
        """One row; entries are (columns, values) pairs written in order."""
        jac_row = np.zeros(z.size)
        for columns, part in entries:
            jac_row[columns] = part
        rows.append((label, kind, float(value), jac_row))

    for k in range(n_nodes - 1):
        gx, gu = ocp.stage_cost_grad(states[k], controls[k])
        add(f"stage_cost[{k}]", "cost", ocp.stage_cost(states[k], controls[k]),
            (x_at(k), gx), (u_at(k), gu))
    if ocp.terminal_cost is None:
        add("terminal_cost", "cost", 0.0)
    else:
        add("terminal_cost", "cost", ocp.terminal_cost(states[-1]),
            (x_at(n_nodes - 1), ocp.terminal_cost_grad(states[-1])))
    for k in range(n_nodes - 1):
        nxt = ocp.dynamics(states[k], controls[k])
        a_mat, b_mat = (np.asarray(m, dtype=float) for m in ocp.dynamics_jac(states[k], controls[k]))
        for i in range(n_x):
            add(f"dynamics_defect[{k}][{i}]", "eq", states[k + 1][i] - nxt[i],
                ((k + 1) * n_x + i, 1.0), (x_at(k), -a_mat[i]), (u_at(k), -b_mat[i]))
    pins = [("initial_state", 0, ocp.initial_state)]
    if ocp.final_state is not None:
        pins.append(("final_state", n_nodes - 1, ocp.final_state))
    for name, node, target in pins:
        for i in range(n_x):
            add(f"{name}[{i}]", "eq", states[node][i] - float(target[i]), (node * n_x + i, 1.0))
    for k in range(n_nodes - 1):
        for pc in ocp.path_inequalities:
            gx, gu = pc.grad(states[k], controls[k])
            add(f"{pc.name}[{k}]", "ineq", pc.fun(states[k], controls[k]), (x_at(k), gx), (u_at(k), gu))
        for j, (lo, hi) in enumerate(ocp.control_bounds or ()):
            column = u_at(k).start + j
            if np.isfinite(hi):
                add(f"control_upper[{k}][{j}]", "ineq", controls[k, j] - hi, (column, 1.0))
            if np.isfinite(lo):
                add(f"control_lower[{k}][{j}]", "ineq", lo - controls[k, j], (column, -1.0))
    labels, kinds, values, jac = zip(*rows)
    return list(labels), list(kinds), np.array(values), np.array(jac)


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


def kinked_model_instance(rng):
    """Random instance whose model kinks at z = 0 sit on sphere_grid_growth's grid.

    As in lattice_model_instance, coefficients are powers of two (or zero)
    and offsets multiples of 1/16, but about half the offsets are exactly 0,
    so those rows are active at z = 0 and kink through d = 0.  Rows with a
    nonzero offset stay on one side of their kink across any step of
    inf-norm below 1/32.  With n <= 2 and coefficient ratios powers of two,
    every kink on a face of the sphere lies at a multiple of a quarter of
    its radius, a point of the 9-point grid.
    """
    n = int(rng.integers(1, 3))
    dim = int(rng.integers(1, 7))
    kinds = np.sort(rng.integers(0, 3, size=dim))
    n_cost = int(np.count_nonzero(kinds == 0))
    n_eq = int(np.count_nonzero(kinds == 1))
    a_mat = rng.choice([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0], size=(dim, n))
    g0 = rng.integers(-32, 33, size=dim) / 16.0
    g0[rng.random(dim) < 0.5] = 0.0
    weight = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
    return affine_composite(g0, a_mat, n_cost, n_eq, weight)


def sphere_grid_growth(g_value, jacobian, n_cost, n_eq, weight, radius, points=9):
    """Brute-force smallest slope (L(d) - L(0)) / radius over the inf-sphere.

    Lays a grid of points per axis over the box of that radius and keeps
    the grid points on its faces, where some |d_i| equals the radius.
    Returns (min slope, argmin step).  Exact for instances whose kinks on
    each face line up with the grid; an upper bound otherwise.
    """
    g = np.asarray(g_value, dtype=float)
    jac = np.asarray(jacobian, dtype=float)
    n = jac.shape[1]
    axes = [np.linspace(-radius, radius, points)] * n
    steps = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    steps = steps[np.max(np.abs(steps), axis=1) == radius]
    values = outer_value_rows(g[None, :] + steps @ jac.T, n_cost, n_eq, weight)
    slopes = (values - outer_value(g, n_cost, n_eq, weight)) / radius
    best = int(np.argmin(slopes))
    return float(slopes[best]), steps[best]


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
