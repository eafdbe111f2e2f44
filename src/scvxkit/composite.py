"""Composite objectives of the form J(z) = psi(G(z)).

G is a smooth vector map (value plus dense Jacobian) and psi is a convex
piecewise-linear outer function: a plain sum over designated cost components,
plus a weighted 1-norm over equality components and a weighted hinge over
inequality components.  Keeping psi structural (index ranges plus one weight)
is what lets the trust-region subproblem be rebuilt as an LP downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class CompositeError(Exception):
    """Base class for objective evaluation failures."""


class DimensionMismatchError(CompositeError):
    def __init__(self, what: str, expected, got):
        self.what = what
        self.expected = expected
        self.got = got
        super().__init__(f"{what}: expected {expected}, got {got}")


class NonFiniteError(CompositeError):
    def __init__(self, what: str, index: int):
        self.what = what
        self.index = index
        super().__init__(f"{what}: non-finite entry at component {index}")


def as_points(values, n: int, what: str) -> np.ndarray:
    """Coerce to a float array of one point (n,) or a stack of points (..., n).

    A scalar is a point of length one.  Every entry must be finite; the
    error names the first bad component of the first point that has one.
    """
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.shape[-1] != n:
        raise DimensionMismatchError(what, f"(..., {n})", arr.shape)
    finite = np.isfinite(arr)
    if not finite.all():
        raise NonFiniteError(what, int(np.argwhere(~finite)[0, -1]))
    return arr


def as_decision_vector(values, n: int, what: str = "decision vector") -> np.ndarray:
    """as_points for exactly one point: a finite 1-D float array of length n."""
    arr = as_points(values, n, what)
    if arr.ndim != 1:
        raise DimensionMismatchError(what, "1-D array", f"{arr.ndim}-D array")
    return arr


@dataclass(frozen=True)
class SmoothMap:
    """Differentiable map R^n -> R^m given by value and Jacobian callables.

    value takes one point (n,) or a stack of points (..., n) and returns
    the values, shape (..., m), from one call of evaluate, which sees the
    same array.  Write evaluate with trailing-axis indexing, z[..., 0]
    rather than float(z[0]), so that one call serves a whole stack.
    jacobian takes one point of shape (n,) and returns (m, n).
    """

    input_dim: int
    output_dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]

    def value(self, z) -> np.ndarray:
        z = as_points(z, self.input_dim, "decision vector")
        out = np.asarray(self.evaluate(z), dtype=float)
        shape = z.shape[:-1] + (self.output_dim,)
        if out.shape != shape:
            raise DimensionMismatchError("map value", shape, out.shape)
        return as_points(out, self.output_dim, "map value")

    def jac(self, z) -> np.ndarray:
        z = as_decision_vector(z, self.input_dim)
        out = np.asarray(self.jacobian(z), dtype=float)
        if out.shape != (self.output_dim, self.input_dim):
            raise DimensionMismatchError("map jacobian", (self.output_dim, self.input_dim), out.shape)
        finite = np.isfinite(out)
        if not finite.all():
            row = int(np.argmin(np.all(finite, axis=1)))
            raise NonFiniteError("map jacobian row", row)
        return out


@dataclass(frozen=True)
class ConvexOuter:
    """Structural convex outer function.

    psi(v) = sum(v[cost]) + penalty_weight * (sum |v[eq]| + sum max(0, v[ineq])).

    The three ranges must partition [0, output_dim) with unit step, so every
    component of the inner map has exactly one role.  psi is convex and
    globally Lipschitz with constant max(1, penalty_weight) in the 1-norm.
    """

    cost_range: range
    eq_range: range
    ineq_range: range
    penalty_weight: float

    def __post_init__(self):
        for name, r in (("cost_range", self.cost_range),
                        ("eq_range", self.eq_range),
                        ("ineq_range", self.ineq_range)):
            if r.step != 1:
                raise ValueError(f"{name} must have unit step")
        dim = len(self.cost_range) + len(self.eq_range) + len(self.ineq_range)
        covered = sorted(list(self.cost_range) + list(self.eq_range) + list(self.ineq_range))
        if covered != list(range(dim)):
            raise ValueError("cost/eq/ineq ranges must partition the output index set")
        if not (np.isfinite(self.penalty_weight) and self.penalty_weight > 0):
            raise ValueError("penalty_weight must be positive and finite")

    @property
    def output_dim(self) -> int:
        return len(self.cost_range) + len(self.eq_range) + len(self.ineq_range)

    @property
    def n_cost(self) -> int:
        return len(self.cost_range)

    @property
    def n_eq(self) -> int:
        return len(self.eq_range)

    @property
    def n_ineq(self) -> int:
        return len(self.ineq_range)

    def apply(self, values):
        """psi at one argument (m,) or at each argument of a stack (..., m).

        One argument gives a Python float, so that repr gives the bare
        digits; it is summed as a one-row stack, so it gets the bits it gets
        in any stack.  A stack gives an array of shape (...).  Only the shape
        is checked: the callers pass values that as_points has seen.
        """
        v = np.asarray(values, dtype=float)
        if v.shape[-1:] != (self.output_dim,):
            raise DimensionMismatchError("outer argument", f"(..., {self.output_dim})", v.shape)
        rows = np.atleast_2d(v)
        cost = rows[..., self.cost_range.start:self.cost_range.stop].sum(axis=-1)
        eq = np.abs(rows[..., self.eq_range.start:self.eq_range.stop]).sum(axis=-1)
        ineq = np.maximum(rows[..., self.ineq_range.start:self.ineq_range.stop], 0.0).sum(axis=-1)
        out = cost + self.penalty_weight * (eq + ineq)
        return float(out[0]) if v.ndim == 1 else out


@dataclass(frozen=True)
class CompositeObjective:
    """J(z) = psi(G(z)) with G smooth and psi a structural ConvexOuter."""

    g: SmoothMap
    psi: ConvexOuter

    def __post_init__(self):
        if self.g.output_dim != self.psi.output_dim:
            raise DimensionMismatchError("outer/inner dimensions", self.psi.output_dim, self.g.output_dim)

    @property
    def n_z(self) -> int:
        return self.g.input_dim

    def value(self, z):
        """J at one point, as a float, or at a stack (..., n_z), as an array (...).

        The inner map is called once per call.  A point gets the bits it
        gets inside a stack whenever the inner map's evaluate does.
        """
        return self.psi.apply(self.g.value(z))

    def max_equality_violation(self, z) -> float:
        v = self.g.value(z)
        eq = v[self.psi.eq_range.start:self.psi.eq_range.stop]
        return float(np.max(np.abs(eq))) if eq.size else 0.0

    def max_inequality_violation(self, z) -> float:
        v = self.g.value(z)
        ineq = v[self.psi.ineq_range.start:self.psi.ineq_range.stop]
        return float(np.max(np.maximum(ineq, 0.0))) if ineq.size else 0.0


@dataclass(frozen=True)
class Linearization:
    """First-order surrogate data for a composite objective at a base point.

    The convex model is L(d) = psi(g_value + g_jacobian @ d).  Evaluated at
    d = 0 it reproduces the objective at the base point through the identical
    arithmetic path, so L(0) == J(base_point) holds exactly, not just to
    rounding.
    """

    base_point: np.ndarray
    g_value: np.ndarray
    g_jacobian: np.ndarray
    psi: ConvexOuter

    @property
    def n_z(self) -> int:
        return self.base_point.size

    @property
    def base_value(self) -> float:
        """J at the base point, computed through the model's code path."""
        return self.psi.apply(self.g_value)

    def model_value(self, d):
        """L at one step, as a float, or at a stack (..., n_z), as an array (...).

        One step is lifted to a one-row stack, so it gets the bits it gets in
        any stack.
        """
        d = as_points(d, self.n_z, "step")
        values = self.g_value + np.atleast_2d(d) @ self.g_jacobian.T
        return self.psi.apply(values[0] if d.ndim == 1 else values)


def linearize(objective: CompositeObjective, z) -> Linearization:
    """Freeze G(z) and its Jacobian at z for use in the convex model."""
    z = as_decision_vector(z, objective.n_z)
    return Linearization(
        base_point=z.copy(),
        g_value=objective.g.value(z),
        g_jacobian=objective.g.jac(z),
        psi=objective.psi,
    )


def fd_check_jacobian(smooth_map: SmoothMap, z, step: float = 1e-6) -> float:
    """Compare the analytic Jacobian against central differences.

    Per-coordinate step is step * (1 + |z_i|).  Returns the worst entry of
    |analytic - numeric| / (1 + |analytic|).
    """
    z = as_decision_vector(z, smooth_map.input_dim)
    jac = smooth_map.jac(z)
    h = step * (1.0 + np.abs(z))
    # Rows i and n + i of the stack are z shifted by +h_i and -h_i along axis i.
    n = z.size
    shifted = np.tile(z, (2 * n, 1))
    shifted[np.arange(n), np.arange(n)] += h
    shifted[np.arange(n, 2 * n), np.arange(n)] -= h
    values = smooth_map.value(shifted)
    cols = (values[:n] - values[n:]).T / (2.0 * h)
    err = np.abs(cols - jac) / (1.0 + np.abs(jac))
    return float(np.max(err, initial=0.0))
