"""Trust-region outer iteration on a composite exact-penalty objective.

Each iteration linearizes the smooth inner map, minimizes the convex model
over an inf-norm ball, and accepts or rejects the candidate by comparing
actual to predicted decrease.  After a rejection the linearization is kept
and only the radius shrinks, so rejected iterations never re-evaluate the
Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional

import numpy as np

from .composite import CompositeObjective, NonFiniteError, as_decision_vector, linearize
from .subproblem import SubproblemError, solve_subproblem

# Acceptance at the low ratio threshold additionally requires a strictly
# positive actual decrease at this relative scale, which keeps the accepted
# objective sequence strictly decreasing even when rho0 = 0.
MIN_ACTUAL_DECREASE = 1e-12

# Relative rise above J(z0) that the level-set test forgives.
LEVEL_SET_TOL = 1e-12

# Small accepted steps must repeat this many times before the loop tests
# stationarity at the probe radius min(r, 1), which costs an extra
# subproblem solve only when the probe finds descent and r > 1.
SMALL_STEP_STREAK = 3

STATUS_CONVERGED = "converged-stationary"
STATUS_ITERATIONS = "iteration-limit"
STATUS_LEVEL_SET = "level-set-violation"
STATUS_SUBPROBLEM = "subproblem-failure"


@dataclass(frozen=True)
class TrustRegionParams:
    """Ratio thresholds, radius update factors, and stopping controls."""

    rho0: float = 0.0
    rho1: float = 0.25
    rho2: float = 0.7
    shrink_factor: float = 2.0
    grow_factor: float = 3.2
    r_init: float = 1.0
    r_min: float = 1e-10
    r_max: float = 1e3
    stop_predicted_decrease: float = 1e-8
    stop_step_norm: float = 1e-9
    max_iterations: int = 200
    norm_budget: float = 1e4

    def __post_init__(self):
        # A bool is an int to Python, so JSON true would pass as 1.
        for f in fields(self):
            if isinstance(getattr(self, f.name), bool):
                raise TypeError(f"{f.name} must be a number, not true or false")
        # Each test is written so that NaN fails it.
        if not (0.0 <= self.rho0 < self.rho1 < self.rho2 < 1.0):
            raise ValueError("need 0 <= rho0 < rho1 < rho2 < 1")
        if not (self.shrink_factor > 1.0 and self.grow_factor > 1.0):
            raise ValueError("shrink_factor and grow_factor must exceed 1")
        if not (0.0 < self.r_min <= self.r_init <= self.r_max):
            raise ValueError("need 0 < r_min <= r_init <= r_max")
        if not (self.stop_predicted_decrease > 0.0 and self.stop_step_norm > 0.0):
            raise ValueError("stopping tolerances must be positive")
        if not isinstance(self.max_iterations, (int, np.integer)):
            raise TypeError("max_iterations must be an integer")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.norm_budget > 0.0:
            raise ValueError("norm_budget must be positive")


@dataclass
class IterationRecord:
    """Outcome of one outer iteration.

    z and J are the iterate and objective after the accept/reject decision,
    so over accepted records J is strictly decreasing.  rho is None only on
    the terminal record, whose predicted decrease fell below the stopping
    tolerance: a stationarity signal rather than a ratio.
    """

    k: int
    z: np.ndarray
    J: float
    step_norm: float
    model_value: float
    predicted_decrease: float
    actual_decrease: float
    rho: Optional[float]
    radius: float
    accepted: bool


@dataclass
class SolveResult:
    final_z: np.ndarray
    status: str
    trace: List[IterationRecord] = field(default_factory=list)
    J_final: float = np.nan
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def accepted_count(self) -> int:
        return sum(1 for rec in self.trace if rec.accepted)


def update_radius(rho: float, radius: float, params: TrustRegionParams) -> tuple[bool, float]:
    """Apply the four-way accept/reject and radius update rule."""
    if rho < params.rho0:
        return False, max(radius / params.shrink_factor, params.r_min)
    if rho < params.rho1:
        return True, max(radius / params.shrink_factor, params.r_min)
    if rho < params.rho2:
        return True, radius
    return True, min(radius * params.grow_factor, params.r_max)


def check_stationarity(objective: CompositeObjective, z, probe_radius: float = 1.0) -> float:
    """Predicted decrease of the model over a ball of the given radius.

    Zero exactly when no model descent exists within the ball; strictly
    positive otherwise.
    """
    return solve_subproblem(linearize(objective, z), probe_radius).predicted_decrease


def run_scvx(objective: CompositeObjective, z0,
             params: Optional[TrustRegionParams] = None) -> SolveResult:
    """Run the trust-region iteration from z0 until a stopping condition.

    The run stops as converged-stationary when the subproblem's predicted
    decrease is at most stop_predicted_decrease * (1 + |J|).  Two rules
    apply that test:
    - every pass tests it at the current radius r;
    - the pass after SMALL_STEP_STREAK accepted steps in a row, each no
      longer than stop_step_norm, tests it at min(r, 1) instead.  If that
      probe finds descent, its solution is the step when r <= 1, and the
      pass re-solves at r when r > 1.

    Statuses: converged-stationary (either stop rule held),
    iteration-limit, level-set-violation (an iterate left the norm budget or
    the objective rose above its starting value), subproblem-failure (the LP
    solver gave up; the partial trace is attached).  A trial point whose
    objective is not finite is a rejected step, not an error.
    """
    if params is None:
        params = TrustRegionParams()
    z = as_decision_vector(z0, objective.n_z).copy()
    J = J0 = objective.value(z)
    radius = params.r_init
    lin = None
    trace: List[IterationRecord] = []
    small_streak = 0
    status, message = STATUS_ITERATIONS, ""

    while status == STATUS_ITERATIONS and len(trace) < params.max_iterations:
        if lin is None:
            lin = linearize(objective, z)
        solve_radius = radius
        if small_streak >= SMALL_STEP_STREAK:
            small_streak, solve_radius = 0, min(radius, 1.0)
        try:
            sol = solve_subproblem(lin, solve_radius)
        except SubproblemError as exc:
            status, message = STATUS_SUBPROBLEM, str(exc)
            break

        actual, rho, accepted = 0.0, None, False
        if sol.predicted_decrease <= params.stop_predicted_decrease * (1.0 + abs(J)):
            status = STATUS_CONVERGED
        elif solve_radius < radius:
            continue  # the probe found descent; the step is taken at r
        else:
            candidate = z + sol.step
            try:
                J_candidate = objective.value(candidate)
            except NonFiniteError:
                J_candidate = np.inf  # off the objective's domain: rho = -inf rejects the step
            actual = J - J_candidate
            # The stop test above leaves a predicted decrease above its tolerance.
            rho = actual / sol.predicted_decrease
            # A ratio that clears rho0 only through rounding counts as a rejection.
            decreased = actual > MIN_ACTUAL_DECREASE * (1.0 + abs(J))
            accepted, radius = update_radius(rho if decreased else -np.inf, radius, params)

        if accepted:
            z, J, lin = candidate, J_candidate, None
        step_norm = float(np.max(np.abs(sol.step), initial=0.0))
        trace.append(IterationRecord(
            k=len(trace), z=z.copy(), J=J, step_norm=step_norm,
            model_value=sol.model_value,
            predicted_decrease=sol.predicted_decrease,
            actual_decrease=actual, rho=rho, radius=solve_radius, accepted=accepted,
        ))

        if accepted:
            small_streak = small_streak + 1 if step_norm <= params.stop_step_norm else 0
            if float(np.max(np.abs(z))) > params.norm_budget:
                status, message = STATUS_LEVEL_SET, ("iterate norm exceeded the budget; "
                                                     "initial level set looks unbounded")
            elif J > J0 + LEVEL_SET_TOL * (1.0 + abs(J0)):
                status, message = STATUS_LEVEL_SET, "objective rose above its starting value"

    return SolveResult(final_z=z, status=status, trace=trace, J_final=J, message=message)
