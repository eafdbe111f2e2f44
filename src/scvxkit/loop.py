"""Trust-region outer iteration on a composite exact-penalty objective.

Each iteration linearizes the smooth inner map, minimizes the convex model
over an inf-norm ball, and accepts or rejects the candidate by comparing
actual to predicted decrease.  After a rejection the linearization is kept
and only the radius shrinks, so rejected iterations never re-evaluate the
Jacobian.  Each subproblem gets the last one's solution, and
solve_subproblem decides from it whether the LP restarts warm or cold.
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
        if not self.stop_predicted_decrease > 0.0:
            raise ValueError("stop_predicted_decrease must be positive")
        if not isinstance(self.max_iterations, (int, np.integer)):
            raise TypeError("max_iterations must be an integer")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.norm_budget < np.inf:
            raise ValueError("norm_budget must be positive and finite")


@dataclass
class IterationRecord:
    """Outcome of one outer iteration.

    z and J are the iterate and objective after the accept/reject decision,
    so over accepted records J is strictly decreasing.  radius is the one
    the iteration's subproblem was solved at, before the radius update.
    rho is None only on the terminal record, whose predicted decrease fell
    below the stopping tolerance: a stationarity signal rather than a ratio.
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

    Each pass solves one subproblem at the current radius r.  The run stops
    as converged-stationary when its predicted decrease is at most
    stop_predicted_decrease * (1 + |J|).

    Statuses: converged-stationary, iteration-limit, level-set-violation (an
    iterate left the norm budget), subproblem-failure (the LP solver gave
    up; the partial trace is attached).  A trial point whose objective is
    not finite is a rejected step, not an error.  An accepted step strictly
    decreases J, so J never rises above J(z0).

    Each subproblem is handed the last subproblem's solution; the rule by
    which its LP restarts from the last LP's tableau or is solved cold is
    solve_subproblem's.
    """
    if params is None:
        params = TrustRegionParams()
    z = as_decision_vector(z0, objective.n_z).copy()
    J = objective.value(z)
    radius = params.r_init
    lin = sol = None
    trace: List[IterationRecord] = []
    status, message = STATUS_ITERATIONS, ""

    while status == STATUS_ITERATIONS and len(trace) < params.max_iterations:
        if lin is None:
            lin = linearize(objective, z)
        try:
            sol = solve_subproblem(lin, radius, sol)
        except SubproblemError as exc:
            status, message = STATUS_SUBPROBLEM, str(exc)
            break

        actual, rho, accepted, next_radius = 0.0, None, False, radius
        if sol.predicted_decrease <= params.stop_predicted_decrease * (1.0 + abs(J)):
            status = STATUS_CONVERGED
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
            accepted, next_radius = update_radius(rho if decreased else -np.inf, radius, params)

        if accepted:
            z, J, lin = candidate, J_candidate, None
        step_norm = float(np.max(np.abs(sol.step), initial=0.0))
        trace.append(IterationRecord(
            k=len(trace), z=z.copy(), J=J, step_norm=step_norm,
            model_value=sol.model_value,
            predicted_decrease=sol.predicted_decrease,
            actual_decrease=actual, rho=rho, radius=radius, accepted=accepted,
        ))
        radius = next_radius

        if accepted and float(np.max(np.abs(z))) > params.norm_budget:
            status, message = STATUS_LEVEL_SET, ("iterate norm exceeded the budget; "
                                                 "initial level set looks unbounded")

    return SolveResult(final_z=z, status=status, trace=trace, J_final=J, message=message)
