"""Trust-region solver for penalized nonconvex optimal control.

The package minimizes composite objectives J(z) = psi(G(z)) where G is a
smooth map and psi is convex: running cost plus exact penalties on the
dynamics defects and path constraints.  Each iteration linearizes G, solves
a box-constrained LP with a built-in two-phase simplex, and accepts or
rejects the step on the ratio of actual to predicted decrease.  A
diagnostics layer estimates sharpness and growth constants near the
solution and checks the convergence guarantees they imply.

The names below are the documented API; everything else is importable from
its submodule.
"""

from .composite import CompositeError, CompositeObjective, ConvexOuter, SmoothMap
from .diagnostics import check_strong_convergence, estimate_sharp_minimum, find_small_step_eta
from .loop import SolveResult, TrustRegionParams, check_stationarity, run_scvx
from .problems import OptimalControlProblem, builtin, transcribe
from .subproblem import SubproblemError

__version__ = "0.1.0"

__all__ = [
    "CompositeError",
    "CompositeObjective",
    "ConvexOuter",
    "OptimalControlProblem",
    "SmoothMap",
    "SolveResult",
    "SubproblemError",
    "TrustRegionParams",
    "builtin",
    "check_stationarity",
    "check_strong_convergence",
    "estimate_sharp_minimum",
    "find_small_step_eta",
    "run_scvx",
    "transcribe",
]
