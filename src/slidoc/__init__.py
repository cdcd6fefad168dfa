"""Sliding-mode optimal control toolkit.

Integration of two-field Filippov systems with a 3-stage Radau IIA
scheme, discrete adjoints consistent with that discretization, reduced
gradients over piecewise-constant controls, and an exact-penalty descent
method for endpoint-constrained problems.
"""

__version__ = "0.1.0"

from .adjoint import AdjointTrajectory, run_adjoint, run_adjoints, terminal_conditions
from .config import RunConfig, canonical_json, parse_config
from .errors import SlidocError
from .gradient import reduced_gradient, reduced_gradient_matrix
from .integrator import (IntegratorOptions, Trajectory, TransitionRecord,
                         integrate, step_ode, step_sliding)
from .model import (ControlGrid, EndpointFunctional, HybridOCP, Mode,
                    TransitionKind, alpha, entry_test, exit_test,
                    filippov_field, filippov_jacobians)
from .optimizer import (IterateRecord, OptimizeResult, OptimizerConfig,
                        adjust_penalty, constraint_violation, line_search,
                        optimize, solve_direction)
from .problems import get_problem, problem_names
from .tableau import ButcherTableau, adjoint_tableau, check_conditions, radau_iia_3
from .verify import (FDReport, GradientCheck, OrderReport, fd_gradient,
                     gradient_check, order_study)
