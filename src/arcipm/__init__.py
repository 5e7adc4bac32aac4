"""Arc-search infeasible interior-point solver for convex programs."""

from .autodiff import DomainError, evaluate, gradient, hessian, value_gradient_hessian
from .expr import ParseError, parse_expression
from .kkt import Iterate, NewtonDirections, SingularKKTError
from .program import ConvexProgram, fold_bounds
from .solver import (
    SolverConfig,
    SolverReport,
    SolverStatus,
    TraceRow,
    balanced_start,
    default_start,
    least_squares_start,
    solve,
)
from .step import StepFailureError, StepSelection

__all__ = [
    "ConvexProgram",
    "DomainError",
    "Iterate",
    "NewtonDirections",
    "ParseError",
    "SingularKKTError",
    "SolverConfig",
    "SolverReport",
    "SolverStatus",
    "StepFailureError",
    "StepSelection",
    "TraceRow",
    "balanced_start",
    "default_start",
    "evaluate",
    "fold_bounds",
    "gradient",
    "hessian",
    "least_squares_start",
    "parse_expression",
    "solve",
    "value_gradient_hessian",
]
