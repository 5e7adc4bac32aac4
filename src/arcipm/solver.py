"""Main iteration loop: residuals, direction solves, arc step, trace."""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import evaluate
from .kkt import (
    Iterate,
    SingularKKTError,
    assemble_newton_matrix,
    kkt_norm,
    norm,
    solve_directions,
    true_stationarity_norm,
)
from .program import ConvexProgram
# solve() no longer calls arc_point; the benchmark's tracer (perfbench/spans.py)
# still rebinds solver.arc_point by name, so the name stays bound here
from .step import RESIDUAL_FLOOR, StepFailureError, arc_point, floors, select_step, update_nu  # noqa: F401


@dataclass
class SolverConfig:
    epsilon: float = 1e-6
    theta: float = 1e-2
    rho: float = 0.5
    sigma_min: float = 0.0
    sigma_max: float = 1.0
    bisect_tol: float = 1e-2
    backtrack: float = 0.8
    alpha_floor: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not 0.0 <= self.sigma_min < self.sigma_max <= 1.0:
            raise ValueError("need 0 <= sigma_min < sigma_max <= 1")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack factor must lie in (0, 1)")
        # a zero tolerance never ends the bisection once its bounds are
        # adjacent floats, and a nonpositive floor never ends backtracking
        if not self.bisect_tol > 0.0:
            raise ValueError("bisect_tol must be positive")
        if not self.alpha_floor > 0.0:
            raise ValueError("alpha_floor must be positive")
        if not self.max_iter >= 0:
            raise ValueError("max_iter must be nonnegative")


class SolverStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    SINGULAR_KKT = "SingularKKT"
    STEP_FAILURE = "StepFailure"


@dataclass(frozen=True)
class TraceRow:
    k: int
    mu: float
    sigma: float
    alpha: float
    norm_rc: float
    norm_re: float
    norm_ri: float
    nu: float
    kkt_norm: float
    true_stat_norm: float
    min_sz_over_mu: float


TRACE_COLUMNS = (
    "k",
    "mu",
    "sigma",
    "alpha",
    "norm_rC",
    "norm_rE",
    "norm_rI",
    "nu",
    "kkt_norm",
    "true_stat_norm",
    "min_sz_over_mu",
)


@dataclass
class SolverReport:
    x: np.ndarray
    objective: float
    iterations: int
    infe: float
    status: SolverStatus
    trace: list[TraceRow] = field(default_factory=list)
    message: str = ""


def default_start(program: ConvexProgram, x0=None) -> Iterate:
    """Documented cold start: x = x0 (zeros if None), y = 0, s = 0.01, z = 100."""
    n, m, p = program.n, program.m, program.p
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.size != n:
        raise ValueError(f"initial point has {x.size} entries, expected {n}")
    if not np.isfinite(x).all():
        raise ValueError(f"initial point must be finite, got {x.tolist()}")
    vec = np.concatenate((x, np.zeros(m), np.full(p, 0.01), np.full(p, 100.0)))
    return Iterate.at(program, vec, nu=1.0)


def _indefinite(hess: np.ndarray) -> bool:
    smallest = float(np.linalg.eigvalsh(hess)[0])
    return smallest < -1e-10 * max(1.0, float(np.abs(hess).max()))


def _trace_row(program, iterate, k, sigma, alpha) -> TraceRow:
    return TraceRow(
        k=k,
        mu=iterate.mu,
        sigma=sigma,
        alpha=alpha,
        norm_rc=norm(iterate.r_c),
        norm_re=norm(iterate.r_e),
        norm_ri=norm(iterate.r_i),
        nu=iterate.nu,
        kkt_norm=kkt_norm(iterate),
        true_stat_norm=true_stationarity_norm(program, iterate),
        min_sz_over_mu=float((iterate.s * iterate.z).min()) / iterate.mu,
    )


def solve(
    program: ConvexProgram,
    config: SolverConfig | None = None,
    start: Iterate | None = None,
    observer=None,
) -> SolverReport:
    """Run the arc-search iteration until the stop test or an exit condition.

    ``observer(k, iterate, selection)`` is called once per stored iterate
    (selection is None for the starting point); it exists so tests and
    experiment scripts can watch every invariant without bloating the trace.
    """
    config = config or SolverConfig()
    iterate = start if start is not None else default_start(program)
    trace = [_trace_row(program, iterate, 0, 0.0, 0.0)]
    if observer is not None:
        observer(0, iterate, None)

    status = SolverStatus.MAX_ITER
    message = ""
    curvature_warned = False
    # a folded quadratic returns one read-only Hessian; check it only once
    checked_hess = None
    residual_floor_warned = False
    k = 0
    while k < config.max_iter:
        # the last trace row holds this iterate's stop-test norm
        if trace[-1].kkt_norm <= config.epsilon:
            status = SolverStatus.CONVERGED
            break
        if not curvature_warned and iterate.hess is not checked_hess:
            checked_hess = iterate.hess
            if _indefinite(checked_hess):
                warnings.warn(
                    "objective curvature is not positive semidefinite; continuing anyway",
                    RuntimeWarning,
                    stacklevel=2,
                )
                curvature_warned = True
        system = assemble_newton_matrix(
            iterate.hess, program.a_eq, program.a_ineq, iterate.s, iterate.z
        )
        try:
            directions = solve_directions(system, iterate, iterate.mu)
        except SingularKKTError as err:
            status = SolverStatus.SINGULAR_KKT
            message = str(err)
            break
        phi, psi = floors(iterate.s, iterate.z, iterate.nu, config.rho)
        try:
            selection = select_step(iterate, directions, phi, psi, config)
        except StepFailureError as err:
            status = SolverStatus.STEP_FAILURE
            message = str(err)
            break
        nu = update_nu(iterate.nu, selection.alpha)
        if nu == RESIDUAL_FLOOR and not residual_floor_warned:
            warnings.warn(
                "residual factor reached zero (full-angle step); continuing with a tiny floor",
                RuntimeWarning,
                stacklevel=2,
            )
            residual_floor_warned = True
        iterate = Iterate.at(program, selection.point, nu)
        k += 1
        trace.append(_trace_row(program, iterate, k, selection.sigma, selection.alpha))
        if observer is not None:
            observer(k, iterate, selection)

    if status is SolverStatus.MAX_ITER and trace[-1].kkt_norm <= config.epsilon:
        status = SolverStatus.CONVERGED

    return SolverReport(
        x=iterate.x.copy(),
        objective=evaluate(program.compiled_objective, iterate.x),
        iterations=k,
        infe=norm(program.a_eq @ iterate.x - program.b_eq),
        status=status,
        trace=trace,
        message=message,
    )
