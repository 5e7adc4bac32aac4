"""Main iteration loop: residuals, direction solves, arc step, trace.

For an objective that folds to a :class:`arcipm.autodiff.Quadratic`, r_C is
grad f + A_E'y - A_I'z (:mod:`arcipm.kkt`), so a trace row reads its
``true_stat_norm`` as the norm of r_C and forms that vector only for any
other objective.

The curvature check runs once per distinct Hessian and only reads whether
it is indefinite.  It tries LAPACK's Cholesky factorization ``dpotrf``
first.  The factor exists only for a positive definite matrix, and it is
backward stable (N. J. Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, ch. 10): when a factor completes, the
smallest eigenvalue is at worst a few roundoffs of |H| below zero, far
above the threshold -1e-10 * max(1, max |H|) of the eigenvalue test, so it
settles the verdict.  Only a nonpositive pivot, as a singular Hessian
gives, is followed by ``eigvalsh``, whose smallest eigenvalue then decides.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg.lapack import dgesv, dpotrf

from .autodiff import DomainError, Quadratic, evaluate
from .kkt import (
    Blocks,
    Iterate,
    SingularKKTError,
    assemble_newton_matrix,
    kkt_norm,
    norm,
    reduce_max,
    reduce_min,
    solve_directions,
    true_stationarity_norm,
)
from .program import ConvexProgram
# solve() no longer calls arc_point; the benchmark's tracer (perfbench/spans.py)
# still rebinds solver.arc_point by name, so the name stays bound here
from .step import StepFailureError, arc_point, select_step, update_nu  # noqa: F401


@dataclass
class SolverConfig:
    epsilon: float = 1e-6
    theta: float = 1e-2
    rho: float = 0.5
    sigma_min: float = 0.0
    sigma_max: float = 1.0
    max_iter: int = 500

    def __post_init__(self):
        # an infinite tolerance would stop every run at its start as Converged
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not 0.0 <= self.sigma_min < self.sigma_max <= 1.0:
            raise ValueError("need 0 <= sigma_min < sigma_max <= 1")
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


# The CSV header: the TraceRow fields in order, the residual norms spelled
# as in the reference trace.
TRACE_COLUMNS = tuple(
    {"norm_rc": "norm_rC", "norm_re": "norm_rE", "norm_ri": "norm_rI"}.get(f.name, f.name)
    for f in fields(TraceRow)
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


def _start_x(program: ConvexProgram, x0) -> np.ndarray:
    """x0 as a float vector of n finite entries; zeros if None."""
    n = program.n
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.size != n:
        raise ValueError(f"initial point has {x.size} entries, expected {n}")
    if not np.isfinite(x).all():
        raise ValueError(f"initial point must be finite, got {x.tolist()}")
    return x


def default_start(program: ConvexProgram, x0=None) -> Iterate:
    """The CLI's and the reference runs' cold start: x = x0 (zeros if None),
    y = 0, s = 0.01, z = 100."""
    x = _start_x(program, x0)
    p = program.p
    vec = np.concatenate((x, np.zeros(program.m), np.full(p, 0.01), np.full(p, 100.0)))
    return Iterate.at(program, vec, nu=1.0)


def balanced_start(program: ConvexProgram, x0=None) -> Iterate:
    """The start scaled to the residual: x = x0 (zeros if None), y = 0,
    s = z = xi with xi = max(1, |A_I x - b_I|_inf), and nu = 1.

    Its (s, z) dominate the starting residual, as the polynomial bounds of
    infeasible interior-point methods assume (Kojima, Megiddo & Mizuno,
    Math. Programming 1993; S. J. Wright, *Primal-Dual Interior-Point
    Methods*, 1997, ch. 6).
    """
    x = _start_x(program, x0)
    scale = max(1.0, float(reduce_max(np.abs(program.a_ineq.dot(x) - program.b_ineq))))
    vec = np.concatenate((x, np.zeros(program.m), np.full(2 * program.p, scale)))
    return Iterate.at(program, vec, nu=1.0)


def least_squares_start(program: ConvexProgram) -> Iterate:
    """The start ``solve()`` takes when given none: Mehrotra's least-squares
    point (S. Mehrotra, SIAM J. Optim. 1992) on row-equilibrated inequalities.

    Each inequality row and its right-hand side are divided by the row's
    largest |a_ij|, a zero row left as it is, to give Ã and b̃.  x minimizes
    g'x + 1/2 x'Hx + 1/2 |Ãx - b̃|^2 subject to A_E x = b_E, from one dense
    solve with the Newton matrix at s = z = 1.  The slacks are
    s = A_I x - b_I, shifted by max(-1.5 min s, 0) so that they are
    nonnegative, y = 0, z = zeta with zeta = max(1, mean s), any slack
    still at 0 becomes zeta, and nu = 1.  The row scaling makes x
    independent of how each row is scaled; without it the no-start solves
    of the first 300 draws of ``tests/qp_family.py``, whose dense rows are
    scaled by 10^U(-3, 3), took 2396 iterations rather than 1900, and 120
    ``many_rows`` instances 812 rather than 791.

    An objective that does not fold to a :class:`Quadratic`, a singular
    system, an x that is not finite and slacks that overflow on the raw
    rows give ``balanced_start(program)``.
    """
    objective = program.compiled_objective
    if not isinstance(objective, Quadratic):
        return balanced_start(program)
    n, m, p = program.n, program.m, program.p
    a_ineq, b_ineq = program.a_ineq, program.b_ineq
    row_max = reduce_max(np.abs(a_ineq), axis=1)
    row_max[row_max == 0.0] = 1.0
    a_scaled = a_ineq / row_max[:, None]
    b_scaled = b_ineq / row_max
    matrix = assemble_newton_matrix(objective.hessian, program.a_eq, a_scaled, 1.0, 1.0)
    rhs = np.concatenate((a_scaled.T.dot(b_scaled) - objective.linear, program.b_eq))
    # LAPACK's dgesv, not kkt.lu_solve, whose calls the benchmark counts as the Newton solves
    solution, info = dgesv(matrix, rhs)[2:]
    # a positive info names an exactly zero pivot
    if info != 0 or not np.isfinite(solution[:n]).all():
        return balanced_start(program)
    vec = np.zeros(n + m + 2 * p)
    x, _, s, z = Blocks.of(vec, n, m, p)
    x[:] = solution[:n]
    slack = a_ineq.dot(x) - b_ineq
    s[:] = slack + max(-1.5 * float(reduce_min(slack)), 0.0)
    zeta = max(1.0, float(s.mean()))
    s[s == 0.0] = zeta
    z[:] = zeta
    if not np.isfinite(vec).all():
        return balanced_start(program)
    return Iterate.at(program, vec, nu=1.0)


def _indefinite(hess: np.ndarray) -> bool:
    """Whether the smallest eigenvalue is below -1e-10 * max(1, max |H|)."""
    # a completed Cholesky factor: positive definite up to roundoff, so not indefinite
    if dpotrf(hess, lower=1)[1] == 0:
        return False
    smallest = float(np.linalg.eigvalsh(hess)[0])
    return smallest < -1e-10 * max(1.0, float(np.abs(hess).max()))


def _trace_row(program, iterate, k, sigma, alpha) -> TraceRow:
    norm_rc = norm(iterate.r_c)
    folded = isinstance(program.compiled_objective, Quadratic)
    return TraceRow(
        k=k,
        mu=iterate.mu,
        sigma=sigma,
        alpha=alpha,
        norm_rc=norm_rc,
        norm_re=norm(iterate.r_e),
        norm_ri=norm(iterate.r_i),
        nu=iterate.nu,
        kkt_norm=kkt_norm(iterate),
        true_stat_norm=norm_rc if folded else true_stationarity_norm(program, iterate),
        min_sz_over_mu=float(reduce_min(iterate.zs)) / iterate.mu,
    )


def solve(
    program: ConvexProgram,
    config: SolverConfig | None = None,
    start: Iterate | None = None,
    observer=None,
) -> SolverReport:
    """Run the arc-search iteration until the stop test or an exit condition.

    A call without ``start`` begins at ``least_squares_start(program)`` and
    steps by :func:`arcipm.step.mehrotra_steps`: positivity and a falling
    duality measure only, with Mehrotra's sigma bounding the bisection.
    An objective that does not fold begins at ``balanced_start(program)``,
    x = 0; if the objective is undefined there, the call raises
    its :class:`DomainError` with a message that names the start and the
    remedy, ``start=balanced_start(program, x0)``.  That start runs the
    paper's rule below, and, as on every path, an objective that does not
    fold steps on the model term H x: from their files' starts ex1, ex3,
    ex5 and ex8 end at (1, 1), (1, 2), (3.33, 3.99) and (5, 3, 5) in 162,
    13, 5 and 13 iterations, not at their minimizers.
    A call with a start runs the paper's rule, :func:`arcipm.step.candidate_steps`,
    with its floors and centrality test.  The start's point and residual
    factor are taken into an iterate of ``program``, so a start built for
    another program of the same sizes steps on this program's derivatives
    and residuals, not on those it carries.  The command line, the reference
    fixtures, the golden files and the digests' cold-start lines pass
    ``default_start`` explicitly: with the paper's rule it reproduces the
    reference runs.

    ``observer(k, iterate, selection)`` is called once per stored iterate
    (selection is None for the starting point); it exists so tests and
    experiment scripts can watch every invariant without bloating the trace.
    """
    config = config or SolverConfig()
    # the paper's rule runs from a given start, the library's from none
    mehrotra = start is None
    if mehrotra:
        try:
            iterate = least_squares_start(program)
        except DomainError as err:
            raise DomainError(
                f"{err} at x = 0, the start solve() takes when given none; pass "
                "start=balanced_start(program, x0) with x0 in the objective's domain"
            ) from err
    else:
        sizes = (start.x.size, start.y.size, start.p)
        if sizes != (program.n, program.m, program.p):
            raise ValueError(
                f"start has (n, m, p) = {sizes}, the program has {(program.n, program.m, program.p)}"
            )
        iterate = Iterate.at(program, start.vec, start.nu)
    trace = [_trace_row(program, iterate, 0, 0.0, 0.0)]
    if observer is not None:
        observer(0, iterate, None)

    status = SolverStatus.CONVERGED
    message = ""
    curvature_warned = False
    # a folded quadratic returns one read-only Hessian; check it only once
    checked_hess = None
    k = 0
    # the last trace row holds this iterate's stop-test norm; a NaN norm
    # fails the comparison, so it never counts as converged
    while not trace[-1].kkt_norm <= config.epsilon:
        if k >= config.max_iter:
            status = SolverStatus.MAX_ITER
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
        matrix = assemble_newton_matrix(
            iterate.hess, program.a_eq, program.a_ineq, iterate.s, iterate.z
        )
        try:
            directions = solve_directions(matrix, program.a_ineq, iterate)
            selection = select_step(iterate, directions, config, mehrotra)
            iterate = Iterate.at(
                program, selection.point, update_nu(iterate.nu, selection.alpha), selection.mu
            )
        except SingularKKTError as err:
            status = SolverStatus.SINGULAR_KKT
            message = str(err)
            break
        except (StepFailureError, DomainError) as err:
            # no acceptable angle, or the accepted point left the objective's domain
            status = SolverStatus.STEP_FAILURE
            message = str(err)
            break
        k += 1
        trace.append(_trace_row(program, iterate, k, selection.sigma, selection.alpha))
        if observer is not None:
            observer(k, iterate, selection)

    return SolverReport(
        x=iterate.x.copy(),
        objective=evaluate(program.compiled_objective, iterate.x),
        iterations=k,
        infe=trace[-1].norm_re,
        status=status,
        trace=trace,
        message=message,
    )
