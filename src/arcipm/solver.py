"""Main iteration loop: residuals, direction solves, arc step, trace.

For an objective that is or folds to a
:class:`arcipm.autodiff.Quadratic`, r_C is grad f + A_E'y - A_I'z
(:mod:`arcipm.kkt`), so a trace row reads its ``true_stat_norm`` as the
norm of r_C and forms that vector only for any other objective.

The curvature check runs once per distinct Hessian and only reads whether
it is indefinite.  It tries LAPACK's Cholesky factorization ``dpotrf``
first.  The factor exists only for a positive definite matrix, and it is
backward stable (N. J. Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, ch. 10): when a factor completes, the
smallest eigenvalue is at worst a few roundoffs of |H| below zero, far
above the threshold -1e-10 * max(1, max |H|) of the eigenvalue test, so it
settles the verdict.  Only a nonpositive pivot, as a singular Hessian
gives, is followed by ``eigvalsh``, whose smallest eigenvalue then decides.

A call without a start whose objective is or folds to a :class:`Quadratic`
ends, where it can, with a face step (finite termination: S. J. Wright,
*Primal-Dual Interior-Point Methods*, 1997, ch. 7; Mehrotra & Ye, Math.
Programming 1993).  Its rule is stated here once.  Each iteration from
k = 1 on solves its Newton system, then solves the program on the face
of the gap z - s at the end point of its sigma = 0 arc, which is the
arc's own prediction of the answer (:func:`arcipm.step.arc_point` at
alpha = pi/2: v - vdot + q up to the rounding of 1 - cos alpha): the rows
with z_i > s_i, trimmed to the n - m with the largest gap when there are
more (:func:`arcipm.kkt.face_rows`), as one equality-constrained QP
(:func:`arcipm.kkt.face_point`).  The point is taken as the run's next and
last iterate when its stop-test norm is at most ``FACE_ACCEPT`` times
epsilon.  A rejected point corrects the face up to ``FACE_UPDATES`` times
by the primal-dual active-set update (Hintermüller, Ito & Kunisch, SIAM
J. Optim. 2002): with the roundoff margin tau (``FACE_ROUNDOFF`` times
max(1, |point|_inf)), the next gap is the multiplier minus tau on the
face and minus the slack minus tau off it, so a face row stays while its
multiplier is above tau and an off-face row joins when its slack is
below -tau.  A face already factored in the run is not solved again,
since the solve depends on the face alone.  When no face point is
accepted the arc step runs along the same directions, so no iteration
solves its Newton system twice.  An accepted face point is stored as an
arc step's point is, with sigma = alpha = 0.0 in its trace row, the
previous nu and ``selection=None`` for the observer.  k = 0 tries no
face, so every run takes at least one arc step.  On 120 draws of each
benchmark generator (``default_rng(5)`` for each) and the 300 draws of
``tests/qp_family.py``, the no-start totals are 240 iterations
(``boxqp_dense``), 286 (``many_rows``) and 845 (the family), with 145,
291 and 796 face solves, 1.2, 2.4 and 2.7 per run, against 557, 791 and
1900 iterations without the face step.

The floating-point policy is stated here once.  :func:`solve` runs its
whole body, from the start to the final objective value and the
``observer`` calls between, under one
``np.errstate(over="ignore", invalid="ignore")``.  An overflow there gives
an inf, and 0 * inf or inf - inf a NaN, where numpy would otherwise emit a
``RuntimeWarning`` that a filter of "error", such as the test suite's,
turns into an exception.  The run's own finiteness checks then end it
with a status: a NaN stop-test norm fails the comparison, so it never
counts as converged; :func:`arcipm.kkt.solve_directions` raises on a
Newton matrix or right-hand side that is not finite, which ends the run
``SingularKKT``; and the step layer rejects a candidate whose smallest
s or z is NaN.  Division by zero keeps the caller's setting (numpy warns
by default): the loop divides by s, which stays positive, by Newton row
maxima that are checked to be nonzero first, and, in the trace row, by
mu, which the step test keeps above 0.  The start builders
called directly, outside ``solve()``, run under the caller's setting, as
every other public function does; :func:`arcipm.autodiff.value_gradient_hessian`
keeps its own ``errstate`` for a folded objective, whose value that is not
finite it reports as a :class:`DomainError`.
"""

from __future__ import annotations

import enum
import operator
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
    face_point,
    face_rows,
    kkt_norm,
    norm,
    reduce_max,
    reduce_min,
    solve_directions,
    true_stationarity_norm,
)
from .program import ConvexProgram
from .step import HALF_PI, StepFailureError, arc_point, select_step, update_nu

# After a rejected face point, the face step corrects its face from that
# point's slacks and multipliers at most this many times per iteration.
FACE_UPDATES = 3

# The roundoff margin of a correction, relative to max(1, |point|_inf): a face
# row stays when its multiplier is above it, an off-face row joins when its
# slack is below minus it.  Without it the correction read the sign of roundoff
# on degenerate rows and moved family draw 251 with permuted variables and 247
# and 258 translated off the untransformed runs of tests/test_metamorphic.py.
FACE_ROUNDOFF = 1e-12

# The face step's point is accepted when its stop-test norm is at most this
# share of epsilon.  Accepted at epsilon itself, column-scale draw 104 of
# tests/test_metamorphic.py at k = 4 ended 8.4e-5 from the draw's objective.
FACE_ACCEPT = 1e-2


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
        # an index, as Var reads its own: 2.5 or inf is a TypeError, not a bound
        self.max_iter = operator.index(self.max_iter)
        if self.max_iter < 0:
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


def _start(program: ConvexProgram, x: np.ndarray, s, z) -> Iterate:
    """The iterate at (x, y = 0, s, z) with nu = 1; s and z may be scalars."""
    n, m, p = program.n, program.m, program.p
    vec = np.zeros(n + m + 2 * p)
    x_block, _, s_block, z_block = Blocks.of(vec, n, m, p)
    x_block[:], s_block[:], z_block[:] = x, s, z
    return Iterate.at(program, vec, nu=1.0)


def default_start(program: ConvexProgram, x0=None) -> Iterate:
    """The CLI's and the reference runs' cold start: x = x0 (zeros if None),
    y = 0, s = 0.01, z = 100 and nu = 1."""
    return _start(program, _start_x(program, x0), 0.01, 100.0)


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
    return _start(program, x, scale, scale)


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
    scaled by 10^U(-3, 3), took 904 iterations rather than 845, and 120
    ``many_rows`` instances 299 rather than 286 (2396 rather than 1900 and
    812 rather than 791 before the face step).

    A singular system, an x that is not finite and slacks whose mean is
    not finite on the raw rows give ``balanced_start(program)``.  So does
    an objective that neither is nor folds to a :class:`Quadratic`.  That
    start is x = 0, and an objective that does not fold and is undefined
    there raises its :class:`DomainError` with a message that names x = 0
    and the remedy, ``start=balanced_start(program, x0)`` with x0 in the
    objective's domain.  A folded objective's :class:`DomainError` at the
    least-squares point, such as a polynomial that overflows, comes out
    with its own message.

    It is the start of the library rule that ``solve()`` runs without a
    start, whose centrality test is at theta = 0.  Passed as ``start=``,
    it runs the paper's rule from outside that rule's centrality region:
    min(s_i z_i)/mu there may lie below the default theta = 1e-2.  On
    the first 300 draws of ``tests/qp_family.py``, ``solve(program,
    SolverConfig(), least_squares_start(program))`` ends ``StepFailure``
    at k = 0 on 38 and ``MaxIter`` on 2 more.
    """
    objective = program.compiled_objective
    if not isinstance(objective, Quadratic):
        try:
            return balanced_start(program)
        except DomainError as err:
            raise DomainError(
                f"{err} at x = 0, the start solve() takes when given none; pass "
                "start=balanced_start(program, x0) with x0 in the objective's domain"
            ) from err
    a_ineq, b_ineq = program.a_ineq, program.b_ineq
    row_max = reduce_max(np.abs(a_ineq), axis=1)
    row_max[row_max == 0.0] = 1.0
    a_scaled = a_ineq / row_max[:, None]
    b_scaled = b_ineq / row_max
    matrix = assemble_newton_matrix(objective.hessian, program.a_eq, a_scaled, 1.0, 1.0)
    rhs = np.concatenate((a_scaled.T.dot(b_scaled) - objective.linear, program.b_eq))
    # LAPACK's dgesv, not kkt.lu_solve, whose calls the benchmark counts as the Newton solves
    solution, info = dgesv(matrix, rhs)[2:]
    x = solution[: program.n]
    # a positive info names an exactly zero pivot
    if info != 0 or not np.isfinite(x).all():
        return balanced_start(program)
    slack = a_ineq.dot(x) - b_ineq
    s = slack + max(-1.5 * float(reduce_min(slack)), 0.0)
    # a slack that is not finite, or a sum that overflows, makes the mean so
    zeta = float(s.mean())
    if not np.isfinite(zeta):
        return balanced_start(program)
    zeta = max(1.0, zeta)
    s[s == 0.0] = zeta
    return _start(program, x, s, zeta)


def _indefinite(hess: np.ndarray) -> bool:
    """Whether the smallest eigenvalue is below -1e-10 * max(1, max |H|)."""
    # a completed Cholesky factor: positive definite up to roundoff, so not indefinite
    if dpotrf(hess, lower=1)[1] == 0:
        return False
    smallest = float(np.linalg.eigvalsh(hess)[0])
    return smallest < -1e-10 * max(1.0, float(np.abs(hess).max()))


def _face_iterate(program, iterate, directions, bound, factored):
    """The iterate, with ``iterate``'s residual factor, at a face point
    whose stop-test norm is at most ``bound``, else None.

    The first face is that of the gap z - s at the end point of the
    ``directions``' sigma = 0 arc, ``arc_point`` at alpha = pi/2: v - vdot
    + q up to the rounding of 1 - cos alpha.  Each rejected point corrects
    the gap up to FACE_UPDATES times (see the module docstring); a point
    whose objective leaves its domain, as an overflowing value does, ends
    the attempt as a face that cannot be solved does.  ``factored``
    holds the run's face masks, as bytes: a face already factored in the
    run gave a rejected point or None then, and gives them again, so the
    attempt ends.
    """
    end = arc_point(iterate, directions, 0.0, HALF_PI)
    _, _, s, z = Blocks.of(end, program.n, program.m, program.p)
    gap = z - s
    for _ in range(FACE_UPDATES + 1):
        face = face_rows(program, gap)
        key = face.tobytes()
        if key in factored:
            return None
        factored.add(key)
        solved = face_point(program, face)
        if solved is None:
            return None
        point, slack, multipliers = solved
        try:
            candidate = Iterate.at(program, point, iterate.nu)
        except DomainError:
            return None
        if kkt_norm(candidate) <= bound:
            return candidate
        # the gap whose face keeps the rows with multipliers above tau and
        # adds the off-face rows with slack below -tau
        tau = FACE_ROUNDOFF * max(1.0, float(reduce_max(np.abs(point))))
        gap = np.where(face, multipliers, -slack) - tau
    return None


def _trace_row(program, iterate, k, selection) -> TraceRow:
    """Row k of the trace; sigma = alpha = 0.0 where no selection made the
    iterate: at the start and after a face step."""
    sigma, alpha = (0.0, 0.0) if selection is None else (selection.sigma, selection.alpha)
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

    A call without ``start`` begins at ``least_squares_start(program)``,
    which raises the :class:`DomainError` of an objective undefined there,
    and steps by :func:`arcipm.step.mehrotra_steps`, with Mehrotra's sigma
    bounding the bisection, under the paper's step conditions at
    theta = rho = 0: positivity and a falling duality measure only.  Of
    ``config`` it reads ``epsilon``, ``max_iter``, ``sigma_min`` and
    ``sigma_max`` alone; ``theta`` and ``rho`` change nothing.
    A call with a start runs the paper's rule, :func:`arcipm.step.candidate_steps`,
    with its floors and centrality test.  As on every path, an objective
    that does not fold steps on the model term H x: from
    ``balanced_start(program, x0)`` at their files' starts ex1, ex3, ex5
    and ex8 end at (1, 1), (1, 2), (3.33, 3.99) and (5, 3, 5) in 162, 13,
    5 and 13 iterations, not at their minimizers.  The start's point and
    residual factor are taken into an iterate of ``program``, so a start built for
    another program of the same sizes steps on this program's derivatives
    and residuals, not on those it carries.  The command line, the reference
    fixtures, the golden files and the digests' cold-start lines pass
    ``default_start`` explicitly: with the paper's rule it reproduces the
    reference runs.

    Without a start, and with an objective that is or folds to a
    :class:`Quadratic`, a face step may end the run; the module docstring
    states its rule.  A Newton matrix that is singular ends the run
    ``SingularKKT`` before a face is tried.

    ``observer(k, iterate, selection)`` is called once per stored iterate
    (selection is None for the starting point and for a face step); it
    exists so tests and experiment scripts can watch every invariant
    without bloating the trace.

    The whole call, ``observer`` included, runs under the module's one
    floating-point policy: overflow and invalid operations are ignored,
    and the inf or NaN they leave ends the run with a status through the
    finiteness checks, so an in-domain program returns a report rather
    than raising numpy's warning.  Division by zero keeps the caller's
    setting.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        config = config or SolverConfig()
        # the paper's rule runs from a given start, the library's from none
        mehrotra = start is None
        face_steps = mehrotra and isinstance(program.compiled_objective, Quadratic)
        # the face masks factored in this run (see _face_iterate)
        factored = set()
        if mehrotra:
            iterate = least_squares_start(program)
        else:
            sizes = (start.x.size, start.y.size, start.p)
            if sizes != (program.n, program.m, program.p):
                raise ValueError(
                    f"start has (n, m, p) = {sizes}, the program has {(program.n, program.m, program.p)}"
                )
            iterate = Iterate.at(program, start.vec, start.nu)
        trace = [_trace_row(program, iterate, 0, None)]
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
            except SingularKKTError as err:
                status = SolverStatus.SINGULAR_KKT
                message = str(err)
                break
            stepped = selection = None
            # k = 0 tries no face: every run then takes at least one arc step,
            # so a boxqp_dense run calls select_step and the traced benchmark's
            # step.* spans record (tests/test_benchmark_spans.py; item 36)
            if face_steps and k:
                stepped = _face_iterate(program, iterate, directions, FACE_ACCEPT * config.epsilon, factored)
            if stepped is None:
                try:
                    selection = select_step(iterate, directions, config, mehrotra)
                    stepped = Iterate.at(program, selection.point, update_nu(iterate.nu, selection.alpha))
                except (StepFailureError, DomainError) as err:
                    # no acceptable angle, or the accepted point left the objective's domain
                    status = SolverStatus.STEP_FAILURE
                    message = str(err)
                    break
            iterate = stepped
            k += 1
            trace.append(_trace_row(program, iterate, k, selection))
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
