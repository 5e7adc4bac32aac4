"""Primal-dual residuals, the Newton matrix, the three direction solves and the face solve.

The Newton system over (x, y, s, z) has the rows

    H dx + A_E' dy - A_I' dz = r_C
    A_E dx                   = r_E
    A_I dx - ds              = r_I
    z*ds + s*dz              = r_z

with r_z the block of the z*s row.  r_C is grad f + A_E'y - A_I'z when
the objective is or folds to a :class:`Quadratic` (degree at most 2),
whose gradient g + H x the Newton model matches exactly.  For any other
objective grad f is replaced by the model term H x, as in the reference
runs, so such a run stops where H x, not grad f, balances the
multipliers.  Eliminating s and z leaves the symmetric (n+m)-square system

    [H + A_I'(Z/S)A_I  A_E'] [dx]   [r_C + A_I'((r_z + z*r_I)/s)]
    [A_E               0   ] [dy] = [r_E                        ]

(S. J. Wright, *Primal-Dual Interior-Point Methods*, SIAM 1997, ch. 11),
and the other blocks come back by substitution: ds = A_I dx - r_I and
dz = (r_z - z*ds)/s.

One iteration factors that matrix once with partially pivoted LU and
sends three right-hand sides through one routine that forms the reduced
right-hand side above, solves it and substitutes ds and dz back: the
first-order tangent, with every residual of the iterate and r_z = z*s,
then the two pieces whose combination (p*sigma + q) is the curvature term
of the search arc.  Those two have r_C = r_E = r_I = 0; the centering
piece p has r_z = mu, the iterate's scalar, whose mu/s and mu - z*ds have
the bits a vector of mu would give, and q has r_z = -2 dz*ds of the
tangent.  Their solves leave out the terms z*r_I and -r_I, which
change no bit at r_I = 0: r_z + z*0 differs from r_z only in the sign of
a zero, which the 0.0 + ... of r_C = 0 makes +0.0 either way, and x - 0
is x.  The matrix is factored as D M D with
D = diag(1/sqrt(row max |M|)) (one step of Ruiz's scaling); for symmetric
M its entries are at most 1 in magnitude, so ``SOLVE_TOLERANCE`` bounds
each solve's residual against a unit-scaled matrix.  Singularity is
decided by that residual, not by pivot size: near a solution the matrix is
ill-conditioned by construction, as z/s goes to 0 or inf row by row, and
the step stays usable (M. H. Wright, SIAM J. Optim. 1998).  A zero row, an
exact zero LU pivot, or a residual above the bound after one refinement
pass raises :class:`SingularKKTError`.

The factorization and the solves call LAPACK's ``dgetrf`` and ``dgetrs``
directly (LAPACK Users' Guide, 3rd ed., on xGETRF/xGETRS); at n + m of a
few dozen, scipy's ``lu_factor``/``lu_solve`` wrappers cost several times
the routines they wrap.  Each right-hand side gets its own ``dgetrs``
call: a two-column solve is not bitwise equal to two one-column solves,
and the one-column calls are bitwise equal to the wrappers, as
``tests/test_kkt.py::test_lapack_directions_equal_scipy_wrappers_bitwise``
checks against a reference solve through them.  LAPACK does
not check its input, so the matrix is checked for inf and NaN once,
before it is equilibrated, and every vector handed to ``dgetrs`` is
checked through the norm the solve takes of it anyway: a finite norm
proves every entry finite, and only an infinite or NaN norm, which an
overflow of finite entries can also give, is followed by an entrywise
test.  An inf or NaN entry raises :class:`SingularKKTError`.  Inside
:func:`arcipm.solver.solve` an overflow reaches these checks as an inf or
NaN value, not as numpy's warning, by the floating-point policy that
:mod:`arcipm.solver`'s docstring states.

The same holds one level down: on these operands numpy's dispatch costs
more than the arithmetic.  So the iteration path multiplies through
``ndarray.dot``, not ``@``, and reduces through ``np.minimum.reduce`` and
``np.maximum.reduce`` (:data:`reduce_min`, :data:`reduce_max`), not through
``ndarray.min``/``max``, which reach the same ufunc methods through a
Python wrapper.  With numpy 2.4.6 and one OpenBLAS thread on a shared
two-core Xeon host, on operands of 4 to 432 entries, ``A @ x`` took
1.0-1.5 us a call and ``A.dot(x)`` 0.5-0.8 us for the same BLAS routine,
and ``v.min()`` took 0.1-0.3 us more than the ufunc reduction.  Each site
is decided by the digests of ``tools/run_digest.py``: a site keeps ``@``
where ``.dot`` moves a result bit, as the strided 3 x p by p x 3 product
of :meth:`arcipm.step.MuPredictor.of` does.  Nor does the iteration path
call ``np.all``, ``np.any`` or ``np.full``, whose Python wrappers took
2.4-3.8 us and 1.4-1.7 us a call on that host.

A shortcut past work that the iteration would repeat is kept where a
measurement shows that it pays: the m = 0 branches below, the blocks
that :meth:`Iterate.at` splits once and hands to its constructor, the
accepted arc point kept as the next iterate's vector, the ``r_i=None``
mode of the two curvature solves, and the trace's norm of r_c for a
folded objective.  A program without equality rows (m = 0) gets no zero
A_E'y product, no empty r_E arithmetic and no A_E block.  r_C is stated
once, in :func:`stationarity`, which is its one m = 0 branch; the Newton
matrix is H + A_I'(Z/S)A_I itself and the reduced right-hand sides are
the r_C block alone.  The matrix and the right-hand sides hold the
values the (n+m)-square copy and the concatenations would.  Adding the
zero product changes a vector only in the sign of a zero entry: a norm
does not see it, and r_c enters the iteration only through norms and as
an addend of the reduced right-hand side, with no division by an entry
of it, so that sign can reach no nonzero value (``tools/run_digest.py``
prints the same lines with and without the product).  Each iterate
takes its duality measure of its own (s, z) views, although
:func:`arcipm.step.select_step` has taken the same dot of the accepted
candidate's: that one dot is within timing noise of an iteration.

:func:`face_point` is the one other solve.  It solves a folded
objective's program on a face of the inequality rows as an
equality-constrained QP: the Newton matrix's layout with H for its block
and the equality and face rows for its border, factored with the same
D M D scaling, and one ``dgetrs`` call.  Besides the point, it returns
the raw slack and the multipliers.  It has no refinement and raises
nothing; a zero row, an exact zero pivot, a pivot below
``FACE_PIVOT_RATIO`` of the largest or a solution that is not finite
gives None.  The face matrix has no z/s terms, so unlike the Newton
matrix near a solution it is not ill-conditioned by construction: a tiny
pivot there means that H is singular on the face or that the face rows
are dependent, and the solve would then pick one of many solutions by
roundoff.  :func:`face_rows` gives the face of a gap vector: the rows
with a positive gap, trimmed to the n - m with the largest gap when more
would over-determine x.  The face step that calls both is stated in
:mod:`arcipm.solver`.

An :class:`Iterate` is one contiguous vector of n + m + 2p entries in
(x, y, s, z) order, and its four block fields are views into it.  Each
direction is a plain vector in the same layout, solved straight into it:
one concatenation appends the (s, z) tail to the solved (x, y).  The step
layer evaluates a candidate point with one expression over whole vectors,
and the next iterate keeps that vector as its own.  s and z come last, so
the 2p entries that the step layer reads per component are one slice.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .autodiff import Quadratic, value_gradient_hessian
from .program import ConvexProgram

# Largest equilibrated solve residual, relative to 1 + |rhs|: a solve above
# it is refined once, and a refined solve still above it is singular.
SOLVE_TOLERANCE = 1e-8

# The floor of s and z at a face point (face_point), which must stay positive.
# Its products z*s enter the stop test, which accepts a face point at 1e-8:
# at 1e-10 the family's no-start total rose from 845 to 1394 iterations,
# and at 1e-18 no total moved.
FACE_FLOOR = 1e-14

# The smallest equilibrated LU pivot of a face solve, relative to the largest.
# Without this test, face steps on Hessians singular on the face moved nine
# family draws with permuted variables (7, 21, 37, 59, 124, 193, 223, 247 and
# 298) and seventeen translated draws of tests/test_metamorphic.py off the
# untransformed runs.
FACE_PIVOT_RATIO = 1e-12

# The iteration path's reductions, without ndarray.min()/max()'s Python
# wrapper (see the module docstring).
reduce_min = np.minimum.reduce
reduce_max = np.maximum.reduce


class SingularKKTError(RuntimeError):
    """The Newton system cannot be solved to working precision, or is not finite."""


class Blocks(NamedTuple):
    """The four stacked blocks (x, y, s, z) of a primal-dual point."""

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    z: np.ndarray

    @classmethod
    def of(cls, flat: np.ndarray, n: int, m: int, p: int) -> "Blocks":
        """The blocks of a flat (x, y, s, z) vector, as views into it."""
        s_at = n + m
        z_at = s_at + p
        return cls(flat[:n], flat[n:s_at], flat[s_at:z_at], flat[z_at:])


class NewtonDirections(NamedTuple):
    """The tangent and the two curvature pieces, whose arc term is p_dir*sigma + q_dir.

    Each direction is one flat (x, y, s, z) vector of n + m + 2p entries,
    laid out like :attr:`Iterate.vec`.
    """

    vdot: np.ndarray
    p_dir: np.ndarray
    q_dir: np.ndarray


@dataclass(frozen=True, slots=True)
class Iterate:
    """A primal-dual point with its cached derivatives and residuals.

    The point is one flat (x, y, s, z) vector ``vec``.  The four block
    fields are views into it, split at the sizes (n, m, p) of the
    residuals r_c, r_e and r_i.  z holds the inequality multipliers, and
    ``zs`` is the complementarity product z*s, formed once here: the
    optimality residual, the trace row's min(s*z)/mu and the tangent's
    r_z all read it.  :meth:`at` hands over the ``blocks`` it has already
    split; without them the fields are split from ``vec`` here.
    """

    vec: np.ndarray = field(repr=False)
    hess: np.ndarray
    grad: np.ndarray
    r_c: np.ndarray
    r_e: np.ndarray
    r_i: np.ndarray
    mu: float
    nu: float
    x: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    s: np.ndarray = field(init=False)
    z: np.ndarray = field(init=False)
    zs: np.ndarray = field(init=False, repr=False)
    blocks: InitVar[Blocks | None] = None

    def __post_init__(self, blocks):
        if blocks is None:
            blocks = Blocks.of(self.vec, self.r_c.size, self.r_e.size, self.r_i.size)
        x, y, s, z = blocks
        setattr_ = object.__setattr__
        setattr_(self, "x", x)
        setattr_(self, "y", y)
        setattr_(self, "s", s)
        setattr_(self, "z", z)
        setattr_(self, "zs", z * s)

    @classmethod
    def at(cls, program: ConvexProgram, vec, nu: float) -> "Iterate":
        """The iterate at the flat (x, y, s, z) point ``vec``, kept as it is, not copied.

        The residual factor ``nu`` lies in (0, 1]; a NaN fails that test too.
        """
        if not 0.0 < nu <= 1.0:
            raise ValueError(f"residual factor nu must lie in (0, 1], got {nu}")
        n, m, p = program.n, program.m, program.p
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n + m + 2 * p,):
            raise ValueError(f"point has shape {vec.shape}, expected ({n + m + 2 * p},)")
        # a NaN minimum fails the comparison too
        if not reduce_min(vec[n + m :]) > 0.0:
            raise ValueError("slack and dual vectors must stay strictly positive")
        blocks = x, y, s, z = Blocks.of(vec, n, m, p)
        objective = program.compiled_objective
        _, grad, hess = value_gradient_hessian(objective, x)
        # the Newton model of a folded objective is exact, so r_c leads with its
        # gradient; any other leads with the model term H x, as the reference runs
        r_c = stationarity(program, grad if isinstance(objective, Quadratic) else hess.dot(x), y, z)
        # without equality rows r_e is the empty b_eq itself
        r_e = program.a_eq.dot(x) - program.b_eq if m else program.b_eq
        r_i = program.a_ineq.dot(x) - s - program.b_ineq
        return cls(vec, hess, grad, r_c, r_e, r_i, duality_measure(s, z), nu, blocks)

    @property
    def w(self) -> np.ndarray:
        # z under its former name: the benchmark's KKT certificate
        # (perfbench/) still reads the inequality multipliers as w
        return self.z

    @property
    def p(self) -> int:
        return self.s.size


def stationarity(program: ConvexProgram, lead, y, z) -> np.ndarray:
    """lead + A_E'y - A_I'z, with no A_E'y term when m = 0.

    ``lead`` is grad f, or the model term H x for r_c of an objective that
    does not fold (see :meth:`Iterate.at`).
    """
    if program.m:
        lead = lead + program.a_eq.T.dot(y)
    return lead - program.a_ineq.T.dot(z)


def duality_measure(s, z) -> float:
    """mu = s'z / p of two float vectors; a program has p >= 1."""
    return float(s.dot(z)) / s.size


def norm(vec: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector.

    ``np.linalg.norm`` computes this as sqrt(x.dot(x)) too, so the two
    agree bit for bit; this form skips that function's argument dispatch.
    """
    return math.sqrt(vec.dot(vec))


def kkt_norm(iterate: Iterate) -> float:
    """Euclidean norm of the stacked optimality vector (r_c, r_e, r_i, z*s), the stop test."""
    return norm(np.concatenate((iterate.r_c, iterate.r_e, iterate.r_i, iterate.zs)))


def true_stationarity_norm(program: ConvexProgram, iterate: Iterate) -> float:
    """Norm of grad f + A_eq'y - A_ineq'z, reported as a diagnostic only.

    For an objective that is or folds to a :class:`Quadratic` the
    stepping residual r_c is this same vector, so ``solve()``'s trace
    reads the norm of r_c for it and calls this only for any other
    objective.  Such an objective steps on H x in place of grad f, and
    then the two need not vanish together.
    """
    return norm(stationarity(program, iterate.grad, iterate.y, iterate.z))


def assemble_newton_matrix(hess, a_eq, a_ineq, s, z) -> np.ndarray:
    """Reduced symmetric matrix [H + A_I'(Z/S)A_I, A_E'; A_E, 0].

    Without equality rows that is the block H + A_I'(Z/S)A_I itself.
    """
    return _saddle(hess + (a_ineq.T * (z / s)).dot(a_ineq), a_eq)


def _saddle(block, rows) -> np.ndarray:
    """[block, rows'; rows, 0], or the block itself when there are no rows."""
    m = rows.shape[0]
    if not m:
        return block
    n = block.shape[0]
    matrix = np.zeros((n + m, n + m))
    matrix[:n, :n] = block
    matrix[:n, n:] = rows.T
    matrix[n:, :n] = rows
    return matrix


def _not_finite(part: str) -> SingularKKTError:
    return SingularKKTError(f"Newton {part} is not finite")


def _checked(vec: np.ndarray, vec_norm: float) -> None:
    """Raise unless every entry of ``vec``, whose norm is ``vec_norm``, is finite."""
    # an inf or NaN entry makes the norm inf or NaN; an infinite norm may
    # also be the overflow of finite entries, so only then look at each one
    if not math.isfinite(vec_norm) and not np.isfinite(vec).all():
        raise _not_finite("right-hand side")


def lu_solve(factor, rhs):
    """Solve with a ``dgetrf`` factorization for one finite right-hand side."""
    return dgetrs(*factor, rhs)[0]


def _solve_checked(factor, matrix, rhs):
    rhs_norm = norm(rhs)
    _checked(rhs, rhs_norm)
    sol = lu_solve(factor, rhs)
    residual = rhs - matrix.dot(sol)
    residual_norm = norm(residual)
    bound = SOLVE_TOLERANCE * (1.0 + rhs_norm)
    # one refinement pass when the direct solve is not clean enough; the
    # negated test also sends a NaN residual to the check
    if not residual_norm <= bound:
        _checked(residual, residual_norm)
        sol = sol + lu_solve(factor, residual)
        residual_norm = norm(rhs - matrix.dot(sol))
        if not residual_norm <= bound:
            raise SingularKKTError(f"Newton matrix is singular to working precision "
                                   f"(refined residual {residual_norm:.3e}, bound {bound:.3e})")
    return sol


def _equilibrated_lu(matrix):
    """(d, D M D, its LU factor (lu, piv)) with D = diag(d), d = 1/sqrt(row max |M|).

    Raises :class:`SingularKKTError` when the matrix has an inf or NaN
    entry, a zero row, or an exactly zero LU pivot.
    """
    row_max = reduce_max(np.abs(matrix), axis=1)
    # the row maxima carry any inf or NaN of the matrix, and would spread
    # it through the scaling as 0 * inf
    if not math.isfinite(reduce_max(row_max)):
        raise _not_finite("matrix")
    if reduce_min(row_max) == 0.0:
        raise SingularKKTError(f"Newton matrix is singular (row {int(row_max.argmin()) + 1} is zero)")
    d = 1.0 / np.sqrt(row_max)
    scaled = d[:, None] * matrix * d
    lu, piv, info = dgetrf(scaled)
    # a positive info names an exactly zero pivot: every solve would divide by it
    if info > 0:
        raise SingularKKTError(f"Newton matrix is singular (LU pivot {info} is exactly zero)")
    return d, scaled, (lu, piv)


def face_rows(program: ConvexProgram, gap) -> np.ndarray:
    """The face of a gap vector: the mask of the inequality rows with gap_i > 0.

    When m + |F| > n the face rows and the equality rows cannot all hold at
    a unique x, so only the n - m rows with the largest gap_i are kept,
    ties broken by row index.
    """
    face = gap > 0.0
    room = max(program.n - program.m, 0)
    if np.count_nonzero(face) > room:
        face = np.zeros(program.p, dtype=bool)
        # a stable sort of -gap lists equal gaps by row index
        face[np.argsort(-gap, kind="stable")[:room]] = True
    return face


def face_point(program: ConvexProgram, face: np.ndarray):
    """(point, slack, multipliers) of a program whose objective is or folds
    to a :class:`Quadratic`, solved on the face of the rows ``face``, or None.

    One equilibrated LU solves [H, A_E', A_F'; A_E, 0, 0; A_F, 0, 0]
    (x, y, -z_F) = (-g, b_E, b_F) for the face rows F, laid out and scaled
    as the Newton matrix is.  The slack is the raw A_I x - b_I and the
    multipliers are z_F on the face and 0 off it.  The point is the flat
    (x, y, s, z) vector with s = max(slack, FACE_FLOOR) and
    z = max(multipliers, FACE_FLOOR).  None, and nothing raised, when the
    matrix has a zero row or an LU pivot below FACE_PIVOT_RATIO times the
    largest, or when the solution is not finite.  The solve calls LAPACK
    itself, not :func:`lu_solve`, so that function's calls stay the three
    direction solves of an iteration.
    """
    objective = program.compiled_objective
    a_ineq, b_ineq = program.a_ineq, program.b_ineq
    matrix = _saddle(objective.hessian, np.concatenate((program.a_eq, a_ineq[face])))
    try:
        d, _, (lu, piv) = _equilibrated_lu(matrix)
    except SingularKKTError:
        return None
    pivots = np.abs(lu.diagonal())
    if reduce_min(pivots) < FACE_PIVOT_RATIO * reduce_max(pivots):
        return None
    rhs = np.concatenate((-objective.linear, program.b_eq, b_ineq[face]))
    solution = d * dgetrs(lu, piv, d * rhs)[0]
    if not np.isfinite(solution).all():
        return None
    n, m = program.n, program.m
    multipliers = np.zeros(program.p)
    multipliers[face] = -solution[n + m :]
    slack = a_ineq.dot(solution[:n]) - b_ineq
    point = np.concatenate(
        (solution[: n + m], np.maximum(slack, FACE_FLOOR), np.maximum(multipliers, FACE_FLOOR))
    )
    return point, slack, multipliers


def solve_directions(matrix: np.ndarray, a_ineq: np.ndarray, iterate: Iterate) -> NewtonDirections:
    """Solve the three direction systems off one factorization.

    Raises :class:`SingularKKTError` when the matrix or a right-hand side
    has an inf or NaN entry, when the matrix has a zero row, when its
    equilibrated LU factor has an exact zero pivot, or when a solve's
    residual still exceeds ``SOLVE_TOLERANCE``*(1 + |rhs|) after one pass
    of refinement.  A small pivot alone is no reason to stop, and no
    silent regularization is applied.
    """
    d, scaled, factor = _equilibrated_lu(matrix)
    n, m, p = iterate.x.size, iterate.y.size, iterate.p
    s, z = iterate.s, iterate.z
    a_ineq_t = a_ineq.T

    def direction(r_c, r_e, r_z, r_i=None):
        # r_i None is r_I = 0: no z*r_I, no -r_I
        combined = r_z if r_i is None else r_z + z * r_i
        rhs = r_c + a_ineq_t.dot(combined / s)
        # without equality rows the right-hand side is the r_C block alone
        if m:
            rhs = np.concatenate((rhs, r_e))
        dxy = d * _solve_checked(factor, scaled, d * rhs)
        ds = a_ineq.dot(dxy[:n])
        if r_i is not None:
            ds -= r_i
        dz = (r_z - z * ds) / s
        return np.concatenate((dxy, ds, dz))

    vdot = direction(iterate.r_c, iterate.r_e, iterate.zs, iterate.r_i)
    zero_e = np.zeros(m) if m else None
    # r_C = 0.0 turns a -0.0 entry of the product below into +0.0, which is
    # all that r_z + z*0 would change; the scalar r_z = mu gives the bits of
    # a vector of mu in mu/s and mu - z*ds
    p_dir = direction(0.0, zero_e, iterate.mu)
    _, _, ds, dz = Blocks.of(vdot, n, m, p)
    q_dir = direction(0.0, zero_e, -2.0 * dz * ds)
    return NewtonDirections(vdot, p_dir, q_dir)
