"""Primal-dual residuals, the Newton matrix, and the three direction solves.

The Newton system over (x, y, s, z) has the rows

    H dx + A_E' dy - A_I' dz = r_C
    A_E dx                   = r_E
    A_I dx - ds              = r_I
    z*ds + s*dz              = r_z

with r_z the block of the z*s row.  Eliminating s and z leaves the
symmetric (n+m)-square system

    [H + A_I'(Z/S)A_I  A_E'] [dx]   [r_C + A_I'((r_z + z*r_I)/s)]
    [A_E               0   ] [dy] = [r_E                        ]

(S. J. Wright, *Primal-Dual Interior-Point Methods*, SIAM 1997, ch. 11),
and the other blocks come back by substitution: ds = A_I dx - r_I and
dz = (r_z - z*ds)/s.

One iteration factors that matrix once with partially pivoted LU and
solves three right-hand sides: the first-order tangent, then the two
pieces whose combination (p*sigma + q) is the curvature term of the search
arc.  The curvature pieces have r_C = r_E = r_I = 0 and only r_z set, so
their right-hand side is [A_I'(r_z/s); 0] and their slack block is
ds = A_I dx.  Singularity is decided on the equilibrated
matrix D M D with D = diag(1/sqrt(row max |M|)) (one step of Ruiz's
scaling), so a badly scaled but regular system is not reported as
singular.

The factorization and the solves call LAPACK's ``dgetrf`` and ``dgetrs``
directly (LAPACK Users' Guide, 3rd ed., on xGETRF/xGETRS); at n + m of a
few dozen, scipy's ``lu_factor``/``lu_solve`` wrappers cost several times
the routines they wrap.  Each right-hand side gets its own ``dgetrs``
call: a two-column solve is not bitwise equal to two one-column solves,
and the one-column calls are bitwise equal to the wrappers.  LAPACK does
not check its input, so the matrix is checked for inf and NaN once,
before it is equilibrated, and every vector handed to ``dgetrs`` is
checked through the norm the solve takes of it anyway: a finite norm
proves every entry finite, and only an infinite or NaN norm, which an
overflow of finite entries can also give, is followed by an entrywise
test.  An inf or NaN entry raises :class:`SingularKKTError`.

An :class:`Iterate` and each of the three directions is one contiguous
vector of n + m + 2p entries in (x, y, s, z) order, and its four block
fields are views into it.  The directions are solved straight into that
form: one concatenation appends the (s, z) tail to the solved (x, y).  The
step layer evaluates a candidate point with one expression over whole
vectors, and the next iterate keeps that vector as its own.  s and z come
last, so the 2p entries that the angle limits read are one slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .autodiff import value_gradient_hessian
from .program import ConvexProgram

# Relative pivot size below which the factorization is treated as singular.
PIVOT_TOLERANCE = 1e-12

# Acceptable solve residual, relative to 1 + |rhs|.
SOLVE_TOLERANCE = 1e-8


class SingularKKTError(RuntimeError):
    """The Newton system is singular to working precision, or not finite.

    A system with an inf or NaN entry has no pivot to report: its
    ``pivot`` is NaN and the message names the part that is not finite.
    """

    def __init__(self, pivot: float, threshold: float, message: str = ""):
        super().__init__(
            message
            or f"Newton matrix is singular to working precision "
            f"(pivot {pivot:.3e}, threshold {threshold:.3e})"
        )
        self.pivot = pivot
        self.threshold = threshold


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


@dataclass(frozen=True)
class NewtonDirections:
    """Tangent plus the two curvature solves; curvature(sigma) = p*sigma + q.

    Each direction is one flat (x, y, s, z) vector (``vdot_vec``,
    ``p_vec``, ``q_vec``) of the sizes (n, m, p); the block fields
    ``vdot``, ``p_dir`` and ``q_dir`` are views into them.
    """

    vdot_vec: np.ndarray = field(repr=False)
    p_vec: np.ndarray = field(repr=False)
    q_vec: np.ndarray = field(repr=False)
    n: int
    m: int
    p: int
    vdot: Blocks = field(init=False)
    p_dir: Blocks = field(init=False)
    q_dir: Blocks = field(init=False)

    def __post_init__(self):
        sizes = self.n, self.m, self.p
        object.__setattr__(self, "vdot", Blocks.of(self.vdot_vec, *sizes))
        object.__setattr__(self, "p_dir", Blocks.of(self.p_vec, *sizes))
        object.__setattr__(self, "q_dir", Blocks.of(self.q_vec, *sizes))

    @classmethod
    def of(cls, vdot: Blocks, p_dir: Blocks, q_dir: Blocks) -> "NewtonDirections":
        """Directions from their (x, y, s, z) blocks, each stacked into one copy."""
        # plain tuples: numpy takes a NamedTuple through a slower path
        flats = (np.concatenate(tuple(blocks)) for blocks in (vdot, p_dir, q_dir))
        return cls(*flats, vdot.x.size, vdot.y.size, vdot.s.size)

    def curvature(self, sigma: float) -> Blocks:
        return Blocks.of(self.p_vec * sigma + self.q_vec, self.n, self.m, self.p)


@dataclass(frozen=True)
class Iterate:
    """A primal-dual point with its cached derivatives and residuals.

    The point is one flat (x, y, s, z) vector ``vec``.  The four block
    fields are views into it, split at the sizes (n, m, p) of the
    residuals r_c, r_e and r_i.  z holds the inequality multipliers.
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

    def __post_init__(self):
        blocks = Blocks.of(self.vec, self.r_c.size, self.r_e.size, self.r_i.size)
        for name, view in zip(Blocks._fields, blocks):
            object.__setattr__(self, name, view)

    @classmethod
    def at(cls, program: ConvexProgram, vec, nu: float) -> "Iterate":
        """The iterate at the flat (x, y, s, z) point ``vec``, kept as it is, not copied."""
        n, m, p = program.n, program.m, program.p
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n + m + 2 * p,):
            raise ValueError(f"point has shape {vec.shape}, expected ({n + m + 2 * p},)")
        # a NaN minimum fails the comparison too
        if not vec[n + m :].min() > 0.0:
            raise ValueError("slack and dual vectors must stay strictly positive")
        x, y, s, z = Blocks.of(vec, n, m, p)
        _, grad, hess = value_gradient_hessian(program.compiled_objective, x)
        r_c, r_e, r_i = compute_residuals(program, hess, x, y, s, z)
        return cls(vec, hess, grad, r_c, r_e, r_i, duality_measure(s, z), nu)

    def blocks(self) -> Blocks:
        return Blocks(self.x, self.y, self.s, self.z)

    @property
    def w(self) -> np.ndarray:
        # z under its former name: the benchmark's KKT certificate
        # (perfbench/) still reads the inequality multipliers as w
        return self.z

    @property
    def p(self) -> int:
        return self.s.size


def compute_residuals(program: ConvexProgram, hess, x, y, s, z):
    """(r_c, r_e, r_i) at a point, using the model term H x in r_c."""
    r_c = hess @ x + program.a_eq.T @ y - program.a_ineq.T @ z
    r_e = program.a_eq @ x - program.b_eq
    r_i = program.a_ineq @ x - s - program.b_ineq
    return r_c, r_e, r_i


def duality_measure(s, z) -> float:
    """mu = s'z / p."""
    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=float)
    if s.size == 0:
        raise ValueError("duality measure needs at least one slack component")
    return float(s @ z) / s.size


def optimality_residual(iterate: Iterate) -> np.ndarray:
    """Stacked optimality vector (r_c, r_e, r_i, 0, z*s).

    The p zeros pad the place of a former w - z block, which was zero: without
    them the BLAS dot product in :func:`norm` sums in another order and moves
    the stop-test norm by up to 1 ulp, which would change the recorded traces.
    """
    return np.concatenate(
        [iterate.r_c, iterate.r_e, iterate.r_i, np.zeros(iterate.p), iterate.z * iterate.s]
    )


def norm(vec: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector.

    ``np.linalg.norm`` computes this as sqrt(x.dot(x)) too, so the two
    agree bit for bit; this form skips that function's argument dispatch.
    """
    return math.sqrt(vec @ vec)


def kkt_norm(iterate: Iterate) -> float:
    """Euclidean norm of the stacked optimality vector (the stop test)."""
    return norm(optimality_residual(iterate))


def true_stationarity_norm(program: ConvexProgram, iterate: Iterate) -> float:
    """Norm of grad f + A_eq'y - A_ineq'z, reported as a diagnostic only.

    The stepping residual replaces grad f with H x, so the two vanish
    together only when the objective is an unshifted quadratic.
    """
    return norm(iterate.grad + program.a_eq.T @ iterate.y - program.a_ineq.T @ iterate.z)


class NewtonSystem(NamedTuple):
    """The reduced (n+m)-square matrix plus the rows that recover ds."""

    matrix: np.ndarray
    a_ineq: np.ndarray


def assemble_newton_matrix(hess, a_eq, a_ineq, s, z) -> NewtonSystem:
    """Reduced symmetric matrix [H + A_I'(Z/S)A_I, A_E'; A_E, 0]."""
    n = hess.shape[0]
    m = a_eq.shape[0]
    matrix = np.zeros((n + m, n + m))
    matrix[:n, :n] = hess + (a_ineq.T * (z / s)) @ a_ineq
    matrix[:n, n:] = a_eq.T
    matrix[n:, :n] = a_eq
    return NewtonSystem(matrix, a_ineq)


def _not_finite(part: str) -> SingularKKTError:
    return SingularKKTError(math.nan, PIVOT_TOLERANCE, f"Newton {part} is not finite")


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
    residual = rhs - matrix @ sol
    residual_norm = norm(residual)
    # one refinement pass when the direct solve is not clean enough
    if residual_norm > SOLVE_TOLERANCE * (1.0 + rhs_norm):
        _checked(residual, residual_norm)
        sol = sol + lu_solve(factor, residual)
    return sol


def solve_directions(system: NewtonSystem, iterate: Iterate, mu: float) -> NewtonDirections:
    """Solve the three direction systems off one factorization.

    Raises :class:`SingularKKTError` when the matrix or a right-hand side
    has an inf or NaN entry, or when the equilibrated matrix has a zero row
    or a pivot below ``PIVOT_TOLERANCE``; no silent regularization is
    applied.
    """
    matrix, a_ineq = system
    row_max = np.abs(matrix).max(axis=1)
    # the row maxima carry any inf or NaN of the matrix, and would spread
    # it through the scaling as 0 * inf
    if not math.isfinite(row_max.max()):
        raise _not_finite("matrix")
    if row_max.min() == 0.0:
        raise SingularKKTError(0.0, PIVOT_TOLERANCE)
    d = 1.0 / np.sqrt(row_max)
    scaled = d[:, None] * matrix * d
    lu, piv, _ = dgetrf(scaled)
    # for symmetric M the largest entry of D M D is 1, so the pivot
    # tolerance needs no further scale
    smallest = float(np.abs(lu.diagonal()).min())
    if smallest < PIVOT_TOLERANCE:
        raise SingularKKTError(smallest, PIVOT_TOLERANCE)
    factor = (lu, piv)

    n, m, p = iterate.x.size, iterate.y.size, iterate.p
    s, z = iterate.s, iterate.z

    def solved(head, tail):
        return d * _solve_checked(factor, scaled, d * np.concatenate((head, tail)))

    # the tangent: every residual of the iterate
    r_i, r_z = iterate.r_i, z * s
    dxy = solved(iterate.r_c + a_ineq.T @ ((r_z + z * r_i) / s), iterate.r_e)
    ds = a_ineq @ dxy[:n] - r_i
    dz = (r_z - z * ds) / s
    vdot_vec = np.concatenate((dxy, ds, dz))

    # a curvature piece: r_z alone, so ds = A_I dx
    zero_e = np.zeros(m)

    def curvature_piece(r_z):
        dxy = solved(a_ineq.T @ (r_z / s), zero_e)
        ds = a_ineq @ dxy[:n]
        dz = (r_z - z * ds) / s
        return np.concatenate((dxy, ds, dz))

    p_vec = curvature_piece(np.full(p, mu))
    q_vec = curvature_piece(-2.0 * dz * ds)
    return NewtonDirections(vdot_vec, p_vec, q_vec, n, m, p)
