"""Primal-dual residuals, the Newton matrix, and the three direction solves.

The Newton system over (x, y, w, s, z) has the rows

    H dx + A_E' dy - A_I' dw = r_C
    A_E dx                   = r_E
    A_I dx - ds              = r_I
    dw - dz                  = r_w
    z*ds + s*dz              = r_z

with r_w and r_z the blocks of the w - z and z*s rows.  Eliminating w, s
and z leaves the symmetric (n+m)-square system

    [H + A_I'(Z/S)A_I  A_E'] [dx]   [r_C + A_I'(r_w + (r_z + z*r_I)/s)]
    [A_E               0   ] [dy] = [r_E                              ]

(S. J. Wright, *Primal-Dual Interior-Point Methods*, SIAM 1997, ch. 11),
and the other blocks come back by substitution: ds = A_I dx - r_I,
dz = (r_z - z*ds)/s, dw = r_w + dz.

One iteration factors that matrix once with partially pivoted LU and
solves three right-hand sides: the first-order tangent, then the two
pieces whose combination (p*sigma + q) is the curvature term of the search
arc.  Singularity is decided on the equilibrated matrix D M D with
D = diag(1/sqrt(row max |M|)) (one step of Ruiz's scaling), so a badly
scaled but regular system is not reported as singular.

The factorization and the solves call LAPACK's ``dgetrf`` and ``dgetrs``
directly (LAPACK Users' Guide, 3rd ed., on xGETRF/xGETRS); at n + m of a
few dozen, scipy's ``lu_factor``/``lu_solve`` wrappers cost several times
the routines they wrap.  Each right-hand side gets its own ``dgetrs``
call: a two-column solve is not bitwise equal to two one-column solves,
and the one-column calls are bitwise equal to the wrappers.  LAPACK does
not check its input, so the matrix is checked for inf and NaN once,
before it is equilibrated, and every right-hand side before it is solved;
either kind of entry raises :class:`SingularKKTError`.

An :class:`Iterate` and each of the three directions is one contiguous
vector in (x, y, w, s, z) order, built once when the object is made, and
its five block fields are views into it.  The step layer then evaluates a
candidate point with one expression over whole vectors, and s and z come
last so that the 2p slack and dual entries its angle limits read are one
slice at the end, not a concatenation.
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
    """The five stacked blocks (x, y, w, s, z) of a primal-dual point."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    s: np.ndarray
    z: np.ndarray

    @classmethod
    def of(cls, flat: np.ndarray, n: int, m: int, p: int) -> "Blocks":
        """The blocks of a flat (x, y, w, s, z) vector, as views into it."""
        w_at = n + m
        s_at = w_at + p
        z_at = s_at + p
        return cls(flat[:n], flat[n:w_at], flat[w_at:s_at], flat[s_at:z_at], flat[z_at:])


def _stacked(blocks: Blocks) -> tuple[np.ndarray, Blocks]:
    """One contiguous copy of five blocks, and the blocks as views into it."""
    x, y, w, s, z = blocks
    # a plain tuple: numpy takes a NamedTuple through a slower path
    flat = np.concatenate((x, y, w, s, z))
    return flat, Blocks.of(flat, x.size, y.size, s.size)


@dataclass(frozen=True)
class NewtonDirections:
    """Tangent plus the two curvature solves; curvature(sigma) = p*sigma + q.

    Each direction is also kept as one flat (x, y, w, s, z) vector
    (``vdot_vec``, ``p_vec``, ``q_vec``); its blocks are views into it.
    """

    vdot: Blocks
    p_dir: Blocks
    q_dir: Blocks
    vdot_vec: np.ndarray = field(init=False, repr=False)
    p_vec: np.ndarray = field(init=False, repr=False)
    q_vec: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for blocks_name, vec_name in (("vdot", "vdot_vec"), ("p_dir", "p_vec"), ("q_dir", "q_vec")):
            flat, views = _stacked(getattr(self, blocks_name))
            object.__setattr__(self, vec_name, flat)
            object.__setattr__(self, blocks_name, views)

    def curvature(self, sigma: float) -> Blocks:
        vdot = self.vdot
        return Blocks.of(self.p_vec * sigma + self.q_vec, vdot.x.size, vdot.y.size, vdot.s.size)


@dataclass(frozen=True)
class Iterate:
    """A primal-dual point with its cached derivatives and residuals.

    The point is kept as one flat (x, y, w, s, z) vector ``vec``, and the
    five block fields are views into it.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    s: np.ndarray
    z: np.ndarray
    hess: np.ndarray
    grad: np.ndarray
    r_c: np.ndarray
    r_e: np.ndarray
    r_i: np.ndarray
    mu: float
    nu: float
    vec: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        flat, views = _stacked((self.x, self.y, self.w, self.s, self.z))
        object.__setattr__(self, "vec", flat)
        for name, view in zip(Blocks._fields, views):
            object.__setattr__(self, name, view)

    @classmethod
    def at(cls, program: ConvexProgram, x, y, w, s, z, nu: float) -> "Iterate":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        w = np.asarray(w, dtype=float).reshape(-1)
        s = np.asarray(s, dtype=float).reshape(-1)
        z = np.asarray(z, dtype=float).reshape(-1)
        if not (s.min() > 0.0 and z.min() > 0.0):
            raise ValueError("slack and dual vectors must stay strictly positive")
        _, grad, hess = value_gradient_hessian(program.compiled_objective, x)
        r_c, r_e, r_i = compute_residuals(program, hess, x, y, w, s)
        return cls(x, y, w, s, z, hess, grad, r_c, r_e, r_i, duality_measure(s, z), nu)

    def blocks(self) -> Blocks:
        return Blocks(self.x, self.y, self.w, self.s, self.z)

    @property
    def p(self) -> int:
        return self.s.size


def compute_residuals(program: ConvexProgram, hess, x, y, w, s):
    """(r_c, r_e, r_i) at a point, using the model term H x in r_c."""
    r_c = hess @ x + program.a_eq.T @ y - program.a_ineq.T @ w
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
    """Stacked optimality vector (r_c, r_e, r_i, w - z, z*s)."""
    return np.concatenate(
        [
            iterate.r_c,
            iterate.r_e,
            iterate.r_i,
            iterate.w - iterate.z,
            iterate.z * iterate.s,
        ]
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
    """Norm of grad f + A_eq'y - A_ineq'w, reported as a diagnostic only.

    The stepping residual replaces grad f with H x, so the two vanish
    together only when the objective is an unshifted quadratic.
    """
    return norm(iterate.grad + program.a_eq.T @ iterate.y - program.a_ineq.T @ iterate.w)


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


def lu_solve(factor, rhs):
    """Solve with a ``dgetrf`` factorization for one right-hand side."""
    if not np.isfinite(rhs).all():
        raise _not_finite("right-hand side")
    return dgetrs(*factor, rhs)[0]


def _solve_checked(factor, matrix, rhs):
    sol = lu_solve(factor, rhs)
    residual = rhs - matrix @ sol
    # one refinement pass when the direct solve is not clean enough
    if norm(residual) > SOLVE_TOLERANCE * (1.0 + norm(rhs)):
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

    n = iterate.x.size
    s, z = iterate.s, iterate.z

    def direction(r_c, r_e, r_i, r_w, r_z) -> Blocks:
        rhs = np.concatenate([r_c + a_ineq.T @ (r_w + (r_z + z * r_i) / s), r_e])
        dxy = d * _solve_checked(factor, scaled, d * rhs)
        ds = a_ineq @ dxy[:n] - r_i
        dz = (r_z - z * ds) / s
        return Blocks(dxy[:n], dxy[n:], r_w + dz, ds, dz)

    vdot = direction(iterate.r_c, iterate.r_e, iterate.r_i, iterate.w - z, z * s)
    zero_e = np.zeros_like(iterate.r_e)
    p_dir = direction(0.0, zero_e, 0.0, 0.0, np.full(iterate.p, mu))
    q_dir = direction(0.0, zero_e, 0.0, 0.0, -2.0 * vdot.z * vdot.s)
    return NewtonDirections(vdot, p_dir, q_dir)
