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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class NewtonDirections:
    """Tangent plus the two curvature solves; curvature(sigma) = p*sigma + q."""

    vdot: Blocks
    p_dir: Blocks
    q_dir: Blocks

    def curvature(self, sigma: float) -> Blocks:
        return Blocks(*(p * sigma + q for p, q in zip(self.p_dir, self.q_dir)))


@dataclass(frozen=True)
class Iterate:
    """A primal-dual point with its cached derivatives and residuals."""

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


def kkt_norm(iterate: Iterate) -> float:
    """Euclidean norm of the stacked optimality vector (the stop test)."""
    return float(np.linalg.norm(optimality_residual(iterate)))


def true_stationarity_norm(program: ConvexProgram, iterate: Iterate) -> float:
    """Norm of grad f + A_eq'y - A_ineq'w, reported as a diagnostic only.

    The stepping residual replaces grad f with H x, so the two vanish
    together only when the objective is an unshifted quadratic.
    """
    vec = iterate.grad + program.a_eq.T @ iterate.y - program.a_ineq.T @ iterate.w
    return float(np.linalg.norm(vec))


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
    if math.sqrt(residual @ residual) > SOLVE_TOLERANCE * (1.0 + math.sqrt(rhs @ rhs)):
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
