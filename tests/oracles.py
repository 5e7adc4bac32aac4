"""Independent brute-force oracles used by the test suite.

The oracles deliberately avoid the solver's machinery: the stationarity
check below uses the true gradient (not the model term H x) of the parsed
tree (not the compiled tree the solver differentiates), the angle
scan walks a dense grid instead of inverting sinusoids, and the full
Newton matrix keeps every block that the solver eliminates, so a shared
bug between implementation and check is impossible.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgetrf, dgetrs

from arcipm.autodiff import gradient, hessian
from arcipm.program import ConvexProgram

MAX_ENUM_ROWS = 12


def enumerate_kkt(program: ConvexProgram, tol: float = 1e-8) -> list[np.ndarray]:
    """All first-order points of a quadratic program, by active-set enumeration.

    Requires a quadratic objective (constant Hessian) and at most
    ``MAX_ENUM_ROWS`` inequality rows.  Every subset of rows is treated as
    active, the equality-constrained stationarity system is solved with the
    true gradient, and candidates failing primal feasibility, dual sign, or
    the linear solve are dropped.
    """
    n, m, p = program.n, program.m, program.p
    if p > MAX_ENUM_ROWS:
        raise ValueError(f"enumeration oracle handles at most {MAX_ENUM_ROWS} rows, got {p}")
    origin = np.zeros(n)
    quad = hessian(program.objective, origin)
    linear = gradient(program.objective, origin)

    candidates: list[np.ndarray] = []
    for size in range(p + 1):
        for active in itertools.combinations(range(p), size):
            rows = program.a_ineq[list(active)]
            k = len(active)
            system = np.zeros((n + m + k, n + m + k))
            system[:n, :n] = quad
            system[:n, n : n + m] = program.a_eq.T
            system[:n, n + m :] = -rows.T
            system[n : n + m, :n] = program.a_eq
            system[n + m :, :n] = rows
            rhs = np.concatenate([-linear, program.b_eq, program.b_ineq[list(active)]])
            try:
                solution = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(solution)):
                continue
            if np.linalg.norm(system @ solution - rhs) > tol * (1.0 + np.linalg.norm(rhs)):
                continue
            x = solution[:n]
            multipliers = solution[n + m :]
            if np.any(multipliers < -tol):
                continue
            if np.any(program.a_ineq @ x < program.b_ineq - tol):
                continue
            if not any(np.allclose(x, seen, atol=10 * tol) for seen in candidates):
                candidates.append(x)
    return candidates


def full_newton_matrix(hess, a_eq, a_ineq, s, z) -> np.ndarray:
    """Unreduced (n+m+2p)-square Newton matrix over the order (x, y, s, z).

    Its rows are the linearized r_C, r_E, r_I and z*s conditions; the
    solver solves the same system with s and z eliminated.
    """
    hess = np.asarray(hess, dtype=float)
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    a_ineq = np.atleast_2d(np.asarray(a_ineq, dtype=float))
    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=float)
    n = hess.shape[0]
    m = a_eq.shape[0] if a_eq.size else 0
    p = a_ineq.shape[0]
    size = n + m + 2 * p
    matrix = np.zeros((size, size))
    ox, oy, os_, oz = 0, n, n + m, n + m + p

    matrix[ox : ox + n, ox : ox + n] = hess
    if m:
        matrix[ox : ox + n, oy : oy + m] = a_eq.T
        matrix[oy : oy + m, ox : ox + n] = a_eq
    matrix[ox : ox + n, oz : oz + p] = -a_ineq.T
    matrix[os_ : os_ + p, ox : ox + n] = a_ineq
    idx = np.arange(p)
    matrix[os_ + idx, os_ + idx] = -1.0
    matrix[oz + idx, os_ + idx] = z
    matrix[oz + idx, oz + idx] = s
    return matrix


def scan_alpha(
    current: float,
    rate: float,
    p_coef: float,
    q_coef: float,
    floor: float,
    sigma: float,
    grid_step: float = 1e-4,
) -> float:
    """Grid-scan version of the per-component angle limit.

    Returns the largest grid angle in [0, pi/2] such that the trajectory
    stays at or above ``floor`` on every grid point up to it.
    """
    second = p_coef * sigma + q_coef
    count = int(math.ceil(0.5 * math.pi / grid_step)) + 1
    grid = np.linspace(0.0, 0.5 * math.pi, count)
    trajectory = current - rate * np.sin(grid) + second * (1.0 - np.cos(grid))
    below = trajectory < floor
    if not below.any():
        return float(grid[-1])
    first_bad = int(np.argmax(below))
    if first_bad == 0:
        return 0.0
    return float(grid[first_bad - 1])


def wrapped_getrf(matrix: np.ndarray):
    """scipy's ``lu_factor`` in the (lu, piv, info) form of LAPACK's dgetrf.

    With :func:`wrapped_getrs`, the pair the direction solves used before
    they called LAPACK directly.
    """
    lu, piv = lu_factor(matrix, check_finite=False)
    return lu, piv, 0


def wrapped_getrs(factor, rhs: np.ndarray) -> np.ndarray:
    """scipy's ``lu_solve``, which checks ``rhs`` for inf and NaN itself."""
    return lu_solve(factor, rhs)


def generic_directions(system, iterate, mu: float) -> tuple:
    """The three directions through one generic back-substitution.

    Every direction goes through the same five-residual formulas of the
    system that also carries a second multiplier block w tied to z by the
    row dw - dz = r_w: the tangent with r_w = w - z = 0, the two curvature
    pieces with their zero r_C, r_E, r_I and r_w passed as explicit zeros,
    on the same equilibrated ``dgetrf`` factor and with the same one-pass
    refinement as the solver.  Each direction is returned as its five
    blocks (dx, dy, dw, ds, dz); the solver drops r_w and dw and must give
    the same bits in the other four.  Assumes a finite, regular matrix.
    """
    matrix, a_ineq = system
    d = 1.0 / np.sqrt(np.abs(matrix).max(axis=1))
    scaled = d[:, None] * matrix * d
    lu, piv, _ = dgetrf(scaled)

    def refined(rhs):
        sol = dgetrs(lu, piv, rhs)[0]
        residual = rhs - scaled @ sol
        if math.sqrt(residual @ residual) > 1e-8 * (1.0 + math.sqrt(rhs @ rhs)):
            sol = sol + dgetrs(lu, piv, residual)[0]
        return sol

    n = iterate.x.size
    s, z = iterate.s, iterate.z

    def direction(r_c, r_e, r_i, r_w, r_z) -> tuple:
        rhs = np.concatenate([r_c + a_ineq.T @ (r_w + (r_z + z * r_i) / s), r_e])
        dxy = d * refined(d * rhs)
        ds = a_ineq @ dxy[:n] - r_i
        dz = (r_z - z * ds) / s
        return dxy[:n], dxy[n:], r_w + dz, ds, dz

    vdot = direction(iterate.r_c, iterate.r_e, iterate.r_i, np.zeros(iterate.p), z * s)
    zero_e = np.zeros_like(iterate.r_e)
    p_dir = direction(0.0, zero_e, 0.0, 0.0, np.full(iterate.p, mu))
    sdot, zdot = vdot[3], vdot[4]
    q_dir = direction(0.0, zero_e, 0.0, 0.0, -2.0 * zdot * sdot)
    return vdot, p_dir, q_dir


def blockwise_arc_point(iterate, directions, sigma: float, alpha: float) -> tuple:
    """The search-arc point computed block by block, one block at a time.

    ``v - vdot*sin(alpha) + (p*sigma + q)*(1 - cos(alpha))`` on each of the
    four (x, y, s, z) blocks separately, with 1 - cos(alpha) taken as
    2 sin(alpha/2)^2; the solver evaluates the same expression once on
    whole flat vectors and must give the same bits.
    """
    sin_a = math.sin(alpha)
    omc = 2.0 * math.sin(0.5 * alpha) ** 2
    return tuple(
        v - dv * sin_a + (pv * sigma + qv) * omc
        for v, dv, pv, qv in zip(
            iterate.blocks(), directions.vdot, directions.p_dir, directions.q_dir
        )
    )
