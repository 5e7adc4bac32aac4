"""Independent brute-force oracles used by the test suite.

The oracles deliberately avoid the solver's machinery: the stationarity
check below uses the true gradient (not the model term H x) of the
program's own objective (a parsed tree, not the compiled tree the solver
differentiates, or a Quadratic given as arrays, which both read), the angle
scan walks a dense grid instead of inverting sinusoids, the full
Newton matrix keeps every block that the solver eliminates, and the dense
derivative walk carries every zero block that the solver's walk leaves
out, so a shared bug between implementation and check is impossible.
The one structural pass over a tree, :func:`arcipm.expr.structure`, is
checked against the two readers it replaced, :func:`variable_indices`
and :func:`polynomial_degree`, kept as they were.
The step layer's and the curvature check's shortcuts, which skip work
whose result no branch reads, are checked against the same code with
that work left in: :func:`every_step_alpha_limits`,
:func:`every_step_bisect_sigma`, :func:`per_angle_product`,
:func:`per_call_golden_min_bu` and :func:`eigenvalue_indefinite`.  The
Newton layer's shortcuts are checked against one textbook reference,
:func:`textbook_directions`: the reduced direction solve with the
equality block kept however empty (:func:`padded_newton_matrix`), every
residual block a vector, scipy's LU wrappers in place of the LAPACK
calls and ``@`` in place of ``ndarray.dot``; its back substitution of
ds and dz, :func:`textbook_back_substitution`, is also checked on its
own.  The iterate's r_c and
stationarity norm are checked against :func:`padded_stationarity`, which
forms A_E'y for any m.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from arcipm import expr as ast
from arcipm.autodiff import DomainError, gradient, hessian
from arcipm.kkt import Blocks
from arcipm.program import ConvexProgram
from arcipm.step import BISECT_TOLERANCE, GOLDEN_TOLERANCE, HALF_PI

GOLDEN_RATIO_INVERSE = (math.sqrt(5.0) - 1.0) / 2.0

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


def qp_certificate(draw, x, y, z, tol: float = 1e-5) -> list[str]:
    """First-order certificate of min ½xᵀQx s.t. A_E x = b_E, A_I x >= b_I.

    Reads the generator's own Q, A and b from ``draw`` (a
    :class:`qp_family.QPDraw`), never the solver's derivatives or residuals.
    Stationarity Qx + A_Eᵀy − A_Iᵀz = 0, primal feasibility, z >= 0 and
    complementarity z_i (a_i x − b_i) = 0 must each hold to ``tol`` times
    1 + the largest entry of Q, A and b, the way the benchmark's
    certificate scales its tolerance.  For a convex QP these make x a
    global minimizer.  Returns the conditions that fail; empty means the
    answer passed.
    """
    data = (draw.q, draw.a_eq, draw.b_eq, draw.a_ineq, draw.b_ineq)
    bound = tol * (1.0 + max(float(np.abs(block).max(initial=0.0)) for block in data))
    row_slack = draw.a_ineq @ x - draw.b_ineq
    worst = {
        "stationarity residual": np.abs(draw.q @ x + draw.a_eq.T @ y - draw.a_ineq.T @ z).max(),
        "equality residual": np.abs(draw.a_eq @ x - draw.b_eq).max(initial=0.0),
        "inequality violation": -row_slack.min(),
        "negative multiplier": -z.min(),
        "complementarity gap": np.abs(z * row_slack).max(),
    }
    return [f"{name} {value:.3g} above {bound:.3g}" for name, value in worst.items() if not value <= bound]


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


def padded_newton_matrix(hess, a_eq, a_ineq, s, z) -> np.ndarray:
    """The reduced matrix [H + A_I'(Z/S)A_I, A_E'; A_E, 0] as zeros filled by three slice writes, for any m."""
    n, m = hess.shape[0], a_eq.shape[0]
    matrix = np.zeros((n + m, n + m))
    matrix[:n, :n] = hess + (a_ineq.T * (z / s)).dot(a_ineq)
    matrix[:n, n:] = a_eq.T
    matrix[n:, :n] = a_eq
    return matrix


def textbook_directions(program: ConvexProgram, iterate) -> list[np.ndarray]:
    """The three flat directions of the reduced Newton system, solved with no shortcut.

    The four-row system of :mod:`arcipm.kkt` with s and z eliminated
    (S. J. Wright, *Primal-Dual Interior-Point Methods*, SIAM 1997, ch. 11):
    the matrix of :func:`padded_newton_matrix` under the solver's row
    equilibration, scipy's ``lu_factor``/``lu_solve`` with one refinement
    pass at 1e-8*(1 + |rhs|), every residual block a vector (r_E and r_I
    of zeros and r_C of zeros for the two curvature pieces, r_z a vector
    of mu for the centering piece) and every product through ``@``.
    Assumes a finite, regular matrix.
    """
    n, m, p = program.n, program.m, program.p
    a_ineq, s, z = program.a_ineq, iterate.s, iterate.z
    matrix = padded_newton_matrix(iterate.hess, program.a_eq, a_ineq, s, z)
    d = 1.0 / np.sqrt(np.abs(matrix).max(axis=1))
    scaled = d[:, None] * matrix * d
    factor = lu_factor(scaled)

    def refined(rhs):
        sol = lu_solve(factor, rhs)
        residual = rhs - scaled @ sol
        if np.linalg.norm(residual) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            sol = sol + lu_solve(factor, residual)
        return sol

    def direction(r_c, r_e, r_i, r_z):
        rhs = np.concatenate((r_c + a_ineq.T @ ((r_z + z * r_i) / s), r_e))
        dxy = d * refined(d * rhs)
        return np.concatenate((dxy, textbook_back_substitution(program, iterate, dxy[:n], r_i, r_z)))

    zero_c, zero_e, zero_i = np.zeros(n), np.zeros(m), np.zeros(p)
    vdot = direction(iterate.r_c, iterate.r_e, iterate.r_i, z * s)
    p_dir = direction(zero_c, zero_e, zero_i, np.full(p, iterate.mu))
    ds, dz = vdot[n + m : n + m + p], vdot[n + m + p :]
    q_dir = direction(zero_c, zero_e, zero_i, -2.0 * dz * ds)
    return [vdot, p_dir, q_dir]


def textbook_back_substitution(program: ConvexProgram, iterate, dx, r_i, r_z) -> np.ndarray:
    """The (ds, dz) blocks of a direction from its dx: ds = A_I dx - r_I, dz = (r_z - Z ds)/S."""
    ds = program.a_ineq @ dx - r_i
    return np.concatenate((ds, (r_z - iterate.z * ds) / iterate.s))


def padded_stationarity(program: ConvexProgram, grad, y, z) -> np.ndarray:
    """grad + A_E'y - A_I'z with the A_E'y product formed for any m."""
    return grad + program.a_eq.T.dot(y) - program.a_ineq.T.dot(z)


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


def blockwise_arc_point(iterate, directions, sigma: float, alpha: float) -> tuple:
    """The search-arc point computed block by block, one block at a time.

    ``v - vdot*sin(alpha) + (p*sigma + q)*(1 - cos(alpha))`` on each of the
    four (x, y, s, z) blocks separately, with 1 - cos(alpha) taken as
    2 sin(alpha/2)^2; the solver evaluates the same expression once on
    whole flat vectors and must give the same bits.
    """
    sin_a = math.sin(alpha)
    omc = 2.0 * math.sin(0.5 * alpha) ** 2
    sizes = iterate.x.size, iterate.y.size, iterate.p
    return tuple(
        v - dv * sin_a + (pv * sigma + qv) * omc
        for v, dv, pv, qv in zip(*(Blocks.of(vec, *sizes) for vec in (iterate.vec, *directions)))
    )


def _dense_chain(u, f: float, df: float, d2f: float):
    _, g, h = u
    return f, df * g, df * h + d2f * np.outer(g, g)


def _dense_pow(u, r: float):
    a = u[0]
    if not math.isfinite(r):
        raise DomainError("power exponent is not finite")
    if r == 0.0:
        return 1.0, np.zeros_like(u[1]), np.zeros_like(u[2])
    if r == 1.0:
        return u
    if r.is_integer():
        if a == 0.0 and r < 0.0:
            raise DomainError("zero raised to a negative power")
    elif a <= 0.0:
        raise DomainError("nonpositive base under a fractional power")
    try:
        return _dense_chain(u, a**r, r * a ** (r - 1.0), r * (r - 1.0) * a ** (r - 2.0))
    except OverflowError as err:
        raise DomainError("power overflows") from err


def _dense_walk(node, leaves, zero):
    match node:
        case ast.Const(value=v):
            return (float(v), *zero)
        case ast.Var(index=i):
            return leaves[i]
        case ast.Add() | ast.Sub() | ast.Mul() | ast.Div():
            bottom, links = node.links()
            v, g, h = _dense_walk(bottom, leaves, zero)
            for kind, right in links:
                vb, gb, hb = _dense_walk(right, leaves, zero)
                if kind is ast.Add:
                    v, g, h = v + vb, g + gb, h + hb
                elif kind is ast.Sub:
                    v, g, h = v - vb, g - gb, h - hb
                elif kind is ast.Mul:
                    product = v * vb
                    if not math.isfinite(product):
                        raise DomainError("product overflows")
                    cross = np.outer(g, gb)
                    v, g, h = product, vb * g + v * gb, vb * h + v * hb + (cross + cross.T)
                else:
                    if vb == 0.0:
                        raise DomainError("division by zero")
                    q = v / vb
                    if not math.isfinite(q):
                        raise DomainError("quotient overflows")
                    gq = (g - q * gb) / vb
                    cross = np.outer(gq, gb)
                    v, g, h = q, gq, (h - q * hb - (cross + cross.T)) / vb
            return v, g, h
        case ast.Pow(base=b, exponent=r):
            return _dense_pow(_dense_walk(b, leaves, zero), r)
        case ast.Neg(child=c):
            v, g, h = _dense_walk(c, leaves, zero)
            return -v, -g, -h
        case ast.Log(child=c):
            u = _dense_walk(c, leaves, zero)
            if u[0] <= 0.0:
                raise DomainError("log of a nonpositive value")
            try:
                return _dense_chain(u, math.log(u[0]), 1.0 / u[0], -(u[0] ** -2.0))
            except OverflowError as err:
                raise DomainError("log overflows") from err
        case ast.Exp(child=c):
            u = _dense_walk(c, leaves, zero)
            try:
                e = math.exp(u[0])
            except OverflowError as err:
                raise DomainError("exp overflows") from err
            return _dense_chain(u, e, e, e)
    raise TypeError(f"not an expression node: {node!r}")


def dense_value_gradient_hessian(expression: ast.Expr, x) -> tuple:
    """(f, grad f, Hessian) of a parsed tree by the dense second-order walk.

    Every node carries a full n-vector and n x n matrix, zeros included:
    a constant carries a zero gradient and Hessian, and a variable leaf a
    zero Hessian, which every chain rule then adds and multiplies.  The
    solver's walk leaves out the entries that are zero by structure or by
    a zero factor and must give the same values, up to the sign of an
    exact zero.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    unit = np.eye(n)
    zero = (np.zeros(n), np.zeros((n, n)))
    leaves = [(float(x[i]), unit[i], zero[1]) for i in range(n)]
    value, grad, hess = _dense_walk(expression, leaves, zero)
    if not math.isfinite(value):
        raise DomainError(f"expression value {value} is not finite")
    return value, grad, hess


def variable_indices(node: ast.Expr) -> set[int]:
    """All variable indices referenced by the tree, by class patterns: one of
    the two readers that :func:`arcipm.expr.structure` replaced, as it was."""
    match node:
        case ast.Var(index=i):
            return {i}
        case ast.Const():
            return set()
        case ast.Neg(child=c) | ast.Log(child=c) | ast.Exp(child=c):
            return variable_indices(c)
        case ast.Pow(base=b):
            return variable_indices(b)
        case ast.Add() | ast.Sub() | ast.Mul() | ast.Div():
            bottom, links = node.links()
            indices = variable_indices(bottom)
            for _, right in links:
                indices |= variable_indices(right)
            return indices
    raise TypeError(f"not an expression node: {node!r}")


def polynomial_degree(node: ast.Expr) -> int | None:
    """The tree's polynomial degree if it is at most 2, else None: the other
    reader that :func:`arcipm.expr.structure` replaced, as it was.

    ``^ 1`` keeps the base's degree, ``^ 2`` applies over a base of degree
    <= 1 and ``^ 0`` over a constant base only; a divisor must be constant.
    """
    match type(node):
        case ast.Var:
            return 1
        case ast.Const:
            return 0
        case ast.Add | ast.Sub | ast.Mul | ast.Div:
            bottom, links = node.links()
            operand = type(bottom)
            degree = 1 if operand is ast.Var else 0 if operand is ast.Const else polynomial_degree(bottom)
            for kind, right in links:
                if degree is None:
                    return None
                operand = type(right)
                d = 1 if operand is ast.Var else 0 if operand is ast.Const else polynomial_degree(right)
                if d is None:
                    return None
                if kind is ast.Mul:
                    degree = degree + d if degree + d <= 2 else None
                elif kind is ast.Div:
                    degree = degree if d == 0 else None
                else:
                    degree = max(degree, d)
            return degree
        case ast.Neg:
            return polynomial_degree(node.child)
        case ast.Pow:
            d, r = polynomial_degree(node.base), node.exponent
            if r == 1.0:
                return d
            if r == 2.0 and d is not None and d <= 1:
                return 2 * d
            if r == 0.0 and d == 0:
                return 0
    return None


def every_step_alpha_limits(current, rate, p_coef, q_coef, floor):
    """``arcipm.step.alpha_limits`` with per-component thresholds and unbound angles built always.

    A component below its floor gets the limit 0 here.  The solver's
    version rejects such a component and uses the scalars 0 and pi/2 in
    place of the arrays, which they equal when every margin is nonnegative.
    """
    margin = current - floor
    rising = rate > 0.0
    usable = margin >= 0.0
    rising_usable = rising & usable
    low = np.where(usable, 0.0, -math.inf)
    offset = np.where(rising, 0.0, math.pi)
    sign = np.where(rising, -1.0, 1.0)
    unbound = np.where(usable, HALF_PI, 0.0)

    def limits(sigma: float) -> np.ndarray:
        second = p_coef * sigma + q_coef
        top = margin + second
        radius = np.hypot(rate, second)
        binds = top < np.where(rising_usable, radius, low)
        safe = np.where(binds, radius, math.inf)
        lead = np.arcsin(top / safe)
        phase = np.arcsin(second / safe)
        angle = offset + lead + sign * phase
        return np.where(binds, np.minimum(angle, HALF_PI), unbound)

    return limits


def every_step_bisect_sigma(limits, p_coef, sigma_min: float, sigma_max: float):
    """``arcipm.step.bisect_sigma`` deciding a move at every midpoint, the last one included."""
    shrinks, grows = p_coef < 0.0, p_coef > 0.0
    lower, upper = sigma_min, sigma_max
    while True:
        sigma = 0.5 * (lower + upper)
        angles = limits(sigma)
        shrinking = angles.min(where=shrinks, initial=math.inf)
        growing = angles.min(where=grows, initial=math.inf)
        if shrinking > growing:
            lower = sigma
        else:
            upper = sigma
        if not upper - lower > BISECT_TOLERANCE:
            return sigma, float(angles.min())


def _one_minus_cos(alpha: float) -> float:
    # stable for small angles
    return 2.0 * math.sin(0.5 * alpha) ** 2


def per_angle_product(predictor, sigma: float, alpha: float) -> float:
    """``MuPredictor.along(sigma)(alpha)`` with its sigma-only coefficients formed again at every angle."""
    sin_a = math.sin(alpha)
    omc = _one_minus_cos(alpha)
    sdd_zdd = sigma * (sigma * predictor.pp + predictor.pq) + predictor.qq
    return (
        predictor.p_mu * (1.0 - sin_a + sigma * omc)
        - (sigma * predictor.mixed + predictor.cross) * sin_a * omc
        + (sdd_zdd - predictor.tangent) * omc * omc
    )


def b_u(predictor, alpha: float) -> float:
    """The predictor's b_u at angle alpha, by a call per angle."""
    sin_a = math.sin(alpha)
    omc = _one_minus_cos(alpha)
    return predictor.p_mu * (1.0 - sin_a) - (predictor.tangent * omc**2 + predictor.cross * sin_a * omc)


def per_call_golden_min_bu(predictor, alpha_cap: float) -> float:
    """``arcipm.step.golden_min_bu`` calling :func:`b_u` at every angle, both inner points first.

    It forms b_u at the point the last shrink adds too, a value no
    comparison reads, and at both inner points of a cap no wider than the
    tolerance.
    """
    lo, hi = 0.0, alpha_cap
    width = hi - lo
    inner_lo = hi - GOLDEN_RATIO_INVERSE * width
    inner_hi = lo + GOLDEN_RATIO_INVERSE * width
    f_lo, f_hi = b_u(predictor, inner_lo), b_u(predictor, inner_hi)
    while hi - lo > GOLDEN_TOLERANCE:
        if f_lo < f_hi:
            hi, inner_hi, f_hi = inner_hi, inner_lo, f_lo
            inner_lo = hi - GOLDEN_RATIO_INVERSE * (hi - lo)
            f_lo = b_u(predictor, inner_lo)
        else:
            lo, inner_lo, f_lo = inner_lo, inner_hi, f_hi
            inner_hi = lo + GOLDEN_RATIO_INVERSE * (hi - lo)
            f_hi = b_u(predictor, inner_hi)
    return 0.5 * (lo + hi)


def eigenvalue_indefinite(hess: np.ndarray) -> bool:
    """The solver's curvature verdict from the smallest eigenvalue alone, with no Cholesky try."""
    smallest = float(np.linalg.eigvalsh(hess)[0])
    return smallest < -1e-10 * max(1.0, float(np.abs(hess).max()))
