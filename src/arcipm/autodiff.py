"""Objective evaluation plus exact gradients and Hessians.

One recursive walk of the expression tree carries, at every node, the
triple (value, gradient in R^n, Hessian in R^{n x n}) and combines the
children's triples by the chain rule (second-order forward mode; Griewank
& Walther, *Evaluating Derivatives*, 2nd ed., on Hessian propagation).  On
a raw parse tree a call costs one walk whose nodes each do O(n^2) array
work, so the O(n^2) products of a dense quadratic cost O(n^4).

:func:`compile_objective` therefore runs once per program: a tree of
degree <= 2 becomes one :class:`Quadratic` node c + g'x + 1/2 x'Hx, whose
Hessian is a constant (ibid., ch. 7), and any other tree is left as it is.
Compiling costs O(nodes n^2) once.  A quadratic program is then one node:
one matrix-vector product per call and the same read-only Hessian every
time.  The public ``evaluate``/``gradient``/``hessian`` accept either tree;
the solver passes the compiled one and the test oracles the raw one.

Values stay Python floats, so ``**`` and ``math.exp`` raise
``OverflowError`` on range overflow instead of returning inf; it becomes a
:class:`DomainError`.  Float ``*`` and ``/`` return inf instead, so products
and quotients are checked with ``math.isfinite``, and so is the value of a
folded node.  Hessians are exactly symmetric: every cross term is built as
``C + C.T`` and every curvature term as ``outer(g, g)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ast


class DomainError(ValueError):
    """Evaluation left the expression's domain.

    Raised for a log of a nonpositive value, a division by zero, a zero
    base under a negative power, a negative base under a fractional power,
    and for range overflow.  Never returns a silent NaN.
    """


@dataclass(frozen=True, slots=True, eq=False)
class Quadratic:
    """c + g'x + 1/2 x'Hx: a folded tree.

    H is read-only, and every call returns that same array.
    """

    constant: float
    linear: np.ndarray
    hessian: np.ndarray


def _chain(u, f: float, df: float, d2f: float):
    """(f(u), grad, Hessian) of a scalar function with f' = df, f'' = d2f at u."""
    _, g, h = u
    return f, df * g, df * h + d2f * np.outer(g, g)


def _pow(u, r: float):
    a = u[0]
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
        return _chain(u, a**r, r * a ** (r - 1.0), r * (r - 1.0) * a ** (r - 2.0))
    except OverflowError as err:
        raise DomainError("power overflows") from err


def _walk(node, x, leaves, zero):
    match node:
        case ast.Const(value=v):
            return (float(v), *zero)
        case ast.Var(index=i):
            return leaves[i]
        case ast.Add(left=a, right=b):
            (va, ga, ha), (vb, gb, hb) = _walk(a, x, leaves, zero), _walk(b, x, leaves, zero)
            return va + vb, ga + gb, ha + hb
        case ast.Sub(left=a, right=b):
            (va, ga, ha), (vb, gb, hb) = _walk(a, x, leaves, zero), _walk(b, x, leaves, zero)
            return va - vb, ga - gb, ha - hb
        case ast.Mul(left=a, right=b):
            (va, ga, ha), (vb, gb, hb) = _walk(a, x, leaves, zero), _walk(b, x, leaves, zero)
            v = va * vb
            if not math.isfinite(v):
                raise DomainError("product overflows")
            cross = np.outer(ga, gb)
            return v, vb * ga + va * gb, vb * ha + va * hb + (cross + cross.T)
        case ast.Div(left=a, right=b):
            (va, ga, ha), (vb, gb, hb) = _walk(a, x, leaves, zero), _walk(b, x, leaves, zero)
            if vb == 0.0:
                raise DomainError("division by zero")
            q = va / vb
            if not math.isfinite(q):
                raise DomainError("quotient overflows")
            gq = (ga - q * gb) / vb
            cross = np.outer(gq, gb)
            return q, gq, (ha - q * hb - (cross + cross.T)) / vb
        case ast.Pow(base=b, exponent=r):
            return _pow(_walk(b, x, leaves, zero), r)
        case ast.Neg(child=c):
            v, g, h = _walk(c, x, leaves, zero)
            return -v, -g, -h
        case ast.Log(child=c):
            u = _walk(c, x, leaves, zero)
            if u[0] <= 0.0:
                raise DomainError("log of a nonpositive value")
            try:
                return _chain(u, math.log(u[0]), 1.0 / u[0], -(u[0] ** -2.0))
            except OverflowError as err:
                raise DomainError("log overflows") from err
        case ast.Exp(child=c):
            u = _walk(c, x, leaves, zero)
            try:
                e = math.exp(u[0])
            except OverflowError as err:
                raise DomainError("exp overflows") from err
            return _chain(u, e, e, e)
        case Quadratic(constant=c, linear=g, hessian=h):
            with np.errstate(over="ignore", invalid="ignore"):
                hx = h @ x
                v = float(c + x @ (g + 0.5 * hx))
                grad = g + hx
            # a non-finite entry of g, H or Hx shows in the value too
            if not math.isfinite(v):
                raise DomainError("polynomial overflows")
            return v, grad, h
    raise TypeError(f"not an expression node: {node!r}")


class _Poly(NamedTuple):
    """Compile-time c + g'x + 1/2 x'Hx of the given degree, at full size."""

    degree: int
    constant: float
    linear: np.ndarray
    hessian: np.ndarray


def _scaled(p: _Poly, c: float) -> _Poly:
    return _Poly(p.degree, c * p.constant, c * p.linear, c * p.hessian)


def _product(a: _Poly, b: _Poly) -> _Poly:
    """a * b for deg a + deg b <= 2."""
    if a.degree == 0:
        return _scaled(b, a.constant)
    if b.degree == 0:
        return _scaled(a, b.constant)
    # two linear factors: the Hessian is ga gb' + gb ga'
    cross = np.outer(a.linear, b.linear)
    return _Poly(2, a.constant * b.constant, a.constant * b.linear + b.constant * a.linear, cross + cross.T)


def _fold(node: ast.Expr, n: int) -> _Poly | None:
    """The subtree as a :class:`_Poly` if it has degree <= 2, else None.

    A non-finite coefficient stays non-finite through +, -, * and ^ 1 or 2;
    a division by an overflowed constant or its zeroth power would hide it,
    so those are not folded.
    """
    match node:
        case ast.Const(value=v):
            return _Poly(0, float(v), np.zeros(n), np.zeros((n, n)))
        case ast.Var(index=i):
            linear = np.zeros(n)
            linear[i] = 1.0
            return _Poly(1, 0.0, linear, np.zeros((n, n)))
        case ast.Add(left=a, right=b) | ast.Sub(left=a, right=b):
            if (fa := _fold(a, n)) is None or (fb := _fold(b, n)) is None:
                return None
            if isinstance(node, ast.Sub):
                fb = _scaled(fb, -1.0)
            degree = max(fa.degree, fb.degree)
            return _Poly(degree, fa.constant + fb.constant, fa.linear + fb.linear, fa.hessian + fb.hessian)
        case ast.Neg(child=c):
            fc = _fold(c, n)
            return None if fc is None else _scaled(fc, -1.0)
        case ast.Mul(left=a, right=b):
            if (fa := _fold(a, n)) is None or (fb := _fold(b, n)) is None or fa.degree + fb.degree > 2:
                return None
            return _product(fa, fb)
        case ast.Div(left=a, right=b):
            if (fa := _fold(a, n)) is None or (fb := _fold(b, n)) is None or fb.degree > 0:
                return None
            d = fb.constant
            if d == 0.0 or not math.isfinite(d):
                return None
            return _Poly(fa.degree, fa.constant / d, fa.linear / d, fa.hessian / d)
        case ast.Pow(base=b, exponent=r):
            if (fb := _fold(b, n)) is None:
                return None
            if r == 0.0 and fb.degree == 0 and math.isfinite(fb.constant):
                return _Poly(0, 1.0, np.zeros(n), np.zeros((n, n)))
            if r == 1.0:
                return fb
            if r == 2.0 and fb.degree <= 1:
                return _product(fb, fb)
    return None


def compile_objective(expression: ast.Expr, n: int):
    """A tree of degree <= 2 as one :class:`Quadratic`; any other tree as it is.

    The result goes to the same ``value_gradient_hessian`` as a parsed tree
    over n variables.  A tree whose coefficients overflow is not folded, so
    its walk raises the parsed tree's :class:`DomainError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        poly = _fold(expression, n)
    if poly is None or not all(np.isfinite(part).all() for part in poly[1:]):
        return expression
    poly.hessian.flags.writeable = False
    return Quadratic(poly.constant, poly.linear, poly.hessian)


def value_gradient_hessian(expression, x):
    """(f, grad f, Hessian) in one walk of a raw or compiled tree."""
    x = np.asarray(x, dtype=float)
    n = x.size
    unit = np.eye(n)
    zero = (np.zeros(n), np.zeros((n, n)))
    leaves = [(float(x[i]), unit[i], zero[1]) for i in range(n)]
    return _walk(expression, x, leaves, zero)


def evaluate(expression, x) -> float:
    """f(x)."""
    return value_gradient_hessian(expression, x)[0]


def gradient(expression, x) -> np.ndarray:
    """Exact gradient of the tree function at x."""
    return value_gradient_hessian(expression, x)[1]


def hessian(expression, x) -> np.ndarray:
    """Exact Hessian at x; storage is exactly symmetric."""
    return value_gradient_hessian(expression, x)[2]
