"""Objective evaluation plus exact gradients and Hessians.

One recursive walk of the expression tree carries, at every node, the
triple (value, gradient in R^n, Hessian in R^{n x n}) and combines the
children's triples by the chain rule (second-order forward mode; Griewank
& Walther, *Evaluating Derivatives*, 2nd ed., on Hessian propagation).  A
call costs one walk whose nodes each do O(n^2) array work.

Values stay Python floats, so ``**`` and ``math.exp`` raise
``OverflowError`` on range overflow instead of returning inf; it becomes a
:class:`DomainError`.  Float ``*`` and ``/`` return inf instead, so products
and quotients are checked with ``math.isfinite``.  Hessians are exactly symmetric: every cross term is
built as ``C + C.T`` and every curvature term as ``outer(g, g)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ast


class DomainError(ValueError):
    """Evaluation left the expression's domain.

    Raised for a log of a nonpositive value, a division by zero, a zero
    base under a negative power, a negative base under a fractional power,
    and for range overflow.  Never returns a silent NaN.
    """


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


def _walk(node: ast.Expr, leaves, zero):
    match node:
        case ast.Const(value=v):
            return (float(v), *zero)
        case ast.Var(index=i):
            return leaves[i]
        case ast.Add(left=a, right=b):
            (va, ga, ha), (vb, gb, hb) = _walk(a, leaves, zero), _walk(b, leaves, zero)
            return va + vb, ga + gb, ha + hb
        case ast.Sub(left=a, right=b):
            (va, ga, ha), (vb, gb, hb) = _walk(a, leaves, zero), _walk(b, leaves, zero)
            return va - vb, ga - gb, ha - hb
        case ast.Mul(left=a, right=b):
            (va, ga, ha), (vb, gb, hb) = _walk(a, leaves, zero), _walk(b, leaves, zero)
            v = va * vb
            if not math.isfinite(v):
                raise DomainError("product overflows")
            cross = np.outer(ga, gb)
            return v, vb * ga + va * gb, vb * ha + va * hb + (cross + cross.T)
        case ast.Div(left=a, right=b):
            (va, ga, ha), (vb, gb, hb) = _walk(a, leaves, zero), _walk(b, leaves, zero)
            if vb == 0.0:
                raise DomainError("division by zero")
            q = va / vb
            if not math.isfinite(q):
                raise DomainError("quotient overflows")
            gq = (ga - q * gb) / vb
            cross = np.outer(gq, gb)
            return q, gq, (ha - q * hb - (cross + cross.T)) / vb
        case ast.Pow(base=b, exponent=r):
            return _pow(_walk(b, leaves, zero), r)
        case ast.Neg(child=c):
            v, g, h = _walk(c, leaves, zero)
            return -v, -g, -h
        case ast.Log(child=c):
            u = _walk(c, leaves, zero)
            if u[0] <= 0.0:
                raise DomainError("log of a nonpositive value")
            try:
                return _chain(u, math.log(u[0]), 1.0 / u[0], -(u[0] ** -2.0))
            except OverflowError as err:
                raise DomainError("log overflows") from err
        case ast.Exp(child=c):
            u = _walk(c, leaves, zero)
            try:
                e = math.exp(u[0])
            except OverflowError as err:
                raise DomainError("exp overflows") from err
            return _chain(u, e, e, e)
    raise TypeError(f"not an expression node: {node!r}")


def value_gradient_hessian(expression: ast.Expr, x):
    """(f, grad f, Hessian) in one walk of the tree."""
    x = np.asarray(x, dtype=float)
    n = x.size
    unit = np.eye(n)
    zero = (np.zeros(n), np.zeros((n, n)))
    leaves = [(float(x[i]), unit[i], zero[1]) for i in range(n)]
    return _walk(expression, leaves, zero)


def evaluate(expression: ast.Expr, x) -> float:
    """f(x)."""
    return value_gradient_hessian(expression, x)[0]


def gradient(expression: ast.Expr, x) -> np.ndarray:
    """Exact gradient of the tree function at x."""
    return value_gradient_hessian(expression, x)[1]


def hessian(expression: ast.Expr, x) -> np.ndarray:
    """Exact Hessian at x; storage is exactly symmetric."""
    return value_gradient_hessian(expression, x)[2]
