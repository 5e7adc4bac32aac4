"""Objective evaluation plus exact gradients and Hessians.

One walk of the expression tree carries, at every node, the triple
(value, gradient in R^n, Hessian in R^{n x n}) and combines the children's
triples by the chain rule (second-order forward mode; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., on Hessian propagation).  It recurses
into children but loops along a chain of + - * / links, however long.  It
is the one evaluator of the node semantics: the parser folds a constant
exponent of ``^`` with it at n = 0, and a :class:`DomainError` there is a
parse error.  On
a raw parse tree a call costs one walk whose nodes each do O(n^2) array
work, so the O(n^2) products of a dense quadratic cost O(n^4).

:func:`compile_objective` therefore runs once per program: a degree test,
then one walk at x = 0.  A tree of degree <= 2 is c + g'x + 1/2 x'Hx, and
its (value, gradient, Hessian) at 0 are exactly (c, g, H), a constant
Hessian (ibid., ch. 7); it becomes one :class:`Quadratic` node, and any
other tree is left as it is.  Compiling costs one O(nodes n^2) walk.  A
quadratic program is then one node: one matrix-vector product per call
and the same read-only Hessian every time.  The public
``evaluate``/``gradient``/``hessian`` accept either tree; the solver
passes the compiled one and the test oracles the raw one.

Values stay Python floats, so ``**`` and ``math.exp`` raise
``OverflowError`` on range overflow instead of returning inf; it becomes a
:class:`DomainError`.  Float ``*`` and ``/`` return inf instead, so products
and quotients are checked with ``math.isfinite``, as are a folded node's
value and, since sums and constants overflow silently, the walk's result.
Hessians are exactly symmetric: every cross term is built as ``C + C.T``
and every curvature term as ``outer(g, g)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ast


class DomainError(ValueError):
    """Evaluation left the expression's domain.

    Raised for a log of a nonpositive value, a division by zero, a zero base
    under a negative power, a negative base under a fractional power, a
    non-finite exponent or value, and range overflow; never a silent NaN.
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
        return _chain(u, a**r, r * a ** (r - 1.0), r * (r - 1.0) * a ** (r - 2.0))
    except OverflowError as err:
        raise DomainError("power overflows") from err


def _walk(node, leaves, zero):
    match node:
        case ast.Const(value=v):
            return (float(v), *zero)
        case ast.Var(index=i):
            return leaves[i]
        case ast.Add() | ast.Sub() | ast.Mul() | ast.Div():
            # a chain of k links is parsed k deep on the left; walk its spine
            # in a loop: the bottom first, then each link's right operand and
            # the link's rule, in the order recursion would take them
            spine, bottom = node._spine()
            v, g, h = _walk(bottom, leaves, zero)
            for link in reversed(spine):
                vb, gb, hb = _walk(link.right, leaves, zero)
                kind = type(link)
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


def _quadratic(node: Quadratic, x):
    c, g, h = node.constant, node.linear, node.hessian
    with np.errstate(over="ignore", invalid="ignore"):
        hx = h @ x
        v = float(c + x @ (g + 0.5 * hx))
        grad = g + hx
    # a non-finite entry of g, H or Hx shows in the value too
    if not math.isfinite(v):
        raise DomainError("polynomial overflows")
    return v, grad, h


def _degree(node: ast.Expr) -> int | None:
    """The tree's polynomial degree if it is at most 2, else None.

    ``^ 1`` keeps the base's degree, ``^ 2`` applies over a base of degree
    <= 1 and ``^ 0`` over a constant base only; a divisor must be constant.
    """
    match node:
        case ast.Const():
            return 0
        case ast.Var():
            return 1
        case ast.Add() | ast.Sub() | ast.Mul() | ast.Div():
            # along the left spine in a loop, as in _walk
            spine, bottom = node._spine()
            degree = _degree(bottom)
            for link in reversed(spine):
                if degree is None or (d := _degree(link.right)) is None:
                    return None
                kind = type(link)
                if kind is ast.Mul:
                    degree = degree + d if degree + d <= 2 else None
                elif kind is ast.Div:
                    degree = degree if d == 0 else None
                else:
                    degree = max(degree, d)
            return degree
        case ast.Neg(child=c):
            return _degree(c)
        case ast.Pow(base=b, exponent=r):
            d = _degree(b)
            if r == 1.0:
                return d
            if r == 2.0 and d is not None and d <= 1:
                return 2 * d
            if r == 0.0 and d == 0:
                return 0
    return None


def compile_objective(expression: ast.Expr, n: int):
    """A tree of degree <= 2 as one :class:`Quadratic`; any other tree as it is.

    Such a tree's (f, grad f, Hessian) at x = 0 are exactly its (c, g, H),
    so one walk there folds it.  The result goes to the same
    ``value_gradient_hessian`` as a parsed tree over n variables.  A tree
    whose walk at 0 raises, or whose coefficients overflow, is not folded,
    so its walk raises the parsed tree's :class:`DomainError`.
    """
    if _degree(expression) is None:
        return expression
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            c, g, h = value_gradient_hessian(expression, np.zeros(n))
    except DomainError:
        return expression
    if not (np.isfinite(g).all() and np.isfinite(h).all()):
        return expression
    h = h.copy()
    h.flags.writeable = False
    return Quadratic(c, g, h)


def value_gradient_hessian(expression, x):
    """(f, grad f, Hessian) in one walk of a raw or compiled tree."""
    x = np.asarray(x, dtype=float)
    if isinstance(expression, Quadratic):
        return _quadratic(expression, x)
    n = x.size
    unit = np.eye(n)
    zero = (np.zeros(n), np.zeros((n, n)))
    leaves = [(float(x[i]), unit[i], zero[1]) for i in range(n)]
    value, grad, hess = _walk(expression, leaves, zero)
    if not math.isfinite(value):
        raise DomainError(f"expression value {value} is not finite")
    return value, grad, hess


def evaluate(expression, x) -> float:
    """f(x)."""
    return value_gradient_hessian(expression, x)[0]


def gradient(expression, x) -> np.ndarray:
    """Exact gradient of the tree function at x."""
    return value_gradient_hessian(expression, x)[1]


def hessian(expression, x) -> np.ndarray:
    """Exact Hessian at x; storage is exactly symmetric."""
    return value_gradient_hessian(expression, x)[2]
