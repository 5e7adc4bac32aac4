"""Objective evaluation plus exact gradients and Hessians.

One walk of the expression tree carries, at every node, the triple
(value, gradient in R^n, Hessian in R^{n x n}) and combines the children's
triples by the chain rule (second-order forward mode; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., on Hessian propagation).  It recurses
into children but loops over the ``links()`` of a chain of + - * /, however
long.  It is the one evaluator of the node semantics: the parser folds a
constant exponent of ``^`` with it at n = 0, and a :class:`DomainError`
there is a parse error.

A block that is exactly zero by the tree's structure is absent (None)
rather than stored (ibid., on structural zeros): a constant walks to
(v, None, None), a variable leaf to (x_i, e_i, None) and ``u ^ 0`` to
(1, None, None).  The helpers :func:`_add`, :func:`_sub`, :func:`_scale`
and :func:`_cross` combine only the blocks that are present; f' and f''
of ``log``, ``exp`` and ``^`` are formed only over a child that has a
gradient; and :func:`value_gradient_hessian` fills in zeros once, at the
end.  So a constant subtree costs its values alone, a linear one no
Hessian work, and a product with a constant factor one scaled copy of
each block instead of two products, a sum and a zero cross term.
:func:`evaluate` walks with leaves (x_i, None, None), so it forms no
derivative at all, and a value whose derivatives would overflow is no
error there: ``(1e-300)^0.5`` is 1e-150, so the parser folds
``x1^(log(1e-300))``, and ``log(x1)`` at x1 = 1e-300 is -690.78, while
:func:`value_gradient_hessian` there raises, as its Hessian overflows.
The results equal a walk that stores every zero block
(``tests/oracles.py``) value for value; only the sign of an exact zero
may differ, as 0 + (-0) is +0, and a gradient entry that has overflowed
to inf no longer turns a zero block's 0 into the NaN of inf * 0.

On a raw parse tree a call still costs one walk whose nodes with a
variable below them each do O(n^2) array work, so the O(n^2) products of
a dense quadratic cost O(n^4).

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
Gradient and Hessian arrays overflow silently too, so
:func:`value_gradient_hessian` checks them once, at the end.
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

    Raised for a log of a nonpositive value, a division by zero, a zero
    base under a negative power, a negative base under a fractional power,
    a non-finite exponent, value, gradient or Hessian, and range overflow;
    never a silent NaN.
    """


@dataclass(frozen=True, slots=True, eq=False)
class Quadratic:
    """c + g'x + 1/2 x'Hx: a folded tree.

    H is read-only, and every call returns that same array.
    """

    constant: float
    linear: np.ndarray
    hessian: np.ndarray


def _add(a, b):
    """a + b over blocks where None is exactly zero."""
    if b is None:
        return a
    if a is None:
        return b
    return a + b


def _sub(a, b):
    """a - b over blocks where None is exactly zero."""
    if b is None:
        return a
    if a is None:
        return -b
    return a - b


def _scale(c: float, a):
    """c * a over a block where None is exactly zero."""
    return None if a is None else c * a


def _cross(a, b):
    """The symmetric cross term C + C' of C = outer(a, b); None if a or b is zero."""
    if a is None or b is None:
        return None
    c = np.outer(a, b)
    return c + c.T


def _chain(f: float, g, h, df: float, d2f: float):
    """(f(u), grad, Hessian) of a scalar function with f' = df, f'' = d2f at u.

    u has the gradient g (present) and the Hessian h.
    """
    return f, df * g, _add(_scale(df, h), d2f * np.outer(g, g))


def _pow(u, r: float):
    a, g, h = u
    if not math.isfinite(r):
        raise DomainError("power exponent is not finite")
    if r == 0.0:
        return 1.0, None, None
    if r == 1.0:
        return u
    if r.is_integer():
        if a == 0.0 and r < 0.0:
            raise DomainError("zero raised to a negative power")
    elif a <= 0.0:
        raise DomainError("nonpositive base under a fractional power")
    try:
        if g is None:
            return a**r, None, None
        return _chain(a**r, g, h, r * a ** (r - 1.0), r * (r - 1.0) * a ** (r - 2.0))
    except OverflowError as err:
        raise DomainError("power overflows") from err


def _walk(node, leaves):
    match node:
        case ast.Const(value=v):
            return float(v), None, None
        case ast.Var(index=i):
            return leaves[i]
        case ast.Add() | ast.Sub() | ast.Mul() | ast.Div():
            # a chain of k links is parsed k deep on the left; walk its links
            # in a loop: the bottom first, then each link's right operand and
            # the link's rule, in the order recursion would take them
            bottom, links = node.links()
            v, g, h = _walk(bottom, leaves)
            for kind, right in links:
                vb, gb, hb = _walk(right, leaves)
                if kind is ast.Add:
                    v, g, h = v + vb, _add(g, gb), _add(h, hb)
                elif kind is ast.Sub:
                    v, g, h = v - vb, _sub(g, gb), _sub(h, hb)
                elif kind is ast.Mul:
                    product = v * vb
                    if not math.isfinite(product):
                        raise DomainError("product overflows")
                    v, g, h = (
                        product,
                        _add(_scale(vb, g), _scale(v, gb)),
                        _add(_add(_scale(vb, h), _scale(v, hb)), _cross(g, gb)),
                    )
                else:
                    if vb == 0.0:
                        raise DomainError("division by zero")
                    q = v / vb
                    if not math.isfinite(q):
                        raise DomainError("quotient overflows")
                    gq = _sub(g, _scale(q, gb))
                    if gq is not None:
                        gq = gq / vb
                    h = _sub(_sub(h, _scale(q, hb)), _cross(gq, gb))
                    v, g, h = q, gq, None if h is None else h / vb
            return v, g, h
        case ast.Pow(base=b, exponent=r):
            return _pow(_walk(b, leaves), r)
        case ast.Neg(child=c):
            v, g, h = _walk(c, leaves)
            return -v, _sub(None, g), _sub(None, h)
        case ast.Log(child=c):
            a, g, h = _walk(c, leaves)
            if a <= 0.0:
                raise DomainError("log of a nonpositive value")
            if g is None:
                return math.log(a), None, None
            try:
                return _chain(math.log(a), g, h, 1.0 / a, -(a**-2.0))
            except OverflowError as err:
                raise DomainError("log overflows") from err
        case ast.Exp(child=c):
            a, g, h = _walk(c, leaves)
            try:
                e = math.exp(a)
            except OverflowError as err:
                raise DomainError("exp overflows") from err
            if g is None:
                return e, None, None
            return _chain(e, g, h, e, e)
    raise TypeError(f"not an expression node: {node!r}")


def _quadratic(node: Quadratic, x):
    c, g, h = node.constant, node.linear, node.hessian
    if x.size != g.size:
        raise ValueError(f"point has {x.size} entries, the objective has {g.size} variables")
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
            # over the links in a loop, as in _walk
            bottom, links = node.links()
            degree = _degree(bottom)
            for kind, right in links:
                if degree is None or (d := _degree(right)) is None:
                    return None
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
    whose walk at 0 raises, its coefficients' overflow included, is not
    folded, so its walk raises the parsed tree's :class:`DomainError`.
    """
    if _degree(expression) is None:
        return expression
    try:
        c, g, h = value_gradient_hessian(expression, np.zeros(n))
    except DomainError:
        return expression
    h = h.copy()
    h.flags.writeable = False
    return Quadratic(c, g, h)


def _checked_walk(expression, leaves):
    """The walk's (value, gradient, Hessian); a non-finite value is a DomainError."""
    try:
        value, grad, hess = _walk(expression, leaves)
    except IndexError:
        raise ValueError(
            f"point has {len(leaves)} entries, fewer than the expression's variables"
        ) from None
    if not math.isfinite(value):
        raise DomainError(f"expression value {value} is not finite")
    return value, grad, hess


def value_gradient_hessian(expression, x):
    """(f, grad f, Hessian) in one walk of a raw or compiled tree."""
    x = np.asarray(x, dtype=float)
    if isinstance(expression, Quadratic):
        return _quadratic(expression, x)
    n = x.size
    unit = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad, hess = _checked_walk(expression, [(float(x[i]), unit[i], None) for i in range(n)])
    # the walk leaves an exactly zero block absent; fill it in once
    if grad is None:
        grad = np.zeros(n)
    if hess is None:
        hess = np.zeros((n, n))
    if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise DomainError("gradient or Hessian is not finite")
    return value, grad, hess


def evaluate(expression, x) -> float:
    """f(x), from a walk whose leaves carry no gradient, so that it forms no derivative."""
    x = np.asarray(x, dtype=float)
    if isinstance(expression, Quadratic):
        return _quadratic(expression, x)[0]
    return _checked_walk(expression, [(float(v), None, None) for v in x])[0]


def gradient(expression, x) -> np.ndarray:
    """Exact gradient of the tree function at x."""
    return value_gradient_hessian(expression, x)[1]


def hessian(expression, x) -> np.ndarray:
    """Exact Hessian at x; storage is exactly symmetric."""
    return value_gradient_hessian(expression, x)[2]
