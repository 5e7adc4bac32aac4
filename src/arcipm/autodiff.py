"""Objective evaluation plus exact gradients and Hessians.

One walk of the expression tree carries, at every node, the triple
(value, gradient, Hessian) and combines the children's triples by the
chain rule (second-order forward mode; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., on Hessian propagation).  The gradient is a map
from variable index to entry and the Hessian a map from (i, j), i <= j,
to entry.  The walk recurses into children but loops over the ``links()``
of a chain of + - * /, however long, and reads a chain's Var and Const
operands in that loop rather than walking them.  It is the one evaluator
of the node semantics: the parser folds a constant exponent of ``^`` with
it at n = 0, and a :class:`DomainError` there is a parse error.

An entry that is exactly zero is absent rather than stored (ibid., on
structural zeros), whether the tree's structure makes it zero or the
scalar factor that would form it is exactly 0: a constant walks to
(v, {}, {}), a variable leaf to (x_i, {i: 1}, {}) and ``u ^ 0`` to
(1, {}, {}), and a product at a point where one factor's value is 0
takes no entry from the other factor's derivatives.  The helpers
:func:`_add`, :func:`_sub`, :func:`_scale`, :func:`_cross` and
:func:`_chain` apply each chain rule entry by entry, in the order of the
dense rule, over the entries that are present; f' and f'' of ``log``,
``exp`` and ``^`` are formed only over a child with a derivative entry.
A * link forms only the product-rule terms that can hold an entry: a
constant side, one with no derivative entry, just scales the other side,
and two factors whose values are both 0 give their cross term alone.
A + - or / link writes into maps its chain owns, copies of the chain's
bottom or maps an earlier link made, never into a leaf's or a child's.
:func:`value_gradient_hessian` fills the dense (n,) and (n, n) arrays
once, at the end.  So each node costs O(the entries it stores), and a
walk O(nodes x stored entries) plus the fill: a constant subtree costs
its values alone, a linear one no Hessian work, the weighted entropy
sum c_i x_i log x_i stores n Hessian entries, not n^2, and each product
x_i x_j of a dense quadratic stores one.  :func:`evaluate` walks with
leaves (x_i, {}, {}), so it forms no derivative at all, and a value whose
derivatives would overflow is no error there: ``(1e-300)^0.5`` is
1e-150, so the parser folds ``x1^(log(1e-300))``, and ``log(x1)`` at
x1 = 1e-300 is -690.78, while :func:`value_gradient_hessian` there
raises, as its Hessian overflows.  The results equal a walk that stores
every zero block (``tests/oracles.py``) value for value; only the sign of
an exact zero may differ, as 0 + (-0) is +0, and an entry that has
overflowed to inf no longer turns an absent entry, or a zero scalar
factor, into the NaN of inf * 0.

:func:`compile_objective` runs once per program: a degree test, then one
walk at x = 0.  A tree of degree <= 2 is c + g'x + 1/2 x'Hx, and its
(value, gradient, Hessian) at 0 are exactly (c, g, H), a constant
Hessian (ibid., ch. 7); it becomes one :class:`Quadratic` node, and any
other tree is left as it is.  At x = 0 every product of two variables
has the value 0, so the walk of a dense 1/2 x'Qx forms each term's
cross term and its constant's scaling, and stores no gradient entry and
one Hessian entry per term: compiling costs O(nodes) plus the O(n^2)
fill.  A quadratic program is then one node: one matrix-vector
product per call and the same read-only Hessian every time.  The public
``evaluate``/``gradient``/``hessian`` accept either tree; the solver
passes the compiled one and the test oracles the raw one.

Values stay Python floats, so ``**`` and ``math.exp`` raise
``OverflowError`` on range overflow instead of returning inf; it becomes a
:class:`DomainError`.  Float ``*`` and ``/`` return inf instead, so products
and quotients are checked with ``math.isfinite``, as are a folded node's
value and, since sums and constants overflow silently, the walk's result.
Gradient and Hessian entries overflow silently too, so
:func:`value_gradient_hessian` checks the walk's entries with
``math.isfinite`` once, before the fill; the zeros it adds are finite.
Hessians are exactly symmetric: the walk stores entry (i, j) for i <= j
only, formed as the dense rule forms both (i, j) and (j, i) (a cross term
as C_ij + C_ji, a curvature term as g_i g_j), and the fill mirrors it.
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
    """a + b, entry by entry, written into a, which must be the caller's own map."""
    if not a:
        a.update(b)
        return a
    for k, x in b.items():
        a[k] = a[k] + x if k in a else x
    return a


def _sub(a, b):
    """a - b, entry by entry, written into a, which must be the caller's own map."""
    for k, x in b.items():
        a[k] = a[k] - x if k in a else -x
    return a


def _scale(c: float, a) -> dict:
    """c * a as a new map; empty if the scalar c is exactly zero."""
    if c == 0.0 or not a:
        return {}
    return {k: c * x for k, x in a.items()}


def _cross(a, b) -> dict:
    """The symmetric cross term C + C' of C = outer(a, b), over i <= j, as a new map."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            c = x * y
            if i == j:
                out[i, i] = c + c
            else:
                key = (i, j) if i < j else (j, i)
                out[key] = out[key] + c if key in out else c
    return out


def _chain(f: float, g, h, df: float, d2f: float):
    """(f(u), grad, Hessian) of a scalar function with f' = df, f'' = d2f at u.

    u has the gradient g and the Hessian h.
    """
    curvature = {}
    if d2f != 0.0:
        pairs = list(g.items())
        for first, (i, x) in enumerate(pairs):
            for j, y in pairs[first:]:
                curvature[(i, j) if i <= j else (j, i)] = d2f * (x * y)
    return f, _scale(df, g), _add(_scale(df, h), curvature)


def _pow(u, r: float):
    a, g, h = u
    if not math.isfinite(r):
        raise DomainError("power exponent is not finite")
    if r == 0.0:
        return 1.0, {}, {}
    if r == 1.0:
        return u
    if r.is_integer():
        if a == 0.0 and r < 0.0:
            raise DomainError("zero raised to a negative power")
    elif a <= 0.0:
        raise DomainError("nonpositive base under a fractional power")
    try:
        if not (g or h):
            return a**r, {}, {}
        return _chain(a**r, g, h, r * a ** (r - 1.0), r * (r - 1.0) * a ** (r - 2.0))
    except OverflowError as err:
        raise DomainError("power overflows") from err


def _walk(node, leaves):
    match type(node):
        case ast.Var:
            return leaves[node.index]
        case ast.Const:
            return float(node.value), {}, {}
        case ast.Add | ast.Sub | ast.Mul | ast.Div:
            # a chain of k links is parsed k deep on the left; walk its links
            # in a loop: the bottom first, then each link's right operand and
            # the link's rule, in the order recursion would take them
            bottom, links = node.links()
            # a Var or Const operand, bottom or right, is read here, not walked
            operand = type(bottom)
            if operand is ast.Var:
                v, g, h = leaves[bottom.index]
            elif operand is ast.Const:
                v, g, h = float(bottom.value), {}, {}
            else:
                v, g, h = _walk(bottom, leaves)
            # + - and / write into the chain's maps, so they must be its own,
            # not the bottom's, which may be a leaf's; * makes new ones
            if links[0][0] is not ast.Mul:
                g, h = dict(g), dict(h)
            for kind, right in links:
                operand = type(right)
                if operand is ast.Var:
                    vb, gb, hb = leaves[right.index]
                elif operand is ast.Const:
                    vb, gb, hb = float(right.value), {}, {}
                else:
                    vb, gb, hb = _walk(right, leaves)
                if kind is ast.Add:
                    v, g, h = v + vb, _add(g, gb), _add(h, hb)
                elif kind is ast.Sub:
                    v, g, h = v - vb, _sub(g, gb), _sub(h, hb)
                elif kind is ast.Mul:
                    product = v * vb
                    if not math.isfinite(product):
                        raise DomainError("product overflows")
                    # the dense rule less its terms that are empty: a
                    # constant side scales the other, and two factors of
                    # value 0 leave only the cross term; an empty map
                    # scales to a new empty one
                    if not (gb or hb):
                        g, h = _scale(vb, g) if g else {}, _scale(vb, h) if h else {}
                    elif not (g or h):
                        g, h = _scale(v, gb) if gb else {}, _scale(v, hb) if hb else {}
                    elif v == 0.0 and vb == 0.0:
                        g, h = {}, _cross(g, gb)
                    else:
                        g, h = (
                            _add(_scale(vb, g), _scale(v, gb)),
                            _add(_add(_scale(vb, h), _scale(v, hb)), _cross(g, gb)),
                        )
                    v = product
                else:
                    if vb == 0.0:
                        raise DomainError("division by zero")
                    q = v / vb
                    if not math.isfinite(q):
                        raise DomainError("quotient overflows")
                    g = {k: x / vb for k, x in _sub(g, _scale(q, gb)).items()}
                    h = _sub(_sub(h, _scale(q, hb)), _cross(g, gb))
                    v, h = q, {k: x / vb for k, x in h.items()}
            return v, g, h
        case ast.Pow:
            return _pow(_walk(node.base, leaves), node.exponent)
        case ast.Neg:
            v, g, h = _walk(node.child, leaves)
            return -v, _sub({}, g), _sub({}, h)
        case ast.Log:
            a, g, h = _walk(node.child, leaves)
            if a <= 0.0:
                raise DomainError("log of a nonpositive value")
            if not (g or h):
                return math.log(a), {}, {}
            try:
                return _chain(math.log(a), g, h, 1.0 / a, -(a**-2.0))
            except OverflowError as err:
                raise DomainError("log overflows") from err
        case ast.Exp:
            a, g, h = _walk(node.child, leaves)
            try:
                e = math.exp(a)
            except OverflowError as err:
                raise DomainError("exp overflows") from err
            if not (g or h):
                return e, {}, {}
            return _chain(e, g, h, e, e)
    raise TypeError(f"not an expression node: {node!r}")


def _quadratic(node: Quadratic, x):
    c, g, h = node.constant, node.linear, node.hessian
    if x.size != g.size:
        raise ValueError(f"point has {x.size} entries, the objective has {g.size} variables")
    with np.errstate(over="ignore", invalid="ignore"):
        hx = h.dot(x)
        v = float(c + x.dot(g + 0.5 * hx))
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
    match type(node):
        case ast.Var:
            return 1
        case ast.Const:
            return 0
        case ast.Add | ast.Sub | ast.Mul | ast.Div:
            # over the links in a loop, a Var or Const operand read in it, as in _walk
            bottom, links = node.links()
            operand = type(bottom)
            degree = 1 if operand is ast.Var else 0 if operand is ast.Const else _degree(bottom)
            for kind, right in links:
                if degree is None:
                    return None
                operand = type(right)
                d = 1 if operand is ast.Var else 0 if operand is ast.Const else _degree(right)
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
            return _degree(node.child)
        case ast.Pow:
            d, r = _degree(node.base), node.exponent
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
    """(f, grad f, Hessian) in one walk of a raw or compiled tree.

    A raw tree takes a point with more entries than its variables and
    answers with zero gradient entries and zero Hessian rows and columns
    for the extra ones: a program may leave a declared variable out of an
    objective that does not fold.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(expression, Quadratic):
        return _quadratic(expression, x)
    leaves = [(v, {i: 1.0}, {}) for i, v in enumerate(x.tolist())]
    value, grad_entries, hess_entries = _checked_walk(expression, leaves)
    # zeros are finite, so the entries alone decide; checked before the fill
    if not (all(map(math.isfinite, grad_entries.values()))
            and all(map(math.isfinite, hess_entries.values()))):
        raise DomainError("gradient or Hessian is not finite")
    # the walk leaves an exactly zero entry absent; fill in the arrays once
    grad = np.zeros(x.size)
    for i, entry in grad_entries.items():
        grad[i] = entry
    hess = np.zeros((x.size, x.size))
    for (i, j), entry in hess_entries.items():
        hess[i, j] = hess[j, i] = entry
    return value, grad, hess


def evaluate(expression, x) -> float:
    """f(x), from a walk whose leaves carry no gradient, so that it forms no derivative."""
    x = np.asarray(x, dtype=float)
    if isinstance(expression, Quadratic):
        return _quadratic(expression, x)[0]
    return _checked_walk(expression, [(v, {}, {}) for v in x.tolist()])[0]


def gradient(expression, x) -> np.ndarray:
    """Exact gradient of the tree function at x."""
    return value_gradient_hessian(expression, x)[1]


def hessian(expression, x) -> np.ndarray:
    """Exact Hessian at x; storage is exactly symmetric."""
    return value_gradient_hessian(expression, x)[2]
