"""Objective evaluation plus exact gradients and Hessians.

One walk of the expression tree carries, at every node, the triple
(value, gradient, Hessian) and combines the children's triples by the
chain rule (second-order forward mode; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., on Hessian propagation).  The gradient is a map
from variable index to entry and the Hessian a map from (i, j), i <= j,
to entry.  The walk recurses into children but loops over the ``links()``
of a chain of + - * /, however long, and reads a chain's Var and Const
operands in that loop rather than walking them.  It defines the node
semantics: the parser folds a constant exponent of ``^`` with it at n = 0,
and a :class:`DomainError` there is a parse error, and the code generated
for a tree that does not fold gives its bits or hands the point to it.

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
other tree a :class:`Generated` one.  At x = 0 every product of two variables
has the value 0, so the walk of a dense 1/2 x'Qx forms each term's
cross term and its constant's scaling, and stores no gradient entry and
one Hessian entry per term: compiling costs O(nodes) plus the O(n^2)
fill.  A quadratic program is then one node: one matrix-vector
product per call and the same read-only Hessian every time.  The public
``evaluate``/``gradient``/``hessian`` accept either tree; the solver
passes the compiled one and the test oracles the raw one.

A tree that does not fold has its walk written out once as Python source
(source transformation; ibid., ch. 6).  :class:`_Emitter` walks it as the
walk does, with the same helpers in the same order, but a value or map
entry is the name of a local, so the source forms each float the walk
forms, in its order, with no dispatch on node types and no maps.  Which
entries the walk stores depends on the point only through exact zeros
and errors, so the code is written for points where no scale factor is
exactly 0 and the walk raises nothing, and it tests that after its last
line: it returns the walk's bits, or None, and the walk takes that
point and gives its own result or error.  The whole tree is one function
body, each operand written in place.  :func:`_maker` compiles each source
text once, in a bounded cache.  The tree's constants are arguments, so
programs of one shape share the code; only variable indices, counters and
the ``repr`` of a float reach the source, never text a user wrote.
:func:`evaluate` walks the tree.

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

import functools
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


@dataclass(frozen=True, slots=True, eq=False)
class Generated:
    """A tree that does not fold, with its walk written out as straight-line code.

    ``function(xs)`` takes the point as a list of floats and returns what
    :func:`value_gradient_hessian` returns, or None where the walk at xs
    leaves the path the code was written for; the tree is walked there.
    """

    tree: ast.Expr
    function: object


def _source(x) -> str:
    """A local's name, or the repr of a folded float."""
    return x if type(x) is str else repr(x)


def _tuple(names) -> str:
    """A tuple display of names, empty or not."""
    return f"({''.join(f'{name}, ' for name in names)})"


class _Emitter:
    """The walk of a tree written as the body of one function.

    It walks the tree as :func:`_walk` does, with the same map helpers in
    the same order, but each value and map entry is the name of a local
    that the body computes: every float the walk forms is one line, in the
    walk's order of operations.  An entry that a leaf's derivative 1.0
    makes known is folded as the walk's float arithmetic forms it, and
    x * 1.0 is x.  Which entries are present then follows from the tree
    alone, so long as no scalar factor is exactly zero and the walk raises
    nothing.  Each condition for that is kept in :attr:`required`, and a
    product or quotient the walk checks is added to the finiteness sum
    with the value and the entries; the body tests them all after its
    last line (:meth:`holds`), and the walk takes a point where one
    fails.  An operation a failed condition would have stopped may raise
    first; the caller hands the point to the walk then too.  The tree's
    constants are arguments of ``make``; an exponent and the floats the
    walk forms from it are literals, as the walk's arithmetic forms them.
    """

    def __init__(self):
        self.lines = []
        self.constants = []
        # what must hold for the walk to stay on this code's path, each kept
        # once and in order, and the products and quotients it checks are finite
        self.required = {}
        self.finite = []
        self.locals = 0

    def new(self, expression: str) -> str:
        name = f"t{self.locals}"
        self.locals += 1
        self.lines.append(f"{name} = {expression}")
        return name

    def require(self, condition: str):
        self.required[condition] = None

    def constant(self, value: float) -> str:
        self.constants.append(value)
        return f"c{len(self.constants) - 1}"

    def zero(self, c) -> bool:
        """The walk's ``c == 0.0``: known for a folded float, else required false (a float is false if 0)."""
        if type(c) is float:
            return c == 0.0
        self.require(c)
        return False

    def op(self, a, symbol: str, b):
        if type(a) is float and type(b) is float:
            folded = a + b if symbol == "+" else a - b if symbol == "-" else a * b
            if math.isfinite(folded):
                return folded
        elif symbol == "*" and (a == 1.0 or b == 1.0):
            return b if a == 1.0 else a
        return self.new(f"{_source(a)} {symbol} {_source(b)}")

    def neg(self, a):
        return -a if type(a) is float else self.new(f"-{a}")

    def add(self, a, b):
        if not a:
            a.update(b)
            return a
        for k, x in b.items():
            a[k] = self.op(a[k], "+", x) if k in a else x
        return a

    def sub(self, a, b):
        for k, x in b.items():
            a[k] = self.op(a[k], "-", x) if k in a else self.neg(x)
        return a

    def scale(self, c, a) -> dict:
        if not a or self.zero(c):
            return {}
        return {k: self.op(c, "*", x) for k, x in a.items()}

    def cross(self, a, b) -> dict:
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                c = self.op(x, "*", y)
                if i == j:
                    out[i, i] = self.op(c, "+", c)
                else:
                    key = (i, j) if i < j else (j, i)
                    out[key] = self.op(out[key], "+", c) if key in out else c
        return out

    def chain(self, f: str, g, h, derivatives):
        """(f(u), grad, Hessian) as :func:`_chain` forms them; ``derivatives()`` writes (f', f'')."""
        if not (g or h):
            return f, {}, {}
        df, d2f = derivatives()
        curvature = {}
        if g and not self.zero(d2f):
            pairs = list(g.items())
            for first, (i, x) in enumerate(pairs):
                for j, y in pairs[first:]:
                    curvature[(i, j) if i <= j else (j, i)] = self.op(d2f, "*", self.op(x, "*", y))
        return f, self.scale(df, g), self.add(self.scale(df, h), curvature)

    def pow(self, u, r: float):
        a, g, h = u
        if type(r) is not float:
            raise TypeError(f"exponent {r!r} is not a float")
        if not math.isfinite(r):
            self.require("False")
            return u
        if r == 0.0:
            return self.new("1.0"), {}, {}
        if r == 1.0:
            return u
        if not r.is_integer():
            self.require(f"{a} > 0.0")
        elif r < 0.0:
            self.zero(a)
        # the floats the walk forms from r, as literals
        c = [repr(k) for k in (r, r - 1.0, r * (r - 1.0), r - 2.0)]
        return self.chain(self.new(f"{a} ** {c[0]}"), g, h, lambda: (
            self.new(f"{c[0]} * {a} ** {c[1]}"), self.new(f"{c[2]} * {a} ** {c[3]}")))

    def operand(self, node):
        """The walk's triple of node: a Var or Const read, any other node walked."""
        operand = type(node)
        if operand is ast.Var:
            return f"x{node.index}", {node.index: 1.0}, {}
        if operand is ast.Const:
            return self.constant(float(node.value)), {}, {}
        return self.walk(node)

    def walk(self, node):
        match type(node):
            case ast.Var | ast.Const:
                return self.operand(node)
            case ast.Add | ast.Sub | ast.Mul | ast.Div:
                bottom, links = node.links()
                v, g, h = self.operand(bottom)
                if links[0][0] is not ast.Mul:
                    g, h = dict(g), dict(h)
                for kind, right in links:
                    vb, gb, hb = self.operand(right)
                    if kind is ast.Add:
                        v, g, h = self.op(v, "+", vb), self.add(g, gb), self.add(h, hb)
                    elif kind is ast.Sub:
                        v, g, h = self.op(v, "-", vb), self.sub(g, gb), self.sub(h, hb)
                    elif kind is ast.Mul:
                        product = self.new(f"{v} * {vb}")
                        self.finite.append(product)
                        # two factors of value 0 are tested by the scale of each side
                        if not (gb or hb):
                            g, h = self.scale(vb, g), self.scale(vb, h)
                        elif not (g or h):
                            g, h = self.scale(v, gb), self.scale(v, hb)
                        else:
                            g, h = (
                                self.add(self.scale(vb, g), self.scale(v, gb)),
                                self.add(self.add(self.scale(vb, h), self.scale(v, hb)), self.cross(g, gb)),
                            )
                        v = product
                    else:
                        self.zero(vb)
                        q = self.new(f"{v} / {vb}")
                        self.finite.append(q)
                        g = {k: self.op(x, "/", vb) for k, x in self.sub(g, self.scale(q, gb)).items()}
                        h = self.sub(self.sub(h, self.scale(q, hb)), self.cross(g, gb))
                        v, h = q, {k: self.op(x, "/", vb) for k, x in h.items()}
                return v, g, h
            case ast.Pow:
                return self.pow(self.walk(node.base), node.exponent)
            case ast.Neg:
                v, g, h = self.walk(node.child)
                return self.neg(v), self.sub({}, g), self.sub({}, h)
            case ast.Log:
                a, g, h = self.walk(node.child)
                self.require(f"{a} > 0.0")
                return self.chain(self.new(f"log({a})"), g, h, lambda: (
                    self.new(f"1.0 / {a}"), self.new(f"-({a} ** -2.0)")))
            case ast.Exp:
                a, g, h = self.walk(node.child)
                e = self.new(f"exp({a})")
                return self.chain(e, g, h, lambda: (e, e))
        raise TypeError(f"not an expression node: {node!r}")

    def holds(self, value, grad, hess) -> str:
        """Whether the walk stays on this body's path, as an expression over its locals."""
        # a sum is finite if each term is; if it overflows alone, the walk
        # takes the point and finds each finite.  Tuples, not one ``or`` per
        # condition: compile() took 1.6x as long with those at n = 256.
        terms = [value, *self.finite, *(x for x in (*grad.values(), *hess.values()) if type(x) is str)]
        return f"isfinite(sum({_tuple(terms)})) and all({_tuple(self.required)})"

    def source(self, tree) -> str:
        """The tree's ``make(c0, c1, ...)``, which returns its function of the point as a list xs.

        That function returns (f, grad, Hessian), or None where the walk
        leaves this body's path.
        """
        value, grad, hess = self.walk(tree)
        lines = [
            *(f"x{i} = xs[{i}]" for i in sorted(ast.variable_indices(tree))),
            *self.lines,
            f"if not ({self.holds(value, grad, hess)}): return",
            "grad = zeros(len(xs))",
            *(f"grad[{i}] = {_source(x)}" for i, x in grad.items()),
            "hess = zeros((len(xs), len(xs)))",
            *(f"hess[{i}, {j}] = hess[{j}, {i}] = {_source(x)}" if i != j else f"hess[{i}, {i}] = {_source(x)}"
              for (i, j), x in hess.items()),
            f"return {value}, grad, hess",
        ]
        constants = ", ".join(f"c{k}" for k in range(len(self.constants)))
        body = "".join(f"        {line}\n" for line in lines)
        return f"def make({constants}):\n    def function(xs):\n{body}    return function\n"


@functools.lru_cache(maxsize=64)
def _maker(source: str):
    """The ``make`` that an :class:`_Emitter` source defines, compiled once per source text."""
    namespace = {"isfinite": math.isfinite, "log": math.log, "exp": math.exp, "zeros": np.zeros}
    exec(compile(source, "<generated objective>", "exec"), namespace)
    return namespace["make"]


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
    """A tree of degree <= 2 as one :class:`Quadratic`; any other tree as a :class:`Generated`.

    Such a tree's (f, grad f, Hessian) at x = 0 are exactly its (c, g, H),
    so one walk there folds it.  The result goes to the same
    ``value_gradient_hessian`` as a parsed tree over n variables.  A tree
    whose walk at 0 raises, its coefficients' overflow included, is not
    folded, so its walk raises the parsed tree's :class:`DomainError`.  A
    tree with a node, a variable index or a constant that the generated
    code cannot read, which no parsed tree has, or nested too deep for the
    emitter, is left as it is, for the walk.
    """
    if _degree(expression) is not None:
        try:
            c, g, h = value_gradient_hessian(expression, np.zeros(n))
        except DomainError:
            pass
        else:
            h.flags.writeable = False
            return Quadratic(c, g, h)
    emitter = _Emitter()
    try:
        if not all(type(i) is int and i >= 0 for i in ast.variable_indices(expression)):
            return expression
        source = emitter.source(expression)
    # a node, an index or a constant that only the walk reads, or a nesting
    # the emitter, at two frames a level to the walk's one, cannot follow
    except (TypeError, ValueError, RecursionError):
        return expression
    return Generated(expression, _maker(source)(*emitter.constants))


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
    """(f, grad f, Hessian) of a raw or compiled tree, from its generated code or one walk.

    A raw or generated tree takes a point with more entries than its
    variables and answers with zero gradient entries and zero Hessian rows
    and columns for the extra ones: a program may leave a declared variable
    out of an objective that does not fold.  Where the generated code
    leaves the point to the walk, or raises first, the tree is walked.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(expression, Quadratic):
        return _quadratic(expression, x)
    if isinstance(expression, Generated):
        try:
            result = expression.function(x.tolist())
        except (ArithmeticError, LookupError, TypeError, ValueError):
            result = None
        if result is not None:
            return result
        expression = expression.tree
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
    if isinstance(expression, Generated):
        expression = expression.tree
    return _checked_walk(expression, [(v, {}, {}) for v in x.tolist()])[0]


def gradient(expression, x) -> np.ndarray:
    """Exact gradient of the tree function at x."""
    return value_gradient_hessian(expression, x)[1]


def hessian(expression, x) -> np.ndarray:
    """Exact Hessian at x; storage is exactly symmetric."""
    return value_gradient_hessian(expression, x)[2]
