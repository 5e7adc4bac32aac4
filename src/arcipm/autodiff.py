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

:func:`compile_objective` runs once per program whose objective is a
tree: one structural pass
(:func:`expr.structure`), the one the program makes when it checks its
objective, gives the tree's degree and its variable indices, then a tree
of degree <= 2 is walked once, at x = 0.  Such a tree is
c + g'x + 1/2 x'Hx, and its
(value, gradient, Hessian) at 0 are exactly (c, g, H), a constant
Hessian (ibid., ch. 7); it becomes one :class:`Quadratic` node, and any
other tree a :class:`Generated` one.  At x = 0 every product of two variables
has the value 0, so the walk of a dense 1/2 x'Qx forms each term's
cross term and its constant's scaling, and stores no gradient entry and
one Hessian entry per term: compiling costs O(nodes) plus the O(n^2)
fill.  A quadratic program is then one node: one matrix-vector
product per call and the same read-only Hessian every time.  A program
may also be given that node, built from arrays; it is then its own
compiled objective, and no tree is walked or folded.  The public
``evaluate``/``gradient``/``hessian`` accept either tree or the node; the
solver passes the compiled one and the test oracles the program's own.

A tree that does not fold has its walk written out once as Python source
(source transformation; ibid., ch. 6), recorded by running the walk itself
on values that overload the arithmetic (ibid., the same chapter):
:class:`_Emitter` walks the tree with leaves whose values are
:class:`_Local` names, and each float operation on a name writes one line
of the body.  The walk's calls outside float arithmetic, a constant's
read, the check of a product or quotient, ``log`` and ``exp``, go through
one hook, :class:`_Floats` on floats, which the emitter replaces.  So each
chain rule is stated once, and the source forms each float the walk
forms, in its order, with no dispatch on node types and no maps.  Which
entries the walk stores depends on the point only through exact zeros
and errors, so the code is written for points where no scale factor is
exactly 0 and the walk raises nothing: a name compared with 0 records
that condition and answers as such a point would, except a constant's,
which answers from its value, as the walk does at every point.  The code
tests the conditions after its last line: it returns the walk's bits, or
None, and the walk takes that point and gives its own result or error.
The whole tree is one function body, each operand written in place.
:func:`_maker` compiles each source text once, in a bounded cache.  The
tree's constants are arguments, so programs of one shape, with their
zero constants in the same places, share the code; only variable
indices, counters and the ``repr`` of a float, ``inf`` and ``nan``
included, reach the source, never text a user wrote.
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
    a non-finite value, gradient or Hessian, and range overflow; never a
    silent NaN.  A non-finite exponent cannot reach the walk:
    :class:`expr.Pow` rejects it when the node is built.
    """


@dataclass(frozen=True, slots=True, eq=False)
class Quadratic:
    """c + g'x + 1/2 x'Hx: a folded tree, or an objective a caller gives as arrays.

    It checks its fields when built, as an expression node does: c is a
    finite real number, g a vector of finite entries and H a finite,
    exactly symmetric matrix with one row and one column per entry of g.
    A field of the wrong shape or with an entry that is not finite is a
    ``ValueError``, and one that holds no real numbers a ``TypeError``.
    It keeps read-only float copies of g and H, so the caller's arrays
    may change afterwards; every call returns that same H.
    """

    constant: float
    linear: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        constant = float(_real_copy(self.constant, "constant term", 0))
        linear = _real_copy(self.linear, "linear term", 1)
        hessian = _real_copy(self.hessian, "Hessian", 2)
        if hessian.shape != (linear.size, linear.size):
            raise ValueError(
                f"Hessian has shape {hessian.shape}, expected {linear.size} x {linear.size} "
                "for a linear term of that many entries"
            )
        if not np.array_equal(hessian, hessian.T):
            raise ValueError("Hessian is not exactly symmetric")
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "hessian", hessian)


def _real_copy(value, what: str, ndim: int) -> np.ndarray:
    """A read-only, C-ordered float copy of a real array of ``ndim`` dimensions with finite entries."""
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":
        raise TypeError(f"{what} holds {array.dtype} entries, not real numbers")
    if array.ndim != ndim:
        raise ValueError(f"{what} has {array.ndim} dimensions, expected {ndim}")
    array = np.array(array, dtype=float, order="C")
    if not np.isfinite(array).all():
        raise ValueError(f"{what} has an entry that is not finite")
    array.flags.writeable = False
    return array


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
    # c is tested last: on a name the test is a condition of the generated
    # code, which holds only where there is an entry to scale
    if not a or c == 0.0:
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
    # d2f is tested last, as c in _scale
    if g and d2f != 0.0:
        pairs = list(g.items())
        for first, (i, x) in enumerate(pairs):
            for j, y in pairs[first:]:
                curvature[(i, j) if i <= j else (j, i)] = d2f * (x * y)
    return f, _scale(df, g), _add(_scale(df, h), curvature)


def _pow(u, r: float):
    a, g, h = u
    if r == 0.0:
        return 1.0, {}, {}
    if r == 1.0:
        return u
    if r.is_integer():
        # a is tested last, as c in _scale
        if r < 0.0 and a == 0.0:
            raise DomainError("zero raised to a negative power")
    elif a <= 0.0:
        raise DomainError("nonpositive base under a fractional power")
    try:
        if not (g or h):
            return a**r, {}, {}
        return _chain(a**r, g, h, r * a ** (r - 1.0), r * (r - 1.0) * a ** (r - 2.0))
    except OverflowError as err:
        raise DomainError("power overflows") from err


class _Floats:
    """The walk's calls outside float arithmetic, over floats: reading a
    constant, checking a product or quotient, ``log`` and ``exp``.

    :class:`_Emitter` has the same four, over named locals.
    """

    constant = float
    isfinite = math.isfinite
    log = math.log
    exp = math.exp


def _walk(node, leaves, calls=_Floats):
    match type(node):
        case ast.Var:
            return leaves[node.index]
        case ast.Const:
            return calls.constant(node.value), {}, {}
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
                v, g, h = calls.constant(bottom.value), {}, {}
            else:
                v, g, h = _walk(bottom, leaves, calls)
            # + - and / write into the chain's maps, so they must be its own,
            # not the bottom's, which may be a leaf's; * makes new ones
            if links[0][0] is not ast.Mul:
                g, h = dict(g), dict(h)
            for kind, right in links:
                operand = type(right)
                if operand is ast.Var:
                    vb, gb, hb = leaves[right.index]
                elif operand is ast.Const:
                    vb, gb, hb = calls.constant(right.value), {}, {}
                else:
                    vb, gb, hb = _walk(right, leaves, calls)
                if kind is ast.Add:
                    v, g, h = v + vb, _add(g, gb), _add(h, hb)
                elif kind is ast.Sub:
                    v, g, h = v - vb, _sub(g, gb), _sub(h, hb)
                elif kind is ast.Mul:
                    product = v * vb
                    if not calls.isfinite(product):
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
                    if not calls.isfinite(q):
                        raise DomainError("quotient overflows")
                    g = {k: x / vb for k, x in _sub(g, _scale(q, gb)).items()}
                    h = _sub(_sub(h, _scale(q, hb)), _cross(g, gb))
                    v, h = q, {k: x / vb for k, x in h.items()}
            return v, g, h
        case ast.Pow:
            return _pow(_walk(node.base, leaves, calls), node.exponent)
        case ast.Neg:
            v, g, h = _walk(node.child, leaves, calls)
            return -v, _sub({}, g), _sub({}, h)
        case ast.Log:
            a, g, h = _walk(node.child, leaves, calls)
            if a <= 0.0:
                raise DomainError("log of a nonpositive value")
            if not (g or h):
                return calls.log(a), {}, {}
            try:
                return _chain(calls.log(a), g, h, 1.0 / a, -(a**-2.0))
            except OverflowError as err:
                raise DomainError("log overflows") from err
        case ast.Exp:
            a, g, h = _walk(node.child, leaves, calls)
            try:
                e = calls.exp(a)
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


def _tuple(items) -> str:
    """A tuple display of locals and floats, empty or not."""
    return f"({''.join(f'{item}, ' for item in items)})"


def _operator(symbol: str, reflected: bool = False):
    """The :class:`_Local` method of ``symbol``: one line, its operands in the walk's order.

    x * 1.0 and 1.0 * x are x, with no line.
    """

    def method(a, b):
        if symbol == "*" and type(b) is float and b == 1.0:
            return a
        return a.emitter.new(f"{b} {symbol} {a}" if reflected else f"{a} {symbol} {b}")

    return method


class _Local:
    """A float that the generated body computes, as the name of its local.

    The walk runs on these as on floats: each + - * / ``**`` and negation
    writes the line that computes its result.  The walk compares a value
    with 0.0 only to find an exact zero, which drops an entry, or an
    error.  Such a comparison requires that neither holds, and answers as
    at a point where neither does.  A constant's local carries its
    ``value``, which no point changes, so its comparisons answer from
    that value, as the walk does at every point, and require nothing.
    """

    __slots__ = ("emitter", "name", "value")

    def __init__(self, emitter, name: str, value: float | None = None):
        self.emitter, self.name, self.value = emitter, name, value

    def __str__(self) -> str:
        return self.name

    __add__, __radd__ = _operator("+"), _operator("+", True)
    __sub__, __rsub__ = _operator("-"), _operator("-", True)
    __mul__, __rmul__ = _operator("*"), _operator("*", True)
    __truediv__, __rtruediv__ = _operator("/"), _operator("/", True)

    def __neg__(self):
        return self.emitter.new(f"-{self}")

    def __pow__(self, r):
        return self.emitter.new(f"{self} ** {r}")

    # a scale factor is required nonzero (a float is false if 0), a base
    # under log or a fractional power positive
    def __eq__(self, zero) -> bool:
        if self.value is not None:
            return self.value == zero
        self.emitter.require(self.name)
        return False

    def __ne__(self, zero) -> bool:
        if self.value is not None:
            return self.value != zero
        self.emitter.require(self.name)
        return True

    def __le__(self, zero) -> bool:
        if self.value is not None:
            return self.value <= zero
        self.emitter.require(f"{self} > 0.0")
        return False


class _Emitter:
    """The walk of a tree written as the body of one function, by running the walk.

    :meth:`source` runs :func:`_walk` on leaves (x_i, {i: 1.0}, {}) whose
    values x_i are :class:`_Local` names, and passes itself as the walk's
    hook: a constant is an argument c_k of ``make``, and ``log`` and ``exp``
    write a line.  Every float the walk forms from a name is then one line,
    in the walk's order of operations.  The floats that no point changes,
    a leaf's derivative 1.0 and what the walk forms from it or from an
    exponent, stay floats, and x * 1.0 is x.  Which entries are present
    then follows from the tree and its constants alone, so long as no
    scale factor that depends on the point is exactly zero and the walk
    raises nothing.  Each condition for that is kept in
    :attr:`required`, and each product or quotient the walk checks goes
    into the finiteness sum with the value and every entry, a float
    included; the body tests them all after its last line (:meth:`holds`),
    and the walk takes a point where one fails.  An operation a failed
    condition would have stopped may raise first; the caller hands the
    point to the walk then too.  A :class:`DomainError` that the walk
    raises here depends on no point, as in ``log(x1^0 - x2^0)``: the walk
    raises it, or an error it meets first, at every point, so it passes
    out of :meth:`source` and :func:`compile_objective` leaves the tree to
    the walk.
    """

    def __init__(self):
        self.lines = []
        self.constants = []
        # what must hold for the walk to stay on this code's path, each kept
        # once and in order, and the products and quotients it checks are finite
        self.required = {}
        self.finite = []
        self.locals = 0

    def new(self, expression: str) -> _Local:
        name = f"t{self.locals}"
        self.locals += 1
        self.lines.append(f"{name} = {expression}")
        return _Local(self, name)

    def require(self, condition: str):
        self.required[condition] = None

    def constant(self, value) -> _Local:
        self.constants.append(value)
        return _Local(self, f"c{len(self.constants) - 1}", value)

    def isfinite(self, x) -> bool:
        self.finite.append(x)
        return True

    def log(self, a) -> _Local:
        return self.new(f"log({a})")

    def exp(self, a) -> _Local:
        return self.new(f"exp({a})")

    def holds(self, value, grad, hess) -> str:
        """Whether the walk stays on this body's path, as an expression over its locals."""
        # a sum is finite if each term is; if it overflows alone, the walk
        # takes the point and finds each finite.  Tuples, not one ``or`` per
        # condition: compile() took 1.6x as long with those at n = 256.
        terms = [value, *self.finite, *grad.values(), *hess.values()]
        return f"isfinite(sum({_tuple(terms)})) and all({_tuple(self.required)})"

    def source(self, tree, indices) -> str:
        """The tree's ``make(c0, c1, ...)``, which returns its function of the point as a list xs.

        ``indices`` are the tree's variable indices, in increasing order.
        That function returns (f, grad, Hessian), or None where the walk
        leaves this body's path.  A walk that raises here raises at every
        point, and its error passes out.
        """
        # one leaf per variable, read at its every occurrence, as in the walk
        leaves = {i: (_Local(self, f"x{i}"), {i: 1.0}, {}) for i in indices}
        value, grad, hess = _walk(tree, leaves, self)
        lines = [
            *(f"x{i} = xs[{i}]" for i in indices),
            *self.lines,
            f"if not ({self.holds(value, grad, hess)}): return",
            "grad = zeros(len(xs))",
            *(f"grad[{i}] = {x}" for i, x in grad.items()),
            "hess = zeros((len(xs), len(xs)))",
            *(f"hess[{i}, {j}] = hess[{j}, {i}] = {x}" if i != j else f"hess[{i}, {i}] = {x}"
              for (i, j), x in hess.items()),
            f"return {value}, grad, hess",
        ]
        constants = ", ".join(f"c{k}" for k in range(len(self.constants)))
        body = "".join(f"        {line}\n" for line in lines)
        return f"def make({constants}):\n    def function(xs):\n{body}    return function\n"


@functools.lru_cache(maxsize=64)
def _maker(source: str):
    """The ``make`` that an :class:`_Emitter` source defines, compiled once per source text."""
    namespace = {"isfinite": math.isfinite, "log": math.log, "exp": math.exp, "zeros": np.zeros,
                 "inf": math.inf, "nan": math.nan}
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
    # g and H are finite, so an overflow of Hx shows in the value too
    if not math.isfinite(v):
        raise DomainError("polynomial overflows")
    return v, grad, h


def compile_objective(expression: ast.Expr, n: int, indices, degree):
    """A tree of degree <= 2 as one :class:`Quadratic`; any other tree as a :class:`Generated`.

    ``indices`` and ``degree`` are what :func:`expr.structure` gives for
    the tree, whose program has checked it: every node is one that the
    code reads, and every index is below n.  Such a tree's
    (f, grad f, Hessian) at x = 0 are exactly its (c, g, H), so one walk
    there folds it.  The result goes to the same ``value_gradient_hessian``
    as a parsed tree over n variables.  A tree whose walk at 0 raises, its
    coefficients' overflow included, is not folded, so its walk raises the
    parsed tree's :class:`DomainError`.  Two kinds of tree are left as they
    are, for the walk: one nested too deep for the emitter, which runs a
    few frames deeper than the walk; and one whose walk raises a
    :class:`DomainError` at every point, such as ``log(x1^0 - x2^0)``,
    which emission meets as the walk does.
    """
    if degree is not None:
        try:
            c, g, h = value_gradient_hessian(expression, np.zeros(n))
        except DomainError:
            pass
        else:
            return Quadratic(c, g, h)
    emitter = _Emitter()
    try:
        source = emitter.source(expression, sorted(indices))
    # a walk that raises at every point, or a nesting the walk follows but
    # emission, a few frames deeper, cannot
    except (DomainError, RecursionError):
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
