"""Objective expression trees: node types, parser, and printer.

Expressions are immutable ASTs over a declared variable list.  The node set
is deliberately small: constants, variables, the four arithmetic operators,
real powers, negation, natural log, and exp.  The parser builds ``a + b - c``
and ``a*b/c`` left-deep, so a chain of the four operators is as deep as it
has links; every walker reads it through :meth:`_Chain.links` in a loop, not
by recursion.  The tree is immutable, so a chain node builds that view once,
on the first call, and keeps it.  Exponents of ``^`` must be constant
subexpressions; the autodiff walk folds them to a finite float at parse time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field


class ParseError(ValueError):
    """Input text does not conform to the expression grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return _render(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int  # zero-based position in the declared variable list
    name: str


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class _Chain(Expr):
    """Base of Add, Sub, Mul and Div: two operands; ``repr``, ``==`` and ``hash`` without recursion.

    A parsed chain is as deep as it has links, so these loop down its left
    spine; they give what the dataclass-generated methods would.  ``_view``
    holds the :meth:`links` view once it is built; it is no operand, so
    none of these read it.
    """

    left: Expr
    right: Expr
    _view: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def links(self) -> tuple[Expr, tuple[tuple[type, Expr], ...]]:
        """The bottom operand of the left spine, and each link's (class, right operand), bottom link first.

        Every call returns the same tuple, built on the first.
        """
        view = self._view
        if view is None:
            links, node = [], self
            while isinstance(node, _Chain):
                links.append((type(node), node.right))
                node = node.left
            view = node, tuple(reversed(links))
            object.__setattr__(self, "_view", view)
        return view

    def __repr__(self) -> str:
        bottom, links = self.links()
        heads = "".join(f"{kind.__qualname__}(left=" for kind, _ in reversed(links))
        tails = "".join(f", right={right!r})" for _, right in links)
        return heads + repr(bottom) + tails

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.links() == other.links()

    def __hash__(self) -> int:
        return hash(self.links())


class Add(_Chain):
    __slots__ = ()


class Sub(_Chain):
    __slots__ = ()


class Mul(_Chain):
    __slots__ = ()


class Div(_Chain):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True, slots=True)
class Log(Expr):
    child: Expr


@dataclass(frozen=True, slots=True)
class Exp(Expr):
    child: Expr


RESERVED = ("log", "exp")
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        token, pos = match[kind], match.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {token!r}", pos)
        tokens.append((kind, token, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the grammar.

    Precedence, tightest first: ^, unary -, * /, + -.  The exponent of ^
    may itself carry a sign, e.g. ``x1^-2``.
    """

    def __init__(self, text: str, variables: list[str]):
        self.tokens = _tokenize(text)
        self.cursor = 0
        self.index_of = {name: i for i, name in enumerate(variables)}

    def peek(self):
        return self.tokens[self.cursor]

    def advance(self):
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self, tight: bool = False) -> Expr:
        """A left-deep chain of + - links over terms, or, if ``tight``, of * / links over unary operands."""
        node = self.unary() if tight else self.expr(tight=True)
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in ("*/" if tight else "+-"):
                return node
            self.advance()
            node = _BINARY[text](node, self.unary() if tight else self.expr(tight=True))

    def unary(self) -> Expr:
        # a run of signs is one Neg or none: -(-v) is v exactly
        signs = 0
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            signs += 1
        node = self.power()
        return Neg(node) if signs % 2 else node

    def power(self) -> Expr:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.unary()
            if variable_indices(exponent):
                raise ParseError("power exponent must be a constant", pos)
            from .autodiff import DomainError, evaluate  # autodiff imports this module

            try:
                value = evaluate(exponent, ())
            except DomainError as err:
                raise ParseError(f"power exponent must be a finite constant: {err}", pos) from err
            return Pow(base, value)
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if text in RESERVED:
                return self.call(text)
            index = self.index_of.get(text)
            if index is None:
                raise ParseError(f"unknown variable {text!r}", pos)
            return Var(index, text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, variable, or '('", pos)

    def call(self, name: str) -> Expr:
        self.expect_op("(")
        argument = self.expr()
        self.expect_op(")")
        return Log(argument) if name == "log" else Exp(argument)


def parse_expression(text: str, variables: list[str]) -> Expr:
    """Parse ``text`` into an AST over the declared variable names.

    A reserved word (:data:`RESERVED`) cannot name a variable.  A run of
    unary minus signs parses to one :class:`Neg` or none.  The parser
    recurses at every parenthesis and ``^``, so a text that nests deeper
    than the interpreter's recursion limit allows is a :class:`ParseError`,
    not a ``RecursionError``.
    """
    for name in variables:
        if name in RESERVED:
            raise ValueError(f"{name!r} is a reserved word and cannot name a variable")
    parser = _Parser(text, variables)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.peek()[2]) from None


def variable_indices(node: Expr) -> set[int]:
    """All variable indices referenced by the tree."""
    match node:
        case Var(index=i):
            return {i}
        case Const():
            return set()
        case Neg(child=c) | Log(child=c) | Exp(child=c):
            return variable_indices(c)
        case Pow(base=b):
            return variable_indices(b)
        case Add() | Sub() | Mul() | Div():
            bottom, links = node.links()
            indices = variable_indices(bottom)
            for _, right in links:
                indices |= variable_indices(right)
            return indices
    raise TypeError(f"not an expression node: {node!r}")


_PREC_ATOM = 5
_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}
_SYMBOL = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}


def _prec(node: Expr) -> int:
    if isinstance(node, Const) and math.copysign(1.0, node.value) < 0.0:
        return _PREC[Neg]  # it prints with a leading minus, which binds looser than ^
    return _PREC.get(type(node), _PREC_ATOM)


def _wrap(node: Expr, minimum: int) -> str:
    text = _render(node)
    return f"({text})" if _prec(node) < minimum else text


def _render(node: Expr) -> str:
    match node:
        case Const(value=v):
            return repr(float(v))
        case Var(name=name):
            return name
        case Add() | Sub() | Mul() | Div():
            # fold the links bottom up; where the text so far binds looser than
            # the next link it is parenthesised, and as such a parenthesis
            # always opens at the very start, only their count is kept
            bottom, links = node.links()
            parts, prec, opens = [_render(bottom)], _prec(bottom), 0
            for kind, right in links:
                link_prec = _PREC[kind]
                if prec < link_prec:
                    parts.append(")")
                    opens += 1
                parts += (_SYMBOL[kind], _wrap(right, link_prec + 1))
                prec = link_prec
            return "(" * opens + "".join(parts)
        case Neg(child=Neg() as c):
            # "--" would parse back as no sign at all
            return f"-({_render(c)})"
        case Neg(child=c):
            return f"-{_wrap(c, _PREC[Neg])}"
        case Pow(base=b, exponent=r):
            return f"{_wrap(b, _PREC_ATOM)}^{repr(float(r))}"
        case Log(child=c):
            return f"log({_render(c)})"
        case Exp(child=c):
            return f"exp({_render(c)})"
    raise TypeError(f"not an expression node: {node!r}")
