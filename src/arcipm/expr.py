"""Objective expression trees: node types, parser, and printer.

Expressions are immutable ASTs over a declared variable list.  The node set
is deliberately small: constants, variables, the four arithmetic operators,
real powers, negation, natural log, and exp.  Exponents of ``^`` must be
constant subexpressions; they are folded to a float at parse time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


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


class _Sum(Expr):
    """Base of Add and Sub: ``repr``, ``==`` and ``hash`` without recursion.

    A parsed sum is as deep as it has terms, so these loop down its left
    spine; they give what the dataclass-generated methods would.
    """

    __slots__ = ()

    def _spine(self) -> tuple[list[_Sum], Expr]:
        """The sums down the left spine, top first, and the node below them."""
        spine, node = [], self
        while isinstance(node, _Sum):
            spine.append(node)
            node = node.left
        return spine, node

    def __repr__(self) -> str:
        spine, bottom = self._spine()
        heads = "".join(f"{type(node).__qualname__}(left=" for node in spine)
        tails = "".join(f", right={node.right!r})" for node in reversed(spine))
        return heads + repr(bottom) + tails

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        node = self
        while isinstance(node, _Sum) and other.__class__ is node.__class__:
            if node is other:
                return True
            if not (node.right is other.right or node.right == other.right):
                return False
            node, other = node.left, other.left
        return node is other or node == other

    def __hash__(self) -> int:
        spine, bottom = self._spine()
        return hash((bottom, *((type(node), node.right) for node in spine)))


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Add(_Sum):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Sub(_Sum):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


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


_RESERVED = ("log", "exp")

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
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

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = _fold_constant(self.unary())
            if exponent is None:
                raise ParseError("power exponent must be a constant", pos)
            return Pow(base, exponent)
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if text in _RESERVED:
                self.cursor -= 1
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
        self.advance()
        self.expect_op("(")
        argument = self.expr()
        self.expect_op(")")
        return Log(argument) if name == "log" else Exp(argument)


def parse_expression(text: str, variables: list[str]) -> Expr:
    """Parse ``text`` into an AST over the declared variable names."""
    return _Parser(text, variables).parse()


def _fold_constant(node: Expr) -> float | None:
    """Value of a variable-free subtree, or None if it cannot be folded."""
    match node:
        case Const(value=v):
            return v
        case Neg(child=c):
            v = _fold_constant(c)
            return None if v is None else -v
        case Add() | Sub():
            # a parsed sum is as deep as it has terms; fold up its left spine
            spine, bottom = node._spine()
            value = _fold_constant(bottom)
            for sum_node in reversed(spine):
                right = _fold_constant(sum_node.right)
                if value is None or right is None:
                    return None
                value = value + right if isinstance(sum_node, Add) else value - right
            return value
        case Mul(left=a, right=b) | Div(left=a, right=b):
            va, vb = _fold_constant(a), _fold_constant(b)
            if va is None or vb is None:
                return None
            if isinstance(node, Mul):
                return va * vb
            try:
                return va / vb
            except ZeroDivisionError:
                return None
        case Pow(base=b, exponent=r):
            vb = _fold_constant(b)
            if vb is None:
                return None
            try:
                value = vb**r
            except (ValueError, ZeroDivisionError, OverflowError):
                return None
            # negative base with fractional exponent yields a complex value
            return float(value) if isinstance(value, float) else None
        case Log(child=c):
            v = _fold_constant(c)
            if v is None or v <= 0.0:
                return None
            return math.log(v)
        case Exp(child=c):
            v = _fold_constant(c)
            if v is None:
                return None
            try:
                return math.exp(v)
            except OverflowError:
                return None
    return None


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
        case Add() | Sub():
            # a parsed sum is as deep as it has terms; loop down its left spine
            indices = set()
            while isinstance(node, (Add, Sub)):
                indices |= variable_indices(node.right)
                node = node.left
            return indices | variable_indices(node)
        case Mul(left=a, right=b) | Div(left=a, right=b):
            return variable_indices(a) | variable_indices(b)
    raise TypeError(f"not an expression node: {node!r}")


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(node: Expr) -> int:
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(node: Expr, minimum: int) -> str:
    text = _render(node)
    return f"({text})" if _prec(node) < minimum else text


def _render(node: Expr) -> str:
    match node:
        case Const(value=v):
            return repr(float(v))
        case Var(name=name):
            return name
        case Add() | Sub():
            spine, bottom = node._spine()
            terms = (
                f" {'+' if isinstance(sum_node, Add) else '-'} {_wrap(sum_node.right, _PREC_ADD + 1)}"
                for sum_node in reversed(spine)
            )
            return _wrap(bottom, _PREC_ADD) + "".join(terms)
        case Mul(left=a, right=b):
            return f"{_wrap(a, _PREC_MUL)}*{_wrap(b, _PREC_MUL + 1)}"
        case Div(left=a, right=b):
            return f"{_wrap(a, _PREC_MUL)}/{_wrap(b, _PREC_MUL + 1)}"
        case Neg(child=c):
            return f"-{_wrap(c, _PREC_NEG)}"
        case Pow(base=b, exponent=r):
            return f"{_wrap(b, _PREC_ATOM)}^{repr(float(r))}"
        case Log(child=c):
            return f"log({_render(c)})"
        case Exp(child=c):
            return f"exp({_render(c)})"
    raise TypeError(f"not an expression node: {node!r}")
