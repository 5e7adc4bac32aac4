"""Seeded instance generators for the QP workloads.

Each generator takes a ``numpy.random.Generator`` and returns a
:class:`QPInstance`: the :class:`arcipm.ConvexProgram` the solver receives,
plus the generator's own arrays, which the KKT certificate in
``checks.py`` reads so the check never depends on the solver's derivatives.
Objectives are unshifted quadratics ½xᵀQx, because the default residual
uses the model term H x in place of the gradient and the two agree only
without a linear term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from arcipm import ConvexProgram, fold_bounds
from arcipm.expr import Add, Const, Expr, Mul, Var

MANY_ROWS_N = 4
MANY_ROWS_ROWS = 100


@dataclass(frozen=True)
class QPInstance:
    """min ½xᵀQx s.t. A_eq x = b_eq, A_ineq x >= b_ineq (bounds folded in)."""

    program: ConvexProgram
    q: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ineq: np.ndarray
    b_ineq: np.ndarray


def quadratic_tree(q: np.ndarray) -> Expr:
    """Expression tree for ½xᵀQx: one product per diagonal and upper entry."""
    n = q.shape[0]
    names = [Var(i, f"x{i + 1}") for i in range(n)]
    terms = []
    for i in range(n):
        terms.append(Mul(Const(0.5 * q[i, i]), Mul(names[i], names[i])))
        for j in range(i + 1, n):
            terms.append(Mul(Const(q[i, j]), Mul(names[i], names[j])))
    tree = terms[0]
    for term in terms[1:]:
        tree = Add(tree, term)
    return tree


def _instance(q, a_eq, b_eq, a_ineq, b_ineq) -> QPInstance:
    program = ConvexProgram(
        n=q.shape[0], objective=quadratic_tree(q), a_eq=a_eq, b_eq=b_eq, a_ineq=a_ineq, b_ineq=b_ineq
    )
    return QPInstance(program, q, a_eq, b_eq.reshape(-1), a_ineq, b_ineq)


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    factor = rng.normal(size=(n, n))
    return factor @ factor.T + np.eye(n)


def boxqp_dense(rng: np.random.Generator, n: int) -> QPInstance:
    """Dense strictly convex box QP; x0 = 0 is the unconstrained minimizer.

    Box centres are drawn around the origin, so some boxes contain 0 and
    their bounds tend to stay inactive while the others exclude it and
    bind at the solution.
    """
    q = _spd(rng, n)
    centre = rng.uniform(-1.5, 1.5, size=n)
    half = rng.uniform(0.5, 1.0, size=n)
    a_ineq, b_ineq = fold_bounds(np.zeros((0, n)), np.zeros(0), centre - half, centre + half)
    return _instance(q, np.zeros((0, n)), np.zeros(0), a_ineq, b_ineq)


def many_rows(rng: np.random.Generator) -> QPInstance:
    """QP with one equality, 100 dense rows and box rows around a strictly feasible point.

    The equality row has the signs of the feasible point, so its right-hand
    side is at least 2 and x0 = 0 violates it; rows whose right-hand side is
    positive are violated at x0 = 0 as well.
    """
    n, rows = MANY_ROWS_N, MANY_ROWS_ROWS
    q = _spd(rng, n)
    inside = rng.choice([-1.0, 1.0], size=n) * rng.uniform(1.0, 1.5, size=n)
    a_rows = rng.normal(size=(rows, n))
    b_rows = a_rows @ inside - rng.uniform(0.1, 1.0, size=rows)
    a_eq = np.sign(inside)[None, :] * rng.uniform(0.5, 1.5, size=(1, n))
    b_eq = a_eq @ inside
    half = rng.uniform(0.5, 1.5, size=n)
    a_ineq, b_ineq = fold_bounds(a_rows, b_rows, inside - half, inside + half)
    return _instance(q, a_eq, b_eq, a_ineq, b_ineq)
