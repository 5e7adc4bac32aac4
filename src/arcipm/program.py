"""Linearly constrained convex programs.

A program holds a scalar objective tree together with equality rows
``A_eq x = b_eq`` and inequality rows ``A_ineq x >= b_ineq``.  Box bounds
never appear as a separate concept: :func:`fold_bounds` turns them into
inequality rows up front, and the solver only ever sees rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .autodiff import compile_objective
from .expr import Expr, variable_indices


@dataclass(frozen=True)
class ConvexProgram:
    """min f(x) subject to A_eq x = b_eq and A_ineq x >= b_ineq."""

    n: int
    objective: Expr
    a_eq: np.ndarray = field(repr=False)
    b_eq: np.ndarray = field(repr=False)
    a_ineq: np.ndarray = field(repr=False)
    b_ineq: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "a_eq", np.atleast_2d(np.asarray(self.a_eq, dtype=float)))
        object.__setattr__(self, "b_eq", np.asarray(self.b_eq, dtype=float).reshape(-1))
        object.__setattr__(self, "a_ineq", np.atleast_2d(np.asarray(self.a_ineq, dtype=float)))
        object.__setattr__(self, "b_ineq", np.asarray(self.b_ineq, dtype=float).reshape(-1))
        if self.a_eq.size == 0:
            object.__setattr__(self, "a_eq", np.zeros((0, self.n)))
        if self.a_ineq.size == 0:
            object.__setattr__(self, "a_ineq", np.zeros((0, self.n)))
        self._validate()

    def _validate(self):
        n = self.n
        if n < 1:
            raise ValueError("at least one variable is required")
        if self.a_eq.shape[1] != n or self.a_ineq.shape[1] != n:
            raise ValueError("constraint rows must have one coefficient per variable")
        m, p = self.m, self.p
        if self.b_eq.shape != (m,) or self.b_ineq.shape != (p,):
            raise ValueError("right-hand side length does not match its constraint matrix")
        for name in ("a_eq", "b_eq", "a_ineq", "b_ineq"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has an entry that is not finite")
        indices = variable_indices(self.objective)
        if indices and (min(indices) < 0 or max(indices) >= n):
            raise ValueError("objective references a variable outside the declared list")
        if m > 0:
            if m >= n:
                raise ValueError(f"need fewer equality rows than variables (m={m}, n={n})")
            if np.linalg.matrix_rank(self.a_eq) < m:
                raise ValueError("equality rows are linearly dependent")
        if p < 1:
            raise ValueError("at least one inequality row is required (add bounds if needed)")

    @cached_property
    def compiled_objective(self):
        """``objective`` folded into one node if its degree is <= 2, built on first use.

        The solver differentiates this tree; ``objective`` stays the parsed
        tree, which the test oracles differentiate independently.
        """
        return compile_objective(self.objective, self.n)

    @property
    def m(self) -> int:
        return self.a_eq.shape[0]

    @property
    def p(self) -> int:
        return self.a_ineq.shape[0]


def fold_bounds(a_ineq, b_ineq, lower, upper):
    """Append box bounds to an inequality block as rows.

    Finite lower bounds contribute rows ``e_i^T x >= lo_i`` and finite upper
    bounds contribute ``-e_i^T x >= -up_i``; a lower -inf or an upper inf
    leaves its side open, and a NaN bound, a lower inf or an upper -inf is
    rejected.  Original rows come first, then all lower-bound rows in index
    order, then all upper-bound rows, so the slack layout of a run is
    reproducible.
    """
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    n = lower.size
    if upper.size != n:
        raise ValueError("lower and upper bound vectors differ in length")
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("a bound is NaN; an open side is -inf or inf")
    if (lower == np.inf).any() or (upper == -np.inf).any():
        raise ValueError("a lower bound of inf or an upper bound of -inf admits no point")
    both = np.isfinite(lower) & np.isfinite(upper)
    if np.any(lower[both] >= upper[both]):
        bad = int(np.nonzero(both & (lower >= upper))[0][0])
        raise ValueError(f"lower bound must be below upper bound (variable {bad + 1})")

    a_ineq = np.asarray(a_ineq, dtype=float)
    if a_ineq.size == 0:
        a_ineq = np.zeros((0, n))
    a_ineq = np.atleast_2d(a_ineq)
    b_ineq = np.asarray(b_ineq, dtype=float).reshape(-1)

    rows = [a_ineq]
    rhs = [b_ineq]
    for i in np.nonzero(np.isfinite(lower))[0]:
        row = np.zeros(n)
        row[i] = 1.0
        rows.append(row[None, :])
        rhs.append(np.array([lower[i]]))
    for i in np.nonzero(np.isfinite(upper))[0]:
        row = np.zeros(n)
        row[i] = -1.0
        rows.append(row[None, :])
        rhs.append(np.array([-upper[i]]))
    return np.vstack(rows), np.concatenate(rhs)
