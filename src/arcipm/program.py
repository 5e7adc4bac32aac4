"""Linearly constrained convex programs.

A program holds a scalar objective tree together with equality rows
``A_eq x = b_eq`` and inequality rows ``A_ineq x >= b_ineq``; :func:`_rows`
shapes each block into a float matrix.  Box bounds never appear as a
separate concept: :func:`fold_bounds` slices them from one identity matrix
into inequality rows up front, and the solver only ever sees rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .autodiff import compile_objective
from .expr import Expr, variable_indices


def _rows(a, n: int) -> np.ndarray:
    """A row block as a float matrix; an empty block has 0 rows and n columns."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return a if a.size else np.zeros((0, n))


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
        for rows, rhs in (("a_eq", "b_eq"), ("a_ineq", "b_ineq")):
            object.__setattr__(self, rows, _rows(getattr(self, rows), self.n))
            object.__setattr__(self, rhs, np.asarray(getattr(self, rhs), dtype=float).reshape(-1))
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
    rejected, and so is a row block whose column count is not the number
    of bound entries.  Original rows come first, then all lower-bound rows
    in index order, then all upper-bound rows, so the slack layout of a run
    is reproducible.
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
    low, up = np.isfinite(lower), np.isfinite(upper)
    both = low & up
    if np.any(lower[both] >= upper[both]):
        bad = int(np.nonzero(both & (lower >= upper))[0][0])
        raise ValueError(f"lower bound must be below upper bound (variable {bad + 1})")

    rows = _rows(a_ineq, n)
    if rows.shape[1] != n:
        raise ValueError("constraint rows must have one coefficient per variable")
    unit = np.eye(n)
    rows = np.vstack((rows, unit[low], 0.0 - unit[up]))
    return rows, np.concatenate((np.asarray(b_ineq, dtype=float).reshape(-1), lower[low], -upper[up]))
