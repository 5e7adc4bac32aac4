"""A seeded family of feasible, bounded convex QPs: the yardstick of robustness.

Draw k is the k-th call of :func:`qp_draw` on ``default_rng(FAMILY_SEED)``,
so the first N draws are the same whatever N.  Each draw is

    min ½xᵀQx  s.t.  A_E x = b_E,  A_I x >= b_I,

a pure quadratic, so the solver's model residual is the true gradient
residual and ``Converged`` means a KKT point.  Each program is built from
the arrays, its objective the :class:`arcipm.Quadratic` (0, 0, Q), which
is the solver's compiled objective as it is; no expression tree is built.
Q = FFᵀ·10^U(−3, 3), where F has n <= 5 rows and 1 to n columns, so Q
may be singular; there are
m <= 2 equality rows with m < n, up to 5 dense inequality rows each scaled
by 10^U(−3, 3), and a box on every variable, all placed strictly around
one interior point.  The lower side of x₁ is open in 30% of the draws.
The start is x₀ = 3·N(0, 1).  The generator's own Q, A and b come with
each draw, so a certificate can check an answer without the solver's
derivatives.  The test suite imports this module, and so does
``tools/run_digest.py`` for its ``qp_family`` workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from arcipm import ConvexProgram, Quadratic, fold_bounds

FAMILY_SEED = 7
FAMILY_SIZE = 300


@dataclass(frozen=True)
class QPDraw:
    """One program of the family, its generator's arrays and its start."""

    program: ConvexProgram
    q: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ineq: np.ndarray
    b_ineq: np.ndarray
    x0: np.ndarray


def qp_draw(rng: np.random.Generator) -> QPDraw:
    """The next program of the family from ``rng``."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, min(2, n - 1) + 1))
    factor = rng.normal(size=(n, int(rng.integers(1, n + 1))))
    q = factor @ factor.T * 10.0 ** rng.uniform(-3.0, 3.0)
    inside = rng.normal(size=n)

    a_eq = rng.normal(size=(m, n))
    rows = int(rng.integers(0, 6))
    unit_rows = rng.normal(size=(rows, n))
    margin = rng.uniform(0.1, 1.0, size=rows)
    row_scale = 10.0 ** rng.uniform(-3.0, 3.0, size=rows)
    a_rows = unit_rows * row_scale[:, None]
    b_rows = (unit_rows @ inside - margin) * row_scale

    lower = inside - rng.uniform(0.5, 2.0, size=n)
    upper = inside + rng.uniform(0.5, 2.0, size=n)
    if rng.uniform() < 0.3:
        lower[0] = -np.inf
    a_ineq, b_ineq = fold_bounds(a_rows, b_rows, lower, upper)
    x0 = 3.0 * rng.normal(size=n)

    b_eq = a_eq @ inside
    program = ConvexProgram(
        n=n, objective=Quadratic(0.0, np.zeros(n), q), a_eq=a_eq, b_eq=b_eq, a_ineq=a_ineq, b_ineq=b_ineq
    )
    return QPDraw(program, q, a_eq, b_eq, a_ineq, b_ineq, x0)


def qp_family(count: int = FAMILY_SIZE) -> Iterator[QPDraw]:
    """The first ``count`` draws of the family."""
    rng = np.random.default_rng(FAMILY_SEED)
    for _ in range(count):
        yield qp_draw(rng)
