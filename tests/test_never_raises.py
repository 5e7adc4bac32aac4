"""``solve()`` returns a report on in-domain programs: a property test (ROADMAP item 34).

Each case is a draw of the QP family (``tests/qp_family.py``) under some
of the transformations of ``tests/test_metamorphic.py`` and item 34's
scan, all of which leave the program convex, feasible and bounded: the
objective times 10^e, each inequality row times 10^U(-k, k), each
variable's column times 10^U(-k, k) (x = D x', so x' starts at D^-1 x0),
the lower side of each variable opened with probability 1/2, one
inequality row written twice and a zero row with right-hand side -1.
Each program is built from arrays, its objective an
:class:`arcipm.Quadratic`.  Each is solved with no start, from
``default_start`` and from ``balanced_start`` at the draw's x0, under the
suite's warning filters, which turn numpy's overflow, divide and
invalid-value warnings into errors.  Only that a :class:`SolverReport`
comes back is asserted: the statuses are what items 8, 26 and 30 move.
One run that ends in a status but stalls on the way is pinned apart.
"""

import functools
from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcipm import ConvexProgram, Quadratic, SolverReport, balanced_start, default_start, solve
from arcipm.cli import parse_problem_text
from qp_family import FAMILY_SIZE, qp_family


class Case(NamedTuple):
    """A family draw and its transformations; k = 0 leaves rows or columns as drawn."""

    index: int
    objective: float  # the objective is multiplied by 10**objective
    rows: int  # k of the rows' 10^U(-k, k)
    columns: int  # k of the columns' 10^U(-k, k)
    seed: int  # of the row and column scales
    duplicate: int | None  # the inequality row written twice, modulo the row count
    zero_row: bool
    open_lower: bool = False  # each variable's lower-bound row is dropped with probability 1/2


CASES = st.builds(
    Case,
    index=st.integers(0, FAMILY_SIZE - 1),
    objective=st.floats(-9.0, 9.0),
    rows=st.sampled_from([0, 8]),
    columns=st.sampled_from([0, 2, 4, 8]),
    seed=st.integers(0, 2**32 - 1),
    duplicate=st.none() | st.integers(0, 9),
    zero_row=st.booleans(),
    open_lower=st.booleans(),
)

# The third example below, solved with no start: it ends in a status, but
# the stop test stalls just above its tolerance for most of the run.
STALLED = Case(227, objective=8.058206094856441, rows=8, columns=2, seed=342559812, duplicate=None, zero_row=True)


@functools.cache
def family():
    return list(qp_family())


def build(case: Case | str):
    """(program, x0) of a case, or of a problem file's text."""
    if isinstance(case, str):
        return parse_problem_text(case)
    draw = family()[case.index]
    rng = np.random.default_rng(case.seed)
    rows = 10.0 ** rng.uniform(-case.rows, case.rows, size=draw.b_ineq.size)
    columns = 10.0 ** rng.uniform(-case.columns, case.columns, size=draw.x0.size)
    a_ineq, b_ineq = draw.a_ineq * rows[:, None] * columns, draw.b_ineq * rows
    if case.open_lower:
        # fold_bounds writes a lower bound as the row e_i; no drawn dense
        # row, normal entries times a scale, is one
        lower = (np.count_nonzero(draw.a_ineq, axis=1) == 1) & (draw.a_ineq.max(axis=1) == 1.0)
        keep = ~lower | (rng.uniform(size=lower.size) < 0.5)
        a_ineq, b_ineq = a_ineq[keep], b_ineq[keep]
    if case.duplicate is not None:
        row = case.duplicate % b_ineq.size
        a_ineq, b_ineq = np.vstack((a_ineq, a_ineq[row])), np.append(b_ineq, b_ineq[row])
    if case.zero_row:
        a_ineq, b_ineq = np.vstack((a_ineq, np.zeros(columns.size))), np.append(b_ineq, -1.0)
    q = 10.0**case.objective * columns[:, None] * draw.q * columns
    # rounding leaves q_ij and q_ji apart; a Quadratic takes only an exactly
    # symmetric matrix, so the upper triangle is mirrored
    q = np.triu(q) + np.triu(q, 1).T
    program = ConvexProgram(
        n=columns.size,
        objective=Quadratic(0.0, np.zeros(columns.size), q),
        a_eq=draw.a_eq * columns,
        b_eq=draw.b_eq,
        a_ineq=a_ineq,
        b_ineq=b_ineq,
    )
    return program, draw.x0 / columns


@settings(max_examples=40, derandomize=True, deadline=None)
@given(CASES)
# numpy's "overflow encountered in divide" escaped the Newton matrix's z/s here
@example(Case(145, objective=3.0, rows=0, columns=0, seed=0, duplicate=None, zero_row=False))
# the 1e200 row of test_solver.py's COLD_START_FAILURES: "overflow encountered in
# dot" escaped the first trace row's norm of r_C
@example("vars x1 x2\nmin x1^2 + x2^2\nineq 1e200 1 >= -1\nbound x1 -1 1\n")
# the duality measure underflowed to 0 at an accepted step, and the trace row's
# min(s z)/mu raised ZeroDivisionError
@example(STALLED)
def test_solve_returns_a_report_on_in_domain_programs(case):
    program, x0 = build(case)
    for start in (None, default_start(program, x0), balanced_start(program, x0)):
        assert isinstance(solve(program, start=start), SolverReport)


def test_stalled_run_is_pinned():
    """‖r_C‖ is 1.42e-6 from k = 5 on, above the stop test's ε = 1e-6, and
    from k = 7 takes one of two neighbouring values, while μ falls by about
    1e-4 a step to the smallest subnormal; the run ends ``StepFailure`` at
    k = 84."""
    report = solve(build(STALLED)[0])
    norms = [row.norm_rc for row in report.trace]
    pinned = (report.status.value, report.iterations, {f"{norm:.3g}" for norm in norms[5:]}, len(set(norms[7:])))
    assert pinned == ("StepFailure", 84, {"1.42e-06"}, 2), (
        "pinned as today's behaviour: the residual left is roundoff of a gradient scaled by 1e8, "
        "which an absolute tolerance cannot pass; item 30 (one scale for the cost, mapped back at "
        "exit) is expected to end the run early, and the change that does re-records this pin"
    )
    assert report.trace[-1].mu == 5e-324
