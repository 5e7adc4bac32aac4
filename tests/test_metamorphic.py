"""Metamorphic rows on the QP family: transformed draws whose answer is known.

Each of the family's draws (``tests/qp_family.py``) is mapped through a
transformation whose effect on the answer is known, and solved with no
start, as ``solve(program)`` does.  Permuting the variables or the
inequality rows gives the same program written in another order, and
the solver then takes the same path: each draw keeps its status and its
iteration count.  Multiplying the objective by c > 0 moves no minimizer,
but it moves the runs, and those rows are pinned as today's behaviour.
"""

from collections import Counter

import numpy as np
import pytest

from arcipm import ConvexProgram, solve
from qp_family import qp_family, quadratic_tree

# (statuses, total iterations) of the untransformed draws and of each
# objective scale c
UNTRANSFORMED = ({"Converged": 300}, 1900)
OBJECTIVE_SCALE_ROWS = {
    1e-3: ({"Converged": 300}, 1733),
    1e3: ({"Converged": 298, "SingularKKT": 2}, 2520),
    1e6: ({"Converged": 275, "SingularKKT": 14, "StepFailure": 10, "MaxIter": 1}, 5593),
}
SCALE_EXPECTED_TO_MOVE = (
    "the objective-scale rows are pinned as today's behaviour; item 30 (one scale for the cost, "
    "mapped back at exit) is expected to move them, and the change that does re-records "
    "OBJECTIVE_SCALE_ROWS"
)


def transformed(draw, q, a_eq, a_ineq, b_ineq) -> ConvexProgram:
    """The draw's program with the objective ½xᵀqx and the given rows; b_E is the draw's."""
    return ConvexProgram(
        n=q.shape[0], objective=quadratic_tree(q), a_eq=a_eq, b_eq=draw.b_eq, a_ineq=a_ineq, b_ineq=b_ineq
    )


def outcomes(programs) -> list:
    """(status, iterations) of ``solve(program)`` for each program, in order."""
    runs = []
    for program in programs:
        # the scaled draws overflow in numpy while a Newton matrix is built
        with np.errstate(all="ignore"):
            report = solve(program)
        runs.append((report.status.value, report.iterations))
    return runs


def totals(runs):
    return dict(Counter(status for status, _ in runs)), sum(iterations for _, iterations in runs)


@pytest.fixture(scope="module")
def draws():
    return list(qp_family())


@pytest.fixture(scope="module")
def untransformed(draws):
    return outcomes(draw.program for draw in draws)


def test_the_untransformed_draws_are_pinned(untransformed):
    assert totals(untransformed) == UNTRANSFORMED


def test_permuting_the_variables_keeps_every_status_and_iteration_count(draws, untransformed):
    rng = np.random.default_rng(31)
    programs = []
    for draw in draws:
        order = rng.permutation(draw.q.shape[0])
        q = draw.q[np.ix_(order, order)]
        programs.append(transformed(draw, q, draw.a_eq[:, order], draw.a_ineq[:, order], draw.b_ineq))
    assert outcomes(programs) == untransformed


def test_permuting_the_inequality_rows_keeps_every_status_and_iteration_count(draws, untransformed):
    rng = np.random.default_rng(31)
    programs = []
    for draw in draws:
        order = rng.permutation(draw.b_ineq.size)
        programs.append(transformed(draw, draw.q, draw.a_eq, draw.a_ineq[order], draw.b_ineq[order]))
    assert outcomes(programs) == untransformed


@pytest.mark.parametrize("scale", list(OBJECTIVE_SCALE_ROWS), ids=lambda scale: f"c={scale:g}")
def test_objective_scale_rows_are_pinned(draws, scale):
    programs = [transformed(draw, scale * draw.q, draw.a_eq, draw.a_ineq, draw.b_ineq) for draw in draws]
    assert totals(outcomes(programs)) == OBJECTIVE_SCALE_ROWS[scale], SCALE_EXPECTED_TO_MOVE
