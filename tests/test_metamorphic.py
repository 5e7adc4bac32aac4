"""Metamorphic rows on the QP family: transformed draws whose answer is known.

Each of the family's draws (``tests/qp_family.py``) is mapped through a
transformation whose effect on the answer is known, and solved with no
start, as ``solve(program)`` does.  Permuting the variables or the
inequality rows gives the same program written in another order, and
the solver then takes the same path: each draw keeps its status and its
iteration count.  So does translating the variables, x = x′ + t, which
gives the objective a linear and a constant term and shifts the
right-hand sides; a converged x′ + t lies within 1e-4 of the draw's own
answer.  Multiplying the objective by c > 0, scaling the variables'
columns, x = D x′, or writing one inequality row twice moves no
minimizer, but it moves the runs, and those rows are pinned as today's
behaviour.  Every program is built from arrays, its objective an
:class:`arcipm.Quadratic`, so a transformation maps Q, g and c directly.
"""

from collections import Counter

import numpy as np
import pytest

from arcipm import ConvexProgram, Quadratic, solve
from qp_family import qp_family

# (statuses, total iterations) of the untransformed draws and of each
# objective scale c
UNTRANSFORMED = ({"Converged": 300}, 845)
OBJECTIVE_SCALE_ROWS = {
    1e-3: ({"Converged": 300}, 912),
    1e3: ({"Converged": 299, "SingularKKT": 1}, 1312),
    1e6: ({"Converged": 275, "SingularKKT": 14, "StepFailure": 10, "MaxIter": 1}, 4777),
}
# (statuses, total iterations) with each variable's column scaled by
# 10^U(-k, k), for each k; draw i's scales come from default_rng(1000 + i)
COLUMN_SCALE_ROWS = {
    2: ({"Converged": 300}, 902),
    4: ({"Converged": 300}, 954),
}
# (statuses, total iterations) with one inequality row, drawn per draw, written twice
DUPLICATED_ROW = ({"Converged": 300}, 927)
SCALE_EXPECTED_TO_MOVE = (
    "the objective-scale rows are pinned as today's behaviour; item 30 (one scale for the cost, "
    "mapped back at exit) is expected to move them, and the change that does re-records "
    "OBJECTIVE_SCALE_ROWS"
)
COLUMNS_EXPECTED_TO_MOVE = (
    "the column-scale rows are pinned as today's behaviour; item 30 (one scale per column, "
    "mapped back at exit) is expected to move them, and the change that does re-records "
    "COLUMN_SCALE_ROWS"
)


def transformed(draw, q, a_eq, a_ineq, b_ineq) -> ConvexProgram:
    """The draw's program with the objective ½xᵀqx and the given rows; b_E is the draw's."""
    n = q.shape[0]
    return ConvexProgram(
        n=n, objective=Quadratic(0.0, np.zeros(n), q), a_eq=a_eq, b_eq=draw.b_eq, a_ineq=a_ineq, b_ineq=b_ineq
    )


def outcomes(programs) -> list:
    """(status, iterations) of ``solve(program)`` for each program, in order."""
    return [outcome(solve(program)) for program in programs]


def outcome(report):
    return report.status.value, report.iterations


def totals(runs):
    return dict(Counter(status for status, _ in runs)), sum(iterations for _, iterations in runs)


@pytest.fixture(scope="module")
def draws():
    return list(qp_family())


@pytest.fixture(scope="module")
def untransformed_reports(draws):
    return [solve(draw.program) for draw in draws]


@pytest.fixture(scope="module")
def untransformed(untransformed_reports):
    return [outcome(report) for report in untransformed_reports]


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


@pytest.mark.parametrize("k", list(COLUMN_SCALE_ROWS), ids=lambda k: f"k={k}")
def test_column_scale_rows_are_pinned_and_keep_every_converged_objective(draws, untransformed_reports, k):
    """x = D x′ with D = 10^U(−k, k): ½x′ᵀ(DQD)x′ over the rows A D has the draw's minimum.

    DQD is formed as (d dᵀ) ∘ Q, exactly symmetric.  The objective is
    compared relative to max(1, |f|): the stop test is absolute, and on
    some draws the minimum is 0.
    """
    programs = []
    for i, draw in enumerate(draws):
        d = 10.0 ** np.random.default_rng(1000 + i).uniform(-k, k, size=draw.q.shape[0])
        programs.append(transformed(draw, np.outer(d, d) * draw.q, draw.a_eq * d, draw.a_ineq * d, draw.b_ineq))
    reports = [solve(program) for program in programs]
    assert totals([outcome(report) for report in reports]) == COLUMN_SCALE_ROWS[k], COLUMNS_EXPECTED_TO_MOVE
    for report, original in zip(reports, untransformed_reports):
        if report.status.value == "Converged":
            assert report.objective == pytest.approx(original.objective, rel=1e-5, abs=1e-5)


def test_translating_the_variables_keeps_every_status_iteration_count_and_answer(
    draws, untransformed_reports, untransformed
):
    """½(x′+t)ᵀQ(x′+t) = ½x′ᵀQx′ + (Qt)ᵀx′ + ½tᵀQt over the shifted rows."""
    rng = np.random.default_rng(31)
    shifts, programs = [], []
    for draw in draws:
        shift = 10.0 * rng.normal(size=draw.q.shape[0])
        linear = draw.q @ shift
        shifts.append(shift)
        programs.append(
            ConvexProgram(
                n=shift.size,
                objective=Quadratic(0.5 * float(shift @ linear), linear, draw.q),
                a_eq=draw.a_eq,
                b_eq=draw.b_eq - draw.a_eq @ shift,
                a_ineq=draw.a_ineq,
                b_ineq=draw.b_ineq - draw.a_ineq @ shift,
            )
        )
    reports = [solve(program) for program in programs]
    assert [outcome(report) for report in reports] == untransformed
    for report, shift, original in zip(reports, shifts, untransformed_reports):
        if report.status.value == "Converged":
            np.testing.assert_allclose(report.x + shift, original.x, atol=1e-4, rtol=0.0)


def test_duplicating_an_inequality_row_is_pinned(draws):
    rng = np.random.default_rng(31)
    programs = []
    for draw in draws:
        rows = np.append(np.arange(draw.b_ineq.size), rng.integers(draw.b_ineq.size))
        programs.append(transformed(draw, draw.q, draw.a_eq, draw.a_ineq[rows], draw.b_ineq[rows]))
    assert totals(outcomes(programs)) == DUPLICATED_ROW, (
        "pinned as today's behaviour: the duplicated row doubles that row's weight in the "
        "Newton matrix and in the least-squares start, so the path moves"
    )
