"""The seeded convex QP family of ``tests/qp_family.py``: no draw raises,
the status counts are pinned, and every converged answer is certified."""

import math

import numpy as np
import pytest

from arcipm import SolverConfig, balanced_start, default_start
from conftest import newton_directions, predictor_of, run_recorded
from oracles import qp_certificate
from qp_family import FAMILY_SIZE, qp_family

# Status and iteration count of every draw that does not converge.  All four
# carry an inequality row scaled by about 1e2, and each run stalls with
# min(s*z)/mu on its floor.
NOT_CONVERGED = {
    88: ("MaxIter", 500),
    126: ("MaxIter", 500),
    150: ("MaxIter", 500),
    272: ("StepFailure", 80),
}
EXPECTED_TO_MOVE = (
    "the family's non-converged draws are pinned as today's behaviour; items 8 (scale-invariant "
    "inequality rows) and 12 (one search over sigma and alpha) are expected to move them, and "
    "the change that does re-records NOT_CONVERGED"
)

# The draws that do not converge from balanced_start(draw.program, draw.x0):
# all have n = 1 and an interior minimum, and each run ends in a loop of
# steps at sigma = 127/128 and alpha = pi/2, where mu falls by 1/128 per
# iteration.  The mixed tangent/centering product there is positive, so the
# least-centering sequence is skipped, yet far below p*mu; no component
# limit shrinks with sigma, so the bisection takes its top.
BALANCED_START_LOOPS = {
    58: ("MaxIter", 500),
    110: ("MaxIter", 500),
    257: ("MaxIter", 500),
}
LOOPS_EXPECTED_TO_MOVE = (
    "the balanced start's loops are pinned as today's behaviour; item 12 (one search over sigma "
    "and alpha that minimizes the duality measure) is expected to move them, and the change "
    "that does re-records BALANCED_START_LOOPS"
)


@pytest.fixture(scope="module")
def family_runs():
    """(index, draw, report or the exception raised, last iterate) for every draw."""
    runs = []
    for index, draw in enumerate(qp_family()):
        try:
            run = run_recorded(draw.program, default_start(draw.program, draw.x0), SolverConfig())
        except Exception as err:  # any exception is a finding: see test_no_draw_raises
            runs.append((index, draw, err, None))
            continue
        runs.append((index, draw, run.report, run.iterates[-1]))
    return runs


def test_first_draws_do_not_depend_on_the_family_size():
    short, long = list(qp_family(3)), list(qp_family(5))[:3]
    for a, b in zip(short, long):
        assert np.array_equal(a.q, b.q) and np.array_equal(a.a_ineq, b.a_ineq)
        assert np.array_equal(a.b_ineq, b.b_ineq) and np.array_equal(a.x0, b.x0)


def test_no_draw_raises(family_runs):
    assert len(family_runs) == FAMILY_SIZE
    raised = {index: repr(report) for index, _, report, _ in family_runs if isinstance(report, Exception)}
    assert raised == {}


def test_family_status_counts_are_pinned(family_runs):
    stopped = {
        index: (report.status.value, report.iterations)
        for index, _, report, _ in family_runs
        if report.status.value != "Converged"
    }
    assert stopped == NOT_CONVERGED, EXPECTED_TO_MOVE


def test_converged_draws_pass_the_kkt_certificate(family_runs):
    failures = {
        index: problems
        for index, draw, report, last in family_runs
        if report.status.value == "Converged"
        and (problems := qp_certificate(draw, last.x, last.y, last.z))
    }
    assert failures == {}


def test_certificate_rejects_a_tampered_answer(family_runs):
    draw, last = next(
        (draw, last) for _, draw, report, last in family_runs
        if report.status.value == "Converged" and last.z.max() > 1.0
    )
    assert qp_certificate(draw, last.x, last.y, last.z) == []
    assert any("negative multiplier" in problem for problem in qp_certificate(draw, last.x, last.y, -last.z))
    outside = last.x + 10.0 * (1.0 + np.abs(last.x))
    assert any("inequality violation" in problem for problem in qp_certificate(draw, outside, last.y, last.z))


def test_balanced_start_loops_are_pinned():
    stopped = {}
    for index, draw in enumerate(qp_family()):
        run = run_recorded(draw.program, balanced_start(draw.program, draw.x0), SolverConfig())
        report = run.report
        if report.status.value == "Converged":
            continue
        stopped[index] = (report.status.value, report.iterations)
        assert draw.program.n == 1, index
        assert all(
            (row.sigma, row.alpha) == (127 / 128, math.pi / 2) for row in report.trace[-100:]
        ), index
        last, program = run.iterates[-1], draw.program
        predictor = predictor_of(last, newton_directions(program, last))
        assert 0.0 < predictor.mixed < 1e-3 * predictor.p_mu, index
    assert stopped == BALANCED_START_LOOPS, LOOPS_EXPECTED_TO_MOVE


def test_every_draw_converges_and_certifies_without_a_start():
    """``solve(draw.program)``: the least-squares start and the Mehrotra-bounded
    rule, which ends the balanced start's sigma = 127/128 loops too."""
    failures = {}
    for index, draw in enumerate(qp_family()):
        run = run_recorded(draw.program, None)
        last = run.iterates[-1]
        problems = qp_certificate(draw, last.x, last.y, last.z)
        if run.report.status.value != "Converged":
            problems.append(f"status {run.report.status.value} at k = {run.report.iterations}")
        if problems:
            failures[index] = problems
    assert failures == {}
