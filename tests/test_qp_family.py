"""The seeded convex QP family of ``tests/qp_family.py``: no draw raises,
the status counts are pinned, and every converged answer is certified."""

import numpy as np
import pytest

from arcipm import SolverConfig, default_start
from conftest import run_recorded, warnings_ignored
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
    "inequality rows), 11 (a start scaled to the residual) and 12 (one search over sigma and "
    "alpha) are expected to move them, and the change that does re-records NOT_CONVERGED"
)


@pytest.fixture(scope="module")
def family_runs():
    """(index, draw, report or the exception raised, last iterate) for every draw."""
    runs = []
    for index, draw in enumerate(qp_family()):
        with warnings_ignored():
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
