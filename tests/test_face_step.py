"""The face step of ``solve()`` without a start: one equality-constrained
solve on the rows with s < z, accepted as the run's last iterate only when
its stop-test norm is at most a hundredth of epsilon."""

import numpy as np
import pytest

from arcipm import ConvexProgram, Quadratic, SolverStatus, balanced_start, fold_bounds, least_squares_start, solve
from arcipm import solver as solver_module
from arcipm.kkt import face_point, norm
from conftest import perfbench_module, run_recorded
from qp_family import qp_family


def face_steps(run) -> list[int]:
    """The k of each face step: an iterate past the start that no selection produced."""
    return [k for k, selection in enumerate(run.selections) if k and selection is None]


def record_face_points(monkeypatch) -> list:
    """Wrap ``solver.face_point``; each call appends (face rows, returned None)."""
    calls = []

    def recording(program, iterate):
        point = face_point(program, iterate)
        calls.append((np.flatnonzero(iterate.s < iterate.z).tolist(), point is None))
        return point

    monkeypatch.setattr(solver_module, "face_point", recording)
    return calls


@pytest.mark.parametrize("name", ["many_rows", "boxqp_dense"])
def test_each_run_that_ends_on_a_face_step_passes_the_certificate(name, no_start_runs):
    checks = perfbench_module("checks")
    ended = 0
    for instance, run, _ in no_start_runs[name]:
        steps = face_steps(run)
        if not steps:
            continue
        ended += 1
        last = run.iterates[-1]
        assert steps == [len(run.iterates) - 1]
        assert run.report.status is SolverStatus.CONVERGED
        assert checks.kkt_certificate(instance, last.x, last.y, last.z) == []
        assert norm(last.r_c) <= 1e-9
    # measured: 38 of the 40 many_rows draws and 39 of the 40 boxqp_dense draws
    assert ended >= 30


def test_a_hessian_singular_on_the_face_takes_no_face_step(monkeypatch):
    """Family draw 59, translated as in ``tests/test_metamorphic.py``: ½xᵀQx
    with Q of rank 1 over n = 3.  Its face {row 0} and the empty face leave
    Q singular on the face, so every attempt is rejected by its LU pivot."""
    rng = np.random.default_rng(31)
    for draw in qp_family(60):
        shift = 10.0 * rng.normal(size=draw.q.shape[0])
    linear = draw.q @ shift
    program = ConvexProgram(
        n=shift.size,
        objective=Quadratic(0.5 * float(shift @ linear), linear, draw.q),
        a_eq=draw.a_eq,
        b_eq=draw.b_eq - draw.a_eq @ shift,
        a_ineq=draw.a_ineq,
        b_ineq=draw.b_ineq - draw.a_ineq @ shift,
    )
    calls = record_face_points(monkeypatch)
    run = run_recorded(program, None)
    assert run.report.status is SolverStatus.CONVERGED
    assert face_steps(run) == []
    assert calls and all(rejected for _, rejected in calls)
    assert ([0], True) in calls


@pytest.mark.parametrize("name", ["many_rows", "boxqp_dense"])
def test_a_solve_given_the_least_squares_start_never_tries_a_face_step(name, no_start_runs, monkeypatch):
    calls = record_face_points(monkeypatch)
    for instance, _, _ in no_start_runs[name][:10]:
        program = instance.program
        given = run_recorded(program, least_squares_start(program))
        assert given.report.status is SolverStatus.CONVERGED
        assert face_steps(given) == []
    assert calls == []
    # the same draws without a start do take face steps
    assert any(face_steps(run) for _, run, _ in no_start_runs[name][:10])


def test_a_face_solution_that_is_not_finite_is_rejected_without_raising(monkeypatch):
    """min x/100 + 1e-320 x²/2 over -1 <= x <= 1.  On the empty face the
    solve gives x = -1e318, which overflows to -inf: the first attempt is
    rejected, and the next, on the face {x >= -1}, ends the run."""
    a_ineq, b_ineq = fold_bounds(np.zeros((0, 1)), np.zeros(0), [-1.0], [1.0])
    program = ConvexProgram(1, Quadratic(0.0, [0.01], [[1e-320]]), np.zeros((0, 1)), np.zeros(0), a_ineq, b_ineq)
    start = balanced_start(program)
    assert not (start.s < start.z).any()
    # solve() runs the face step under its floating-point policy
    with np.errstate(over="ignore", invalid="ignore"):
        assert face_point(program, start) is None
    calls = record_face_points(monkeypatch)
    report = solve(program)
    assert report.status is SolverStatus.CONVERGED and report.x[0] == pytest.approx(-1.0)
    assert calls == [([], True), ([0], False)]
