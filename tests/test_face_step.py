"""The face step of ``solve()`` without a start: one equality-constrained
solve on the face of the rows with s < z at the end point of the
iteration's arc, trimmed to n - m rows and corrected from each rejected
point's slacks and multipliers, accepted as the run's last iterate only
when its stop-test norm is at most a hundredth of epsilon."""

import numpy as np
import pytest

from arcipm import ConvexProgram, Quadratic, SolverStatus, balanced_start, fold_bounds, least_squares_start, solve
from arcipm import solver as solver_module
from arcipm.kkt import face_point, face_rows, norm, solve_directions
from conftest import newton_directions, perfbench_module, run_recorded, split_at
from qp_family import qp_family


def face_steps(run) -> list[int]:
    """The k of each face step: an iterate past the start that no selection produced."""
    return [k for k, selection in enumerate(run.selections) if k and selection is None]


def record_face_points(monkeypatch) -> list:
    """Wrap ``solver.face_point``; each call appends (face mask, returned None)."""
    calls = []

    def recording(program, face):
        solved = face_point(program, face)
        calls.append((face.copy(), solved is None))
        return solved

    monkeypatch.setattr(solver_module, "face_point", recording)
    return calls


def rows(calls) -> list:
    """Each recorded call as (face rows, returned None)."""
    return [(np.flatnonzero(face).tolist(), rejected) for face, rejected in calls]


@pytest.fixture(scope="module")
def face_calls(no_start_runs):
    """For each generator, the recorded face_point calls of each
    ``no_start_runs`` draw, from solving the draw again."""
    recorded = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, draws in no_start_runs.items():
            recorded[name] = []
            for instance, run, _ in draws:
                calls = record_face_points(mp)
                assert solve(instance.program).iterations == run.report.iterations
                recorded[name].append(calls)
    return recorded


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
    # measured: all 40 draws of each generator
    assert ended >= 30


def test_a_hessian_singular_on_the_face_takes_no_face_step(monkeypatch):
    """Family draw 59, translated as in ``tests/test_metamorphic.py``: ½xᵀQx
    with Q of rank 1 over n = 3 and no equality rows.  On a face of at most
    one row, Q's null space (of dimension 2) meets the face's (of dimension
    at least 2), so the face matrix is singular and every attempt is
    rejected by its LU pivot.  The run tries the empty face only."""
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
    assert np.linalg.matrix_rank(draw.q) == 1 and program.m == 0
    assert calls and all(rejected and np.count_nonzero(face) <= 1 for face, rejected in calls)
    assert rows(calls) == [([], True)]


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
    """min x/10⁴ + 1e-320 x²/2 over -1 <= x <= 1.  Its multiplier at the
    answer, 1e-4, is small enough that the end point of the k = 1 arc still
    has z < s on both rows, so the first face tried is the empty one.
    There the solve gives x = -1e316, which overflows to -inf: the attempt
    is rejected, and the next, on the face {x >= -1}, ends the run."""
    a_ineq, b_ineq = fold_bounds(np.zeros((0, 1)), np.zeros(0), [-1.0], [1.0])
    program = ConvexProgram(1, Quadratic(0.0, [1e-4], [[1e-320]]), np.zeros((0, 1)), np.zeros(0), a_ineq, b_ineq)
    start = balanced_start(program)
    empty = face_rows(program, start.s, start.z)
    assert not empty.any()
    # solve() runs the face step under its floating-point policy
    with np.errstate(over="ignore", invalid="ignore"):
        assert face_point(program, empty) is None
    calls = record_face_points(monkeypatch)
    report = solve(program)
    assert report.status is SolverStatus.CONVERGED and report.x[0] == pytest.approx(-1.0)
    assert rows(calls) == [([], True), ([0], False)]


def test_an_over_determined_face_is_trimmed_to_n_minus_m_rows():
    """n = 3 and one equality row leave room for two face rows.  Of the four
    rows with z > s, the two with the largest z - s stay: rows 1, 3 and 4 tie
    at 5, and the tie goes by row index."""
    a_ineq, b_ineq = fold_bounds(np.zeros((0, 3)), np.zeros(0), np.zeros(3), np.ones(3))
    program = ConvexProgram(3, Quadratic(0.0, np.ones(3), np.eye(3)), np.ones((1, 3)), np.ones(1), a_ineq, b_ineq)
    s = np.ones(6)
    face = face_rows(program, s, np.array([4.0, 6.0, 1.0, 6.0, 6.0, 0.5]))
    assert np.flatnonzero(face).tolist() == [1, 3]
    # a face of n - m rows is kept as it is
    assert np.flatnonzero(face_rows(program, s, np.array([4.0, 6.0, 1.0, 0.5, 0.5, 0.5]))).tolist() == [0, 1]
    # x2 >= 0 and x1 <= 1 held as equalities, with x1 + x2 + x3 = 1
    point, slack, multipliers = face_point(program, face)
    assert point[:3] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert slack[face] == pytest.approx(0.0, abs=1e-12)
    assert (multipliers[~face] == 0.0).all()


@pytest.mark.parametrize("name", ["many_rows", "boxqp_dense"])
def test_each_iteration_solves_its_newton_system_once_and_guesses_the_face_at_its_arcs_end(
    name, no_start_runs, monkeypatch
):
    """A run takes one ``solve_directions`` call per iteration, a face step
    included, and the first face it tries at each k >= 1 is that of the
    (s, z) at the end point v - vdot + q of the iteration's own arc.  At a
    k with no face_point call the memo skipped that face: an earlier k of
    the run factored it."""
    ends, calls = [], []

    def recording_directions(matrix, a_ineq, iterate):
        directions = solve_directions(matrix, a_ineq, iterate)
        ends.append(split_at(iterate, iterate.vec - directions.vdot + directions.q_dir))
        return directions

    def recording_face(program, face):
        # the k of the iteration that tries the face, as the index of its directions
        calls.append((len(ends) - 1, face.copy()))
        return face_point(program, face)

    monkeypatch.setattr(solver_module, "solve_directions", recording_directions)
    monkeypatch.setattr(solver_module, "face_point", recording_face)
    guessed = 0
    for instance, run, _ in no_start_runs[name]:
        ends.clear()
        calls.clear()
        program = instance.program
        report = solve(program)
        assert report.iterations == run.report.iterations == len(ends)
        assert all(k for k, _ in calls)
        for k, (_, _, s, z) in enumerate(ends[1:], 1):
            guess = face_rows(program, s, z)
            tried = [face for at, face in calls if at == k]
            if tried:
                assert (tried[0] == guess).all()
                guessed += 1
            else:
                assert any((face == guess).all() for at, face in calls if at < k)
    # measured: a face is tried at 62 of the 74 many_rows iterations past
    # k = 0, the memo skipping the other 12, and at all 40 boxqp_dense ones
    assert guessed >= len(no_start_runs[name])


@pytest.mark.parametrize("name", ["many_rows", "boxqp_dense"])
def test_no_face_is_factored_twice_in_a_run(name, no_start_runs, face_calls):
    factored = 0
    for (instance, _, _), calls in zip(no_start_runs[name], face_calls[name]):
        masks = [face.tobytes() for face, _ in calls]
        assert len(set(masks)) == len(masks)
        program = instance.program
        assert all(np.count_nonzero(face) <= program.n - program.m for face, _ in calls)
        factored += len(masks)
    # measured: 108 faces in the 40 many_rows runs, where the memo skipped 29
    # more, and 49 in the 40 boxqp_dense runs
    assert factored >= len(face_calls[name])


def test_a_correction_reaches_a_face_the_rule_missed(no_start_runs, face_calls):
    """Rows that the face rule leaves out at the end point of the arc of a
    run's last iteration join the accepted face by a correction, and its
    point passes the certificate."""
    checks = perfbench_module("checks")
    joined = 0
    for (instance, run, _), calls in zip(no_start_runs["many_rows"], face_calls["many_rows"]):
        if not face_steps(run):
            continue
        before, last = run.iterates[-2:]
        # the run's last call is the accepted one
        accepted, rejected = calls[-1]
        assert not rejected
        program = instance.program
        directions = newton_directions(program, before)
        _, _, s, z = split_at(before, before.vec - directions.vdot + directions.q_dir)
        if (accepted & ~face_rows(program, s, z)).any():
            joined += 1
            assert checks.kkt_certificate(instance, last.x, last.y, last.z) == []
    # measured: 7 of the 40 draws
    assert joined >= 5
