"""Residuals, the Newton matrix, and the three direction solves."""

import contextlib
import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf

from arcipm import ConvexProgram, SingularKKTError, SolverStatus, default_start, solve
from arcipm import kkt
from arcipm.autodiff import Quadratic
from arcipm.kkt import (
    Blocks,
    Iterate,
    NewtonDirections,
    assemble_newton_matrix,
    duality_measure,
    kkt_norm,
    solve_directions,
    stationarity,
    true_stationarity_norm,
)
from arcipm.step import RESIDUAL_FLOOR, arc_point
from conftest import (
    load_problem,
    many_rows_program,
    newton_directions,
    quadratic_tree,
    random_box_qp,
    run_recorded,
    split_at,
    synthetic_step_pair,
)
from oracles import full_newton_matrix, padded_newton_matrix, padded_stationarity
from oracles import textbook_back_substitution, textbook_directions


def test_residuals_at_zero_point():
    program = many_rows_program(np.random.default_rng(0))
    n, m, p = program.n, program.m, program.p
    assert m == 1
    np.testing.assert_array_equal(stationarity(program, np.zeros(n), np.zeros(m), np.zeros(p)), np.zeros(n))
    # unit slacks and duals: the nearest point Iterate.at accepts
    it = Iterate.at(program, np.concatenate((np.zeros(n + m), np.ones(2 * p))), 1.0)
    np.testing.assert_array_equal(it.r_e, -program.b_eq)
    np.testing.assert_array_equal(it.r_i, -1.0 - program.b_ineq)


def test_residuals_vanish_on_matched_slack():
    program, _ = load_problem("ex1")
    x = np.array([4.0, 4.0])
    s = program.a_ineq @ x - program.b_ineq
    it = Iterate.at(program, np.concatenate((x, s, np.ones(5))), 1.0)
    np.testing.assert_allclose(it.r_i, np.zeros(5), atol=1e-14)


def test_reference_start_residuals_are_finite_and_nonzero():
    program, start = load_problem("ex1")
    it = default_start(program, start)
    # independent arithmetic on the same quantities
    np.testing.assert_allclose(
        it.r_c, it.hess @ it.x - program.a_ineq.T @ it.z, atol=1e-12
    )
    np.testing.assert_allclose(
        it.r_i, program.a_ineq @ it.x - it.s - program.b_ineq, atol=1e-12
    )
    assert np.linalg.norm(it.r_c) > 1.0
    assert np.linalg.norm(it.r_i) > 1.0
    assert math.isfinite(kkt_norm(it))


def test_duality_measure():
    assert duality_measure(np.full(5, 0.01), np.full(5, 100.0)) == pytest.approx(1.0)
    assert duality_measure(np.ones(3), np.zeros(3)) == 0.0


def test_norms_equal_numpy_norm_bitwise(fixture_runs):
    for name, (program, run) in fixture_runs.items():
        for it, row in zip(run.iterates, run.report.trace, strict=True):
            blocks = (it.r_c, it.r_e, it.r_i)
            want = tuple(np.linalg.norm(vec) for vec in blocks)
            assert tuple(kkt.norm(vec) for vec in blocks) == want, name
            assert (row.norm_rc, row.norm_re, row.norm_ri) == want, name
            want = np.linalg.norm(np.concatenate((it.r_c, it.r_e, it.r_i, it.s * it.z)))
            assert kkt_norm(it) == row.kkt_norm == want, name
            want = np.linalg.norm(it.grad + program.a_eq.T @ it.y - program.a_ineq.T @ it.z)
            assert true_stationarity_norm(program, it) == row.true_stat_norm == want, name
        x = run.report.x
        assert run.report.infe == np.linalg.norm(program.a_eq @ x - program.b_eq), name


def _assert_views_in_order(blocks, flat):
    """Each block is the next stretch of ``flat``, in (x, y, s, z) order."""
    assert flat.flags.c_contiguous
    start = flat.__array_interface__["data"][0]
    offset = 0
    for block in blocks:
        # an empty slice has no data of its own to place
        if block.size:
            assert np.shares_memory(block, flat)
            assert block.__array_interface__["data"][0] == start + offset * flat.itemsize
        offset += block.size
    assert offset == flat.size


def _iterate_blocks(it):
    return Blocks(it.x, it.y, it.s, it.z)


def test_blocks_are_views_into_one_flat_vector():
    program = many_rows_program(np.random.default_rng(3))
    it = default_start(program)
    assert min(block.size for block in _iterate_blocks(it)) > 0
    _assert_views_in_order(_iterate_blocks(it), it.vec)
    dirs = newton_directions(program, it)
    # each direction is one flat vector in the iterate's layout, nothing more
    assert type(dirs) is NewtonDirections
    assert NewtonDirections._fields == ("vdot", "p_dir", "q_dir")
    for flat in dirs:
        assert flat.shape == it.vec.shape == (221,)
        assert flat.dtype == np.float64 and flat.flags.c_contiguous
    point = arc_point(it, dirs, 0.3, 0.2)
    assert point.shape == (program.n + program.m + 2 * program.p,) == (221,)
    # a hand-built iterate takes the same layout
    it, dirs = synthetic_step_pair(np.random.default_rng(4))
    _assert_views_in_order(_iterate_blocks(it), it.vec)
    it.s[0] = 7.0
    assert it.vec[it.x.size + it.y.size] == 7.0 and it.z[0] != 7.0
    assert all(flat.shape == it.vec.shape for flat in dirs)


def _stop_test_vector(monkeypatch, it):
    """The vector whose norm :func:`kkt_norm` returns."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(kkt, "norm", lambda vec: seen.append(vec) or 0.0)
        kkt_norm(it)
    (vec,) = seen
    return vec


def test_complementarity_product_is_formed_once_per_iterate(fixture_runs, monkeypatch):
    it, _ = synthetic_step_pair(np.random.default_rng(5))
    assert it.zs.tobytes() == (it.z * it.s).tobytes()
    for program, recorded in fixture_runs.values():
        for it in recorded.iterates:
            assert it.zs.tobytes() == (it.s * it.z).tobytes()
            # the stop test reads every block, the products last
            stacked = np.concatenate((it.r_c, it.r_e, it.r_i, it.s * it.z))
            assert _stop_test_vector(monkeypatch, it).tobytes() == stacked.tobytes()
    # zs is derived, not passed: it is recomputed for a replaced point
    moved = dataclasses.replace(it, vec=it.vec * 2.0)
    assert moved.zs.tobytes() == (moved.z * moved.s).tobytes()
    with pytest.raises(TypeError):
        Iterate(it.vec, it.hess, it.grad, it.r_c, it.r_e, it.r_i, it.mu, it.nu, zs=it.zs)


def test_assemble_hand_block_matrix():
    matrix = full_newton_matrix(
        np.array([[2.0]]), np.zeros((0, 1)), np.array([[1.0]]), np.array([1.0]), np.array([3.0])
    )
    np.testing.assert_array_equal(
        matrix,
        [
            [2.0, 0.0, -1.0],
            [1.0, -1.0, 0.0],
            [0.0, 3.0, 1.0],
        ],
    )


def test_assemble_identity_products_row():
    p = 3
    matrix = full_newton_matrix(
        np.zeros((2, 2)), np.zeros((0, 2)), np.zeros((p, 2)), np.ones(p), np.ones(p)
    )
    bottom = matrix[2 + p :, :]
    np.testing.assert_array_equal(bottom[:, 2 : 2 + p], np.eye(p))
    np.testing.assert_array_equal(bottom[:, 2 + p :], np.eye(p))


def test_assemble_dimension_for_three_variable_reference():
    program, _ = load_problem("ex8")
    matrix = full_newton_matrix(
        np.eye(3), program.a_eq, program.a_ineq, np.ones(8), np.ones(8)
    )
    assert matrix.shape == (19, 19)


def _assert_reduced_matches_full(program, it):
    """Each reduced direction against a dense solve of the full matrix.

    The curvature right-hand side -2 zdot*sdot is taken from the reduced
    tangent for both, so each pair solves the same system.  The full solve
    gets one refinement step, since the unreduced matrix is badly row-scaled
    at cold starts (z = 100 next to s = 0.01).  Blocks s and z are
    compared as relative changes ds/s, dz/z: where s is tiny,
    dz = (r_z - z*ds)/s carries an absolute error of about eps*|z*ds|/s
    whose size relative to z is still roundoff.
    """
    n, m, p = program.n, program.m, it.p
    dirs = newton_directions(program, it)
    matrix = full_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    scale = np.concatenate([np.ones(n + m), it.s, it.z])
    tangent = np.concatenate([it.r_c, it.r_e, it.r_i, it.z * it.s])
    centering, curvature = np.zeros_like(tangent), np.zeros_like(tangent)
    centering[-p:] = it.mu
    vdot = split_at(it, dirs.vdot)
    curvature[-p:] = -2.0 * vdot.z * vdot.s
    for flat, rhs in ((dirs.vdot, tangent), (dirs.p_dir, centering), (dirs.q_dir, curvature)):
        full = np.linalg.solve(matrix, rhs)
        full = (full + np.linalg.solve(matrix, rhs - matrix @ full)) / scale
        reduced = flat / scale
        assert np.linalg.norm(reduced - full) <= 1e-10 * np.linalg.norm(full)


def test_reduced_directions_match_full_lu_along_reference_runs(fixture_runs):
    for program, run in fixture_runs.values():
        for it in run.iterates[:-1:5]:
            _assert_reduced_matches_full(program, it)


def test_reduced_directions_match_full_lu_with_equalities():
    rng = np.random.default_rng(11)
    programs = [random_box_qp(rng, max_n=6, with_eq=True) for _ in range(4)]
    many_rows = many_rows_program(rng)
    assert (many_rows.n, many_rows.m, many_rows.p) == (4, 1, 108)
    for program in programs + [many_rows]:
        run = run_recorded(program, default_start(program))
        assert run.report.status is SolverStatus.CONVERGED
        for it in run.iterates[:-1:5]:
            _assert_reduced_matches_full(program, it)


def test_cross_products_nonnegative_on_random_qp():
    rng = np.random.default_rng(7)
    for _ in range(5):
        program = random_box_qp(rng, max_n=5)
        it = default_start(program)
        dirs = newton_directions(program, it)
        p_dir, q_dir = split_at(it, dirs.p_dir), split_at(it, dirs.q_dir)
        assert float(p_dir.s @ p_dir.z) >= -1e-10
        assert float(q_dir.s @ q_dir.z) >= -1e-10
        curvature = split_at(it, dirs.p_dir * rng.uniform() + dirs.q_dir)
        assert float(curvature.s @ curvature.z) >= -1e-10


def test_cross_products_nonnegative_along_reference_run(fixture_runs):
    # convex objective, so the sign conditions hold at every iterate; the
    # slack scales with the product magnitudes the dot products accumulate
    program, run = fixture_runs["ex1"]
    rng = np.random.default_rng(13)

    def check(a, b):
        slack = 1e-10 * (1.0 + np.linalg.norm(a) * np.linalg.norm(b))
        assert float(a @ b) >= -slack

    for it in run.iterates[:-1:5]:
        dirs = newton_directions(program, it)
        p_dir, q_dir = split_at(it, dirs.p_dir), split_at(it, dirs.q_dir)
        check(p_dir.s, p_dir.z)
        check(q_dir.s, q_dir.z)
        curvature = split_at(it, dirs.p_dir * rng.uniform() + dirs.q_dir)
        check(curvature.s, curvature.z)


def test_singular_matrix_raises_with_pivot(monkeypatch):
    solves = []
    monkeypatch.setattr(kkt, "dgetrs", lambda *args: solves.append(args))
    matrix = np.zeros((2, 2))
    matrix[0, 1] = 1.0
    program, start = load_problem("ex1")
    it = default_start(program, start)
    with pytest.raises(SingularKKTError, match=r"singular \(row 2 is zero\)"):
        solve_directions(matrix, program.a_ineq, it)
    # no zero row, but rank one: LAPACK reports the exactly zero pivot, and
    # the run stops before a solve could divide by it
    with _no_float_warnings(), pytest.raises(SingularKKTError, match=r"singular \(LU pivot 2 is exactly zero\)"):
        solve_directions(np.ones((2, 2)), program.a_ineq, it)
    assert solves == []


def _smallest_equilibrated_pivot(matrix):
    d = 1.0 / np.sqrt(np.abs(matrix).max(axis=1))
    return float(np.abs(dgetrf(d[:, None] * matrix * d)[0].diagonal()).min())


def test_small_pivot_of_a_regular_matrix_is_solved():
    """min |x|^2/2 s.t. x1 + x2 >= 2 near its solution (1, 1) with z = 1 and slack 1e-13.

    The active row puts z/s = 1e13 into H + A_I'(Z/S)A_I = I + 1e13*[[1, 1], [1, 1]],
    a regular matrix whose second equilibrated pivot is near 2e-13, below
    any pivot threshold of 1e-12: the ill-conditioning that every run meets
    near a solution (M. H. Wright, SIAM J. Optim. 1998).  The directions
    satisfy the unreduced Newton rows within eps/pivot, the accuracy that
    an LU solve keeps in the direction of a pivot this small.
    """
    program = ConvexProgram(
        n=2, objective=quadratic_tree(np.eye(2)), a_eq=np.zeros((0, 2)), b_eq=np.zeros(0),
        a_ineq=np.array([[1.0, 1.0]]), b_ineq=np.array([2.0]),
    )
    it = Iterate.at(program, np.array([1.0 + 1e-3, 1.0 - 2e-3, 1e-13, 1.0]), 1e-10)
    system = assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    pivot = _smallest_equilibrated_pivot(system)
    assert pivot < 1e-12
    with _no_float_warnings():
        dirs = solve_directions(system, program.a_ineq, it)
    matrix = full_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    tangent = split_at(it, dirs.vdot)
    zero = np.zeros(program.n + program.m + it.p)
    tolerance = np.finfo(float).eps / pivot
    assert tolerance < 2e-3
    for flat, target in (
        (dirs.vdot, np.concatenate([it.r_c, it.r_e, it.r_i, it.zs])),
        (dirs.p_dir, np.concatenate([zero, np.full(it.p, it.mu)])),
        (dirs.q_dir, np.concatenate([zero, -2.0 * tangent.z * tangent.s])),
    ):
        err = np.linalg.norm(matrix @ flat - target)
        assert err <= tolerance * (np.linalg.norm(matrix) * np.linalg.norm(flat) + np.linalg.norm(target))


def test_solve_that_refinement_cannot_clean_raises_with_its_residual(monkeypatch):
    """A right-hand side with a part along the small pivot's direction.

    At the ex1 start the solve through [[1, 1], [1, 1 + 1e-13]] is of
    size 1e13 times that part, and its residual stays above the bound
    after the one refinement pass.
    """
    original, solves = kkt.dgetrs, []

    def counting(*args):
        solves.append(args)
        return original(*args)

    monkeypatch.setattr(kkt, "dgetrs", counting)
    program, start = load_problem("ex1")
    it = default_start(program, start)
    matrix = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    assert _smallest_equilibrated_pivot(matrix) < 1e-12
    with _no_float_warnings(), pytest.raises(
        SingularKKTError, match=r"working precision \(refined residual \S+, bound \S+\)"
    ):
        solve_directions(matrix, program.a_ineq, it)
    assert len(solves) == 2


def test_iterate_rejects_nonpositive_slack():
    program, start = load_problem("ex1")
    with pytest.raises(ValueError, match="strictly positive"):
        Iterate.at(program, np.concatenate((start, np.zeros(5), np.ones(5))), 1.0)


@pytest.mark.parametrize(
    ("nu", "accepted"),
    [(np.nan, False), (0.0, False), (-1.0, False), (1.5, False), (np.inf, False), (1.0, True), (RESIDUAL_FLOOR, True)],
)
def test_iterate_takes_a_residual_factor_in_zero_to_one(nu, accepted):
    program, start = load_problem("ex1")
    vec = default_start(program, start).vec
    if accepted:
        assert Iterate.at(program, vec, nu).nu == nu
    else:
        with pytest.raises(ValueError, match=f"residual factor nu must lie in \\(0, 1\\], got {nu}"):
            Iterate.at(program, vec, nu)


def test_iterate_keeps_the_vector_it_is_given():
    """Solves hand the accepted arc point on whole; see test_step for that side."""
    program, start = load_problem("ex1")
    p = program.p
    vec = np.concatenate((start, np.full(p, 0.5), np.full(p, 2.0)))
    it = Iterate.at(program, vec, 1.0)
    assert it.vec is vec
    _assert_views_in_order(_iterate_blocks(it), vec)
    assert it.w is it.z

    for bad in (vec[:-1], np.append(vec, 1.0), vec[None, :]):
        with pytest.raises(ValueError, match="shape"):
            Iterate.at(program, bad, 1.0)
    for index, value in ((2, np.nan), (2 + p - 1, 0.0), (2 + p, -1.0), (-1, np.nan), (-1, 0.0)):
        bad = vec.copy()
        bad[index] = value
        with pytest.raises(ValueError, match="strictly positive"):
            Iterate.at(program, bad, 1.0)


@pytest.fixture(scope="module")
def direction_cases(fixture_runs, no_start_runs):
    """(program, iterates) of ex1–ex8, of one p = 108 run and of two no-start runs, over 500 iterates.

    ex7's final iterate, where the run stops, is in: its Newton matrix has
    a smallest equilibrated pivot of 3.1e-15 and is solved all the same.
    The no-start runs are draw 8 of ``no_start_runs``: a benchmark
    ``many_rows`` and an n = 10 ``boxqp_dense`` program solved as
    ``solve(program)`` does, from the least-squares start with the
    library's step rule.
    """
    program = many_rows_program(np.random.default_rng(11))
    assert program.p == 108
    runs = [(program, run_recorded(program, default_start(program)))]
    runs += [(instance.program, run) for instance, run, _ in (draws[8] for draws in no_start_runs.values())]
    cases = [(prog, recorded.iterates) for prog, recorded in fixture_runs.values()]
    for prog, run in runs:
        assert run.report.status is SolverStatus.CONVERGED
        cases.append((prog, run.iterates))
    assert sum(len(iterates) for _, iterates in cases) > 500
    return cases


def test_lapack_directions_equal_scipy_wrappers_bitwise(direction_cases):
    """dgetrf/dgetrs give the directions of the textbook solve through scipy's lu_factor/lu_solve, bit for bit.

    The oracle also keeps the empty equality block, every residual block as
    a vector and every product through ``@``; each shortcut of the solver
    could change only the sign of a zero entry, and none changes a bit.
    """
    for prog, iterates in direction_cases:
        for it in iterates:
            matrix = assemble_newton_matrix(it.hess, prog.a_eq, prog.a_ineq, it.s, it.z)
            got = [flat.tobytes() for flat in solve_directions(matrix, prog.a_ineq, it)]
            assert got == [flat.tobytes() for flat in textbook_directions(prog, it)]


def test_directions_equal_generic_back_substitution_bitwise(direction_cases):
    """Each direction's ds and dz are the textbook back substitution of its own dx, bit for bit.

    The residuals are vectors: r_I and r_z = ZSe for the tangent, zeros and
    mu e for the centering piece, zeros and -2 dZ dS e of the tangent for
    the second-order piece.  Checked on the solver's own dx, so a fault in
    the back substitution shows apart from one in the LU solve.
    """
    for prog, iterates in direction_cases:
        n, m, p = prog.n, prog.m, prog.p
        for it in iterates:
            matrix = assemble_newton_matrix(it.hess, prog.a_eq, prog.a_ineq, it.s, it.z)
            vdot, p_dir, q_dir = solve_directions(matrix, prog.a_ineq, it)
            zero, second_order = np.zeros(p), -2.0 * vdot[n + m + p :] * vdot[n + m : n + m + p]
            pieces = ((vdot, it.r_i, it.z * it.s), (p_dir, zero, np.full(p, it.mu)), (q_dir, zero, second_order))
            for flat, r_i, r_z in pieces:
                expected = textbook_back_substitution(prog, it, flat[:n], r_i, r_z)
                assert flat[n + m :].tobytes() == expected.tobytes()


def test_no_equality_block_is_built_without_equality_rows(direction_cases):
    """With m = 0 the Newton layer builds no A_E block, r_E concatenation or A_E'y product.

    On every iterate of ex1–ex8 (m = 0, objectives that do not fold), of
    the p = 108 run and of the no-start runs (folded QPs, m = 1 and m = 0),
    the matrix, the stationarity norm and r_c, r_e and r_i equal, byte for
    byte, the formulas that keep the equality block however empty.  r_c
    leads with grad f for a folded objective and with H x for the others;
    r_e is the empty b_eq when m = 0.  The dropped product could change
    only the sign of a zero entry of r_c, and on these iterates it changes
    none.
    """
    without_rows = with_folded = 0
    for prog, iterates in direction_cases:
        without_rows += len(iterates) if prog.m == 0 else 0
        folded = isinstance(prog.compiled_objective, Quadratic)
        a_eq, a_ineq = prog.a_eq, prog.a_ineq
        for it in iterates:
            matrix = assemble_newton_matrix(it.hess, a_eq, a_ineq, it.s, it.z)
            padded = padded_newton_matrix(it.hess, a_eq, a_ineq, it.s, it.z)
            assert matrix.shape == padded.shape == (prog.n + prog.m,) * 2
            assert matrix.tobytes() == padded.tobytes()
            true_stat = padded_stationarity(prog, it.grad, it.y, it.z)
            assert true_stationarity_norm(prog, it) == np.linalg.norm(true_stat)
            lead = it.grad if folded else it.hess.dot(it.x)
            assert it.r_c.tobytes() == padded_stationarity(prog, lead, it.y, it.z).tobytes()
            assert it.r_e.tobytes() == (a_eq.dot(it.x) - prog.b_eq).tobytes()
            assert it.r_i.tobytes() == (a_ineq.dot(it.x) - it.s - prog.b_ineq).tobytes()
        with_folded += len(iterates) if folded else 0
    assert without_rows > 400 and with_folded > 20


@contextlib.contextmanager
def _no_float_warnings():
    """Any numpy floating-point warning, or any other warning, raises."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_raises_typed_error(bad):
    program, start = load_problem("ex1")
    it = default_start(program, start)
    system = assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    system[1, 0] = bad
    with _no_float_warnings(), pytest.raises(SingularKKTError, match="matrix is not finite"):
        solve_directions(system, program.a_ineq, it)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_residual_stops_with_singular_status(bad, monkeypatch):
    program, start = load_problem("ex1")
    it = default_start(program, start)
    exact = kkt.stationarity

    def with_bad_entry(*args):
        r_c = exact(*args)
        r_c[0] = bad
        return r_c

    # solve() takes its start's residuals afresh, so the bad entry goes in there
    monkeypatch.setattr(kkt, "stationarity", with_bad_entry)
    with _no_float_warnings():
        report = solve(program, start=it)
    assert report.status is SolverStatus.SINGULAR_KKT
    assert report.iterations == 0
    assert "right-hand side is not finite" in report.message


def _identity_factor(size):
    lu, piv, _ = dgetrf(np.eye(size))
    return lu, piv


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_right_hand_side_raises_before_the_solve(bad, monkeypatch):
    solves = []
    monkeypatch.setattr(kkt, "dgetrs", lambda *args: solves.append(args))
    rhs = np.array([1.0, bad, 2.0])
    with _no_float_warnings(), pytest.raises(SingularKKTError, match="right-hand side is not finite"):
        kkt._solve_checked(_identity_factor(3), np.eye(3), rhs)
    assert solves == []


def test_non_finite_refinement_residual_raises():
    # the factor is of I, but the residual is taken against a matrix with an
    # inf entry, so the residual that refinement would solve holds -inf
    matrix = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularKKTError, match="right-hand side is not finite"):
        kkt._solve_checked(_identity_factor(2), matrix, np.ones(2))


def test_finite_right_hand_side_with_overflowing_norm_is_solved():
    rhs = np.array([1e200, -1e200, 3.0])
    with np.errstate(over="ignore"):
        assert math.isinf(kkt.norm(rhs))
        sol = kkt._solve_checked(_identity_factor(3), np.eye(3), rhs)
    assert sol.tobytes() == rhs.tobytes()
