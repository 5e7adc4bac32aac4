"""Residuals, the Newton matrix, and the three direction solves."""

import contextlib
import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf

from arcipm import SingularKKTError, SolverStatus, default_start, solve
from arcipm import kkt
from arcipm.kkt import (
    Blocks,
    Iterate,
    NewtonDirections,
    NewtonSystem,
    assemble_newton_matrix,
    compute_residuals,
    duality_measure,
    kkt_norm,
    optimality_residual,
    solve_directions,
    true_stationarity_norm,
)
from arcipm.step import arc_point
from conftest import (
    load_problem,
    many_rows_program,
    random_box_qp,
    run_recorded,
    synthetic_step_pair,
    warnings_ignored,
)
from oracles import full_newton_matrix, generic_directions, wrapped_getrf, wrapped_getrs


def test_residuals_at_zero_point():
    program, _ = load_problem("ex8")
    n, m, p = program.n, program.m, program.p
    hess = np.eye(n)
    r_c, r_e, r_i = compute_residuals(
        program, hess, np.zeros(n), np.zeros(m), np.zeros(p), np.zeros(p)
    )
    np.testing.assert_array_equal(r_c, np.zeros(n))
    np.testing.assert_array_equal(r_e, -program.b_eq)
    np.testing.assert_array_equal(r_i, -program.b_ineq)


def test_residuals_vanish_on_matched_slack():
    program, _ = load_problem("ex1")
    x = np.array([4.0, 4.0])
    s = program.a_ineq @ x - program.b_ineq
    _, _, r_i = compute_residuals(program, np.eye(2), x, np.zeros(0), s, np.ones(5))
    np.testing.assert_allclose(r_i, np.zeros(5), atol=1e-14)


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
    assert np.all(np.isfinite(optimality_residual(it)))


def test_duality_measure():
    assert duality_measure(np.full(5, 0.01), np.full(5, 100.0)) == pytest.approx(1.0)
    assert duality_measure(np.ones(3), np.zeros(3)) == 0.0
    assert duality_measure([1.0, 2.0], [3.0, 4.0]) == pytest.approx(5.5)
    with pytest.raises(ValueError):
        duality_measure(np.zeros(0), np.zeros(0))


def test_kkt_norm_cases():
    program, _ = load_problem("ex1")
    x = np.array([4.0, 4.0])
    s = program.a_ineq @ x - program.b_ineq
    z = np.full(5, 0.5)
    it = Iterate.at(program, np.concatenate((x, s, z)), 1.0)
    # synthetic: force residual blocks to zero and products to mu
    mu = it.mu
    vec = np.concatenate([np.zeros(2), np.zeros(0), np.zeros(5), np.full(5, mu)])
    assert np.linalg.norm(vec) == pytest.approx(np.sqrt(5.0) * mu)

    program1, start1 = load_problem("ex1")
    it1 = default_start(program1, start1)
    assert kkt_norm(it1) > 100.0


def test_norms_equal_numpy_norm_bitwise(fixture_runs):
    for name, (program, run) in fixture_runs.items():
        for it, row in zip(run.iterates, run.report.trace, strict=True):
            blocks = (it.r_c, it.r_e, it.r_i)
            want = tuple(np.linalg.norm(vec) for vec in blocks)
            assert tuple(kkt.norm(vec) for vec in blocks) == want, name
            assert (row.norm_rc, row.norm_re, row.norm_ri) == want, name
            want = np.linalg.norm(optimality_residual(it))
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


def test_blocks_are_views_into_one_flat_vector():
    program = many_rows_program(np.random.default_rng(3))
    it = default_start(program)
    assert min(block.size for block in it.blocks()) > 0
    _assert_views_in_order(it.blocks(), it.vec)
    system = assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    dirs = solve_directions(system, it, it.mu)
    for blocks, flat in ((dirs.vdot, dirs.vdot_vec), (dirs.p_dir, dirs.p_vec), (dirs.q_dir, dirs.q_vec)):
        _assert_views_in_order(blocks, flat)
    point = arc_point(it, dirs, 0.3, 0.2)
    assert point.shape == (program.n + program.m + 2 * program.p,) == (221,)
    # hand-built objects take the same layout; directions are stacked
    # from copies of their blocks
    it, dirs = synthetic_step_pair(np.random.default_rng(4))
    _assert_views_in_order(it.blocks(), it.vec)
    it.s[0] = 7.0
    assert it.vec[it.x.size + it.y.size] == 7.0 and it.z[0] != 7.0
    parts = [Blocks(*(np.array(b) for b in blocks)) for blocks in (dirs.vdot, dirs.p_dir, dirs.q_dir)]
    built = NewtonDirections.of(*parts)
    assert not any(np.shares_memory(block, built.vdot_vec) for block in parts[0])
    for made in (dirs, built):
        assert (made.n, made.m, made.p) == (it.x.size, it.y.size, it.p)
        for blocks, flat in ((made.vdot, made.vdot_vec), (made.p_dir, made.p_vec), (made.q_dir, made.q_vec)):
            _assert_views_in_order(blocks, flat)
            flat[-1] = 7.0
            assert blocks.z[-1] == 7.0 and blocks.s[-1] != 7.0


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


def test_direction_solves_satisfy_their_systems():
    program, start = load_problem("ex1")
    it = default_start(program, start)
    system = assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    dirs = solve_directions(system, it, it.mu)
    matrix = full_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    rhs = np.concatenate([it.r_c, it.r_e, it.r_i, it.z * it.s])
    for blocks, expected_last in (
        (dirs.vdot, it.z * it.s),
        (dirs.p_dir, np.full(it.p, it.mu)),
        (dirs.q_dir, -2.0 * dirs.vdot.z * dirs.vdot.s),
    ):
        stacked = np.concatenate(blocks)
        target = rhs if blocks is dirs.vdot else np.concatenate(
            [np.zeros(program.n), np.zeros(program.m), np.zeros(it.p), expected_last]
        )
        err = np.linalg.norm(matrix @ stacked - target)
        assert err <= 1e-8 * (1.0 + np.linalg.norm(target))


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
    dirs = solve_directions(
        assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z), it, it.mu
    )
    matrix = full_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    scale = np.concatenate([np.ones(n + m), it.s, it.z])
    tangent = np.concatenate([it.r_c, it.r_e, it.r_i, it.z * it.s])
    centering, curvature = np.zeros_like(tangent), np.zeros_like(tangent)
    centering[-p:] = it.mu
    curvature[-p:] = -2.0 * dirs.vdot.z * dirs.vdot.s
    for blocks, rhs in ((dirs.vdot, tangent), (dirs.p_dir, centering), (dirs.q_dir, curvature)):
        full = np.linalg.solve(matrix, rhs)
        full = (full + np.linalg.solve(matrix, rhs - matrix @ full)) / scale
        reduced = np.concatenate(blocks) / scale
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
        with warnings_ignored():
            run = run_recorded(program, default_start(program))
        assert run.report.status is SolverStatus.CONVERGED
        for it in run.iterates[:-1:5]:
            _assert_reduced_matches_full(program, it)


def test_zero_centering_rhs_gives_zero_direction():
    program, start = load_problem("ex1")
    it = default_start(program, start)
    matrix = assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    dirs = solve_directions(matrix, it, 0.0)
    assert np.linalg.norm(np.concatenate(dirs.p_dir)) <= 1e-12


def test_cross_products_nonnegative_on_random_qp():
    rng = np.random.default_rng(7)
    for _ in range(5):
        program = random_box_qp(rng, max_n=5)
        it = default_start(program)
        matrix = assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
        dirs = solve_directions(matrix, it, it.mu)
        assert float(dirs.p_dir.s @ dirs.p_dir.z) >= -1e-10
        assert float(dirs.q_dir.s @ dirs.q_dir.z) >= -1e-10
        curvature = dirs.curvature(rng.uniform())
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
        matrix = assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
        dirs = solve_directions(matrix, it, it.mu)
        check(dirs.p_dir.s, dirs.p_dir.z)
        check(dirs.q_dir.s, dirs.q_dir.z)
        curvature = dirs.curvature(rng.uniform())
        check(curvature.s, curvature.z)


def test_singular_matrix_raises_with_pivot():
    matrix = np.zeros((2, 2))
    matrix[0, 1] = 1.0
    program, start = load_problem("ex1")
    it = default_start(program, start)
    with pytest.raises(SingularKKTError) as err:
        solve_directions(NewtonSystem(matrix, program.a_ineq), it, it.mu)
    assert err.value.pivot >= 0.0
    # no zero row, but rank one: the pivot test itself has to fire
    with pytest.raises(SingularKKTError) as err:
        solve_directions(NewtonSystem(np.ones((2, 2)), program.a_ineq), it, it.mu)
    assert err.value.pivot < err.value.threshold


def test_iterate_rejects_nonpositive_slack():
    program, start = load_problem("ex1")
    with pytest.raises(ValueError, match="strictly positive"):
        Iterate.at(program, np.concatenate((start, np.zeros(5), np.ones(5))), 1.0)


def test_iterate_keeps_the_vector_it_is_given():
    """Solves hand the accepted arc point on whole; see test_step for that side."""
    program, start = load_problem("ex1")
    p = program.p
    vec = np.concatenate((start, np.full(p, 0.5), np.full(p, 2.0)))
    it = Iterate.at(program, vec, 1.0)
    assert it.vec is vec
    _assert_views_in_order(it.blocks(), vec)
    assert it.w is it.z

    for bad in (vec[:-1], np.append(vec, 1.0), vec[None, :]):
        with pytest.raises(ValueError, match="shape"):
            Iterate.at(program, bad, 1.0)
    for index, value in ((2, np.nan), (2 + p - 1, 0.0), (2 + p, -1.0), (-1, np.nan), (-1, 0.0)):
        bad = vec.copy()
        bad[index] = value
        with pytest.raises(ValueError, match="strictly positive"):
            Iterate.at(program, bad, 1.0)


def _direction_bytes(program, iterates):
    out = []
    for it in iterates:
        system = assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
        dirs = solve_directions(system, it, it.mu)
        out.append([flat.tobytes() for flat in (dirs.vdot_vec, dirs.p_vec, dirs.q_vec)])
    return out


@pytest.fixture(scope="module")
def direction_cases(fixture_runs):
    """(program, iterates) of ex1–ex8 and of one p = 108 run, over 500 iterates."""
    program = many_rows_program(np.random.default_rng(11))
    assert program.p == 108
    with warnings_ignored():
        run = run_recorded(program, default_start(program))
    assert run.report.status is SolverStatus.CONVERGED
    cases = [(prog, recorded.iterates) for prog, recorded in fixture_runs.values()]
    cases.append((program, run.iterates))
    assert sum(len(iterates) for _, iterates in cases) > 500
    return cases


def test_lapack_directions_equal_scipy_wrappers_bitwise(direction_cases, monkeypatch):
    """dgetrf/dgetrs give the directions of scipy's lu_factor/lu_solve, bit for bit."""
    lapack = [_direction_bytes(prog, iterates) for prog, iterates in direction_cases]
    monkeypatch.setattr(kkt, "dgetrf", wrapped_getrf)
    monkeypatch.setattr(kkt, "lu_solve", wrapped_getrs)
    wrapped = [_direction_bytes(prog, iterates) for prog, iterates in direction_cases]
    assert lapack == wrapped


def test_directions_equal_generic_back_substitution_bitwise(direction_cases):
    """Dropping the zero residuals, r_w and the dw block changes no bit of any direction."""
    for prog, iterates in direction_cases:
        generic = []
        for it in iterates:
            system = assemble_newton_matrix(it.hess, prog.a_eq, prog.a_ineq, it.s, it.z)
            directions = generic_directions(system, it, it.mu)
            generic.append([np.concatenate((dx, dy, ds, dz)).tobytes() for dx, dy, _, ds, dz in directions])
            # with r_w = 0 the w row only copies dz: w would stay equal to z
            assert all(np.array_equal(dw, dz) for _, _, dw, _, dz in directions)
        assert _direction_bytes(prog, iterates) == generic


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
    system.matrix[1, 0] = bad
    with _no_float_warnings(), pytest.raises(SingularKKTError, match="matrix is not finite") as err:
        solve_directions(system, it, it.mu)
    assert math.isnan(err.value.pivot)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_residual_stops_with_singular_status(bad):
    program, start = load_problem("ex1")
    it = default_start(program, start)
    r_c = it.r_c.copy()
    r_c[0] = bad
    with _no_float_warnings():
        report = solve(program, start=dataclasses.replace(it, r_c=r_c))
    assert report.status is SolverStatus.SINGULAR_KKT
    assert report.iterations == 0
    assert "right-hand side is not finite" in report.message


def _identity_factor(size):
    lu, piv, _ = dgetrf(np.eye(size))
    return lu, piv


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_right_hand_side_raises_before_the_solve(bad, monkeypatch):
    solves = []
    monkeypatch.setattr(kkt, "lu_solve", lambda *args: solves.append(args))
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
