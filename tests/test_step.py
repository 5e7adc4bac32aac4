"""Arc geometry, per-component angle limits, and the step selection."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcipm import SolverConfig, default_start, solve
from arcipm import solver as solver_module
from arcipm import step as step_module
from arcipm.kkt import Blocks, Iterate, NewtonDirections, assemble_newton_matrix, solve_directions
from arcipm.step import (
    RESIDUAL_FLOOR,
    MuPredictor,
    StepFailureError,
    alpha_limits,
    alpha_tilde,
    arc_point,
    bisect_sigma,
    component_alpha_limit,
    FLOOR_SLACK,
    _acceptable,
    floors,
    golden_min_bu,
    mu_coefficients,
    mu_exact,
    select_step,
    update_nu,
)
from conftest import (
    load_problem,
    many_rows_program,
    run_recorded,
    synthetic_step_pair as synthetic_pair,
    warnings_ignored,
)
from oracles import blockwise_arc_point, scan_alpha

HALF_PI = math.pi / 2.0


def reference_directions():
    program, start = load_problem("ex1")
    it = default_start(program, start)
    matrix = assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    return program, it, solve_directions(matrix, it, it.mu)


def _arc_blocks(it, dirs, sigma, alpha):
    """The arc point at (sigma, alpha), split into its (x, y, s, z) blocks."""
    return Blocks.of(arc_point(it, dirs, sigma, alpha), it.x.size, it.y.size, it.p)


def test_arc_point_at_zero_is_identity():
    _, it, dirs = reference_directions()
    np.testing.assert_array_equal(arc_point(it, dirs, 0.3, 0.0), it.vec)


def test_arc_point_at_right_angle_closed_form():
    _, it, dirs = reference_directions()
    sigma = 0.4
    point = _arc_blocks(it, dirs, sigma, HALF_PI)
    for got, v, dv, pv, qv in zip(point, it.blocks(), dirs.vdot, dirs.p_dir, dirs.q_dir):
        np.testing.assert_allclose(got, v - dv + pv * sigma + qv, rtol=1e-12, atol=1e-12)


def test_arc_initial_slope_is_negative_tangent():
    # one-sided difference carries an h/2 curvature term, so use directions
    # whose curvature and tangent share a scale
    it, dirs = synthetic_pair(np.random.default_rng(1))
    h = 1e-6
    slope = (arc_point(it, dirs, 0.7, h) - it.vec) / h
    tangent = -dirs.vdot_vec
    scale = 1.0 + np.max(np.abs(tangent))
    assert np.max(np.abs(slope - tangent)) <= 1e-4 * scale


def test_arc_derivatives_at_zero_by_central_differences():
    _, it, dirs = reference_directions()
    sigma = 0.25
    h = 1e-4
    hi = arc_point(it, dirs, sigma, h)
    lo = arc_point(it, dirs, sigma, -h)
    mid = it.vec
    first = (hi - lo) / (2.0 * h)
    second = (hi - 2.0 * mid + lo) / h**2
    tangent = -np.concatenate(dirs.vdot)
    curvature = np.concatenate(dirs.curvature(sigma))
    assert np.max(np.abs(first - tangent)) <= 1e-3 * (1.0 + np.max(np.abs(tangent)))
    assert np.max(np.abs(second - curvature)) <= 1e-3 * (1.0 + np.max(np.abs(curvature)))


def _directions(program, it):
    matrix = assemble_newton_matrix(it.hess, program.a_eq, program.a_ineq, it.s, it.z)
    return solve_directions(matrix, it, it.mu)


def test_flat_arc_point_equals_blockwise_formula_bitwise(fixture_runs):
    program = many_rows_program(np.random.default_rng(0))
    assert program.p == 108
    with warnings_ignored():
        run = run_recorded(program, default_start(program))
    cases = [(prog, recorded.iterates) for prog, recorded in fixture_runs.values()]
    cases.append((program, run.iterates))
    checked = 0
    for prog, iterates in cases:
        for it in iterates:
            dirs = _directions(prog, it)
            phi, psi = floors(it.s, it.z, it.nu, 0.5)
            for sigma in (0.0, 0.3, 1.0):
                tilde = alpha_tilde(it, dirs, phi, psi, sigma)
                for alpha in (0.0, 0.5 * tilde, tilde):
                    got = arc_point(it, dirs, sigma, alpha)
                    want = blockwise_arc_point(it, dirs, sigma, alpha)
                    assert got.tobytes() == np.concatenate(want).tobytes()
                    checked += 1
    assert checked > 5000


def test_select_step_tries_one_candidate_per_backtrack_plus_one(fixture_runs, monkeypatch):
    """perfbench's step.accept_ratio counts the calls of step.arc_point."""
    original = step_module.arc_point
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(step_module, "arc_point", counting)
    backtracked = 0
    for prog, recorded in fixture_runs.values():
        for k, it in enumerate(recorded.iterates[:-1]):
            phi, psi = floors(it.s, it.z, it.nu, 0.5)
            calls.clear()
            sel = select_step(it, _directions(prog, it), phi, psi, SolverConfig())
            assert sel == recorded.selections[k + 1]
            assert len(calls) == sel.backtracks + 1
            backtracked += sel.backtracks > 0
    assert backtracked > 0


def test_selection_point_is_the_accepted_arc_point(fixture_runs, monkeypatch):
    checked = 0
    for prog, recorded in fixture_runs.values():
        for k, it in enumerate(recorded.iterates[:-1]):
            sel = recorded.selections[k + 1]
            want = arc_point(it, _directions(prog, it), sel.sigma, sel.alpha)
            assert sel.point.tobytes() == want.tobytes()
            # the next iterate keeps the accepted vector itself, not a copy
            assert recorded.iterates[k + 1].vec is sel.point
            checked += 1
    assert checked > 500

    # solve() builds the next iterate from the selection, not from a new arc point
    original, calls = solver_module.arc_point, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver_module, "arc_point", counting)
    program, start = load_problem("ex1")
    assert solve(program, start=default_start(program, start)).iterations > 0
    assert calls == []


def test_update_nu():
    assert update_nu(0.7, 0.0) == 0.7
    assert update_nu(1.0, math.pi / 6.0) == pytest.approx(0.5, rel=1e-12)
    assert update_nu(0.5, HALF_PI) == RESIDUAL_FLOOR
    assert 0.0 < RESIDUAL_FLOOR < 1e-300


def test_floors():
    assert floors(np.ones(3), np.ones(3), 1.0, 0.5) == (0.5, 0.5)
    phi, psi = floors(np.ones(3), np.ones(3), 1e-9, 0.5)
    assert phi == psi == 1e-9
    phi, psi = floors(np.full(5, 0.01), np.full(5, 100.0), 1.0, 0.5)
    assert phi == pytest.approx(0.005)
    assert psi == 1.0


def _acceptable_with_module_functions(candidate, mu_new, mu_old, phi, psi, theta):
    """The acceptance test as written with np.all/np.min, kept as the reference."""
    if not (np.all(candidate.s > 0.0) and np.all(candidate.z > 0.0)):
        return False
    if np.min(candidate.s) < phi - FLOOR_SLACK or np.min(candidate.z) < psi - FLOOR_SLACK:
        return False
    if np.min(candidate.s * candidate.z) < theta * mu_new * (1.0 - FLOOR_SLACK):
        return False
    return mu_new < mu_old


def test_acceptable_decides_as_the_module_function_version():
    rng = np.random.default_rng(21)
    values = np.array([np.nan, -1.0, 0.0, 1e-12, 0.05, 0.1, 0.5, 1.0, 2.0])
    decisions = set()
    for _ in range(3000):
        s, z = (rng.choice(values, size=3) for _ in range(2))
        candidate = Blocks(np.zeros(2), np.zeros(0), s, z)
        mu_new = float(rng.choice([np.nan, 0.01, 0.1, 1.0]))
        args = (candidate, mu_new, 0.5, 0.05, 0.1, 0.5)
        want = _acceptable_with_module_functions(*args)
        assert _acceptable(*args) is want
        decisions.add(want)
    assert decisions == {True, False}


def test_component_limit_flat_and_helpful_cases():
    assert component_alpha_limit(1.0, 0.0, 0.0, 0.0, 0.5, 0.3) == HALF_PI  # constant
    assert component_alpha_limit(1.0, -1.0, 0.5, 0.5, 0.5, 1.0) == HALF_PI  # rising everywhere
    got = component_alpha_limit(1.0, 1.0, 0.0, 0.0, 0.5, 0.7)
    assert got == pytest.approx(math.pi / 6.0, rel=1e-12)  # sin limit at 1/2


def test_component_limit_matches_scan_across_all_case_patterns():
    rng = np.random.default_rng(42)
    patterns = [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, -1), (-1, 1), (0, 0)]
    step_count = int(math.ceil(HALF_PI / 1e-4)) + 1
    grid_step = HALF_PI / (step_count - 1)
    for rate_sign, second_sign in patterns:
        for _ in range(8):
            sigma = rng.uniform(0.0, 1.0)
            floor = rng.uniform(0.01, 1.0)
            margin = rng.uniform(0.01, 3.0)
            current = floor + margin
            rate = rate_sign * rng.uniform(0.05, 4.0)
            second = second_sign * rng.uniform(0.05, 4.0)
            p_coef = rng.normal()
            q_coef = second - p_coef * sigma
            got = component_alpha_limit(current, rate, p_coef, q_coef, floor, sigma)
            ref = scan_alpha(current, rate, p_coef, q_coef, floor, sigma)
            assert abs(got - ref) <= grid_step * 1.001, (rate_sign, second_sign, got, ref)


def test_component_limit_below_floor_returns_zero():
    assert component_alpha_limit(0.3, 1.0, 0.0, 0.5, 0.4, 1.0) == 0.0
    assert scan_alpha(0.3, 1.0, 0.0, 0.5, 0.4, 1.0) == 0.0


def _kernel_cases():
    """One array over all nine (rate, second) sign patterns plus degenerate entries.

    Returns (current, rate, p_coef, q_coef, floor, sigma) with every entry
    at one sigma; degenerate entries use p_coef = 0 so that second is exact.
    """
    rng = np.random.default_rng(2024)
    sigma = 0.37
    rows = []
    for rate_sign in (-1, 0, 1):
        for second_sign in (-1, 0, 1):
            for _ in range(6):
                floor = rng.uniform(0.01, 1.0)
                rate = rate_sign * rng.uniform(0.05, 4.0)
                second = second_sign * rng.uniform(0.05, 4.0)
                p_coef = rng.normal() if second_sign else 0.0
                rows.append((floor + rng.uniform(0.01, 3.0), rate, p_coef, second - p_coef * sigma, floor))
    rows += [
        (1.5, 0.0, 0.0, 0.0, 0.5),  # rate = second = 0
        (0.4, 0.0, 0.0, 0.0, 0.5),  # rate = second = 0 below the floor
        (0.3, 1.0, 0.0, 0.5, 0.4),  # margin < 0 for each sign of rate
        (0.3, 0.0, 0.0, 0.5, 0.4),
        (0.3, -1.0, 0.0, -0.5, 0.4),
        (0.5, 1.0, 0.0, 0.5, 0.5),  # margin = 0 for each sign of rate and of second
        (0.5, 1.0, 0.0, -0.5, 0.5),
        (0.5, 0.0, 0.0, 0.5, 0.5),
        (0.5, 0.0, 0.0, -0.5, 0.5),
        (0.5, -1.0, 0.0, 0.5, 0.5),
        (0.5, -1.0, 0.0, -0.5, 0.5),
        (1.5, 3.0, 0.0, 4.0, 0.5),  # top == R = 5: the trajectory touches the floor
        (8.5, 4.0, 0.0, -3.0, 0.5),
        (1.5, -1.0, 0.0, -1.0, 0.5),  # rate < 0 and top == 0
    ]
    columns = [np.array(column) for column in zip(*rows)]
    return (*columns, sigma)


def test_alpha_limits_match_scan_on_one_mixed_array():
    current, rate, p_coef, q_coef, floor, sigma = _kernel_cases()
    step_count = int(math.ceil(HALF_PI / 1e-4)) + 1
    grid_step = HALF_PI / (step_count - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = alpha_limits(current, rate, p_coef, q_coef, floor, sigma)
    assert got.shape == current.shape
    for i, limit in enumerate(got):
        entry = (current[i], rate[i], p_coef[i], q_coef[i], floor[i], sigma)
        ref = scan_alpha(*entry)
        assert abs(limit - ref) <= grid_step * 1.001, (i, entry, limit, ref)
        assert component_alpha_limit(*entry) == limit


def test_alpha_tilde_minimum_semantics():
    rng = np.random.default_rng(3)
    it, dirs = synthetic_pair(rng)
    # flat directions: every component limit is the right angle
    flat = NewtonDirections.of(
        vdot=Blocks(*(np.zeros_like(b) for b in dirs.vdot)),
        p_dir=Blocks(*(np.zeros_like(b) for b in dirs.p_dir)),
        q_dir=Blocks(*(np.zeros_like(b) for b in dirs.q_dir)),
    )
    assert alpha_tilde(it, flat, 0.01, 0.01, 0.5) == HALF_PI

    # a single binding slack component at pi/6
    sdot = np.zeros(it.p)
    sdot[2] = 2.0 * (it.s[2] - 0.01)
    binding = NewtonDirections.of(
        vdot=Blocks(np.zeros(2), np.zeros(0), sdot, np.zeros(it.p)),
        p_dir=flat.p_dir,
        q_dir=flat.q_dir,
    )
    assert alpha_tilde(it, binding, 0.01, 0.01, 0.5) == pytest.approx(math.pi / 6.0, rel=1e-12)


def test_alpha_tilde_point_respects_floors():
    program, it, dirs = reference_directions()
    phi, psi = floors(it.s, it.z, it.nu, 0.5)
    # trajectory evaluation is only accurate to roundoff of its largest term
    s_scale = max(
        np.max(np.abs(dirs.vdot.s)), np.max(np.abs(dirs.p_dir.s)), np.max(np.abs(dirs.q_dir.s))
    )
    z_scale = max(
        np.max(np.abs(dirs.vdot.z)), np.max(np.abs(dirs.p_dir.z)), np.max(np.abs(dirs.q_dir.z))
    )
    for sigma in (0.0, 0.37, 1.0):
        tilde = alpha_tilde(it, dirs, phi, psi, sigma)
        point = _arc_blocks(it, dirs, sigma, tilde)
        assert np.min(point.s) >= phi - 1e-10 - 1e-15 * s_scale
        assert np.min(point.z) >= psi - 1e-10 - 1e-15 * z_scale


def test_mu_coefficients_special_cases():
    rng = np.random.default_rng(11)
    it, dirs = synthetic_pair(rng)
    quiet = NewtonDirections.of(
        vdot=Blocks(np.zeros(2), np.zeros(0), np.zeros(it.p), np.zeros(it.p)),
        p_dir=dirs.p_dir,
        q_dir=dirs.q_dir,
    )
    alpha = 0.8
    a_u, b_u = mu_coefficients(it, quiet, alpha)
    pm = it.p * it.mu
    assert a_u == pytest.approx(pm * (1.0 - math.cos(alpha)), rel=1e-12)
    assert b_u == pytest.approx(pm * (1.0 - math.sin(alpha)), rel=1e-12)
    a_u, b_u = mu_coefficients(it, dirs, 0.0)
    assert a_u == 0.0
    assert b_u == pytest.approx(pm, rel=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=120, deadline=None)
def test_mu_expansion_identity(seed):
    rng = np.random.default_rng(seed)
    it, dirs = synthetic_pair(rng, p=int(rng.integers(1, 7)))
    sigma = rng.uniform(0.0, 1.0)
    alpha = rng.uniform(0.0, HALF_PI)
    candidate = _arc_blocks(it, dirs, sigma, alpha)
    a_u, b_u = mu_coefficients(it, dirs, alpha)
    curvature = dirs.curvature(sigma)
    omc = 2.0 * math.sin(alpha / 2.0) ** 2
    lhs = it.p * mu_exact(candidate)
    rhs = a_u * sigma + b_u + float(curvature.s @ curvature.z) * omc**2
    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_mu_exact_trivial_cases():
    rng = np.random.default_rng(5)
    it, dirs = synthetic_pair(rng)
    assert mu_exact(_arc_blocks(it, dirs, 0.3, 0.0)) == pytest.approx(it.mu, rel=1e-12)
    zeroed = Blocks(np.zeros(2), np.zeros(0), np.zeros(it.p), it.z)
    assert mu_exact(zeroed) == 0.0


def _directions_from_sz(it, s_parts, z_parts):
    (sdot, ps, qs), (zdot, pz, qz) = s_parts, z_parts
    zero2, zero0 = np.zeros(2), np.zeros(0)
    return NewtonDirections.of(
        vdot=Blocks(zero2, zero0, sdot, zdot),
        p_dir=Blocks(zero2, zero0, ps, pz),
        q_dir=Blocks(zero2, zero0, qs, qz),
    )


def _plain_iterate(s, z):
    p = s.size
    return Iterate(
        vec=np.concatenate((np.zeros(2), np.zeros(0), s, z)),
        hess=np.eye(2), grad=np.zeros(2),
        r_c=np.zeros(2), r_e=np.zeros(0), r_i=np.zeros(p),
        mu=float(s @ z) / p, nu=1.0,
    )


def test_bisect_sigma_monotone_endpoints():
    s = np.array([1.0, 1.0])
    z = np.array([1.0, 1.0])
    it = _plain_iterate(s, z)
    rising = _directions_from_sz(
        it,
        (np.array([2.0, 2.0]), np.array([0.5, 0.0]), np.array([0.1, 0.1])),
        (np.array([2.0, 2.0]), np.array([0.0, 0.5]), np.array([0.1, 0.1])),
    )
    sigma, tilde = bisect_sigma(it, rising, 0.2, 0.2, 0.0, 1.0, 1e-2)
    # every p-coefficient is >= 0: limits only improve with sigma
    assert sigma >= 1.0 - 1e-2
    assert 0.0 < tilde <= HALF_PI

    falling = _directions_from_sz(
        it,
        (np.array([2.0, 2.0]), np.array([-0.5, 0.0]), np.array([0.4, 0.4])),
        (np.array([2.0, 2.0]), np.array([0.0, -0.5]), np.array([0.4, 0.4])),
    )
    sigma, _ = bisect_sigma(it, falling, 0.2, 0.2, 0.0, 1.0, 1e-2)
    assert sigma <= 1e-2

    flat = _directions_from_sz(
        it,
        (np.array([2.0, 2.0]), np.zeros(2), np.array([0.1, 0.1])),
        (np.array([2.0, 2.0]), np.zeros(2), np.array([0.1, 0.1])),
    )
    sigma, _ = bisect_sigma(it, flat, 0.2, 0.2, 0.0, 1.0, 1e-2)
    assert sigma <= 1e-2  # ties shrink toward less centering


def test_bisect_sigma_wide_tolerance_takes_the_midpoint():
    s = np.array([1.0, 1.0])
    z = np.array([1.0, 1.0])
    it = _plain_iterate(s, z)
    dirs = _directions_from_sz(
        it,
        (np.array([2.0, 2.0]), np.array([0.5, 0.0]), np.array([0.1, 0.1])),
        (np.array([2.0, 2.0]), np.array([0.0, -0.5]), np.array([0.1, 0.1])),
    )
    # the interval is already within the tolerance: no bisection step runs
    sigma, tilde = bisect_sigma(it, dirs, 0.2, 0.2, 0.2, 0.6, 0.5)
    assert sigma == 0.4
    assert tilde == alpha_tilde(it, dirs, 0.2, 0.2, 0.4)


def test_bisect_sigma_finds_crossover():
    # two slack components, same slope, curvature terms crossing at 0.3
    s = np.array([1.0, 1.0])
    z = np.array([5.0, 5.0])
    it = _plain_iterate(s, z)
    dirs = _directions_from_sz(
        it,
        (np.array([1.0, 1.0]), np.array([0.6, -0.6]), np.array([0.1, 0.1 + 0.6 * 0.3 * 2.0])),
        (np.zeros(2), np.zeros(2), np.zeros(2)),
    )
    # component 0: second = 0.6 s + 0.1 (growing); component 1: second = 0.46 - 0.6 s
    # (shrinking); they intersect at s = 0.3 where the two limits coincide
    phi = 0.5
    sigma, tilde = bisect_sigma(it, dirs, phi, 0.1, 0.0, 1.0, 1e-2)
    assert abs(sigma - 0.3) <= 1e-2
    # confirm against a dense scan of the max-min objective
    grid = np.linspace(0.0, 1.0, 2001)
    values = [
        min(
            component_alpha_limit(1.0, 1.0, 0.6, 0.1, phi, g),
            component_alpha_limit(1.0, 1.0, -0.6, 0.46, phi, g),
        )
        for g in grid
    ]
    best = grid[int(np.argmax(values))]
    assert abs(best - 0.3) <= 1e-3
    assert tilde == pytest.approx(max(values), abs=1e-3)


def test_golden_min_bu_monotone_case_hits_cap():
    rng = np.random.default_rng(9)
    it, dirs = synthetic_pair(rng)
    quiet = NewtonDirections.of(
        vdot=Blocks(np.zeros(2), np.zeros(0), np.zeros(it.p), np.zeros(it.p)),
        p_dir=dirs.p_dir,
        q_dir=dirs.q_dir,
    )
    cap = 1.2
    predictor = MuPredictor.of(it, quiet)
    assert golden_min_bu(predictor, cap) == pytest.approx(cap, abs=1e-3)
    assert golden_min_bu(predictor, 0.0) == 0.0


def test_golden_min_bu_interior_minimum_matches_grid():
    # dominant positive zdot's sdot makes b_u dip before the cap
    s = np.array([1.0, 1.0])
    z = np.array([1.0, 1.0])
    it = _plain_iterate(s, z)
    sdot = np.array([1.4, 1.4])
    zdot = (s * z - z * sdot) / s
    dirs = _directions_from_sz(
        it,
        (sdot, np.zeros(2), np.zeros(2)),
        (zdot, np.zeros(2), np.zeros(2)),
    )
    cap = HALF_PI
    got = golden_min_bu(MuPredictor.of(it, dirs), cap)
    grid = np.linspace(0.0, cap, 2001)
    values = [mu_coefficients(it, dirs, a)[1] for a in grid]
    coarse = float(grid[int(np.argmin(values))])
    assert 0.0 < got < cap
    assert abs(got - coarse) <= 1e-3


def test_select_step_accepts_reference_limit_without_backtracking():
    program, it, dirs = reference_directions()
    phi, psi = floors(it.s, it.z, it.nu, 0.5)
    sel = select_step(it, dirs, phi, psi, SolverConfig())
    assert sel.backtracks == 0
    assert 0.0 < sel.alpha <= sel.alpha_tilde <= HALF_PI
    candidate = _arc_blocks(it, dirs, sel.sigma, sel.alpha)
    assert mu_exact(candidate) < it.mu
    assert np.min(candidate.s) >= phi - 1e-10
    assert np.min(candidate.z) >= psi - 1e-10


def test_select_step_takes_affine_branch_on_negative_mixed_product():
    s = np.array([1.0, 1.0])
    z = np.array([1.0, 1.0])
    it = _plain_iterate(s, z)
    sdot = np.array([0.2, 0.2])
    zdot = (s * z - z * sdot) / s
    ps = np.array([-1.0, -1.0])
    pz = (it.mu - z * ps) / s
    dirs = _directions_from_sz(
        it,
        (sdot, ps, np.zeros(2)),
        (zdot, pz, np.zeros(2)),
    )
    mixed = float(sdot @ pz + zdot @ ps)
    assert mixed < 0.0
    sel = select_step(it, dirs, 0.1, 0.1, SolverConfig())
    assert sel.sigma == 0.0


def test_select_step_failure_when_floors_unreachable():
    program, it, dirs = reference_directions()
    impossible_phi = float(np.max(it.s)) * 2.0
    with pytest.raises(StepFailureError):
        select_step(it, dirs, impossible_phi, 1e-8, SolverConfig())
