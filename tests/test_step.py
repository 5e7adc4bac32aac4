"""Arc geometry, per-component angle limits, and the step selection."""

import math
import re
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcipm import (
    ConvexProgram,
    SolverConfig,
    balanced_start,
    default_start,
    fold_bounds,
    parse_expression,
    solve,
)
from arcipm import solver as solver_module
from arcipm import step as step_module
from arcipm.kkt import Iterate, duality_measure
from arcipm.step import (
    ALPHA_FLOOR,
    BACKTRACK_FACTOR,
    BISECT_TOLERANCE,
    EPSILON,
    RESIDUAL_FLOOR,
    StepFailureError,
    alpha_limits,
    alpha_tilde,
    arc_point,
    bisect_sigma,
    candidate_angles,
    candidate_steps,
    FLOOR_SLACK,
    _acceptable,
    floors,
    golden_min_bu,
    mu_coefficients,
    select_step,
    update_nu,
)
from conftest import (
    load_problem,
    newton_directions,
    perfbench_module,
    predictor_of,
    split_at,
    step_limits,
    synthetic_step_pair as synthetic_pair,
    sz_directions,
    sz_iterate,
)
from oracles import blockwise_arc_point, scan_alpha

HALF_PI = math.pi / 2.0


def reference_directions():
    program, start = load_problem("ex1")
    it = default_start(program, start)
    return program, it, newton_directions(program, it)


def _arc_blocks(it, dirs, sigma, alpha):
    """The arc point at (sigma, alpha), split into its (x, y, s, z) blocks."""
    return split_at(it, arc_point(it, dirs, sigma, alpha))


def test_arc_point_at_right_angle_closed_form():
    _, it, dirs = reference_directions()
    sigma = 0.4
    point = arc_point(it, dirs, sigma, HALF_PI)
    want = it.vec - dirs.vdot + dirs.p_dir * sigma + dirs.q_dir
    np.testing.assert_allclose(point, want, rtol=1e-12, atol=1e-12)


def test_arc_initial_slope_is_negative_tangent():
    # one-sided difference carries an h/2 curvature term, so use directions
    # whose curvature and tangent share a scale
    it, dirs = synthetic_pair(np.random.default_rng(1))
    h = 1e-6
    slope = (arc_point(it, dirs, 0.7, h) - it.vec) / h
    tangent = -dirs.vdot
    scale = 1.0 + np.max(np.abs(tangent))
    assert np.max(np.abs(slope - tangent)) <= 1e-4 * scale


def _stepped_runs(fixture_runs, many_rows_runs):
    """(name, program, recorded run) of ex1–ex8 and of the two p = 108 runs."""
    runs = {**fixture_runs, **many_rows_runs}
    assert all(prog.p == 108 for prog, _ in many_rows_runs.values())
    return [(name, prog, recorded) for name, (prog, recorded) in runs.items()]


def test_flat_arc_point_equals_blockwise_formula_bitwise(fixture_runs, many_rows_runs):
    checked = 0
    for name, prog, recorded in _stepped_runs(fixture_runs, many_rows_runs):
        # the solver never factors ex7's final Newton matrix: its pivot is below the threshold
        for it in recorded.iterates[:-1] if name == "ex7" else recorded.iterates:
            dirs = newton_directions(prog, it)
            limits, _ = step_limits(it, dirs, *floors(it.s, it.z, it.nu, 0.5))
            for sigma in (0.0, 0.3, 1.0):
                tilde = alpha_tilde(limits, sigma)
                for alpha in (0.0, 0.5 * tilde, tilde):
                    got = arc_point(it, dirs, sigma, alpha)
                    want = blockwise_arc_point(it, dirs, sigma, alpha)
                    assert got.tobytes() == np.concatenate(want).tobytes()
                    checked += 1
    assert checked > 5000


def _screened_out(predictor, sigma, alpha):
    """Whether select_step's screen skips the candidate at (sigma, alpha) without building its point."""
    return predictor.along(sigma)(alpha) > predictor.p_mu + predictor.margin


def _candidates(it, dirs, phi, psi, predictor, config):
    """The (sigma, cap, alpha) candidates of candidate_steps' sequences, in the order they are tried."""
    steps = candidate_steps(*step_limits(it, dirs, phi, psi), predictor, config)
    return ((sigma, cap, alpha) for sigma, cap, angles in steps for alpha in angles)


def _counting(monkeypatch, name):
    """Rebind step.<name> to a wrapper that records each call's arguments and result."""
    original, calls = getattr(step_module, name), []

    def counting(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(step_module, name, counting)
    return calls


def test_select_step_tries_one_candidate_per_backtrack_plus_one(fixture_runs, monkeypatch):
    """perfbench's step.accept_ratio counts the calls of step.arc_point.

    select_step passes over ``backtracks`` candidates of the sequences of
    :func:`candidate_steps` before the accepted one, and builds the point
    of each of those candidates that the predictor's screen leaves in.
    """
    calls = _counting(monkeypatch, "arc_point")
    config = SolverConfig()
    backtracked = screened = 0
    for prog, recorded in fixture_runs.values():
        for k, it in enumerate(recorded.iterates[:-1]):
            phi, psi = floors(it.s, it.z, it.nu, config.rho)
            dirs = newton_directions(prog, it)
            calls.clear()
            sel = select_step(it, dirs, config)
            assert sel == recorded.selections[k + 1]
            predictor = predictor_of(it, dirs)
            tried = list(islice(_candidates(it, dirs, phi, psi, predictor, config), sel.backtracks + 1))
            assert tried[-1] == (sel.sigma, sel.alpha_tilde, sel.alpha)
            built = [(sigma, alpha) for sigma, _, alpha in tried if not _screened_out(predictor, sigma, alpha)]
            assert [args[2:] for args, _ in calls] == built
            backtracked += sel.backtracks > 0
            screened += len(tried) - len(built)
    assert backtracked > 0
    assert screened > 0


def test_selection_point_is_the_accepted_arc_point(fixture_runs, many_rows_runs, monkeypatch):
    checked = 0
    for _, prog, recorded in _stepped_runs(fixture_runs, many_rows_runs):
        for k, it in enumerate(recorded.iterates[:-1]):
            sel = recorded.selections[k + 1]
            want = arc_point(it, newton_directions(prog, it), sel.sigma, sel.alpha)
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


def test_screen_skips_only_angles_that_fail_the_step_conditions(fixture_runs, many_rows_runs):
    """Every candidate the predictor rules out fails _acceptable once built.

    Checked over every candidate, both sequences down to the
    angle floor, at every iterate the runs accept a step from.  The
    selection's alpha_tilde is the cap of the accepted candidate's sequence.
    """
    config = SolverConfig()
    skipped = 0
    branches = set()
    for _, prog, recorded in _stepped_runs(fixture_runs, many_rows_runs):
        for k, it in enumerate(recorded.iterates[:-1]):
            sel = recorded.selections[k + 1]
            dirs = newton_directions(prog, it)
            phi, psi = floors(it.s, it.z, it.nu, config.rho)
            assert sel.alpha_tilde == alpha_tilde(step_limits(it, dirs, phi, psi)[0], sel.sigma)
            predictor = predictor_of(it, dirs)
            branches.add(predictor.mixed <= 0.0)
            for sigma, _, alpha in _candidates(it, dirs, phi, psi, predictor, config):
                if _screened_out(predictor, sigma, alpha):
                    candidate = _arc_blocks(it, dirs, sigma, alpha)
                    mu_new = duality_measure(candidate.s, candidate.z)
                    assert mu_new >= it.mu
                    assert not _acceptable(candidate.s, candidate.z, mu_new, it.mu, phi, psi, config.theta)
                    skipped += 1
    assert branches == {True, False}
    assert skipped > 1000


def test_screen_builds_every_candidate_whose_product_is_nan(monkeypatch):
    """A NaN s'z along the arc screens nothing out, so each angle up to the accepted one is built."""
    _, it, dirs = reference_directions()
    monkeypatch.setattr(step_module.MuPredictor, "along", lambda self, sigma: lambda alpha: math.nan)
    built = _counting(monkeypatch, "arc_point")
    sel = select_step(it, dirs, SolverConfig())
    assert sel.backtracks == 19
    assert len(built) == sel.backtracks + 1


def test_bisection_runs_only_once_the_least_centering_sequence_is_used_up(fixture_runs):
    """Over ex1–ex8 the bisection runs once per selection that centers, and in no other.

    A rule that built its sequences eagerly would bisect at every
    iteration; from the reference starts 48 of the 478 selections center.
    """
    sigma_min = SolverConfig().sigma_min
    sigmas = [sel.sigma for _, run in fixture_runs.values() for sel in run.selections[1:]]
    bisections = sum(len(run.bisections) for _, run in fixture_runs.values())
    centered = sum(sigma > sigma_min for sigma in sigmas)
    assert 0 < centered < len(sigmas)
    assert bisections == centered


def test_mehrotra_rule_fails_naming_its_bisection(monkeypatch):
    """With the tangent scaled up 1e12 times the library's one sequence has no angle.

    select_step's StepFailureError names the sigma and cap that the
    bisection returned, at the balanced start of a many_rows and a
    boxqp_dense draw, each the first of its generator at seed 1.
    """
    instances = perfbench_module("instances")
    draws = (instances.many_rows(np.random.default_rng(1)), instances.boxqp_dense(np.random.default_rng(1), 4))
    bisections = _counting(monkeypatch, "bisect_sigma")
    for draw in draws:
        it = balanced_start(draw.program)
        dirs = newton_directions(draw.program, it)
        steep = dirs._replace(vdot=1e12 * dirs.vdot)
        bisections.clear()
        with pytest.raises(StepFailureError) as failure:
            select_step(it, steep, SolverConfig(), mehrotra=True)
        ((_, (sigma, cap)),) = bisections
        assert cap * 0.99 <= ALPHA_FLOOR
        assert str(failure.value).endswith(f"(sigma={sigma:.3f}, positivity limit {cap:.3e})")


def test_predictor_coefficients_equal_their_one_dimensional_products(fixture_runs, many_rows_runs):
    """The six products of one 3x3 matrix product agree with their 1-D dot products.

    Each is within 4p machine epsilons of the sum of its absolute terms, and
    far inside the screen's margin; p*mu and the margin are exact.
    """

    def dots(*pairs):
        return sum(a @ b for a, b in pairs), sum(np.abs(a) @ np.abs(b) for a, b in pairs)

    checked = 0
    for _, prog, recorded in _stepped_runs(fixture_runs, many_rows_runs):
        p = prog.p
        for it in recorded.iterates[:-1]:
            dirs = newton_directions(prog, it)
            predictor = predictor_of(it, dirs)
            (sdot, zdot), (ps, pz), (qs, qz) = ((d[-2 * p : -p], d[-p:]) for d in dirs)
            assert predictor.p_mu == p * it.mu
            size = np.abs(np.stack([it.vec[-2 * p :], *(d[-2 * p :] for d in dirs)])).sum(axis=0)
            assert predictor.margin == (4 * p + 64) * EPSILON * float(size[:p] @ size[p:])
            for got, (want, scale) in (
                (predictor.mixed, dots((zdot, ps), (sdot, pz))),
                (predictor.tangent, dots((zdot, sdot))),
                (predictor.cross, dots((sdot, qz), (zdot, qs))),
                (predictor.pp, dots((ps, pz))),
                (predictor.pq, dots((ps, qz), (qs, pz))),
                (predictor.qq, dots((qs, qz))),
            ):
                assert abs(got - want) <= 4 * p * EPSILON * scale
                assert abs(got - want) <= 1e-3 * predictor.margin
            checked += 1
    assert checked > 500


def test_product_rows_hold_to_a_few_ulps(fixture_runs, many_rows_runs):
    """The Newton product rows, which MuPredictor folds into p*mu and a_u, hold per component.

    z*sdot + s*zdot = s*z, z*p_s + s*p_z = mu and z*q_s + s*q_z = -2 sdot*zdot,
    each within a few ulps of the magnitudes of its terms.
    """
    runs = {**fixture_runs, "many_rows[0]": many_rows_runs["many_rows[0]"]}
    checked = 0
    for name, (prog, recorded) in runs.items():
        # the solver never factors ex7's final Newton matrix: its pivot is below the threshold
        for it in recorded.iterates[:-1] if name == "ex7" else recorded.iterates:
            s, z = it.s, it.z
            (sdot, zdot), (ps, pz), (qs, qz) = (split_at(it, d)[2:] for d in newton_directions(prog, it))
            rows = (
                (z * sdot, s * zdot, s * z),
                (z * ps, s * pz, np.full(it.p, it.mu)),
                (z * qs, s * qz, -2.0 * sdot * zdot),
            )
            for left, right, want in rows:
                scale = np.abs(left) + np.abs(right) + np.abs(want)
                assert np.all(np.abs(left + right - want) <= 4 * EPSILON * scale)
                checked += 1
    assert checked > 1000


def test_mu_predictor_product_matches_the_arc_product_within_its_margin(fixture_runs, many_rows_runs):
    """MuPredictor.along gives the arc point's s'z up to the predictor's margin."""
    checked = 0
    for _, prog, recorded in _stepped_runs(fixture_runs, many_rows_runs):
        for it in recorded.iterates[:-1:5]:
            dirs = newton_directions(prog, it)
            predictor = predictor_of(it, dirs)
            assert predictor.margin > 0.0
            assert abs(predictor.p_mu - float(it.s @ it.z)) <= predictor.margin
            for sigma in (0.0, 0.4, 1.0):
                along = predictor.along(sigma)
                for alpha in (0.0, 1e-6, 0.3, 1.0, HALF_PI):
                    point = _arc_blocks(it, dirs, sigma, alpha)
                    assert abs(along(alpha) - float(point.s @ point.z)) <= predictor.margin
                    checked += 1
    assert checked > 1000


def test_mu_predictor_rules_out_nothing_that_is_not_finite():
    it, dirs = synthetic_pair(np.random.default_rng(4))
    for bad in (np.nan, np.inf):
        broken = dirs._replace(q_dir=np.full_like(dirs.q_dir, bad))
        with np.errstate(all="ignore"):
            predictor = predictor_of(it, broken)
        assert not any(_screened_out(predictor, 0.5, alpha) for alpha in (1e-3, 0.5, HALF_PI))


def test_candidate_angles_run_from_the_cap_to_the_start_then_back_off():
    cap, start = 1.0, 0.3
    angles = list(candidate_angles(cap, start))
    # 0.8**5 = 0.328 is the last shrink of the cap above the start
    above = angles[:6]
    assert above[0] == cap and min(above) > start
    assert all(b == a * BACKTRACK_FACTOR for a, b in zip(above, above[1:]))
    rest = angles[6:]
    assert rest[0] == start
    assert all(b == a * BACKTRACK_FACTOR for a, b in zip(rest, rest[1:]))
    assert rest[-1] > ALPHA_FLOOR >= rest[-1] * BACKTRACK_FACTOR
    # with the start at the cap, plain backtracking from the cap
    plain = list(candidate_angles(start, start))
    assert plain == rest
    assert list(candidate_angles(0.0, 0.0)) == []
    assert list(candidate_angles(ALPHA_FLOOR, 0.0)) == []


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


def _acceptable_with_module_functions(s, z, mu_new, mu_old, phi, psi, theta):
    """The acceptance test as written with np.all/np.min, kept as the reference."""
    if not (np.all(s > 0.0) and np.all(z > 0.0)):
        return False
    if np.min(s) < phi - FLOOR_SLACK or np.min(z) < psi - FLOOR_SLACK:
        return False
    if np.min(s * z) < theta * mu_new * (1.0 - FLOOR_SLACK):
        return False
    return mu_new < mu_old


def test_acceptable_decides_as_the_module_function_version():
    rng = np.random.default_rng(21)
    values = np.array([np.nan, -1.0, 0.0, 1e-12, 0.05, 0.1, 0.5, 1.0, 2.0])
    decisions = set()
    for _ in range(3000):
        s, z = (rng.choice(values, size=3) for _ in range(2))
        mu_new = float(rng.choice([np.nan, 0.01, 0.1, 1.0]))
        args = (s, z, mu_new, 0.5, 0.05, 0.1, 0.5)
        want = _acceptable_with_module_functions(*args)
        assert _acceptable(*args) is want
        decisions.add(want)
    assert decisions == {True, False}


def test_component_limit_flat_and_helpful_cases():
    assert float(alpha_limits(1.0, 0.0, 0.0, 0.0, 0.5)(0.3)) == HALF_PI  # constant
    assert float(alpha_limits(1.0, -1.0, 0.5, 0.5, 0.5)(1.0)) == HALF_PI  # rising everywhere
    got = float(alpha_limits(1.0, 1.0, 0.0, 0.0, 0.5)(0.7))
    assert got == pytest.approx(math.pi / 6.0, rel=1e-12)  # sin limit at 1/2


def _seven_components(name=None, index=0, value=0.0):
    """alpha_limits arguments over seven components above the floor 0.25.

    Entry ``index`` of ``name``, "current" or "floor", is set to ``value``.
    """
    rng = np.random.default_rng(13)
    arrays = {"current": rng.uniform(0.5, 2.0, 7), "floor": np.full(7, 0.25)}
    if name is not None:
        arrays[name][index] = value
    rate, p_coef, q_coef = rng.normal(size=(3, 7))
    return arrays["current"], rate, p_coef, q_coef, arrays["floor"]


@pytest.mark.parametrize(
    "case",
    [
        _seven_components("current", 3, np.nextafter(0.25, 0.0)),
        _seven_components("current", 2, math.nan),
        _seven_components("floor", 5, math.nan),
        (0.3, 1.0, 0.0, 0.5, 0.4),
        (math.nan, 1.0, 0.6, -0.2, 0.5),
    ],
    ids=["below", "nan-current", "nan-floor", "float-below", "float-nan"],
)
def test_alpha_limits_reject_a_component_below_its_floor_or_with_a_nan_margin(case):
    """select_step sets every floor below its component, so no solve reaches this."""
    with pytest.raises(ValueError, match="below its floor"):
        alpha_limits(*case)


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
        got = alpha_limits(current, rate, p_coef, q_coef, floor)(sigma)
    assert got.shape == current.shape
    for i, limit in enumerate(got):
        entry = (current[i], rate[i], p_coef[i], q_coef[i], floor[i], sigma)
        ref = scan_alpha(*entry)
        assert abs(limit - ref) <= grid_step * 1.001, (i, entry, limit, ref)
        assert float(alpha_limits(*entry[:5])(sigma)) == limit


def test_alpha_tilde_minimum_semantics():
    rng = np.random.default_rng(3)
    it, dirs = synthetic_pair(rng)
    # flat directions: every component limit is the right angle
    flat = type(dirs)(*(np.zeros_like(vec) for vec in dirs))
    assert alpha_tilde(step_limits(it, flat, 0.01, 0.01)[0], 0.5) == HALF_PI

    # a single binding slack component at pi/6
    sdot = np.zeros(it.p)
    sdot[2] = 2.0 * (it.s[2] - 0.01)
    binding = flat._replace(vdot=np.concatenate((np.zeros(2), sdot, np.zeros(it.p))))
    assert alpha_tilde(step_limits(it, binding, 0.01, 0.01)[0], 0.5) == pytest.approx(math.pi / 6.0, rel=1e-12)


def test_alpha_tilde_point_respects_floors():
    program, it, dirs = reference_directions()
    phi, psi = floors(it.s, it.z, it.nu, 0.5)
    # trajectory evaluation is only accurate to roundoff of its largest term
    blocks = [split_at(it, vec) for vec in dirs]
    s_scale = max(np.max(np.abs(b.s)) for b in blocks)
    z_scale = max(np.max(np.abs(b.z)) for b in blocks)
    limits, _ = step_limits(it, dirs, phi, psi)
    for sigma in (0.0, 0.37, 1.0):
        tilde = alpha_tilde(limits, sigma)
        point = _arc_blocks(it, dirs, sigma, tilde)
        assert np.min(point.s) >= phi - 1e-10 - 1e-15 * s_scale
        assert np.min(point.z) >= psi - 1e-10 - 1e-15 * z_scale


def test_mu_coefficients_special_cases():
    rng = np.random.default_rng(11)
    it, dirs = synthetic_pair(rng)
    quiet = dirs._replace(vdot=np.zeros_like(dirs.vdot))
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
    curvature = split_at(it, dirs.p_dir * sigma + dirs.q_dir)
    omc = 2.0 * math.sin(alpha / 2.0) ** 2
    lhs = it.p * duality_measure(candidate.s, candidate.z)
    rhs = a_u * sigma + b_u + float(curvature.s @ curvature.z) * omc**2
    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))
    # with the sdd'zdd term the predictor gives the arc point's product itself
    exact = predictor_of(it, dirs).along(sigma)(alpha)
    assert abs(lhs - exact) <= 1e-10 * (1.0 + abs(lhs))


def test_bisect_sigma_monotone_endpoints():
    s = np.array([1.0, 1.0])
    z = np.array([1.0, 1.0])
    it = sz_iterate(s, z)
    rising = sz_directions(
        (np.array([2.0, 2.0]), np.array([0.5, 0.0]), np.array([0.1, 0.1])),
        (np.array([2.0, 2.0]), np.array([0.0, 0.5]), np.array([0.1, 0.1])),
    )
    sigma, tilde = bisect_sigma(*step_limits(it, rising, 0.2, 0.2), 0.0, 1.0)
    # every p-coefficient is >= 0: limits only improve with sigma
    assert sigma >= 1.0 - 1e-2
    assert 0.0 < tilde <= HALF_PI

    falling = sz_directions(
        (np.array([2.0, 2.0]), np.array([-0.5, 0.0]), np.array([0.4, 0.4])),
        (np.array([2.0, 2.0]), np.array([0.0, -0.5]), np.array([0.4, 0.4])),
    )
    sigma, _ = bisect_sigma(*step_limits(it, falling, 0.2, 0.2), 0.0, 1.0)
    assert sigma <= 1e-2

    flat = sz_directions(
        (np.array([2.0, 2.0]), np.zeros(2), np.array([0.1, 0.1])),
        (np.array([2.0, 2.0]), np.zeros(2), np.array([0.1, 0.1])),
    )
    sigma, _ = bisect_sigma(*step_limits(it, flat, 0.2, 0.2), 0.0, 1.0)
    assert sigma <= 1e-2  # ties shrink toward less centering


def test_bisect_sigma_wide_tolerance_takes_the_midpoint():
    s = np.array([1.0, 1.0])
    z = np.array([1.0, 1.0])
    it = sz_iterate(s, z)
    dirs = sz_directions(
        (np.array([2.0, 2.0]), np.array([0.5, 0.0]), np.array([0.1, 0.1])),
        (np.array([2.0, 2.0]), np.array([0.0, -0.5]), np.array([0.1, 0.1])),
    )
    # the interval is already narrower than BISECT_TOLERANCE: no bisection step runs
    assert 0.404 - 0.396 < BISECT_TOLERANCE
    sigma, tilde = bisect_sigma(*step_limits(it, dirs, 0.2, 0.2), 0.396, 0.404)
    assert sigma == 0.4
    assert tilde == alpha_tilde(step_limits(it, dirs, 0.2, 0.2)[0], 0.4)


def test_bisect_sigma_finds_crossover():
    # two slack components, same slope, curvature terms crossing at 0.3
    s = np.array([1.0, 1.0])
    z = np.array([5.0, 5.0])
    it = sz_iterate(s, z)
    dirs = sz_directions(
        (np.array([1.0, 1.0]), np.array([0.6, -0.6]), np.array([0.1, 0.1 + 0.6 * 0.3 * 2.0])),
        (np.zeros(2), np.zeros(2), np.zeros(2)),
    )
    # component 0: second = 0.6 s + 0.1 (growing); component 1: second = 0.46 - 0.6 s
    # (shrinking); they intersect at s = 0.3 where the two limits coincide
    phi = 0.5
    sigma, tilde = bisect_sigma(*step_limits(it, dirs, phi, 0.1), 0.0, 1.0)
    assert abs(sigma - 0.3) <= 1e-2
    # confirm against a dense scan of the max-min objective
    grid = np.linspace(0.0, 1.0, 2001)
    values = [
        min(
            float(alpha_limits(1.0, 1.0, 0.6, 0.1, phi)(g)),
            float(alpha_limits(1.0, 1.0, -0.6, 0.46, phi)(g)),
        )
        for g in grid
    ]
    best = grid[int(np.argmax(values))]
    assert abs(best - 0.3) <= 1e-3
    assert tilde == pytest.approx(max(values), abs=1e-3)


def test_golden_min_bu_monotone_case_hits_cap():
    rng = np.random.default_rng(9)
    it, dirs = synthetic_pair(rng)
    quiet = dirs._replace(vdot=np.zeros_like(dirs.vdot))
    cap = 1.2
    predictor = predictor_of(it, quiet)
    assert golden_min_bu(predictor, cap) == pytest.approx(cap, abs=1e-3)
    assert golden_min_bu(predictor, 0.0) == 0.0


def test_golden_min_bu_interior_minimum_matches_grid():
    # dominant positive zdot's sdot makes b_u dip before the cap
    s = np.array([1.0, 1.0])
    z = np.array([1.0, 1.0])
    it = sz_iterate(s, z)
    sdot = np.array([1.4, 1.4])
    zdot = (s * z - z * sdot) / s
    dirs = sz_directions(
        (sdot, np.zeros(2), np.zeros(2)),
        (zdot, np.zeros(2), np.zeros(2)),
    )
    cap = HALF_PI
    got = golden_min_bu(predictor_of(it, dirs), cap)
    grid = np.linspace(0.0, cap, 2001)
    values = [mu_coefficients(it, dirs, a)[1] for a in grid]
    coarse = float(grid[int(np.argmin(values))])
    assert 0.0 < got < cap
    assert abs(got - coarse) <= 1e-3


def test_select_step_from_reference_start_goes_past_the_b_u_minimizer():
    program, it, dirs = reference_directions()
    phi, psi = floors(it.s, it.z, it.nu, 0.5)
    sel = select_step(it, dirs, SolverConfig())
    # the sigma = 0 branch: the cap's 19th shrink is accepted, above b_u's minimizer
    assert sel.sigma == 0.0
    cap = alpha_tilde(step_limits(it, dirs, phi, psi)[0], 0.0)
    assert sel.alpha_tilde == cap
    assert sel.backtracks == 19
    assert sel.alpha == list(candidate_angles(cap, 0.0))[19]
    assert sel.alpha > golden_min_bu(predictor_of(it, dirs), cap)
    candidate = _arc_blocks(it, dirs, sel.sigma, sel.alpha)
    assert duality_measure(candidate.s, candidate.z) < it.mu
    assert np.min(candidate.s) >= phi - 1e-10
    assert np.min(candidate.z) >= psi - 1e-10


def test_select_step_takes_affine_branch_on_negative_mixed_product():
    s = np.array([1.0, 1.0])
    z = np.array([1.0, 1.0])
    it = sz_iterate(s, z)
    sdot = np.array([0.2, 0.2])
    zdot = (s * z - z * sdot) / s
    ps = np.array([-1.0, -1.0])
    pz = (it.mu - z * ps) / s
    dirs = sz_directions(
        (sdot, ps, np.zeros(2)),
        (zdot, pz, np.zeros(2)),
    )
    mixed = float(sdot @ pz + zdot @ ps)
    assert mixed < 0.0
    sel = select_step(it, dirs, SolverConfig())
    assert sel.sigma == 0.0


def test_zero_mixed_product_takes_the_least_centering_sequence():
    """min x1^2 + x2^2 on [-1, 1]^2, started at its minimizer with s = z = 1.

    The mixed product is exactly 0 there, so a_u is positive at every angle
    and sigma = sigma_min comes first.  No component limit shrinks with
    sigma, so the bisection alone would take sigma = 127/128 at alpha = pi/2
    each time, and mu would fall by 1/128 per iteration until MaxIter.
    """
    objective = parse_expression("x1^2 + x2^2", ["x1", "x2"])
    a_ineq, b_ineq = fold_bounds([], [], lower=[-1.0, -1.0], upper=[1.0, 1.0])
    program = ConvexProgram(2, objective, [], [], a_ineq, b_ineq)
    it = Iterate.at(program, np.array([0.0, 0.0, *np.ones(8)]), 1.0)
    dirs = newton_directions(program, it)
    phi, psi = floors(it.s, it.z, it.nu, 0.5)
    assert predictor_of(it, dirs).mixed == 0.0
    assert bisect_sigma(*step_limits(it, dirs, phi, psi), 0.0, 1.0) == (127 / 128, HALF_PI)
    assert select_step(it, dirs, SolverConfig()).sigma == 0.0
    report = solve(program, SolverConfig(), it)
    assert (report.status.value, report.iterations) == ("Converged", 21)


def _failure_message(it, dirs):
    """The StepFailureError message of select_step when the bisection's sequence is tried last."""
    config = SolverConfig()
    phi, psi = floors(it.s, it.z, it.nu, config.rho)
    sigma, cap = bisect_sigma(*step_limits(it, dirs, phi, psi), config.sigma_min, config.sigma_max)
    return f"(sigma={sigma:.3f}, positivity limit {cap:.3e})"


def test_select_step_failure_when_floors_unreachable(fixture_runs):
    """Sequences without an angle raise StepFailureError on either sign of the mixed product.

    With the tangent scaled up 1e12 times, each sequence's cap is below the
    angle floor ALPHA_FLOOR, so neither yields an angle; the message names
    the bisection's sigma and cap.
    """
    prog, recorded = fixture_runs["ex1"]
    signs = {}
    for it in recorded.iterates[:-1]:
        dirs = newton_directions(prog, it)
        signs.setdefault(predictor_of(it, dirs).mixed <= 0.0, (it, dirs))
    assert set(signs) == {True, False}
    for it, dirs in signs.values():
        steep = dirs._replace(vdot=1e12 * dirs.vdot)
        phi, psi = floors(it.s, it.z, it.nu, SolverConfig().rho)
        limits, p_coef = step_limits(it, steep, phi, psi)
        assert 0.0 < alpha_tilde(limits, 0.0) <= ALPHA_FLOOR
        assert bisect_sigma(limits, p_coef, 0.0, 1.0)[1] <= ALPHA_FLOOR
        with pytest.raises(StepFailureError, match=re.escape(_failure_message(it, steep))):
            select_step(it, steep, SolverConfig())


def test_select_step_falls_through_to_centering_when_the_sigma_zero_angles_fail(monkeypatch):
    """With mixed < 0 both sequences are tried, sigma = 0 first, before StepFailureError."""
    _, it, dirs = reference_directions()
    phi, psi = floors(it.s, it.z, it.nu, 0.5)
    predictor = predictor_of(it, dirs)
    assert predictor.mixed < 0.0
    tried = []

    def never(s, z, *args):
        tried.append(s)
        return False

    monkeypatch.setattr(step_module, "_acceptable", never)
    with pytest.raises(StepFailureError, match=re.escape(_failure_message(it, dirs))):
        select_step(it, dirs, SolverConfig())
    candidates = list(_candidates(it, dirs, phi, psi, predictor, SolverConfig()))
    sigmas = [sigma for sigma, _, _ in candidates]
    zeros = sigmas.count(0.0)
    assert 0 < zeros < len(sigmas) and sigmas[:zeros] == [0.0] * zeros
    assert len(tried) == sum(not _screened_out(predictor, sigma, alpha) for sigma, _, alpha in candidates)
