"""Shortcuts that skip work no branch reads give the results of the code that does it.

Each is compared bit for bit with a copy of the code without it
(``tests/oracles.py``): the bisection that returns its last midpoint
without deciding a move, the angle limits whose thresholds are scalars,
the screen's product with its sigma-only coefficients formed once per
sigma, the golden-section search that forms b_u inline and only where a
comparison reads it, and the curvature check that tries a Cholesky
factor before the eigenvalues.  The calls they replay are those that
``conftest.run_recorded`` keeps during the ``fixture_runs`` solves of
ex1–ex8, and for the bisection also during the solves of the
``no_start_runs`` draws, with no start and from ``balanced_start``.
"""

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

from arcipm import balanced_start
from arcipm import solver as solver_module
from arcipm import step as step_module
from arcipm.autodiff import Quadratic
from arcipm.step import BISECT_TOLERANCE, HALF_PI, MuPredictor, alpha_limits, bisect_sigma, floors
from conftest import compile_tree, quadratic_tree, run_recorded, step_limits, synthetic_step_pair
import oracles
from oracles import (
    eigenvalue_indefinite,
    every_step_alpha_limits,
    every_step_bisect_sigma,
    per_angle_product,
    per_call_golden_min_bu,
)


def bits(*values) -> bytes:
    """The IEEE bytes of floats, so that NaN equals NaN and -0.0 differs from 0.0."""
    return struct.pack(f"<{len(values)}d", *values)


@pytest.fixture(scope="module")
def bisect_calls(fixture_runs, no_start_runs):
    """(alpha_limits arguments, p_coef, sigma bounds, result) of every bisect_sigma call.

    From ex1–ex8 solved from their files' starts (``fixture_runs``), and from
    the benchmark's boxqp_dense and many_rows draws (``no_start_runs``) solved
    both with no start and by the paper's rule from ``balanced_start``.
    """
    runs = [run for _, run in fixture_runs.values()]
    runs += [run for draws in no_start_runs.values() for _, run, _ in draws]
    programs = [instance.program for draws in no_start_runs.values() for instance, _, _ in draws]
    runs += [run_recorded(program, balanced_start(program)) for program in programs]
    return [call for run in runs for call in run.bisections]


def test_bisect_sigma_equals_deciding_every_move_on_every_captured_call(bisect_calls):
    stops_undecided = 0
    for arguments, p_coef, sigma_min, sigma_max, result in bisect_calls:
        want = every_step_bisect_sigma(every_step_alpha_limits(*arguments), p_coef, sigma_min, sigma_max)
        assert bits(*result) == bits(*want)
        stops_undecided += sigma_max - sigma_min <= 2 * BISECT_TOLERANCE
    # both the paper's [0, 1] and the library's narrow Mehrotra intervals are in
    assert len(bisect_calls) > 300
    assert 0 < stops_undecided < len(bisect_calls)
    # run_recorded bound its wrappers for its own solves only
    for module, name in ((step_module, "alpha_limits"), (step_module, "bisect_sigma"),
                         (step_module, "golden_min_bu"), (solver_module, "_indefinite")):
        assert getattr(module, name).__module__ == module.__name__, name


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_bisect_sigma_at_the_tolerance_edges_and_nan_bounds(seed):
    iterate, directions = synthetic_step_pair(np.random.default_rng(seed), p=6)
    limits, p_coef = step_limits(iterate, directions, *floors(iterate.s, iterate.z, iterate.nu, 0.5))
    tol = BISECT_TOLERANCE
    widths = [0.0, tol, 2 * tol, np.nextafter(2 * tol, 0.0), np.nextafter(2 * tol, 1.0)]
    bounds = [(lower, lower + width) for lower in (0.0, 0.1, 0.123, 0.3, 0.5) for width in widths]
    bounds += [(0.0, 1.0), (0.3, math.nan), (math.nan, 0.3), (math.nan, math.nan)]
    # at 0.1 and 0.123 the midpoint's two halves round to either side of the
    # tolerance, so there the move decides whether the search goes on
    assert any((upper - 0.5 * (lower + upper) > tol) != (0.5 * (lower + upper) - lower > tol)
               for lower, upper in bounds)
    # the groups swapped, and none at all (a tie), so that each move is decided somewhere
    for groups in (p_coef, -p_coef, 0.0 * p_coef):
        for sigma_min, sigma_max in bounds:
            got = bisect_sigma(limits, groups, sigma_min, sigma_max)
            assert bits(*got) == bits(*every_step_bisect_sigma(limits, groups, sigma_min, sigma_max))


def _limit_arrays(rng, size):
    current = rng.uniform(0.01, 2.0, size)
    rate = rng.normal(size=size)
    rate[::5] = 0.0
    p_coef = rng.normal(size=size)
    q_coef = rng.normal(size=size)
    floor = rng.uniform(0.0, 1.0, size) * current
    return current, rate, p_coef, q_coef, floor


def test_alpha_limits_equal_every_component_arrays():
    rng = np.random.default_rng(11)
    sigmas = [0.0, 1e-3, 0.25, 0.5, 1.0]
    for size in (1, 2, 7, 216):
        arguments = _limit_arrays(rng, size)
        # the library's scalar floor 0 too
        for case in (arguments, (*arguments[:4], 0.0)):
            got, want = alpha_limits(*case), every_step_alpha_limits(*case)
            for sigma in sigmas:
                assert got(sigma).tobytes() == want(sigma).tobytes()
    # Python floats, above and at the floor
    for current, floor in ((1.0, 0.5), (0.5, 0.5)):
        for rate in (-1.0, 0.0, 1.0):
            case = (current, rate, 0.6, -0.2, floor)
            got, want = alpha_limits(*case), every_step_alpha_limits(*case)
            for sigma in sigmas:
                assert bits(float(got(sigma))) == bits(float(want(sigma)))


def test_product_along_a_sigma_equals_forming_every_coefficient_per_angle():
    rng = np.random.default_rng(23)
    sigmas = [0.0, 1e-3, 0.1, 0.5, 0.99, 1.0]
    alphas = [0.0, 1e-8, 1e-3, 0.3, 1.0, HALF_PI - 1e-9, HALF_PI]
    checked = 0
    for p in (1, 3, 8):
        iterate, directions = synthetic_step_pair(rng, p)
        tails = step_module.sz_tails(iterate, directions)
        predictor = MuPredictor.of(tails, iterate.mu)
        for sigma in sigmas:
            along = predictor.along(sigma)
            for alpha in alphas:
                assert bits(along(alpha)) == bits(per_angle_product(predictor, sigma, alpha))
                checked += 1
    assert checked == 3 * len(sigmas) * len(alphas)


def test_golden_min_bu_equals_calling_b_u_at_every_angle(monkeypatch, fixture_runs):
    """On every golden-section search of ex1–ex8 and on edge caps, bit for bit.

    On the searches of ex1–ex8 it forms b_u, two sines each, once more than
    it compares two values: at both inner points, then at the one point
    each shrink adds, but not after the last shrink.  The oracle, which
    forms b_u after every shrink, shows the comparisons: two fewer than its
    evaluations.
    """
    calls = [call for _, run in fixture_runs.values() for call in run.golden]
    original = step_module.golden_min_bu
    searched = len(calls)
    sines, evaluations = [], []
    b_u = oracles.b_u
    monkeypatch.setattr(step_module, "math", SimpleNamespace(sin=lambda angle: sines.append(angle) or math.sin(angle)))
    monkeypatch.setattr(oracles, "b_u", lambda predictor, alpha: evaluations.append(alpha) or b_u(predictor, alpha))
    for predictor, cap, _ in calls:
        sines.clear()
        evaluations.clear()
        original(predictor, cap)
        per_call_golden_min_bu(predictor, cap)
        comparisons = len(evaluations) - 2
        assert comparisons > 0
        assert len(sines) == 2 * (comparisons + 1)
    monkeypatch.undo()
    rng = np.random.default_rng(29)
    caps = [0.0, 1e-5, step_module.GOLDEN_TOLERANCE, 2e-4, 0.3, 1.0, HALF_PI, math.nan]
    for p in (1, 3, 8):
        iterate, directions = synthetic_step_pair(rng, p)
        predictor = MuPredictor.of(step_module.sz_tails(iterate, directions), iterate.mu)
        calls += [(predictor, cap, original(predictor, cap)) for cap in caps]
    for predictor, cap, got in calls:
        assert bits(got) == bits(per_call_golden_min_bu(predictor, cap))
    assert searched > 300


def _with_smallest(rng, n, smallest):
    """A symmetric matrix with eigenvalues in [1, 3] but one, which is ``smallest``."""
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    values = rng.uniform(1.0, 3.0, n)
    values[0] = smallest
    return (basis * values) @ basis.T


def _read_only_fold(matrix):
    """The read-only Hessian of the folded objective 1/2 x'Mx."""
    folded = compile_tree(quadratic_tree(matrix), matrix.shape[0])
    assert isinstance(folded, Quadratic) and not folded.hessian.flags.writeable
    return folded.hessian


def _curvature_family():
    """(kind, matrix, the verdict it is built to have) for n = 1…8."""
    rng = np.random.default_rng(41)
    for n in range(1, 9):
        factor = rng.normal(size=(n, n))
        yield "definite", factor @ factor.T + 0.1 * np.eye(n), False
        for rank in range(n):
            part = rng.normal(size=(n, rank))
            # singular, like the Hessians of ex5 and ex6: roundoff decides
            # whether the Cholesky factor completes, but not the verdict
            yield "semidefinite", part @ part.T, False
        yield "indefinite", _with_smallest(rng, n, -rng.uniform(0.1, 1.0)), True
        # the threshold -1e-10 * max(1, max|H|) barely moves with the
        # smallest eigenvalue, so it is taken from the same basis at 0
        seed = int(rng.integers(1 << 30))
        scale = max(1.0, float(np.abs(_with_smallest(np.random.default_rng(seed), n, 0.0)).max()))
        for times, verdict in ((0.5, False), (2.0, True)):
            near = _with_smallest(np.random.default_rng(seed), n, -1e-10 * scale * times)
            yield f"{times} x threshold", near, verdict
    for matrix, verdict in (([[2.0, 1.0], [1.0, 2.0]], False), ([[1.0, 1.0], [1.0, 1.0]], False),
                            ([[0.0, 1.0], [1.0, 0.0]], True)):
        yield "folded", _read_only_fold(np.array(matrix)), verdict


def test_curvature_verdict_equals_the_eigenvalue_verdict():
    kinds = set()
    for kind, matrix, verdict in _curvature_family():
        assert eigenvalue_indefinite(matrix) is verdict, kind
        assert solver_module._indefinite(matrix) is verdict, kind
        kinds.add((kind, verdict))
    assert len(kinds) == 7


def test_curvature_verdict_on_every_hessian_the_samples_check(fixture_runs):
    checked = [hess for _, run in fixture_runs.values() for hess in run.curvature]
    original = solver_module._indefinite
    factored = 0
    for hess in checked:
        assert original(hess) is eigenvalue_indefinite(hess)
        factored += dpotrf(hess, lower=1)[1] == 0
    # most complete their factor; the singular Hessians of ex5 and ex6 do not
    assert 0 < factored < len(checked)
