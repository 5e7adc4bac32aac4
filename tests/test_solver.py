"""End-to-end iteration behavior and run invariants."""

import math

import numpy as np
import pytest

import arcipm.kkt as kkt_mod
from arcipm import SolverConfig, SolverStatus, default_start, solve
from arcipm.kkt import SingularKKTError, compute_residuals, kkt_norm
from conftest import REFERENCE, load_problem, many_rows_program, run_recorded, warnings_ignored


def test_default_start_reference_shape():
    program, start = load_problem("ex1")
    it = default_start(program, start)
    assert it.p == 5
    assert it.mu == pytest.approx(1.0)
    np.testing.assert_array_equal(it.z, np.full(5, 100.0))
    np.testing.assert_array_equal(it.s, np.full(5, 0.01))
    np.testing.assert_array_equal(it.y, np.zeros(0))


def test_default_start_three_variables():
    program, start = load_problem("ex8")
    it = default_start(program, start)
    assert it.p == 8
    assert it.s.shape == it.z.shape == (8,)
    np.testing.assert_array_equal(it.x, [6.0, 2.0, 6.0])


def test_default_start_zero_default():
    program, _ = load_problem("ex2")
    it = default_start(program)
    np.testing.assert_array_equal(it.x, np.zeros(2))


def test_default_start_rejects_bad_length():
    program, _ = load_problem("ex1")
    with pytest.raises(ValueError, match="entries"):
        default_start(program, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_default_start_rejects_non_finite_point(bad):
    program, _ = load_problem("ex1")
    with pytest.raises(ValueError, match="initial point must be finite"):
        default_start(program, [5.0, bad])


def test_reference_solve_values(fixture_runs):
    program, run = fixture_runs["ex1"]
    assert run.report.status is SolverStatus.CONVERGED
    np.testing.assert_allclose(run.report.x, [1.0, 1.0], atol=1e-6)
    assert run.report.objective == pytest.approx(-13.0, abs=1e-6)
    assert run.report.infe == 0.0

    _, run4 = fixture_runs["ex4"]
    np.testing.assert_allclose(run4.report.x, [2.0, 2.0], atol=1e-6)
    assert run4.report.objective == pytest.approx(31.6355, abs=1e-3)


def test_nu_is_product_of_shrink_factors(fixture_runs):
    for name, (program, run) in fixture_runs.items():
        product = 1.0
        for it, sel in zip(run.iterates[1:], run.selections[1:]):
            product *= 1.0 - math.sin(sel.alpha)
            if product > 0.0:
                assert abs(it.nu - product) <= 1e-10 * product, name
            else:
                assert it.nu < 1e-300, name


def test_linear_residuals_track_nu(fixture_runs):
    for name, (program, run) in fixture_runs.items():
        first = run.iterates[0]
        re0 = np.linalg.norm(first.r_e)
        ri0 = np.linalg.norm(first.r_i)
        product = 1.0
        for it, sel in zip(run.iterates[1:], run.selections[1:]):
            product *= 1.0 - math.sin(sel.alpha)
            for norm0, norm_now in ((re0, np.linalg.norm(it.r_e)), (ri0, np.linalg.norm(it.r_i))):
                if norm0 == 0.0:
                    assert norm_now <= 1e-12
                elif product > 0.0:
                    # absolute term covers roundoff from recomputing the
                    # residual once the ratio reaches the float noise floor
                    assert abs(norm_now / norm0 - product) <= 1e-6 * product + 1e-14, name
                else:
                    assert norm_now <= 1e-9 * norm0, name


def test_gradient_residual_recursion_with_step_hessian(fixture_runs):
    # the shrink identity uses the Hessian the step was computed with
    for name, (program, run) in fixture_runs.items():
        for before, after, sel in zip(run.iterates, run.iterates[1:], run.selections[1:]):
            shrink = 1.0 - math.sin(sel.alpha)
            predicted = before.r_c * shrink
            actual = compute_residuals(program, before.hess, after.x, after.y, after.s, after.z)[0]
            scale = 1.0 + np.linalg.norm(before.r_c)
            assert np.linalg.norm(actual - predicted) <= 1e-8 * scale, name


def test_linear_residual_single_step_ratio(fixture_runs):
    for name, (program, run) in fixture_runs.items():
        for before, after, sel in zip(run.iterates, run.iterates[1:], run.selections[1:]):
            shrink = 1.0 - math.sin(sel.alpha)
            gap = np.linalg.norm(after.r_i - before.r_i * shrink)
            assert gap <= 1e-8 * (1.0 + np.linalg.norm(before.r_i)), name
            if program.m:
                gap = np.linalg.norm(after.r_e - before.r_e * shrink)
                assert gap <= 1e-8 * (1.0 + np.linalg.norm(before.r_e)), name


def test_iterate_invariants_hold_on_every_fixture(fixture_runs):
    theta = SolverConfig().theta
    for name, (program, run) in fixture_runs.items():
        previous_mu = None
        for it in run.iterates:
            assert np.all(it.s > 0.0), name
            assert np.all(it.z > 0.0), name
            assert float(np.min(it.s * it.z)) >= theta * it.mu * (1.0 - 1e-9), name
            if previous_mu is not None:
                assert it.mu < previous_mu, name
            previous_mu = it.mu


def test_converged_reports_satisfy_contract(fixture_runs):
    config = SolverConfig()
    for name, (program, run) in fixture_runs.items():
        report = run.report
        assert report.status is SolverStatus.CONVERGED, name
        assert kkt_norm(run.iterates[-1]) <= config.epsilon, name
        assert report.infe <= config.epsilon, name
        assert len(report.trace) == report.iterations + 1, name
        assert report.trace[0].k == 0


def test_max_iter_status():
    program, start = load_problem("ex1")
    with warnings_ignored():
        report = solve(program, SolverConfig(max_iter=3), default_start(program, start))
    assert report.status is SolverStatus.MAX_ITER
    assert report.iterations == 3


def test_singular_kkt_status_propagates(monkeypatch):
    program, start = load_problem("ex1")

    def explode(matrix, iterate, mu):
        raise SingularKKTError(0.0, 1.0)

    monkeypatch.setattr(kkt_mod, "solve_directions", explode)
    import arcipm.solver as solver_mod

    monkeypatch.setattr(solver_mod, "solve_directions", explode)
    report = solve(program, SolverConfig(), default_start(program, start))
    assert report.status is SolverStatus.SINGULAR_KKT
    assert "singular" in report.message.lower()


@pytest.mark.parametrize("x0", [(20.0, 1.0), (0.01, 20.0)])
def test_badly_scaled_start_is_not_singular(x0):
    # the full Newton matrix had pivots below 1e-12 of its largest entry
    # here; the equilibrated reduced matrix does not
    program, _ = load_problem("ex2")
    with warnings_ignored():
        report = solve(program, SolverConfig(), default_start(program, x0))
    assert report.status is SolverStatus.CONVERGED
    np.testing.assert_allclose(report.x, [2.0, 1.0], atol=1e-2)


def test_step_failure_status(monkeypatch):
    program, start = load_problem("ex1")
    import arcipm.solver as solver_mod
    from arcipm.step import StepFailureError

    def stall(iterate, directions, phi, psi, config):
        raise StepFailureError("forced stall")

    monkeypatch.setattr(solver_mod, "select_step", stall)
    report = solve(program, SolverConfig(), default_start(program, start))
    assert report.status is SolverStatus.STEP_FAILURE
    assert report.iterations == 0


def test_indefinite_curvature_warns_once():
    import warnings

    program, start = load_problem("ex7")  # concave geometric mean
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(program, SolverConfig(), default_start(program, start))
    curvature = [c for c in caught if "semidefinite" in str(c.message)]
    assert len(curvature) == 1


@pytest.mark.parametrize(
    ("name", "count"),
    [("ex1", 0), ("ex2", 1), ("ex3", 0), ("ex4", 0), ("ex5", 1), ("ex6", 1), ("ex7", 1), ("ex8", 0)],
)
def test_residual_floor_warns_at_most_once(name, count):
    import warnings

    program, start = load_problem(name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(program, SolverConfig(), default_start(program, start))
    assert len([c for c in caught if "residual factor reached zero" in str(c.message)]) == count


def test_curvature_is_checked_once_per_distinct_hessian(monkeypatch):
    import arcipm.solver as solver_mod

    checked = []
    original = solver_mod._indefinite
    monkeypatch.setattr(solver_mod, "_indefinite", lambda hess: checked.append(hess) or original(hess))
    # a folded quadratic hands every iterate the same read-only Hessian
    qp = many_rows_program(np.random.default_rng(0))
    report = solve(qp, SolverConfig())
    assert report.iterations > 1
    assert len(checked) == 1
    assert not checked[0].flags.writeable
    # a log objective gets a new Hessian at every iterate
    checked.clear()
    program, start = load_problem("ex1")
    report = solve(program, SolverConfig(), default_start(program, start))
    assert len(checked) == report.iterations


def test_convex_fixture_does_not_warn_about_curvature():
    import warnings

    program, start = load_problem("ex1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(program, SolverConfig(), default_start(program, start))
    assert not [c for c in caught if "semidefinite" in str(c.message)]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(theta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0)
    with pytest.raises(ValueError):
        SolverConfig(sigma_min=0.5, sigma_max=0.5)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    # each of these made solve() loop forever or was passed through unchecked
    for bad in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="bisect_tol"):
            SolverConfig(bisect_tol=bad)
        with pytest.raises(ValueError, match="alpha_floor"):
            SolverConfig(alpha_floor=bad)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=-5)
    assert SolverConfig(max_iter=0).max_iter == 0


def test_trace_row_zero_and_alignment(fixture_runs):
    _, run = fixture_runs["ex1"]
    trace = run.report.trace
    assert trace[0].sigma == 0.0 and trace[0].alpha == 0.0
    assert trace[0].mu == pytest.approx(1.0)
    assert [row.k for row in trace] == list(range(len(trace)))
    # row k carries the angle of the step that produced iterate k
    for row, sel in zip(trace[1:], run.selections[1:]):
        assert row.alpha == sel.alpha and row.sigma == sel.sigma


# Status and iteration count of many_rows_program(default_rng(seed)) from the
# default start, recorded before the step layer was vectorized.
MANY_ROWS_RUNS = {
    0: ("Converged", 48), 1: ("Converged", 56), 2: ("Converged", 55),
    3: ("Converged", 41), 4: ("Converged", 54), 5: ("Converged", 42),
    6: ("Converged", 44), 7: ("Converged", 59), 8: ("Converged", 37),
    9: ("Converged", 54), 10: ("Converged", 43), 11: ("Converged", 36),
}


@pytest.mark.parametrize("seed", sorted(MANY_ROWS_RUNS))
def test_many_rows_runs_keep_status_and_iterations(seed):
    program = many_rows_program(np.random.default_rng(seed))
    assert (program.n, program.m, program.p) == (4, 1, 108)
    with warnings_ignored():
        report = solve(program, SolverConfig(), default_start(program))
    status, iterations = MANY_ROWS_RUNS[seed]
    assert report.status.value == status
    if report.status is SolverStatus.CONVERGED:
        assert report.iterations == iterations
