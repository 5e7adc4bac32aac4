"""End-to-end iteration behavior and run invariants."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import arcipm.kkt as kkt_mod
from arcipm import SolverConfig, SolverStatus, default_start, solve
from arcipm.cli import parse_problem_text
from arcipm.kkt import SingularKKTError, duality_measure
from arcipm import step as step_module
from arcipm.step import select_step
from conftest import (
    LOG_DOMAIN_EXIT,
    UNUSED_VARIABLE,
    load_problem,
    many_rows_program,
    newton_directions,
    perfbench_module,
    predictor_of,
    run_recorded,
)


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


def test_solve_rejects_a_start_built_for_another_program():
    ex1, _ = load_problem("ex1")
    ex8, start8 = load_problem("ex8")
    with pytest.raises(ValueError, match=r"start has \(n, m, p\) = \(3, 0, 8\), the program has \(2, 0, 5\)"):
        solve(ex1, start=default_start(ex8, start8))


def test_a_start_built_for_another_program_of_the_same_sizes_steps_on_this_one():
    """The start's point and residual factor are taken into an iterate of the
    program solved: ex7's start carries ex7's concave Hessian and residuals."""
    ex1, start1 = load_problem("ex1")
    ex7, _ = load_problem("ex7")
    foreign = default_start(ex7, start1)
    assert not np.array_equal(foreign.hess, default_start(ex1, start1).hess)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(ex1, start=foreign)
    want = solve(ex1, start=default_start(ex1, start1))

    def raw(run):
        rows = [dataclasses.astuple(row) for row in run.trace]
        numbers = np.array([run.objective, run.infe, *run.x, *(v for row in rows for v in row)])
        return run.status, run.iterations, run.message, numbers.tobytes()

    assert raw(report) == raw(want)


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


def test_linear_residual_single_step_ratio(fixture_runs):
    for name, (program, run) in fixture_runs.items():
        for before, after, sel in zip(run.iterates, run.iterates[1:], run.selections[1:]):
            shrink = 1.0 - math.sin(sel.alpha)
            gap = np.linalg.norm(after.r_i - before.r_i * shrink)
            assert gap <= 1e-8 * (1.0 + np.linalg.norm(before.r_i)), name
            if program.m:
                gap = np.linalg.norm(after.r_e - before.r_e * shrink)
                assert gap <= 1e-8 * (1.0 + np.linalg.norm(before.r_e)), name


def test_max_iter_status():
    program, start = load_problem("ex1")
    report = solve(program, SolverConfig(max_iter=3), default_start(program, start))
    assert report.status is SolverStatus.MAX_ITER
    assert report.iterations == 3


def test_nan_stop_norm_never_counts_as_converged(monkeypatch):
    import arcipm.solver as solver_mod

    monkeypatch.setattr(solver_mod, "kkt_norm", lambda iterate: math.nan)
    program, start = load_problem("ex1")
    report = solve(program, SolverConfig(max_iter=3), default_start(program, start))
    assert report.status is SolverStatus.MAX_ITER
    assert report.iterations == 3
    assert all(math.isnan(row.kkt_norm) for row in report.trace)


def test_zero_iterations_still_apply_the_stop_test(fixture_runs):
    program, run = fixture_runs["ex1"]
    config = SolverConfig(max_iter=0)
    converged = solve(program, config, run.iterates[-1])
    assert converged.status is SolverStatus.CONVERGED
    assert converged.iterations == 0
    cold = solve(program, config, run.iterates[0])
    assert cold.status is SolverStatus.MAX_ITER
    assert cold.iterations == 0 and len(cold.trace) == 1


def test_point_outside_the_objective_domain_ends_as_step_failure():
    program, start = parse_problem_text(LOG_DOMAIN_EXIT)
    report = solve(program, SolverConfig(), default_start(program, start))
    assert report.status is SolverStatus.STEP_FAILURE
    assert report.message == "log overflows"
    assert report.iterations == 221 and len(report.trace) == 222
    # the report holds the last point inside the domain
    assert report.x[1] > 0.0


def test_singular_kkt_status_propagates(monkeypatch):
    program, start = load_problem("ex1")

    def explode(matrix, a_ineq, iterate):
        raise SingularKKTError("Newton matrix is singular (LU pivot 1 is exactly zero)")

    monkeypatch.setattr(kkt_mod, "solve_directions", explode)
    import arcipm.solver as solver_mod

    monkeypatch.setattr(solver_mod, "solve_directions", explode)
    report = solve(program, SolverConfig(), default_start(program, start))
    assert report.status is SolverStatus.SINGULAR_KKT
    assert "singular" in report.message.lower()


def test_unused_variable_ends_as_singular_kkt():
    program, start = parse_problem_text(UNUSED_VARIABLE)
    report = solve(program, SolverConfig(), default_start(program, start))
    assert report.status is SolverStatus.SINGULAR_KKT
    assert report.message == "Newton matrix is singular (row 2 is zero)"
    assert report.iterations == 0 and len(report.trace) == 1


# Status and iteration count of two infeasible programs with the objective
# x1^2 + x2^2: non-converged exits that do not raise.
INFEASIBLE_RUNS = {
    "ineq 1 1 >= 5\nineq -1 -1 >= -3": ("StepFailure", 19),
    "eq 1 1 = 5\nbound x1 0 1\nbound x2 0 1": ("StepFailure", 22),
}


@pytest.mark.parametrize("rows", sorted(INFEASIBLE_RUNS))
def test_infeasible_program_stops_without_raising(rows):
    program, start = parse_problem_text(f"vars x1 x2\nmin x1^2 + x2^2\n{rows}\n")
    report = solve(program, SolverConfig(), default_start(program, start))
    assert (report.status.value, report.iterations) == INFEASIBLE_RUNS[rows], (
        "pinned as today's behaviour: item 6 will report both programs as Infeasible, "
        "with a Farkas certificate"
    )


# Feasible, bounded programs over x1^2 + x2^2 that end wrongly, from the
# default start or, where the key says "no start", from solve()'s own:
# (rows, start) -> (status, iterations, x, message, the ROADMAP item
# expected to move the run).
COLD_START_FAILURES = {
    ("ineq 1 1 >= 1", "default"): ("MaxIter", 500, [0.500033, 0.500033], "", "item 12's sigma = 127/128 loop"),
    ("ineq 1e200 1 >= -1\nbound x1 -1 1", "default"): (
        "SingularKKT",
        0,
        [0.0, 0.0],
        "Newton matrix is not finite",
        "item 8's row equilibration",
    ),
    ("ineq 1e-200 1e-200 >= 1e-200", "default"): (
        "Converged",
        25,
        [1.13247e-197, 1.13247e-197],
        "",
        "item 8's row equilibration: the minimizer is (0.5, 0.5)",
    ),
    ("ineq 1e200 1 >= -1\nbound x1 -1 1", "no start"): (
        "SingularKKT",
        0,
        [0.0, 0.0],
        "Newton matrix is not finite",
        "item 8's row equilibration",
    ),
    ("ineq 1e-200 1e-200 >= 1e-200", "no start"): (
        "StepFailure",
        4,
        [0.2, 0.2],
        "no acceptable angle above 1.0e-08 (sigma=0.665, positivity limit 2.467e-09)",
        "item 8's row equilibration: the minimizer is (0.5, 0.5)",
    ),
}


@pytest.mark.parametrize(
    ("rows", "start"),
    [
        pytest.param(rows, start, id=rows if start == "default" else f"{rows} with no start")
        for rows, start in sorted(COLD_START_FAILURES)
    ],
)
def test_cold_start_failure_on_the_simplest_qp(rows, start):
    status, iterations, x, message, item = COLD_START_FAILURES[rows, start]
    program, x0 = parse_problem_text(f"vars x1 x2\nmin x1^2 + x2^2\n{rows}\n")
    # the 1e200 row overflows in numpy while the Newton matrix is built
    with np.errstate(all="ignore"):
        report = solve(program, SolverConfig(), default_start(program, x0) if start == "default" else None)
    assert (report.status.value, report.iterations, report.message) == (status, iterations, message), (
        f"pinned as today's behaviour: {item} is expected to move it"
    )
    np.testing.assert_allclose(report.x, x, rtol=1e-5)


def test_one_row_qp_converges_without_a_start():
    """The cold start's sigma = 127/128 loop of COLD_START_FAILURES is not reached
    by solve(program), whose Mehrotra-bounded rule centers no more than it needs."""
    program, _ = parse_problem_text("vars x1 x2\nmin x1^2 + x2^2\nineq 1 1 >= 1\n")
    report = solve(program)
    assert report.status is SolverStatus.CONVERGED
    np.testing.assert_allclose(report.x, [0.5, 0.5], atol=1e-6)


def test_one_row_cold_start_loops_at_the_top_of_the_sigma_range():
    program, start = parse_problem_text("vars x1 x2\nmin x1^2 + x2^2\nineq 1 1 >= 1\n")
    report = solve(program, SolverConfig(), default_start(program, start))
    capped = solve(program, SolverConfig(sigma_max=0.5), default_start(program, start))
    assert report.status is SolverStatus.MAX_ITER
    assert {(row.sigma, row.alpha) for row in report.trace if row.k >= 1} == {(127 / 128, math.pi / 2)}, (
        "item 12's loop: every step from k = 1 on takes sigma = 127/128 at the full angle"
    )
    assert capped.status is SolverStatus.CONVERGED
    np.testing.assert_allclose(capped.x, [0.5, 0.5], atol=1e-5)


@pytest.mark.parametrize("x0", [(20.0, 1.0), (0.01, 20.0)])
def test_badly_scaled_start_is_not_singular(x0):
    # the full Newton matrix had pivots below 1e-12 of its largest entry
    # here; the equilibrated reduced matrix does not
    program, _ = load_problem("ex2")
    report = solve(program, SolverConfig(), default_start(program, x0))
    assert report.status is SolverStatus.CONVERGED
    np.testing.assert_allclose(report.x, [2.0, 1.0], atol=1e-2)


def test_step_failure_status(monkeypatch):
    program, start = load_problem("ex1")
    import arcipm.solver as solver_mod
    from arcipm.step import StepFailureError

    def stall(iterate, directions, config, mehrotra):
        raise StepFailureError("forced stall")

    monkeypatch.setattr(solver_mod, "select_step", stall)
    report = solve(program, SolverConfig(), default_start(program, start))
    assert report.status is SolverStatus.STEP_FAILURE
    assert report.iterations == 0


def test_observer_errors_propagate_out_of_solve():
    """Only the step's own failures become a status; an observer's errors are its caller's."""
    program, start = load_problem("ex1")
    from arcipm.step import StepFailureError

    def observer(k, iterate, selection):
        if k == 2:
            raise StepFailureError("raised by the observer")

    with pytest.raises(StepFailureError, match="raised by the observer"):
        solve(program, SolverConfig(), default_start(program, start), observer)


def test_indefinite_curvature_warns_once():
    import warnings

    program, start = load_problem("ex7")  # concave geometric mean
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(program, SolverConfig(), default_start(program, start))
    curvature = [c for c in caught if "semidefinite" in str(c.message)]
    assert len(curvature) == 1


@pytest.mark.parametrize(
    ("name", "floored"),
    [(f"ex{k}", k in (2, 5, 6, 7)) for k in range(1, 9)],
)
def test_residual_floor_shows_in_the_trace_and_raises_no_warning(name, floored):
    import warnings

    program, start = load_problem(name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = solve(program, SolverConfig(), default_start(program, start))
    assert any(row.nu == step_module.RESIDUAL_FLOOR for row in report.trace) is floored
    assert not [c for c in caught if "residual factor" in str(c.message)]


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
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            SolverConfig(epsilon=bad)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=-5)
    assert SolverConfig(max_iter=0).max_iter == 0


@pytest.mark.parametrize("sigma_min", [0.1, 0.2, 0.5])
def test_sigma_min_bounds_every_accepted_sigma(sigma_min):
    """The least-centering sequence runs at sigma_min, not at 0, so no accepted sigma is below it."""
    for k in range(1, 9):
        program, start = load_problem(f"ex{k}")
        run = run_recorded(program, default_start(program, start), SolverConfig(sigma_min=sigma_min))
        assert run.report.status is SolverStatus.CONVERGED, (k, run.report.message)
        sigmas = [selection.sigma for selection in run.selections[1:]]
        assert min(sigmas) >= sigma_min
        assert sigma_min in sigmas


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
# default start, recorded when the sigma = 0 branch began its angles at the
# positivity cap.
MANY_ROWS_RUNS = {
    0: ("Converged", 31), 1: ("Converged", 45), 2: ("Converged", 30),
    3: ("Converged", 27), 4: ("Converged", 30), 5: ("Converged", 31),
    6: ("Converged", 31), 7: ("Converged", 35), 8: ("Converged", 26),
    9: ("Converged", 37), 10: ("Converged", 32), 11: ("Converged", 24),
}


@pytest.mark.parametrize("seed", sorted(MANY_ROWS_RUNS))
def test_many_rows_runs_keep_status_and_iterations(seed):
    program = many_rows_program(np.random.default_rng(seed))
    assert (program.n, program.m, program.p) == (4, 1, 108)
    report = solve(program, SolverConfig(), default_start(program))
    status, iterations = MANY_ROWS_RUNS[seed]
    assert report.status.value == status
    if report.status is SolverStatus.CONVERGED:
        assert report.iterations == iterations


def test_benchmark_many_rows_seed_16_converges_to_a_certified_minimizer():
    """Plain backtracking from the b_u minimizer stopped this instance at k = 88
    with StepFailure; starting the sigma = 0 angles at the positivity cap
    solves it."""
    instance = perfbench_module("instances").many_rows(np.random.default_rng(16))
    run = run_recorded(instance.program, default_start(instance.program))
    assert run.report.status is SolverStatus.CONVERGED, run.report.message
    last = run.iterates[-1]
    assert perfbench_module("checks").kkt_certificate(instance, last.x, last.y, last.z) == []


@pytest.fixture(scope="module")
def fall_through_draw():
    """The third many_rows draw of default_rng(45), its recorded run, and the
    iterate at k = 68 with its directions."""
    rng = np.random.default_rng(45)
    instance = [perfbench_module("instances").many_rows(rng) for _ in range(3)][-1]
    run = run_recorded(instance.program, default_start(instance.program))
    it = run.iterates[68]
    return instance, run, it, newton_directions(instance.program, it)


def test_benchmark_many_rows_draw_that_ran_out_of_sigma_zero_angles_converges(fall_through_draw):
    """The third many_rows draw of default_rng(45) stopped at k = 68 with
    StepFailure once every sigma = 0 angle failed the centrality test; the
    candidate stream then goes on with centering and the run converges."""
    instance, run, it, directions = fall_through_draw
    assert run.report.status is SolverStatus.CONVERGED, run.report.message
    last = run.iterates[-1]
    assert perfbench_module("checks").kkt_certificate(instance, last.x, last.y, last.z) == []
    assert predictor_of(it, directions).mixed < 0.0
    assert select_step(it, directions, SolverConfig()).sigma > 0.0


def test_select_step_builds_the_angle_limits_once_when_both_sequences_run(fall_through_draw, monkeypatch):
    """At k = 68 the sigma_min sequence and the bisection both run, on one alpha_limits function."""
    _, _, it, directions = fall_through_draw
    original, calls = step_module.alpha_limits, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(step_module, "alpha_limits", counting)
    selection = select_step(it, directions, SolverConfig())
    assert selection.sigma > 0.0
    assert len(calls) == 1


def test_each_iterate_keeps_the_duality_measure_its_step_took(fixture_runs, no_start_runs):
    """The accepted step's mu, handed to the next iterate, is the dot of that iterate's (s, z).

    On every stored iterate of ex1–ex8 from their files' starts and of the
    no-start solves of the benchmark's boxqp_dense and many_rows draws,
    bit for bit.
    """
    runs = [run for _, run in fixture_runs.values()]
    runs += [run for draws in no_start_runs.values() for _, run, _ in draws]
    checked = 0
    for run in runs:
        for it, selection in zip(run.iterates, run.selections):
            assert it.mu == duality_measure(it.s, it.z)
            if selection is not None:
                assert selection.mu == it.mu
            checked += 1
    assert checked > 600
