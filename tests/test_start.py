"""The start that ``solve()`` takes when it is given none, ``least_squares_start``,
its fallback ``balanced_start``, and the rule that runs from it."""

import re
import warnings

import numpy as np
import pytest

from arcipm import (
    ConvexProgram,
    DomainError,
    SolverConfig,
    SolverStatus,
    balanced_start,
    default_start,
    fold_bounds,
    least_squares_start,
    parse_expression,
    solve,
)
from arcipm.autodiff import evaluate
from arcipm.cli import parse_problem_text
from arcipm.step import select_step
from conftest import load_problem, newton_directions, perfbench_module, run_recorded

# The largest share of the cold start's total iterations that the no-start
# solves of no_start_runs may take.  Measured: 114 of 1379 on many_rows and
# 80 of 1070 on boxqp_dense, 0.08 and 0.07 (145 and 80 with the face guessed
# from the iterate rather than from the arc's end point, 228 and 129 before
# the face step's corrections, 284 and 186 before the face step).
ITERATION_SHARE = 0.5


def test_balanced_start_scales_s_and_z_to_the_residual():
    program, start = load_problem("ex1")
    xi = float(np.abs(program.a_ineq @ start - program.b_ineq).max())
    assert xi > 1.0
    it = balanced_start(program, start)
    np.testing.assert_array_equal(it.x, start)
    np.testing.assert_array_equal(it.y, np.zeros(program.m))
    np.testing.assert_array_equal(it.s, np.full(program.p, xi))
    np.testing.assert_array_equal(it.z, np.full(program.p, xi))
    assert it.nu == 1.0
    assert it.mu == xi * xi


def test_balanced_start_never_goes_below_one():
    a_ineq, b_ineq = fold_bounds(np.zeros((0, 2)), [], [0.0, 0.0], [1.0, 1.0])
    program = ConvexProgram(2, parse_expression("x1^2 + x2", ["x1", "x2"]), [], [], a_ineq, b_ineq)
    # every row is 0.5 from its bound at the centre of the box
    it = balanced_start(program, [0.5, 0.5])
    np.testing.assert_array_equal(it.s, np.ones(4))
    np.testing.assert_array_equal(it.z, np.ones(4))
    # without x0 the start is x = 0, where two rows are 1 from their bounds
    it = balanced_start(program)
    np.testing.assert_array_equal(it.x, np.zeros(2))
    np.testing.assert_array_equal(it.s, np.ones(4))


@pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], [5.0, np.nan], [5.0, np.inf]])
def test_balanced_start_checks_x0_as_default_start_does(bad):
    program, _ = load_problem("ex1")
    with pytest.raises(ValueError) as cold:
        default_start(program, bad)
    with pytest.raises(ValueError, match=re.escape(str(cold.value))):
        balanced_start(program, bad)


def test_solve_without_a_start_names_its_start_where_the_objective_is_undefined():
    # ex1's objective takes log(x1); solve() without a start would begin at x = 0
    program, start = load_problem("ex1")
    expected = (
        "log of a nonpositive value at x = 0, the start solve() takes when given none; pass "
        "start=balanced_start(program, x0) with x0 in the objective's domain"
    )
    with pytest.raises(DomainError, match=re.escape(expected)):
        solve(program)
    assert solve(program, start=balanced_start(program, start)).status is SolverStatus.CONVERGED


def test_solve_without_a_start_raises_a_folded_objectives_own_error():
    # min x1^2 folds and is finite at x = 0; its least-squares point x1 = 1e160 overflows it
    program, _ = parse_problem_text("vars x1\nmin x1^2\nineq 1 >= 1e160\n")
    assert evaluate(program.compiled_objective, np.zeros(1)) == 0.0
    with pytest.raises(DomainError, match="^polynomial overflows") as raised:
        solve(program)
    assert "x = 0" not in str(raised.value)
    assert "balanced_start" not in str(raised.value)


@pytest.mark.parametrize("name", ["many_rows", "boxqp_dense"])
def test_solve_without_a_start_runs_the_mehrotra_rule_from_the_balanced_start(name, no_start_runs):
    """No start: the least-squares start and the Mehrotra-bounded rule.  An
    explicit least-squares start keeps the paper's rule, with its floors and
    centrality test.  The name is from when solve() began at the balanced start.
    Draw 8 of each generator: its boxqp_dense has n = 10.  Every arc step
    is replayed; a face step, which no selection made, may only end a run
    without a start."""
    instance, default, _ = no_start_runs[name][8]
    program = instance.program
    config = SolverConfig()
    given = run_recorded(program, least_squares_start(program))
    assert default.report.status is given.report.status is SolverStatus.CONVERGED
    assert default.report.trace[0] == given.report.trace[0]
    assert default.report.trace[1] != given.report.trace[1]
    for run, mehrotra in ((default, True), (given, False)):
        face_steps = [k for k, selection in enumerate(run.selections) if k and selection is None]
        assert face_steps == [] or (mehrotra and face_steps == [len(run.selections) - 1])
        for k in face_steps:
            assert run.report.trace[k].kkt_norm <= config.epsilon
        for iterate, selection in zip(run.iterates, run.selections[1:]):
            if selection is not None:
                assert select_step(iterate, newton_directions(program, iterate), config, mehrotra) == selection


def test_no_start_solves_the_benchmark_generators_in_at_most_half_the_iterations(no_start_runs):
    checks = perfbench_module("checks")
    totals = {name: [0, 0] for name in no_start_runs}
    problems = {}
    for name, draws in no_start_runs.items():
        for k, (instance, run, caught) in enumerate(draws):
            with warnings.catch_warnings(record=True) as cold_caught:
                warnings.simplefilter("always")
                cold = solve(instance.program, start=default_start(instance.program))
            last = run.iterates[-1]
            found = checks.kkt_certificate(instance, last.x, last.y, last.z)
            if run.report.status is not SolverStatus.CONVERGED:
                found.append(f"status {run.report.status.value}")
            found += [f"warning {c.message}" for c in caught + cold_caught]
            if found:
                problems[(name, k)] = found
            totals[name][0] += run.report.iterations
            totals[name][1] += cold.iterations
    assert problems == {}
    for name, (no_start, cold_total) in totals.items():
        assert no_start <= ITERATION_SHARE * cold_total, (name, no_start, cold_total)


def test_least_squares_start_does_not_depend_on_the_scale_of_a_row():
    instances = perfbench_module("instances")
    program = instances.many_rows(np.random.default_rng(3)).program
    want = least_squares_start(program).x.tobytes()
    for k in range(-100, 101):
        row = k % program.p
        a_ineq, b_ineq = program.a_ineq.copy(), program.b_ineq.copy()
        a_ineq[row] *= 2.0**k
        b_ineq[row] *= 2.0**k
        scaled = ConvexProgram(program.n, program.objective, program.a_eq, program.b_eq, a_ineq, b_ineq)
        assert least_squares_start(scaled).x.tobytes() == want, k


def test_least_squares_start_is_the_balanced_start_for_an_objective_that_does_not_fold():
    a_ineq, b_ineq = fold_bounds(np.zeros((0, 2)), [], [-1.0, -1.0], [2.0, 2.0])
    program = ConvexProgram(2, parse_expression("exp(x1) + x2^4", ["x1", "x2"]), [], [], a_ineq, b_ineq)
    assert least_squares_start(program).vec.tobytes() == balanced_start(program).vec.tobytes()


def test_a_singular_least_squares_system_falls_back_to_the_balanced_start():
    # x2 is in no row and not in the objective: the system's row for x2 is zero
    program, _ = parse_problem_text("vars x1 x2\nmin x1^2\nineq 1 0 >= 1\n")
    assert least_squares_start(program).vec.tobytes() == balanced_start(program).vec.tobytes()
    report = solve(program)
    assert (report.status, report.iterations) == (SolverStatus.SINGULAR_KKT, 0)


def test_slacks_that_overflow_on_the_raw_rows_fall_back_to_the_balanced_start():
    # 3 x1 = 1e10 is finite, but the 1e300 row's slack at it is not; x = 0 gives s = z = 1
    program, _ = parse_problem_text("vars x1\nmin x1^2 - 1e10*x1\nineq 1e300 >= 0\n")
    with np.errstate(all="ignore"):
        it = least_squares_start(program)
    assert it.vec.tobytes() == balanced_start(program).vec.tobytes()


def test_a_slack_of_exactly_zero_starts_at_zeta():
    # 3 x1 = 0 gives x = 0 on the row's bound, where no shift applies; zeta = max(1, 0)
    program, _ = parse_problem_text("vars x1\nmin x1^2\nineq 1 >= 0\n")
    it = least_squares_start(program)
    np.testing.assert_array_equal(it.x, [0.0])
    np.testing.assert_array_equal(it.s, [1.0])
    np.testing.assert_array_equal(it.z, [1.0])
    report = solve(program)
    assert report.status is SolverStatus.CONVERGED
    np.testing.assert_allclose(report.x, [0.0], atol=1e-3)


def test_a_zero_inequality_row_gives_a_finite_start():
    program, _ = parse_problem_text("vars x1 x2\nmin (x1 - 1)^2 + x2^2\nineq 0 0 >= -1\nbound x1 0 2\n")
    it = least_squares_start(program)
    # (H + A'A) x = A'b - g is diag(4, 2) x = (4, 0); every row is 1 from its bound
    np.testing.assert_array_equal(it.x, [1.0, 0.0])
    np.testing.assert_array_equal(it.s, np.ones(3))
    np.testing.assert_array_equal(it.z, np.ones(3))
    assert solve(program).status is SolverStatus.CONVERGED


def test_a_steep_linear_objective_converges_from_the_least_squares_start():
    # from the balanced start this run ends StepFailure at k = 0
    program, _ = parse_problem_text("vars x1 x2\nmin 1e12*x1 - 1e12*x2\nbound x1 0 1\nbound x2 0 1\n")
    report = solve(program)
    assert report.status is SolverStatus.CONVERGED
    np.testing.assert_allclose(report.x, [0.0, 1.0], atol=1e-8)
