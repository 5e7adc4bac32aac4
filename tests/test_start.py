"""The start that ``solve()`` takes when it is given none, ``balanced_start``, and the rule it runs from it."""

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
    parse_expression,
    solve,
)
from arcipm.step import select_step
from conftest import load_problem, newton_directions, perfbench_module, run_recorded

# Instances per generator in the sweep below, and the largest share of the
# cold start's total iterations that the no-start solves may take.  Measured:
# 375 of 1379 on many_rows and 213 of 1070 on boxqp_dense, 0.27 and 0.20.
SWEEP_SIZE = 40
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


@pytest.mark.parametrize("name", ["many_rows", "boxqp_dense"])
def test_solve_without_a_start_runs_the_mehrotra_rule_from_the_balanced_start(name):
    """No start: the balanced start and the Mehrotra-bounded rule.  An explicit
    balanced start keeps the paper's rule, with its floors and centrality test."""
    instances = perfbench_module("instances")
    rng = np.random.default_rng(0)
    program = (instances.many_rows(rng) if name == "many_rows" else instances.boxqp_dense(rng, 6)).program
    config = SolverConfig()
    default = run_recorded(program, None)
    given = run_recorded(program, balanced_start(program))
    assert default.report.status is given.report.status is SolverStatus.CONVERGED
    assert default.report.trace[0] == given.report.trace[0]
    assert default.report.trace[1] != given.report.trace[1]
    for run, mehrotra in ((default, True), (given, False)):
        for iterate, selection in zip(run.iterates, run.selections[1:]):
            assert select_step(iterate, newton_directions(program, iterate), config, mehrotra) == selection


def test_no_start_solves_the_benchmark_generators_in_at_most_half_the_iterations():
    instances = perfbench_module("instances")
    checks = perfbench_module("checks")
    rng = np.random.default_rng(5)
    totals = {"many_rows": [0, 0], "boxqp_dense": [0, 0]}
    problems = {}
    for k in range(SWEEP_SIZE):
        drawn = {"many_rows": instances.many_rows(rng), "boxqp_dense": instances.boxqp_dense(rng, 2 + k % 9)}
        for name, instance in drawn.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run = run_recorded(instance.program, None)
                cold = solve(instance.program, start=default_start(instance.program))
            last = run.iterates[-1]
            found = checks.kkt_certificate(instance, last.x, last.y, last.z)
            if run.report.status is not SolverStatus.CONVERGED:
                found.append(f"status {run.report.status.value}")
            found += [f"warning {c.message}" for c in caught]
            if found:
                problems[(name, k)] = found
            totals[name][0] += run.report.iterations
            totals[name][1] += cold.iterations
    assert problems == {}
    for name, (balanced, cold_total) in totals.items():
        assert balanced <= ITERATION_SHARE * cold_total, (name, balanced, cold_total)
