"""Objectives that fold to a quadratic with a linear term step on their true
gradient g + H x, so LPs end at their minimizer; HiGHS checks the answers.
For such an objective r_C is the true-stationarity vector, and every trace
row says so."""

import numpy as np
import pytest
from scipy.optimize import linprog

from arcipm import (
    ConvexProgram,
    SolverStatus,
    balanced_start,
    default_start,
    fold_bounds,
    parse_expression,
)
from arcipm.expr import Add, Const, Mul, Var
from arcipm.kkt import true_stationarity_norm
from conftest import load_problem, run_recorded

LP_SEED = 11
LP_DRAWS = 30


def _starts(program):
    # None: solve() picks the least-squares start and the Mehrotra-bounded rule
    return {"cold": default_start(program), "balanced": balanced_start(program), "none": None}


@pytest.mark.parametrize("start", ["cold", "balanced", "none"])
def test_lp_ends_at_its_vertex_from_either_start(start):
    """min -x1 - 2 x2 with x1 + x2 <= 4 on [0, 3]^2: the H x residual
    stopped this at (1.918, 1.918), objective -5.75, reported Converged."""
    a_ineq, b_ineq = fold_bounds([[-1.0, -1.0]], [-4.0], [0.0, 0.0], [3.0, 3.0])
    program = ConvexProgram(2, parse_expression("-x1 - 2*x2", ["x1", "x2"]), [], [], a_ineq, b_ineq)
    run = run_recorded(program, _starts(program)[start])
    report = run.report
    assert report.status is SolverStatus.CONVERGED
    np.testing.assert_allclose(report.x, [1.0, 3.0], atol=1e-6)
    assert report.objective == pytest.approx(-7.0, abs=1e-6)
    assert _rows_off_the_stationarity_identity(program, run) == []


def _rows_off_the_stationarity_identity(program, run) -> list[int]:
    """The trace rows k whose true_stat_norm is not both norm_rC and the norm
    of grad f + A_E'y - A_I'z formed from the iterate of row k."""
    off = []
    for row, iterate in zip(run.report.trace, run.iterates, strict=True):
        want = np.linalg.norm(iterate.grad + program.a_eq.T @ iterate.y - program.a_ineq.T @ iterate.z)
        if not row.true_stat_norm == row.norm_rc == true_stationarity_norm(program, iterate) == want:
            off.append(row.k)
    return off


def _linear_tree(c: np.ndarray):
    tree = Mul(Const(c[0]), Var(0, "x1"))
    for i in range(1, c.size):
        tree = Add(tree, Mul(Const(c[i]), Var(i, f"x{i + 1}")))
    return tree


def _lp_draws():
    """(program, HiGHS optimum) of LPs over a box with up to 5 dense rows and
    up to 2 equality rows, all placed around one interior point."""
    rng = np.random.default_rng(LP_SEED)
    for _ in range(LP_DRAWS):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, min(2, n - 1) + 1))
        c = rng.normal(size=n) * 10.0 ** rng.uniform(-2.0, 2.0)
        inside = rng.normal(size=n)
        a_eq = rng.normal(size=(m, n))
        a_rows = rng.normal(size=(int(rng.integers(0, 6)), n))
        b_rows = a_rows @ inside - rng.uniform(0.1, 1.0, size=a_rows.shape[0])
        lower = inside - rng.uniform(0.5, 2.0, size=n)
        upper = inside + rng.uniform(0.5, 2.0, size=n)
        a_ineq, b_ineq = fold_bounds(a_rows, b_rows, lower, upper)
        program = ConvexProgram(n, _linear_tree(c), a_eq, a_eq @ inside, a_ineq, b_ineq)
        # HiGHS reads A_ub x <= b_ub; the box goes in as bounds
        highs = linprog(c, A_ub=-a_rows, b_ub=-b_rows, A_eq=a_eq, b_eq=a_eq @ inside,
                        bounds=list(zip(lower, upper)), method="highs")
        assert highs.status == 0, highs.message
        yield program, highs.fun


@pytest.mark.parametrize("start", ["cold", "balanced", "none"])
def test_seeded_lps_reach_the_highs_optimum(start):
    missed = {}
    for index, (program, optimum) in enumerate(_lp_draws()):
        run = run_recorded(program, _starts(program)[start])
        report = run.report
        gap = abs(report.objective - optimum) / (1.0 + abs(optimum))
        feasible = (program.a_ineq @ report.x >= program.b_ineq - 1e-6).all()
        off = _rows_off_the_stationarity_identity(program, run)
        if report.status is not SolverStatus.CONVERGED or gap > 1e-6 or not feasible or off:
            missed[index] = (report.status.value, gap, feasible, off)
    assert missed == {}


@pytest.mark.parametrize("name", ["boxqp_dense", "many_rows"])
def test_every_row_of_a_folded_qp_reads_its_stationarity_from_r_c(name, no_start_runs):
    for instance, run, _ in no_start_runs[name]:
        assert run.report.status is SolverStatus.CONVERGED
        assert _rows_off_the_stationarity_identity(instance.program, run) == []


def test_an_objective_that_does_not_fold_forms_its_stationarity_on_every_row():
    # ex1 steps on the model term H x, so r_C and grad f + A_E'y - A_I'z differ
    program, start = load_problem("ex1")
    run = run_recorded(program, default_start(program, start))
    off = _rows_off_the_stationarity_identity(program, run)
    assert len(off) == len(run.report.trace)
    for row, iterate in zip(run.report.trace, run.iterates, strict=True):
        assert row.true_stat_norm == true_stationarity_norm(program, iterate) != row.norm_rc
