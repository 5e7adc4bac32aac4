"""Programs built from arrays: a :class:`arcipm.Quadratic` objective is checked
when built, kept as a read-only copy, and solved exactly as its tree twin."""

import dataclasses

import numpy as np
import pytest

from arcipm import ConvexProgram, Quadratic, balanced_start, default_start, fold_bounds, solve
from conftest import TOOLS_DIR, load_problem, perfbench_module, quadratic_tree
from qp_family import qp_family

H2 = np.array([[2.0, 0.5], [0.5, 1.0]])
G2 = np.array([1.0, -1.0])


def box_program(objective, n: int = 2) -> ConvexProgram:
    a_ineq, b_ineq = fold_bounds(np.zeros((0, n)), np.zeros(0), -np.ones(n), np.ones(n))
    return ConvexProgram(n=n, objective=objective, a_eq=np.zeros((0, n)), b_eq=np.zeros(0), a_ineq=a_ineq, b_ineq=b_ineq)


def report_digest(report) -> str:
    """``tools/run_digest.py``'s SHA-256 of one report: its trace rows, x, status, objective, infe and iterations."""
    digest = perfbench_module("run_digest", TOOLS_DIR).Digest()
    digest.feed(report)
    return digest.sha.hexdigest()


@pytest.mark.parametrize(
    "constant, linear, hessian, message",
    [
        (0.0, G2, np.array([[2.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]]), "not exactly symmetric"),
        (0.0, G2, np.ones((2, 3)), "shape"),
        (0.0, G2, np.eye(3), "shape"),
        (0.0, G2, np.ones(4), "dimensions"),
        (0.0, G2, np.array([[2.0, np.nan], [np.nan, 1.0]]), "Hessian has an entry that is not finite"),
        (0.0, G2, np.array([[np.inf, 0.0], [0.0, 1.0]]), "Hessian has an entry that is not finite"),
        (0.0, np.ones((2, 1)), H2, "dimensions"),
        (0.0, np.ones(3), H2, "shape"),
        (0.0, np.array([1.0, np.inf]), H2, "linear term has an entry that is not finite"),
        (0.0, np.array([np.nan, 0.0]), H2, "linear term has an entry that is not finite"),
        (np.array([0.0, 1.0]), G2, H2, "constant term has 1 dimensions"),
        (np.inf, G2, H2, "constant term has an entry that is not finite"),
        (np.nan, G2, H2, "constant term has an entry that is not finite"),
    ],
    ids=[
        "H asymmetric", "H not square", "H of another size", "H a vector", "H NaN", "H inf",
        "g a matrix", "g of another size", "g inf", "g NaN", "c a vector", "c inf", "c NaN",
    ],
)
def test_a_quadratic_with_a_bad_field_is_a_value_error_when_built(constant, linear, hessian, message):
    with pytest.raises(ValueError, match=message):
        box_program(Quadratic(constant, linear, hessian))


@pytest.mark.parametrize("field", ["constant", "linear", "hessian"])
def test_a_quadratic_field_of_no_real_numbers_is_a_type_error(field):
    fields = {"constant": 0.0, "linear": G2, "hessian": H2}
    fields[field] = np.asarray(fields[field], dtype=complex) if field != "constant" else "1.5"
    with pytest.raises(TypeError, match="not real numbers"):
        Quadratic(**fields)


def test_a_quadratic_over_another_number_of_variables_is_rejected_by_the_program():
    with pytest.raises(ValueError, match="objective has 2 variables, the program 3"):
        box_program(Quadratic(0.0, G2, H2), n=3)


def test_the_program_keeps_read_only_copies_and_is_its_own_compiled_objective():
    constant, linear, hessian = np.float32(1.5), [1, -1], [[2, 1], [1, 2]]
    program = box_program(Quadratic(constant, linear, hessian))
    objective = program.objective
    assert program.compiled_objective is objective
    assert type(objective.constant) is float and objective.constant == 1.5
    for got, given in ((objective.linear, linear), (objective.hessian, hessian)):
        assert got.dtype == float and np.array_equal(got, given)
        assert got.flags.c_contiguous and not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0


def test_a_program_compares_and_hashes_by_identity():
    """A program's fields are arrays, so ``==`` and ``hash`` answer by identity, as a Quadratic's do."""
    draw = next(qp_family(1))
    program = draw.program
    copy = dataclasses.replace(program)
    assert program == program and hash(program) == hash(program)
    assert program != copy and copy != program
    assert len({program, copy, program}) == 2
    # ex1 parsed twice: its a_eq is empty
    twice = [load_problem("ex1")[0] for _ in range(2)]
    assert twice[0] != twice[1] and len(set(twice)) == 2


def test_changing_the_callers_arrays_after_the_build_changes_neither_h_nor_the_solve():
    draw = next(qp_family(1))
    n = draw.q.shape[0]
    q, g = draw.q.copy(), np.zeros(n)
    program = dataclasses.replace(draw.program, objective=Quadratic(0.0, g, q))
    q[:] = 1e6
    g[:] = 5.0
    assert np.array_equal(program.objective.hessian, draw.q) and not program.objective.linear.any()
    assert report_digest(solve(program)) == report_digest(solve(draw.program))


STARTS = {
    "no start": lambda program, x0: None,
    "default_start": default_start,
    "balanced_start": balanced_start,
}


@pytest.mark.parametrize("start", list(STARTS))
def test_each_family_draw_and_its_tree_twin_give_the_same_report(start):
    """The tree of ½xᵀQx folds to the draw's (0, 0, Q) bit for bit, and both
    programs give the same x bytes, status, iteration count, objective,
    infe and trace rows."""
    make_start = STARTS[start]
    failures = []
    for index, draw in enumerate(qp_family()):
        program = draw.program
        twin = dataclasses.replace(program, objective=quadratic_tree(draw.q))
        folded, given = twin.compiled_objective, program.objective
        for part in ("constant", "linear", "hessian"):
            if np.asarray(getattr(folded, part)).tobytes() != np.asarray(getattr(given, part)).tobytes():
                failures.append((index, part))
        reports = [solve(p, start=make_start(p, draw.x0)) for p in (program, twin)]
        if report_digest(reports[0]) != report_digest(reports[1]):
            failures.append((index, "report"))
    assert failures == []


@pytest.mark.parametrize("name", ["many_rows", "boxqp_dense"])
def test_benchmark_draws_rebuilt_from_their_arrays_give_the_tree_programs_reports(name, no_start_runs):
    """Each generator's draws of ``no_start_runs``, whose programs hold trees,
    rebuilt from the instance's own Q, A and b and solved with no start."""
    assert len(no_start_runs[name]) >= 40
    for instance, run, _ in no_start_runs[name]:
        n = instance.q.shape[0]
        program = ConvexProgram(
            n=n, objective=Quadratic(0.0, np.zeros(n), instance.q), a_eq=instance.a_eq, b_eq=instance.b_eq,
            a_ineq=instance.a_ineq, b_ineq=instance.b_ineq,
        )
        assert report_digest(solve(program)) == report_digest(run.report)
