"""Problem file handling and command-line behavior."""

import contextlib
import csv
import dataclasses
import io
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from arcipm.cli import (
    _SOLVER_FLAGS,
    ProblemFileError,
    _write_trace,
    build_arg_parser,
    config_from_args,
    main,
    parse_problem_text,
)
from arcipm.solver import TRACE_COLUMNS, SolverConfig, TraceRow
from arcipm.step import RESIDUAL_FLOOR
from conftest import LOG_DOMAIN_EXIT, PROBLEM_DIR, UNUSED_VARIABLE

DATA_DIR = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_summary(out):
    values = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


def test_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, str(PROBLEM_DIR / "ex3.prob"))
    _, second, _ = run_cli(capsys, str(PROBLEM_DIR / "ex3.prob"))
    assert first == second


@pytest.mark.parametrize("name", [f"ex{k}" for k in range(1, 9)])
def test_output_matches_golden_file(capsys, name):
    _, out, _ = run_cli(capsys, str(PROBLEM_DIR / f"{name}.prob"))
    assert out == (DATA_DIR / f"{name}.out").read_text()


def test_readme_example_summary_is_the_golden_ex1_output():
    """The README's command-line example shows what ``arcipm problems/ex1.prob`` prints."""
    section = README.read_text().split("## Command line", 1)[1]
    example = section.split("prints\n\n```\n", 1)[1].split("```", 1)[0]
    assert example == (DATA_DIR / "ex1.out").read_text()


@pytest.mark.parametrize("name", [f"ex{k}" for k in range(1, 9)])
def test_command_line_warns_only_about_ex7_curvature(capsys, name):
    """Python prints a warning the CLI raises on its stderr; only ex7's concave objective raises one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(capsys, str(PROBLEM_DIR / f"{name}.prob"))
    assert code == 0
    expected = ["objective curvature is not positive semidefinite; continuing anyway"] if name == "ex7" else []
    assert [str(c.message) for c in caught] == expected


def test_readme_library_example_runs_without_a_warning():
    """The README's library example, whose trace it says never shows the nu floor."""
    section = README.read_text().split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()) as out:
        warnings.simplefilter("always")
        exec(example, namespace)
    assert caught == []
    assert out.getvalue() == "Converged 4 [1. 1.]\n"
    floored = [row.k for row in namespace["report"].trace if row.nu == RESIDUAL_FLOOR]
    assert floored == []


@pytest.mark.parametrize("name", [f"ex{k}" for k in range(1, 9)])
def test_trace_matches_golden_file(tmp_path, capsys, name):
    trace_path = tmp_path / "trace.csv"
    run_cli(capsys, str(PROBLEM_DIR / f"{name}.prob"), "--trace", str(trace_path))
    assert trace_path.read_bytes() == (DATA_DIR / f"{name}.csv").read_bytes()


def test_trace_writer_writes_what_csv_writer_writes(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, -2.5e-17, 1.0]
    fields = len(TRACE_COLUMNS) - 1
    trace = [
        TraceRow(k, *(specials[(k + j) % len(specials)] for j in range(fields)))
        for k in range(2 * len(specials))
    ]
    path = tmp_path / "trace.csv"
    _write_trace(str(path), trace)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for row in trace:
            writer.writerow([row.k, *map(repr, dataclasses.astuple(row)[1:])])
    assert path.read_bytes() == expected.read_bytes()
    _write_trace(str(path), [])
    assert path.read_bytes() == ",".join(TRACE_COLUMNS).encode() + b"\r\n"


def test_malformed_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("vars x1 x2\nmin x1 + x2\nineq 1 >= 0\n")
    code, out, err = run_cli(capsys, str(bad))
    assert code == 1
    assert out == ""
    assert "line 3" in err


@pytest.mark.parametrize(
    "line, edited, message",
    [
        ("ineq -1 -1 >= -10", "ineq -1 -1 >= nan", "b_ineq has an entry that is not finite"),
        ("ineq -1 -1 >= -10", "ineq -1 inf >= -10", "a_ineq has an entry that is not finite"),
        ("bound x1 1 10", "bound x1 nan 10", "a bound is NaN"),
        ("bound x1 1 10", "bound x1 inf 10", "a lower bound of inf or an upper bound of -inf"),
        ("bound x1 1 10", "bound x1 1 -inf", "a lower bound of inf or an upper bound of -inf"),
        ("start 5 5", "start nan 5", "initial point must be finite, got [nan, 5.0]"),
        (
            "min -(5*log(x1) - x1 + 7) - (7*log(x2) - x2 + 8)",
            "min (x1-1)^2 + x2^2 + 1e999",
            "expression value inf is not finite",
        ),
    ],
)
def test_non_finite_input_exits_one(tmp_path, capsys, line, edited, message):
    text = (PROBLEM_DIR / "ex1.prob").read_text()
    assert line in text
    bad = tmp_path / "bad.prob"
    bad.write_text(text.replace(line, edited))
    code, out, err = run_cli(capsys, str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "no_such_file.prob")
    assert code == 1
    assert "cannot read" in err


def test_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run_cli(capsys, str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}:")
    assert "Traceback" not in err


def test_start_whose_hessian_overflows_exits_one(tmp_path, capsys):
    problem = tmp_path / "overflow.prob"
    problem.write_text(
        "vars x1 x2\nmin 1/x1 + x2^2\nineq 1 1 >= -10\n"
        "bound x1 0 5\nbound x2 -5 5\nstart 1e-150 1\n"
    )
    code, out, err = run_cli(capsys, str(problem))
    assert code == 1
    assert out == ""
    assert err == "error: gradient or Hessian is not finite\n"


def test_trace_to_an_unwritable_path_exits_one(tmp_path, capsys):
    trace_path = tmp_path / "missing" / "t.csv"
    code, out, err = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--trace", str(trace_path))
    assert code == 1
    assert out == (DATA_DIR / "ex1.out").read_text()
    assert f"error: cannot write trace {trace_path}:" in err
    assert not trace_path.parent.exists()


def test_product_deeper_than_the_recursion_limit_solves(tmp_path, capsys):
    factors = 1500
    assert factors > sys.getrecursionlimit()
    line = "min -(5*log(x1) - x1 + 7) - (7*log(x2) - x2 + 8)"
    text = (PROBLEM_DIR / "ex1.prob").read_text()
    assert line in text
    problem = tmp_path / "deep.prob"
    problem.write_text(text.replace(line, line + " + 0" + "*x1" * factors))
    code, out, _ = run_cli(capsys, str(problem))
    assert code == 0
    assert out == (DATA_DIR / "ex1.out").read_text()


@pytest.mark.parametrize(
    "nested, code",
    [
        ("(" * 200 + "{} " + ")" * 200, 1),
        ("-" * 984 + "({})", 0),
        ("(" * 150 + "{} " + ")" * 150, 0),
    ],
    ids=["200 parentheses", "984 minus signs", "150 parentheses"],
)
def test_objective_nested_deeper_than_the_parser_can_go_exits_one(tmp_path, capsys, nested, code):
    line = "min -(5*log(x1) - x1 + 7) - (7*log(x2) - x2 + 8)"
    text = (PROBLEM_DIR / "ex1.prob").read_text()
    assert line in text
    problem = tmp_path / "nested.prob"
    problem.write_text(text.replace(line, "min " + nested.format(line[4:])))
    got, out, err = run_cli(capsys, str(problem))
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: line 3: bad objective: expression nests too deeply")
    else:
        assert out == (DATA_DIR / "ex1.out").read_text()


def test_point_outside_the_objective_domain_exits_two(tmp_path, capsys):
    problem = tmp_path / "log_domain.prob"
    problem.write_text(LOG_DOMAIN_EXIT)
    code, out, err = run_cli(capsys, str(problem))
    assert code == 2
    assert parse_summary(out)["status"] == "StepFailure"
    assert "note: log overflows" in err


def test_unused_variable_exits_two_as_singular_kkt(tmp_path, capsys):
    problem = tmp_path / "unused.prob"
    problem.write_text(UNUSED_VARIABLE)
    code, out, err = run_cli(capsys, str(problem))
    assert code == 2
    summary = parse_summary(out)
    assert (summary["status"], summary["kk"]) == ("SingularKKT", "0")
    assert err == "note: Newton matrix is singular (row 2 is zero)\n"


def test_max_iter_flag_gives_solver_failure_exit(capsys):
    code, out, _ = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--max-iter", "2")
    assert code == 2
    assert parse_summary(out)["status"] == "MaxIter"


def test_sigma_min_flag_bounds_every_traced_sigma(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, str(PROBLEM_DIR / "ex1.prob"), "--sigma-min", "0.2", "--trace", str(trace_path)
    )
    assert code == 0
    assert parse_summary(out)["status"] == "Converged"
    with open(trace_path, newline="") as handle:
        sigmas = [float(row["sigma"]) for row in csv.DictReader(handle)][1:]
    assert sigmas and min(sigmas) >= 0.2
    assert 0.2 in sigmas


def test_negative_max_iter_flag_exits_one(capsys):
    code, out, err = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--max-iter", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "max_iter" in err


def test_infinite_epsilon_flag_exits_one(capsys):
    # an infinite tolerance would report the starting point as Converged
    code, out, err = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--epsilon", "inf")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "epsilon" in err


def test_x0_flag_overrides_start(capsys):
    code, out, _ = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--x0", "4,4")
    assert code == 0
    assert parse_summary(out)["status"] == "Converged"


def test_x0_flag_length_checked(capsys):
    code, _, err = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--x0", "1,2,3")
    assert code == 1
    assert err == "error: --x0 needs 2 values\n"


def test_parse_problem_text_errors():
    with pytest.raises(ProblemFileError, match="vars line must come first"):
        parse_problem_text("min x1\nvars x1\n")
    with pytest.raises(ProblemFileError, match="duplicate objective"):
        parse_problem_text("vars x1\nmin x1\nmin x1\nineq 1 >= 0\n")
    with pytest.raises(ProblemFileError, match="unknown directive"):
        parse_problem_text("vars x1\nmaximize x1\n")
    with pytest.raises(ProblemFileError, match="unknown variable"):
        parse_problem_text("vars x1\nmin x1\nbound x9 0 1\n")
    with pytest.raises(ProblemFileError, match="duplicate bound"):
        parse_problem_text("vars x1\nmin x1\nbound x1 0 1\nbound x1 0 2\n")
    with pytest.raises(ProblemFileError, match="line 4: duplicate start line"):
        parse_problem_text("vars x1\nmin x1\nstart 1\nstart 2\n")
    # an open bound line counts too, in either order
    for first, second in (("-inf inf", "0 1"), ("0 1", "-inf inf")):
        with pytest.raises(ProblemFileError, match="line 4: duplicate bound for 'x1'"):
            parse_problem_text(f"vars x1\nmin x1\nbound x1 {first}\nbound x1 {second}\n")
    # an error that no one line causes has no line prefix
    for text, message in (
        ("# no directives\n", "missing vars line"),
        ("vars x1\nineq 1 >= 0\n", "missing objective ('min ...')"),
        ("vars x1\nmin x1\neq 1 = 0\nineq 1 >= 0\n", "need fewer equality rows than variables (m=1, n=1)"),
    ):
        with pytest.raises(ProblemFileError) as err:
            parse_problem_text(text)
        assert str(err.value) == message and err.value.line is None


@pytest.mark.parametrize(
    ("text", "line", "message"),
    [
        ("vars x1\nmin x1\nineq a >= 0\n", 3, "expected numbers, got ['a']"),
        ("vars x1\nvars x2\n", 2, "duplicate vars line"),
        ("vars\n", 1, "vars line declares no variables"),
        ("vars x1 x1\n", 1, "duplicate variable name"),
        ("vars x1 exp\n", 1, "'log' and 'exp' are reserved words"),
        ("vars x1\nmin x1\nbound x1 0\n", 3, "expected 'bound <var> <lo> <hi>'"),
        ("vars x1 x2\nmin x1\nstart 1\n", 3, "start point needs 2 values"),
        ("vars x1 x2\nmin (x1 + x2\n", 2, "bad objective: expected ')' (column 9)"),
    ],
    ids=["numbers", "duplicate-vars", "no-variables", "duplicate-name", "reserved", "bound", "start",
         "expect-op"],
)
def test_parse_problem_text_names_the_line_of_each_input_check(text, line, message):
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(text)
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


def test_parse_problem_text_full_example():
    program, start = parse_problem_text(
        """
        # comment and blank lines are fine

        vars a b
        min a^2 + b^2
        eq 1 1 = 2
        ineq 1 -1 >= 0
        bound a 0 5
        bound b -inf inf
        start 1 1
        """
    )
    assert program.n == 2 and program.m == 1 and program.p == 3
    np.testing.assert_array_equal(start, [1.0, 1.0])


def test_every_config_field_has_a_flag():
    assert {field.name for field in dataclasses.fields(SolverConfig)} == set(_SOLVER_FLAGS)


def test_default_flags_give_default_config():
    args = build_arg_parser().parse_args([str(PROBLEM_DIR / "ex1.prob")])
    assert config_from_args(args) == SolverConfig()
