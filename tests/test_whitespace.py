"""One whitespace rule for problem files and expressions: any whitespace separates tokens."""

from pathlib import Path

import pytest

from arcipm.cli import main, parse_problem_text
from arcipm.expr import ParseError, parse_expression
from conftest import PROBLEM_DIR

DATA_DIR = Path(__file__).resolve().parent / "data"
SAMPLES = [f"ex{k}" for k in range(1, 9)]
X12 = ["x1", "x2"]

# the texts that tests/test_expr.py parses, valid and invalid
EXPR_CASES = [
    "x1 + x2",
    "-(5*log(x1) - x1 + 7) - (7*log(x2) - x2 + 8)",
    "(5*x1)^2 / (7*x2)",
    "2 + 3 * 4",
    "2 * 3 ^ 2",
    "-2 ^ 2",
    "2 ^ -1",
    "8 ^ (1/3)",
    "2 - 3 - 4",
    "x1 ^ x2",
    "x1 + q",
    "x1 + * x2",
    "x1 x2",
    "x1 - -x2",
]


def _sample_objectives():
    """(variable names, objective text) of each sample problem file."""
    for name in SAMPLES:
        lines = [line.split("#", 1)[0] for line in (PROBLEM_DIR / f"{name}.prob").read_text().splitlines()]
        names = next(line.split()[1:] for line in lines if line.startswith("vars "))
        yield names, next(line[len("min ") :].strip() for line in lines if line.startswith("min "))


def _parsed(text, names):
    """The tree of ``text``, or the message and column of its ParseError."""
    try:
        return parse_expression(text, names)
    except ParseError as err:
        return str(err), err.position


@pytest.mark.parametrize("space", ["\t", "\n", "\xa0"])
def test_any_whitespace_in_an_expression_parses_as_a_space(space):
    cases = [(X12, text) for text in EXPR_CASES] + list(_sample_objectives())
    for names, text in cases:
        assert _parsed(text.replace(" ", space), names) == _parsed(text, names), text


def test_a_bad_character_reports_its_own_column_after_any_whitespace():
    for space in (" ", "\t", "\xa0", "\u2003"):
        with pytest.raises(ParseError, match=r"unexpected character '\$' \(column 6\)"):
            parse_expression(f"x1 +{space}$ x2", X12)
    # trailing whitespace is skipped, and end of input is where the text ends
    with pytest.raises(ParseError, match=r"\(column 7\)"):
        parse_expression("x1 + \t", X12)
    assert parse_expression("x1 + x2 \t\n", X12) == parse_expression("x1 + x2", X12)


@pytest.mark.parametrize("space", ["\t", "  \t ", "\xa0"])
@pytest.mark.parametrize("name", SAMPLES)
def test_sample_with_other_separators_prints_the_golden_bytes(tmp_path, capsys, name, space):
    problem = tmp_path / f"{name}.prob"
    problem.write_text((PROBLEM_DIR / f"{name}.prob").read_text().replace(" ", space), encoding="utf-8")
    trace_path = tmp_path / "trace.csv"
    assert main([str(problem), "--trace", str(trace_path)]) == 0
    assert capsys.readouterr().out == (DATA_DIR / f"{name}.out").read_text()
    assert trace_path.read_bytes() == (DATA_DIR / f"{name}.csv").read_bytes()


def test_objective_error_column_ignores_surrounding_whitespace():
    with pytest.raises(ValueError, match=r"line 2: bad objective: .*\(column 5\)"):
        parse_problem_text("vars x1\nmin \t x1 +   # a comment\nineq 1 >= 0\n")
    with pytest.raises(ValueError, match=r"line 2: bad objective: .*\(column 1\)"):
        parse_problem_text("vars x1\nmin\t\nineq 1 >= 0\n")


def test_file_with_a_byte_order_mark_prints_the_golden_output(tmp_path, capsys):
    problem = tmp_path / "bom.prob"
    problem.write_bytes(b"\xef\xbb\xbf" + (PROBLEM_DIR / "ex1.prob").read_bytes())
    assert main([str(problem)]) == 0
    assert capsys.readouterr().out == (DATA_DIR / "ex1.out").read_text()


@pytest.mark.parametrize("x0", ["1,,2", "1,x", ""])
def test_x0_flag_that_is_not_numbers_names_the_flag(capsys, x0):
    code = main([str(PROBLEM_DIR / "ex1.prob"), "--x0", x0])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: --x0 needs comma-separated numbers, got {x0!r}\n"
