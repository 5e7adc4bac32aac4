"""Problem file handling and command-line behavior."""

import csv
from pathlib import Path

import numpy as np
import pytest

from arcipm.cli import ProblemFileError, build_arg_parser, config_from_args, main, parse_problem_text
from arcipm.solver import TRACE_COLUMNS, SolverConfig
from conftest import PROBLEM_DIR

DATA_DIR = Path(__file__).resolve().parent / "data"


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


def test_reference_problem_converges(capsys):
    code, out, _ = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"))
    assert code == 0
    summary = parse_summary(out)
    assert summary["status"] == "Converged"
    assert float(summary["obj"]) == pytest.approx(-13.0, abs=1e-3)
    assert summary["x"].startswith("(") and summary["x"].endswith(")")
    assert summary["infe"] == "0"


def test_geometric_mean_problem_runs(capsys):
    code, out, _ = run_cli(capsys, str(PROBLEM_DIR / "ex7.prob"))
    assert code == 0
    summary = parse_summary(out)
    assert summary["status"] == "Converged"
    coords = [float(tok) for tok in summary["x"].strip("()").split(",")]
    assert len(coords) == 2
    assert coords[0] + coords[1] <= 10.0 + 1e-6


def test_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, str(PROBLEM_DIR / "ex3.prob"))
    _, second, _ = run_cli(capsys, str(PROBLEM_DIR / "ex3.prob"))
    assert first == second


@pytest.mark.parametrize("name", [f"ex{k}" for k in range(1, 9)])
def test_output_matches_golden_file(capsys, name):
    _, out, _ = run_cli(capsys, str(PROBLEM_DIR / f"{name}.prob"))
    assert out == (DATA_DIR / f"{name}.out").read_text()


@pytest.mark.parametrize("name", [f"ex{k}" for k in range(1, 9)])
def test_trace_matches_golden_file(tmp_path, capsys, name):
    trace_path = tmp_path / "trace.csv"
    run_cli(capsys, str(PROBLEM_DIR / f"{name}.prob"), "--trace", str(trace_path))
    assert trace_path.read_bytes() == (DATA_DIR / f"{name}.csv").read_bytes()


def test_trace_csv_row_count(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--trace", str(trace_path))
    assert code == 0
    kk = int(parse_summary(out)["kk"])
    with open(trace_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(TRACE_COLUMNS)
    assert len(rows) - 1 == kk + 1
    assert rows[1][0] == "0"
    # numeric round trip
    mu_column = [float(r[1]) for r in rows[1:]]
    assert mu_column[0] == pytest.approx(1.0)
    assert mu_column[-1] < 1e-6


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
        ("start 5 5", "start nan 5", "initial point must be finite, got [nan, 5.0]"),
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


def test_max_iter_flag_gives_solver_failure_exit(capsys):
    code, out, _ = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--max-iter", "2")
    assert code == 2
    assert parse_summary(out)["status"] == "MaxIter"


def test_negative_max_iter_flag_exits_one(capsys):
    code, out, err = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--max-iter", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "max_iter" in err


def test_x0_flag_overrides_start(capsys):
    code, out, _ = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--x0", "4,4")
    assert code == 0
    assert parse_summary(out)["status"] == "Converged"


def test_x0_flag_length_checked(capsys):
    code, _, err = run_cli(capsys, str(PROBLEM_DIR / "ex1.prob"), "--x0", "1,2,3")
    assert code == 1
    assert "--x0" in err


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


def test_default_flags_give_default_config():
    args = build_arg_parser().parse_args([str(PROBLEM_DIR / "ex1.prob")])
    assert config_from_args(args) == SolverConfig()
