"""Command-line front end: read a problem file, solve, print the summary.

Problem files are line oriented, one directive per line, ``#`` starts a
comment:

    vars x1 x2 ...
    min <expression>
    eq c1 c2 ... = rhs
    ineq c1 c2 ... >= rhs
    bound <var> <lo> <hi>      (-inf / inf for open sides)
    start v1 v2 ...

The summary prints the solution, objective, iteration count, equality
infeasibility, and status; ``--trace`` additionally writes one CSV row per
iteration.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .expr import Expr, ParseError, parse_expression
from .program import ConvexProgram, fold_bounds
from .solver import TRACE_COLUMNS, SolverConfig, SolverStatus, default_start, solve


class ProblemFileError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_problem_text(text: str):
    """Build (program, start or None) from problem file text."""
    names: list[str] | None = None
    objective: Expr | None = None
    eq_rows: list[list[float]] = []
    eq_rhs: list[float] = []
    ineq_rows: list[list[float]] = []
    ineq_rhs: list[float] = []
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    start = None

    def floats(tokens, line):
        try:
            return [float(tok) for tok in tokens]
        except ValueError as err:
            raise ProblemFileError(f"expected numbers, got {tokens!r}", line) from err

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "vars":
            if names is not None:
                raise ProblemFileError("duplicate vars line", lineno)
            names = rest.split()
            if not names:
                raise ProblemFileError("vars line declares no variables", lineno)
            if len(set(names)) != len(names):
                raise ProblemFileError("duplicate variable name", lineno)
            if any(name in ("log", "exp") for name in names):
                raise ProblemFileError("'log' and 'exp' are reserved words", lineno)
            lower = np.full(len(names), -np.inf)
            upper = np.full(len(names), np.inf)
            continue
        if names is None:
            raise ProblemFileError("vars line must come first", lineno)
        n = len(names)
        if keyword == "min":
            if objective is not None:
                raise ProblemFileError("duplicate objective", lineno)
            try:
                objective = parse_expression(rest, names)
            except ParseError as err:
                raise ProblemFileError(f"bad objective: {err}", lineno) from err
        elif keyword == "eq":
            tokens = rest.split()
            if len(tokens) != n + 2 or tokens[n] != "=":
                raise ProblemFileError(f"expected '{keyword} c1 .. c{n} = rhs'", lineno)
            eq_rows.append(floats(tokens[:n], lineno))
            eq_rhs.append(floats(tokens[n + 1 :], lineno)[0])
        elif keyword == "ineq":
            tokens = rest.split()
            if len(tokens) != n + 2 or tokens[n] != ">=":
                raise ProblemFileError(f"expected '{keyword} c1 .. c{n} >= rhs'", lineno)
            ineq_rows.append(floats(tokens[:n], lineno))
            ineq_rhs.append(floats(tokens[n + 1 :], lineno)[0])
        elif keyword == "bound":
            tokens = rest.split()
            if len(tokens) != 3:
                raise ProblemFileError("expected 'bound <var> <lo> <hi>'", lineno)
            if tokens[0] not in names:
                raise ProblemFileError(f"unknown variable {tokens[0]!r}", lineno)
            i = names.index(tokens[0])
            if np.isfinite(lower[i]) or np.isfinite(upper[i]):
                raise ProblemFileError(f"duplicate bound for {tokens[0]!r}", lineno)
            lo, hi = floats(tokens[1:], lineno)
            lower[i], upper[i] = lo, hi
        elif keyword == "start":
            start = np.array(floats(rest.split(), lineno))
            if start.size != n:
                raise ProblemFileError(f"start point needs {n} values", lineno)
        else:
            raise ProblemFileError(f"unknown directive {keyword!r}", lineno)

    if names is None:
        raise ProblemFileError("missing vars line", 0)
    if objective is None:
        raise ProblemFileError("missing objective ('min ...')", 0)

    n = len(names)
    a_ineq = np.array(ineq_rows, dtype=float).reshape(len(ineq_rows), n)
    b_ineq = np.array(ineq_rhs, dtype=float)
    try:
        a_ineq, b_ineq = fold_bounds(a_ineq, b_ineq, lower, upper)
        program = ConvexProgram(
            n=n,
            objective=objective,
            a_eq=np.array(eq_rows, dtype=float).reshape(len(eq_rows), n),
            b_eq=np.array(eq_rhs, dtype=float),
            a_ineq=a_ineq,
            b_ineq=b_ineq,
        )
    except ValueError as err:
        raise ProblemFileError(str(err), 0) from err
    return program, start


def _write_trace(path: str, trace):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for row in trace:
            writer.writerow(
                [
                    row.k,
                    repr(row.mu),
                    repr(row.sigma),
                    repr(row.alpha),
                    repr(row.norm_rc),
                    repr(row.norm_re),
                    repr(row.norm_ri),
                    repr(row.nu),
                    repr(row.kkt_norm),
                    repr(row.true_stat_norm),
                    repr(row.min_sz_over_mu),
                ]
            )


# Help text of each SolverConfig field that has a command-line flag.
_SOLVER_FLAGS = {
    "epsilon": "stopping tolerance",
    "theta": "centrality constant",
    "rho": "floor fraction for slacks/duals",
    "max_iter": "iteration cap",
    "sigma_min": "lower centering bound",
    "sigma_max": "upper centering bound",
}


def config_from_args(args: argparse.Namespace) -> SolverConfig:
    """The SolverConfig named by the solver flags of :func:`build_arg_parser`."""
    return SolverConfig(**{field: getattr(args, field) for field in _SOLVER_FLAGS})


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcipm",
        description="Arc-search interior-point solver for linearly constrained convex programs.",
    )
    parser.add_argument("problem", help="path to a problem file")
    defaults = SolverConfig()
    for field, help_text in _SOLVER_FLAGS.items():
        default = getattr(defaults, field)
        flag = "--" + field.replace("_", "-")
        parser.add_argument(flag, type=type(default), default=default, help=help_text)
    parser.add_argument("--trace", metavar="PATH", help="write per-iteration CSV trace")
    parser.add_argument("--x0", metavar="V1,V2,...", help="starting point, overrides the file")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        with open(args.problem) as handle:
            text = handle.read()
    except OSError as err:
        print(f"error: cannot read {args.problem}: {err}", file=sys.stderr)
        return 1

    try:
        program, start = parse_problem_text(text)
        if args.x0 is not None:
            start = np.array([float(tok) for tok in args.x0.split(",")])
            if start.size != program.n:
                raise ProblemFileError(f"--x0 needs {program.n} values", 0)
        config = config_from_args(args)
        initial = default_start(program, start)
    except (ProblemFileError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    report = solve(program, config, initial)

    coords = ", ".join(f"{value:.6g}" for value in report.x)
    print(f"x = ({coords})")
    print(f"obj = {report.objective:.6g}")
    print(f"kk = {report.iterations}")
    print(f"infe = {report.infe:.6g}")
    print(f"status = {report.status.value}")
    if report.message:
        print(f"note: {report.message}", file=sys.stderr)

    if args.trace:
        _write_trace(args.trace, report.trace)

    return 0 if report.status is SolverStatus.CONVERGED else 2


if __name__ == "__main__":
    sys.exit(main())
