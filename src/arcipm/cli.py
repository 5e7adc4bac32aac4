"""Command-line front end: read a problem file, solve, print the summary.

Problem files are UTF-8 text (a leading byte order mark is allowed) and
line oriented: one directive per line, ``#`` starts a comment, and any run
of whitespace separates tokens:

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
import functools
import sys

import numpy as np

from .expr import RESERVED, Expr, ParseError, parse_expression
from .program import ConvexProgram, fold_bounds
from .solver import TRACE_COLUMNS, SolverConfig, SolverStatus, default_start, solve


class ProblemFileError(ValueError):
    """A malformed problem file; ``line`` is None when no one line is at fault."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def parse_problem_text(text: str):
    """Build (program, start or None) from problem file text."""
    names: list[str] | None = None
    objective: Expr | None = None
    # keyword: (relation, rows, right-hand sides)
    constraints: dict[str, tuple[str, list, list]] = {"eq": ("=", [], []), "ineq": (">=", [], [])}
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    bounded: set[int] = set()
    start = None

    def floats(tokens, line):
        try:
            return [float(tok) for tok in tokens]
        except ValueError as err:
            raise ProblemFileError(f"expected numbers, got {tokens!r}", line) from err

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        keyword, *tokens = fields
        if keyword == "vars":
            if names is not None:
                raise ProblemFileError("duplicate vars line", lineno)
            names = tokens
            if not names:
                raise ProblemFileError("vars line declares no variables", lineno)
            if len(set(names)) != len(names):
                raise ProblemFileError("duplicate variable name", lineno)
            if any(name in RESERVED for name in names):
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
            expression = line.split(maxsplit=1)[1].rstrip() if tokens else ""
            try:
                objective = parse_expression(expression, names)
            except ParseError as err:
                raise ProblemFileError(f"bad objective: {err}", lineno) from err
        elif keyword in constraints:
            relation, rows, rhs = constraints[keyword]
            if len(tokens) != n + 2 or tokens[n] != relation:
                raise ProblemFileError(f"expected '{keyword} c1 .. c{n} {relation} rhs'", lineno)
            rows.append(floats(tokens[:n], lineno))
            rhs.append(floats(tokens[n + 1 :], lineno)[0])
        elif keyword == "bound":
            if len(tokens) != 3:
                raise ProblemFileError("expected 'bound <var> <lo> <hi>'", lineno)
            if tokens[0] not in names:
                raise ProblemFileError(f"unknown variable {tokens[0]!r}", lineno)
            i = names.index(tokens[0])
            if i in bounded:
                raise ProblemFileError(f"duplicate bound for {tokens[0]!r}", lineno)
            bounded.add(i)
            lo, hi = floats(tokens[1:], lineno)
            lower[i], upper[i] = lo, hi
        elif keyword == "start":
            if start is not None:
                raise ProblemFileError("duplicate start line", lineno)
            start = np.array(floats(tokens, lineno))
            if start.size != n:
                raise ProblemFileError(f"start point needs {n} values", lineno)
        else:
            raise ProblemFileError(f"unknown directive {keyword!r}", lineno)

    if names is None:
        raise ProblemFileError("missing vars line")
    if objective is None:
        raise ProblemFileError("missing objective ('min ...')")

    (_, eq_rows, eq_rhs), (_, ineq_rows, ineq_rhs) = constraints.values()
    try:
        a_ineq, b_ineq = fold_bounds(ineq_rows, ineq_rhs, lower, upper)
        program = ConvexProgram(len(names), objective, eq_rows, eq_rhs, a_ineq, b_ineq)
    except ValueError as err:
        raise ProblemFileError(str(err)) from err
    return program, start


def _write_trace(path: str, trace):
    """Write the trace as CSV in one call, the bytes ``csv.writer`` would write.

    The header is ``TRACE_COLUMNS`` and each row the reprs of a
    :class:`TraceRow`'s fields (an int's repr is its str); both follow the
    order of the TraceRow declaration.  No field holds a comma, a quote or
    a line break, so none needs quoting; lines end in ``\\r\\n`` as in the
    excel dialect.
    """
    lines = [",".join(TRACE_COLUMNS)]
    # vars() gives the fields without astuple's deep copies
    lines.extend(",".join(map(repr, vars(row).values())) for row in trace)
    lines.append("")
    with open(path, "w", newline="") as handle:
        handle.write("\r\n".join(lines))


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


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process; parsing leaves it as it is."""
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
        with open(args.problem, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read {args.problem}: {err}", file=sys.stderr)
        return 1

    try:
        program, start = parse_problem_text(text)
        if args.x0 is not None:
            try:
                start = np.array([float(tok) for tok in args.x0.split(",")])
            except ValueError as err:
                raise ValueError(f"--x0 needs comma-separated numbers, got {args.x0!r}") from err
            if start.size != program.n:
                raise ValueError(f"--x0 needs {program.n} values")
        config = config_from_args(args)
        initial = default_start(program, start)
    except ValueError as err:
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
        try:
            _write_trace(args.trace, report.trace)
        except OSError as err:
            print(f"error: cannot write trace {args.trace}: {err}", file=sys.stderr)
            return 1

    return 0 if report.status is SolverStatus.CONVERGED else 2


if __name__ == "__main__":
    sys.exit(main())
