#!/usr/bin/env python3
"""Solve every sample problem under problems/ and print a summary table.

Useful for eyeballing solver behavior after a change:

    python3 scripts/run_examples.py
    python3 scripts/run_examples.py --epsilon 1e-8 --rho 0.9 --trace-dir /tmp/traces
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arcipm import default_start, solve  # noqa: E402
from arcipm.cli import _write_trace, add_solver_flags, config_from_args, parse_problem_text  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problems", default=None, help="directory of .prob files")
    add_solver_flags(parser)
    parser.add_argument("--trace-dir", default=None, help="write one CSV trace per problem")
    args = parser.parse_args()

    directory = Path(args.problems) if args.problems else Path(__file__).resolve().parent.parent / "problems"
    config = config_from_args(args)

    paths = sorted(directory.glob("*.prob"))
    if not paths:
        print(f"no .prob files under {directory}", file=sys.stderr)
        return 1

    print(f"{'problem':10s} {'status':11s} {'kk':>4s} {'objective':>14s} {'time':>8s}  x")
    failures = 0
    for path in paths:
        program, start = parse_problem_text(path.read_text())
        begin = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = solve(program, config, default_start(program, start))
        elapsed = time.perf_counter() - begin
        coords = ", ".join(f"{value:.6g}" for value in report.x)
        print(
            f"{path.stem:10s} {report.status.value:11s} {report.iterations:4d} "
            f"{report.objective:14.6g} {elapsed * 1000:6.1f}ms  ({coords})"
        )
        if report.status.value != "Converged":
            failures += 1
        if args.trace_dir:
            out = Path(args.trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            _write_trace(str(out / f"{path.stem}.csv"), report.trace)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
