"""The three workloads: what each builds, how one solve runs, how it is checked.

Every workload runs one solve at a time (a closed loop with one client) on
the default ``SolverConfig()``.  Solves come in passes over a seeded list of
cases.  A run of ``--seconds`` makes ``round(seconds / pass_seconds)`` whole
passes, where ``pass_seconds`` is about a pass's time at the reference speed
(``reference.NOMINAL_MS``) at the commit that added the benchmark.  So every commit solves the same cases: percentiles compare like
for like, and a faster solver shows as a shorter run, not as more samples.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

import arcipm.solver
from arcipm import cli

import checks
import instances
from reference import Reference

ROOT = Path(__file__).resolve().parent.parent
PROBLEM_DIR = ROOT / "problems"
SAMPLE_NAMES = tuple(f"ex{k}" for k in range(1, 9))

# Sizes solved in one boxqp_dense pass.  Solve time grows 2-3x from one size
# to the next, so the samples form one cluster per size; with n = 8 three
# times in seven, the median falls in the middle of the n = 8 cluster and
# the tail (ten solves beyond it, six passes) in its upper part, not on a
# gap between two clusters.  n = 12 takes about 4 s a solve, so a pass with
# it would leave three passes, 21 solves, in a run.
BOXQP_PASS = (2, 4, 6, 8, 8, 8, 10)
MANY_ROWS_PER_PASS = 8


class Outcome(NamedTuple):
    """A checked solve: what is wrong with it (empty if nothing), its
    iteration count, and a value that must repeat when the case is solved again."""

    problems: list[str]
    iterations: int
    fingerprint: object


@dataclass(frozen=True)
class SampleCase:
    name: str
    path: str
    program: object


class _Workload:
    """Seeded passes over ``self.passes``, each pass in a fresh seeded order.

    ``build(passes)`` makes the cases of a run; the QP workloads generate
    distinct instances for every pass.
    """

    def __init__(self, seed: int, scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.passes: list[list] = []

    @property
    def cases(self):
        return [case for cases in self.passes for case in cases]

    def next_pass(self, index: int):
        cases = self.passes[index % len(self.passes)]
        return [cases[i] for i in self.rng.permutation(len(cases))]


class Samples(_Workload):
    """ex1–ex8 through ``cli.main([path, "--trace", csv])``, as a command-line user runs them."""

    name = "samples"
    pass_seconds = 0.7
    # Newton matrices of 12-27 rows, many right-hand sides per factor
    reference = Reference(size=64, solves=40, nominal_ms=4.5)

    def build(self, passes: int):
        """Read and parse every problem file, as the command line does before solving."""
        cases = []
        for name in SAMPLE_NAMES:
            path = PROBLEM_DIR / f"{name}.prob"
            program, _ = cli.parse_problem_text(path.read_text())
            cases.append(SampleCase(name, str(path), program))
        self.passes = [cases]

    @property
    def trace_path(self) -> Path:
        return self.scratch / "samples-trace.csv"

    def solve(self, case, probe=None):
        """Run the command line on one file; ``probe`` is unused (cli.main
        takes no observer, and each call is short)."""
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main([case.path, "--trace", str(self.trace_path)])
        return code, printed.getvalue()

    def check(self, case, result) -> Outcome:
        code, text = result
        problems = checks.check_summary(case.name, text, self.trace_path)
        try:
            _, _, kk, status = checks.parse_summary(text)
        except ValueError:
            return Outcome(problems, 0, text)
        if (code == 0) != (status == "Converged"):
            problems.append(f"{case.name}: exit code {code} with status {status}")
        return Outcome(problems, kk, text)


class _QPWorkload(_Workload):
    """Seeded QPs solved through ``arcipm.solver.solve`` from x0 = 0."""

    def solve(self, case, probe=None):
        """Solve from x0 = 0, calling ``probe()`` once per iteration if given."""
        final = []

        def observer(k, iterate, selection):
            final[:] = [iterate]
            if probe is not None:
                probe()

        # looked up at call time, so a rebound solve is the one that runs
        report = arcipm.solver.solve(case.program, observer=observer)
        return report, final[0]

    def check(self, case, result) -> Outcome:
        report, last = result
        problems = []
        if report.status is not arcipm.solver.SolverStatus.CONVERGED:
            problems.append(f"status {report.status.value}")
        problems += checks.kkt_certificate(case, last.x, last.y, last.w)
        return Outcome(problems, report.iterations, (report.iterations, report.x.tobytes()))


class BoxQPDense(_QPWorkload):
    """Dense box QPs of sizes ``BOXQP_PASS`` in each pass."""

    name = "boxqp_dense"
    # a pass takes about 4.1 s; 4.0 gives the six passes at --seconds 25
    # that BOXQP_PASS is laid out for
    pass_seconds = 4.0
    # autodiff tree walks dominate; Newton matrices of at most 64 rows
    reference = Reference(size=64, solves=40, nominal_ms=4.5)

    def build(self, passes: int):
        self.passes = [
            [instances.boxqp_dense(self.rng, n) for n in BOXQP_PASS] for _ in range(passes)
        ]


class ManyRows(_QPWorkload):
    """n = 4 QPs with one equality and 108 inequality rows, eight per pass."""

    name = "many_rows"
    pass_seconds = 2.9
    # about half the time in the 329-square Newton factor and its three solves
    reference = Reference(size=329, solves=3, nominal_ms=5.5)

    def build(self, passes: int):
        self.passes = [
            [instances.many_rows(self.rng) for _ in range(MANY_ROWS_PER_PASS)] for _ in range(passes)
        ]


WORKLOADS = {cls.name: cls for cls in (Samples, BoxQPDense, ManyRows)}
