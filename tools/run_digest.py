#!/usr/bin/env python3
"""One SHA-256 per workload over the results of a source tree's solver.

    python3 tools/run_digest.py TREE [--runs N]

Solves ex1–ex8 from their files' starting points, N seeded instances
each of the benchmark's ``many_rows`` and ``boxqp_dense`` generators
(``perfbench/instances.py`` of TREE, imported read-only) from x0 = 0, and
the first N draws of the convex QP family from their own starts, and N
seeded weighted entropies from x0 = 1 (``entropy``: the sum of
c_i x_i log x_i, c ~ U(0.5, 2), over n = 4, 8, 16, 32 in turn, on the box
[0.1, 5] with the row sum(x) <= 0.8 n, an objective that does not fold),
all with the default ``SolverConfig``.  Every start is ``default_start``'s
cold start, except on the lines ``many_rows*`` and ``boxqp_dense*``: those
solve the same instances as ``solve(program)``, from whatever start and
with whatever step rule TREE's ``solve()`` takes when it is given no
start, which is the call the benchmark makes.  The family's generator is
``tests/qp_family.py`` of this checkout, built on TREE's solver package,
and its programs hold an ``arcipm.Quadratic`` objective; a tree whose
package exports none is digested by its own copy of this script, whose
family held the same objectives as expression trees that fold to the
same arrays.  For every workload it prints the
SHA-256 of the raw bytes of every trace row, then x, status, objective,
infe and the iteration count of each solve, followed by the workload's
total iterations and how many solves ended in each status.  Two trees
whose digests agree computed the same results bit for bit, so a refactor
that claims to change no result can be checked by running this on the
trees before and after it; when results do move, the totals show how.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import struct
import sys
import warnings
from pathlib import Path

import numpy as np

# sizes cycled through by the boxqp_dense instances; the benchmark's own pass
# is BOXQP_PASS = (2, 4, 6, 8, 8, 8, 10) in perfbench/workloads.py
BOXQP_SIZES = (2, 4, 6, 8, 10)
# sizes cycled through by the entropy instances, whose objectives do not fold
ENTROPY_SIZES = (4, 8, 16, 32)

FAMILY_DIR = Path(__file__).resolve().parent.parent / "tests"


class Digest:
    """SHA-256 over a workload's solves, with their total iterations and status counts."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.solves = 0
        self.iterations = 0
        self.statuses = collections.Counter()

    def feed(self, report) -> None:
        for row in report.trace:
            values = [float(getattr(row, field.name)) for field in dataclasses.fields(row)]
            self.sha.update(struct.pack(f"<{len(values)}d", *values))
        self.sha.update(np.ascontiguousarray(report.x, dtype=float).tobytes())
        self.sha.update(report.status.value.encode())
        self.sha.update(struct.pack("<ddq", report.objective, report.infe, report.iterations))
        self.solves += 1
        self.iterations += report.iterations
        self.statuses[report.status.value] += 1

    def line(self, name: str) -> str:
        counts = ", ".join(f"{status} {count}" for status, count in sorted(self.statuses.items()))
        return f"{name:12s} {self.solves:4d}  {self.sha.hexdigest()}  {self.iterations:6d} iterations  {counts}"


def entropy_program(rng, n: int):
    """min sum c_i x_i log x_i, c ~ U(0.5, 2), s.t. 0.1 <= x <= 5 and sum(x) <= 0.8 n.

    Built on whichever ``arcipm`` :func:`workload_digests` put on the path.
    """
    from arcipm import ConvexProgram, fold_bounds
    from arcipm.expr import Add, Const, Log, Mul, Var

    objective = None
    for i, c in enumerate(rng.uniform(0.5, 2.0, size=n)):
        x = Var(i, f"x{i + 1}")
        term = Mul(Mul(Const(float(c)), x), Log(x))
        objective = term if objective is None else Add(objective, term)
    a_ineq, b_ineq = fold_bounds(-np.ones((1, n)), [-0.8 * n], np.full(n, 0.1), np.full(n, 5.0))
    return ConvexProgram(n, objective, np.zeros((0, n)), np.zeros(0), a_ineq, b_ineq)


def workload_digests(tree: Path, runs: int) -> dict[str, Digest]:
    """Workload name -> its :class:`Digest`."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import arcipm

    # an installed arcipm would be digested in place of the tree's own
    if Path(arcipm.__file__).resolve().parent != tree / "src" / "arcipm":
        raise SystemExit(f"error: imported arcipm from {arcipm.__file__}, not from {tree / 'src'}")
    from arcipm.cli import parse_problem_text
    from arcipm.solver import default_start, solve

    import instances

    sys.path.append(str(FAMILY_DIR))
    import qp_family

    def solved(program, x0=None, cold=True):
        """The solve from ``default_start(program, x0)``, or from no start at all."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return solve(program, start=default_start(program, x0) if cold else None)

    digests = {}
    for k in range(1, 9):
        program, start = parse_problem_text((tree / "problems" / f"ex{k}.prob").read_text())
        digest = digests[f"ex{k}"] = Digest()
        digest.feed(solved(program, start))

    makers = {
        "many_rows": lambda rng, _: instances.many_rows(rng),
        "boxqp_dense": lambda rng, index: instances.boxqp_dense(rng, BOXQP_SIZES[index % len(BOXQP_SIZES)]),
    }
    for name, make in makers.items():
        cold = digests[name] = Digest()
        bare = digests[f"{name}*"] = Digest()
        for seed in range(runs):
            program = make(np.random.default_rng(seed), seed).program
            cold.feed(solved(program))
            bare.feed(solved(program, cold=False))

    digest = digests["qp_family"] = Digest()
    for draw in qp_family.qp_family(runs):
        digest.feed(solved(draw.program, draw.x0))

    digest = digests["entropy"] = Digest()
    for seed in range(runs):
        n = ENTROPY_SIZES[seed % len(ENTROPY_SIZES)]
        digest.feed(solved(entropy_program(np.random.default_rng(seed), n), np.ones(n)))
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="root of a source tree (holds src/, problems/, perfbench/)")
    parser.add_argument("--runs", type=int, default=45, help="seeded instances per QP workload")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    tree = args.tree.resolve()
    if not (tree / "src" / "arcipm").is_dir():
        parser.error(f"no arcipm sources under {tree / 'src'}")
    for name, digest in workload_digests(tree, args.runs).items():
        print(digest.line(name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
