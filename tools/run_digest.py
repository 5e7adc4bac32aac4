#!/usr/bin/env python3
"""One SHA-256 per workload over the results of a source tree's solver.

    python3 tools/run_digest.py TREE [--runs N]

Solves ex1–ex8 from their files' starting points, and N seeded instances
each of the benchmark's ``many_rows`` and ``boxqp_dense`` generators
(``perfbench/instances.py`` of TREE, imported read-only) from x0 = 0, all
with the default ``SolverConfig``.  For every workload it prints the
SHA-256 of the raw bytes of every trace row, then x, status, objective,
infe and the iteration count of each solve.  Two trees whose digests agree
computed the same results bit for bit, so a refactor that claims to change
no result can be checked by running this on the trees before and after it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import struct
import sys
import warnings
from pathlib import Path

import numpy as np

# sizes cycled through by the boxqp_dense instances, as in one benchmark pass
BOXQP_SIZES = (2, 4, 6, 8, 10)


def _feed(digest, report) -> None:
    for row in report.trace:
        values = [float(getattr(row, field.name)) for field in dataclasses.fields(row)]
        digest.update(struct.pack(f"<{len(values)}d", *values))
    digest.update(np.ascontiguousarray(report.x, dtype=float).tobytes())
    digest.update(report.status.value.encode())
    digest.update(struct.pack("<ddq", report.objective, report.infe, report.iterations))


def workload_digests(tree: Path, runs: int) -> dict[str, tuple[int, str]]:
    """Workload name -> (number of solves, SHA-256 hex digest)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import arcipm

    # an installed arcipm would be digested in place of the tree's own
    if Path(arcipm.__file__).resolve().parent != tree / "src" / "arcipm":
        raise SystemExit(f"error: imported arcipm from {arcipm.__file__}, not from {tree / 'src'}")
    from arcipm.cli import parse_problem_text
    from arcipm.solver import default_start, solve

    import instances

    def solved(program, start=None):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            return solve(program, start=default_start(program, start))

    digests = {}
    for k in range(1, 9):
        program, start = parse_problem_text((tree / "problems" / f"ex{k}.prob").read_text())
        digest = hashlib.sha256()
        _feed(digest, solved(program, start))
        digests[f"ex{k}"] = (1, digest.hexdigest())

    makers = {
        "many_rows": lambda rng, _: instances.many_rows(rng),
        "boxqp_dense": lambda rng, index: instances.boxqp_dense(rng, BOXQP_SIZES[index % len(BOXQP_SIZES)]),
    }
    for name, make in makers.items():
        digest = hashlib.sha256()
        for seed in range(runs):
            _feed(digest, solved(make(np.random.default_rng(seed), seed).program))
        digests[name] = (runs, digest.hexdigest())
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
    for name, (solves, hexdigest) in workload_digests(tree, args.runs).items():
        print(f"{name:12s} {solves:4d}  {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
