"""A fixed reference computation that measures how fast the machine runs right now.

On a shared host the speed of the same code moves by up to 2x within
minutes.  The benchmark times a :class:`Reference` between solves and
scales each solve's wall time by ``nominal_ms / (the reference's time
measured around it)``, so a time metric reads in milliseconds at a fixed
machine speed and moves only when the solver's own cost moves.  The
reference never calls ``arcipm``, so no change to the solver can change it.

Its mix follows the solver's, because kinds of work do not slow equally:
interpreter work on small objects (the tree walks of autodiff and the
per-component loops of the step), then a LAPACK factor and solves of a
matrix the size of the workload's Newton matrix.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

_TREE_DEPTH = 200
_TREE_WALKS = 24


def _tree(depth: int):
    if depth == 0:
        return ("x", depth)
    return ("+" if depth % 2 else "*", _tree(depth - 1), ("c", 0.5 + depth * 1e-3))


def _evaluate(node, x: float) -> float:
    kind = node[0]
    if kind == "x":
        return x
    if kind == "c":
        return node[1]
    left, right = _evaluate(node[1], x), _evaluate(node[2], x)
    return left + right if kind == "+" else left * right


class Reference:
    """Fixed work: tree walks and dict building, then one LU factor of a
    ``size``-square SPD matrix and ``solves`` solves with it.

    ``nominal_ms`` is about what one call took on the machine the baseline
    was measured on, in its slower state, so scaled times read in ms there.
    """

    def __init__(self, size: int, solves: int, nominal_ms: float):
        rng = np.random.default_rng(0)
        factor = rng.normal(size=(size, size))
        self.matrix = factor @ factor.T + size * np.eye(size)
        self.rhs = rng.normal(size=size)
        self.solves = solves
        self.nominal_ms = nominal_ms
        self.tree = _tree(_TREE_DEPTH)

    def _work(self) -> float:
        total = 0.0
        for k in range(_TREE_WALKS):
            total += _evaluate(self.tree, 0.999 + k * 1e-4)
            totals = {i: float(i) * 1.5 for i in range(40)}
            total += sum(totals.values())
        lu = scipy.linalg.lu_factor(self.matrix)
        for k in range(self.solves):
            x = scipy.linalg.lu_solve(lu, self.rhs + k)
            total += float(np.dot(x, self.rhs)) + float(np.maximum(x, 0.0).sum())
        return total

    def __call__(self) -> float:
        """Wall time of one pass of the reference work, in ms."""
        begin = time.perf_counter()
        self._work()
        return (time.perf_counter() - begin) * 1e3
