"""Shared fixtures: reference problems, random QP builders, run recording."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from arcipm import ConvexProgram, SolverConfig, default_start, fold_bounds, solve
from arcipm.cli import parse_problem_text
from arcipm.expr import Add, Const, Mul, Var

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"

# Reference runs: solution, objective, and iteration count of the original
# implementation these example files were taken from.
REFERENCE = {
    "ex1": ((1.0, 1.0), -13.0, 68),
    "ex2": ((2.0, 1.0), 70.9733, 66),
    "ex3": ((1.0, 2.0), 23.5, 69),
    "ex4": ((2.0, 2.0), 31.6355, 69),
    "ex5": ((4.9271, 5.0595), 17.1360, 57),
    "ex6": ((4.9924, 4.9924), 7.4773, 56),
    "ex7": ((2.0006, 7.9767), 3.9948, 59),
    "ex8": ((5.0, 3.0, 5.0), -2.7726, 44),
}

# Boxes that stay comfortably inside each objective's domain, used for
# random sampling in derivative checks.
SAMPLING_BOX = {
    "ex1": [(1.1, 9.0), (1.1, 9.0)],
    "ex2": [(-1.0, 3.0), (-1.0, 3.0)],
    "ex3": [(0.5, 9.0), (0.5, 9.0)],
    "ex4": [(0.3, 9.0), (0.3, 9.0)],
    "ex5": [(0.5, 9.0), (0.5, 9.0)],
    "ex6": [(0.0, 6.0), (0.0, 6.0)],
    "ex7": [(0.3, 9.0), (0.3, 9.0)],
    "ex8": [(5.1, 9.9), (1.1, 2.9), (5.1, 9.9)],
}


def load_problem(name: str):
    text = (PROBLEM_DIR / f"{name}.prob").read_text()
    return parse_problem_text(text)


@dataclass
class RecordedRun:
    report: object
    iterates: list
    selections: list  # selections[k] produced iterates[k], None for k = 0


def run_recorded(program, start, config=None) -> RecordedRun:
    iterates, selections = [], []

    def observer(k, iterate, selection):
        iterates.append(iterate)
        selections.append(selection)

    report = solve(program, config or SolverConfig(), start, observer=observer)
    return RecordedRun(report, iterates, selections)


@pytest.fixture(scope="session")
def fixture_runs():
    """Each reference problem solved once, with the full iterate history."""
    runs = {}
    for name in REFERENCE:
        program, start = load_problem(name)
        with np.errstate(all="ignore"):
            with warnings_ignored():
                runs[name] = (program, run_recorded(program, default_start(program, start)))
    return runs


class warnings_ignored:
    def __enter__(self):
        import warnings

        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("ignore", RuntimeWarning)
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)


def quadratic_tree(matrix: np.ndarray):
    """Expression tree for 0.5 x'Qx (no linear term, so the model residual
    and the true gradient vanish together)."""
    n = matrix.shape[0]
    terms = []
    for i in range(n):
        xi = Var(i, f"x{i + 1}")
        terms.append(Mul(Const(0.5 * matrix[i, i]), Mul(xi, xi)))
        for j in range(i + 1, n):
            if matrix[i, j] != 0.0:
                terms.append(Mul(Const(matrix[i, j]), Mul(xi, Var(j, f"x{j + 1}"))))
    tree = terms[0]
    for term in terms[1:]:
        tree = Add(tree, term)
    return tree


def random_box_qp(rng, max_n=6, with_eq=False) -> ConvexProgram:
    """Strictly convex random QP with box rows, optionally one equality."""
    n = int(rng.integers(2, max_n + 1))
    factor = rng.normal(size=(n, n))
    quad = factor @ factor.T + (0.5 + rng.uniform()) * np.eye(n)
    lower = rng.uniform(0.2, 1.5, size=n)
    upper = lower + rng.uniform(0.5, 2.5, size=n)
    a_ineq, b_ineq = fold_bounds(np.zeros((0, n)), np.zeros(0), lower, upper)
    a_eq, b_eq = np.zeros((0, n)), np.zeros(0)
    if with_eq:
        row = rng.normal(size=(1, n))
        a_eq, b_eq = row, row @ (0.5 * (lower + upper))
    return ConvexProgram(n=n, objective=quadratic_tree(quad), a_eq=a_eq, b_eq=b_eq, a_ineq=a_ineq, b_ineq=b_ineq)


def many_rows_program(rng, n=4, rows=100) -> ConvexProgram:
    """One equality, 100 dense rows and 2n box rows around a feasible point."""
    factor = rng.normal(size=(n, n))
    quad = factor @ factor.T + np.eye(n)
    inside = rng.uniform(1.0, 1.5, size=n)
    a_rows = rng.normal(size=(rows, n))
    b_rows = a_rows @ inside - rng.uniform(0.1, 1.0, size=rows)
    a_eq = rng.uniform(0.5, 1.5, size=(1, n))
    a_ineq, b_ineq = fold_bounds(a_rows, b_rows, inside - 1.0, inside + 1.0)
    return ConvexProgram(
        n=n, objective=quadratic_tree(quad), a_eq=a_eq, b_eq=a_eq @ inside,
        a_ineq=a_ineq, b_ineq=b_ineq,
    )


def synthetic_step_pair(rng, p=4):
    """Iterate and directions whose product-row identities hold by construction.

    The slack/dual parts of the three directions are sampled freely in one
    block and completed in the other so that z*sdot + s*zdot = s*z,
    z*ps + s*pz = mu, and z*qs + s*qz = -2*sdot*zdot, exactly as the three
    linear solves would produce.
    """
    from arcipm.kkt import Blocks, Iterate, NewtonDirections

    s = rng.uniform(0.1, 2.0, size=p)
    z = rng.uniform(0.1, 2.0, size=p)
    mu = float(s @ z) / p
    sdot = rng.normal(size=p)
    zdot = (s * z - z * sdot) / s
    ps = rng.normal(size=p)
    pz = (mu - z * ps) / s
    qs = rng.normal(size=p)
    qz = (-2.0 * sdot * zdot - z * qs) / s
    zero2, zero0 = np.zeros(2), np.zeros(0)
    iterate = Iterate(
        vec=np.concatenate((zero2, zero0, s, z)),
        hess=np.eye(2), grad=zero2,
        r_c=zero2, r_e=zero0, r_i=np.zeros(p),
        mu=mu, nu=1.0,
    )
    directions = NewtonDirections.of(
        vdot=Blocks(zero2, zero0, sdot, zdot),
        p_dir=Blocks(zero2, zero0, ps, pz),
        q_dir=Blocks(zero2, zero0, qs, qz),
    )
    return iterate, directions
