"""Shared fixtures: reference problems, random QP builders, run recording."""

from __future__ import annotations

import importlib.util
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from arcipm import ConvexProgram, Quadratic, SolverConfig, default_start, fold_bounds, solve
from arcipm import solver as solver_module
from arcipm import step as step_module
from arcipm.autodiff import compile_objective
from arcipm.cli import parse_problem_text
from arcipm.expr import Add, Const, Mul, Var, structure
from arcipm.kkt import Blocks, Iterate, NewtonDirections, assemble_newton_matrix, solve_directions
from arcipm.step import MuPredictor, alpha_limits, sz_tails

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"
PERFBENCH_DIR = PROBLEM_DIR.parent / "perfbench"
TOOLS_DIR = PROBLEM_DIR.parent / "tools"

# Draws per benchmark generator in no_start_runs.
SWEEP_SIZE = 40

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

# A problem whose arc leaves the domain of log(x2): an accepted point has x2 <= 0.
LOG_DOMAIN_EXIT = """
vars x1 x2
min (x1-4)^2 - log(x2)
ineq 1 -1 >= -10
bound x1 -5 5
bound x2 -5 5
start 1 1
"""

# A program whose x2 is in no row and not in the objective: the Newton
# matrix's row for x2 is zero at every point.
UNUSED_VARIABLE = """
vars x1 x2
min x1^2
bound x1 -1 1
"""


def perfbench_module(name: str, folder: Path = PERFBENCH_DIR):
    """A module of the benchmark, loaded read-only from its file as ``<folder>_<name>``.

    Only modules that import nothing else from ``perfbench/`` load this way;
    ``folder`` may name ``tools/`` too, whose scripts load the same way.
    """
    key = f"{folder.name}_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, folder / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def quadratic_tree(matrix: np.ndarray):
    """Expression tree for 0.5 x'Qx, for the tests of trees: one product per
    diagonal entry and per nonzero entry above it, so only Q's upper
    triangle is read."""
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


def compile_tree(tree, n: int):
    """``compile_objective`` of a tree over n variables, given its structural pass as a program gives it."""
    return compile_objective(tree, n, *structure(tree))


def load_problem(name: str):
    text = (PROBLEM_DIR / f"{name}.prob").read_text()
    return parse_problem_text(text)


@dataclass
class RecordedRun:
    report: object = None
    iterates: list = field(default_factory=list)
    # selections[k] produced iterates[k]; None for k = 0 and for a face step of solve() without a start
    selections: list = field(default_factory=list)
    # (alpha_limits arguments, p_coef, sigma_min, sigma_max, result) of each bisect_sigma call
    bisections: list = field(default_factory=list)
    golden: list = field(default_factory=list)  # (predictor, cap, result) of each golden_min_bu call
    curvature: list = field(default_factory=list)  # the Hessian of each _indefinite check


def run_recorded(program, start, config=None) -> RecordedRun:
    """Solve, keeping every iterate and selection and the calls the tests compare with oracles.

    The calls are kept by wrappers of ``step.alpha_limits``,
    ``step.bisect_sigma``, ``step.golden_min_bu`` and ``solver._indefinite``,
    bound for this solve only.
    """
    run = RecordedRun()
    limits_function, bisection = step_module.alpha_limits, step_module.bisect_sigma
    golden_search, curvature_check = step_module.golden_min_bu, solver_module._indefinite
    arguments = {}  # each angle-limit function's arguments

    def limits_of(*args):
        limits = limits_function(*args)
        arguments[limits] = args
        return limits

    def bisecting(limits, p_coef, sigma_min, sigma_max):
        result = bisection(limits, p_coef, sigma_min, sigma_max)
        run.bisections.append((arguments[limits], p_coef, sigma_min, sigma_max, result))
        return result

    def searching(predictor, cap):
        result = golden_search(predictor, cap)
        run.golden.append((predictor, cap, result))
        return result

    def checking(hess):
        run.curvature.append(hess)
        return curvature_check(hess)

    def observer(k, iterate, selection):
        run.iterates.append(iterate)
        run.selections.append(selection)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(step_module, "alpha_limits", limits_of)
        mp.setattr(step_module, "bisect_sigma", bisecting)
        mp.setattr(step_module, "golden_min_bu", searching)
        mp.setattr(solver_module, "_indefinite", checking)
        run.report = solve(program, config or SolverConfig(), start, observer=observer)
    return run


@pytest.fixture(scope="session")
def fixture_runs():
    """Each reference problem solved once, with the full iterate history."""
    runs = {}
    for name in REFERENCE:
        program, start = load_problem(name)
        runs[name] = (program, run_recorded(program, default_start(program, start)))
    return runs


@pytest.fixture(scope="session")
def many_rows_runs():
    """Two n = 4, m = 1, p = 108 programs (seeds 0 and 1), each solved once with its iterates."""
    runs = {}
    for seed in (0, 1):
        program = many_rows_program(np.random.default_rng(seed))
        runs[f"many_rows[{seed}]"] = (program, run_recorded(program, default_start(program)))
    return runs


@pytest.fixture(scope="session")
def no_start_runs():
    """The benchmark generators' draws, each solved once with no start, as ``solve(program)`` does.

    Draw k is ``many_rows(rng)`` then ``boxqp_dense(rng, 2 + k % 9)`` on one
    ``default_rng(5)``, for k < SWEEP_SIZE.  Each generator's name maps to its
    draws' (instance, recorded run, warnings the solve raised), in order.
    """
    instances = perfbench_module("instances")
    rng = np.random.default_rng(5)
    runs = {"many_rows": [], "boxqp_dense": []}
    for k in range(SWEEP_SIZE):
        drawn = {"many_rows": instances.many_rows(rng), "boxqp_dense": instances.boxqp_dense(rng, 2 + k % 9)}
        for name, instance in drawn.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run = run_recorded(instance.program, None)
            runs[name].append((instance, run, caught))
    return runs


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
    return ConvexProgram(
        n=n, objective=Quadratic(0.0, np.zeros(n), quad), a_eq=a_eq, b_eq=b_eq, a_ineq=a_ineq, b_ineq=b_ineq
    )


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
        n=n, objective=Quadratic(0.0, np.zeros(n), quad), a_eq=a_eq, b_eq=a_eq @ inside,
        a_ineq=a_ineq, b_ineq=b_ineq,
    )


def synthetic_step_pair(rng, p=4):
    """Iterate and directions whose product-row identities hold by construction.

    The slack/dual parts of the three directions are sampled freely in one
    block and completed in the other so that z*sdot + s*zdot = s*z,
    z*ps + s*pz = mu, and z*qs + s*qz = -2*sdot*zdot, exactly as the three
    linear solves would produce.
    """
    s = rng.uniform(0.1, 2.0, size=p)
    z = rng.uniform(0.1, 2.0, size=p)
    mu = float(s @ z) / p
    sdot = rng.normal(size=p)
    zdot = (s * z - z * sdot) / s
    ps = rng.normal(size=p)
    pz = (mu - z * ps) / s
    qs = rng.normal(size=p)
    qz = (-2.0 * sdot * zdot - z * qs) / s
    return sz_iterate(s, z), sz_directions((sdot, ps, qs), (zdot, pz, qz))


def newton_directions(program, iterate) -> NewtonDirections:
    """The iterate's three Newton directions, assembled and solved as the solver does."""
    matrix = assemble_newton_matrix(iterate.hess, program.a_eq, program.a_ineq, iterate.s, iterate.z)
    return solve_directions(matrix, program.a_ineq, iterate)


def split_at(iterate, vec) -> Blocks:
    """A flat (x, y, s, z) vector split into its blocks at the iterate's sizes."""
    return Blocks.of(vec, iterate.x.size, iterate.y.size, iterate.p)


def sz_iterate(s, z) -> Iterate:
    """An iterate over two zero x entries and no y, with slacks s, duals z and mu = s'z/p."""
    p = s.size
    zero2, zero0 = np.zeros(2), np.zeros(0)
    return Iterate(
        vec=np.concatenate((zero2, zero0, s, z)),
        hess=np.eye(2), grad=zero2,
        r_c=zero2, r_e=zero0, r_i=np.zeros(p),
        mu=float(s @ z) / p, nu=1.0,
    )


def sz_directions(s_parts, z_parts):
    """Directions over two zero x entries and no y, from their (s, z) parts.

    ``s_parts`` is (sdot, ps, qs) and ``z_parts`` is (zdot, pz, qz); each
    direction is stacked into one flat (x, y, s, z) vector.
    """
    x = np.zeros(2)
    return NewtonDirections(*(np.concatenate((x, s, z)) for s, z in zip(s_parts, z_parts)))


def step_limits(iterate, directions, phi, psi):
    """The angle-limit function and its sigma coefficients, as select_step builds them."""
    tails = sz_tails(iterate, directions)
    return alpha_limits(*tails, np.repeat((phi, psi), iterate.p)), tails[2]


def predictor_of(iterate, directions) -> MuPredictor:
    """The MuPredictor that select_step builds at the iterate."""
    return MuPredictor.of(sz_tails(iterate, directions), iterate.mu)
