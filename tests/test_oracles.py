"""The brute-force oracles themselves; acceptance criterion 7 checks the solver against them."""

import math

import numpy as np
import pytest

from arcipm import ConvexProgram, Quadratic, parse_expression
from oracles import enumerate_kkt, scan_alpha


def test_single_bound_unique_candidate():
    program = ConvexProgram(
        n=1,
        objective=parse_expression("x1^2", ["x1"]),
        a_eq=[],
        b_eq=[],
        a_ineq=[[1.0]],
        b_ineq=[1.0],
    )
    candidates = enumerate_kkt(program)
    assert len(candidates) == 1
    np.testing.assert_allclose(candidates[0], [1.0], atol=1e-10)


def test_shifted_quadratic_with_capacity_row():
    program = ConvexProgram(
        n=2,
        objective=parse_expression("(x1 - 3)^2 + (x2 - 3)^2", ["x1", "x2"]),
        a_eq=[],
        b_eq=[],
        a_ineq=[[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        b_ineq=[-4.0, 0.0, 0.0, -10.0, -10.0],
    )
    candidates = enumerate_kkt(program)
    assert any(np.allclose(c, [2.0, 2.0], atol=1e-8) for c in candidates)


def test_array_program_gives_its_tree_twins_candidates():
    """(x1 - 3)^2 + (x2 - 3)^2 = 18 - 6 x1 - 6 x2 + ½xᵀ(2I)x, given as arrays:
    the oracle differentiates the Quadratic as it does the tree."""
    rows = dict(a_eq=[], b_eq=[], a_ineq=[[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], b_ineq=[-4.0, 0.0, 0.0])
    program = ConvexProgram(n=2, objective=Quadratic(18.0, [-6.0, -6.0], 2.0 * np.eye(2)), **rows)
    twin = ConvexProgram(n=2, objective=parse_expression("(x1 - 3)^2 + (x2 - 3)^2", ["x1", "x2"]), **rows)
    candidates = enumerate_kkt(program)
    assert len(candidates) == 1
    np.testing.assert_allclose(candidates[0], [2.0, 2.0], atol=1e-12)
    assert [c.tolist() for c in candidates] == [c.tolist() for c in enumerate_kkt(twin)]


def test_interior_optimum_recovered_with_empty_active_set():
    program = ConvexProgram(
        n=2,
        objective=parse_expression("(x1 - 1)^2 + (x2 - 2)^2", ["x1", "x2"]),
        a_eq=[],
        b_eq=[],
        a_ineq=[[1.0, 0.0], [0.0, 1.0]],
        b_ineq=[-10.0, -10.0],
    )
    candidates = enumerate_kkt(program)
    assert any(np.allclose(c, [1.0, 2.0], atol=1e-10) for c in candidates)


def test_enumeration_rejects_oversized_problems():
    program = ConvexProgram(
        n=1,
        objective=parse_expression("x1^2", ["x1"]),
        a_eq=[],
        b_eq=[],
        a_ineq=np.ones((13, 1)),
        b_ineq=-np.arange(13.0) - 1.0,
    )
    with pytest.raises(ValueError, match="at most"):
        enumerate_kkt(program)


def test_scan_alpha_trivial_cases():
    assert scan_alpha(1.0, 0.0, 0.0, 0.0, 0.5, 0.3) == pytest.approx(math.pi / 2.0)
    assert scan_alpha(0.3, 0.0, 0.0, 0.0, 0.4, 0.3) == 0.0
    # sine-limited trajectory crosses its floor near asin(1/2)
    got = scan_alpha(1.0, 1.0, 0.0, 0.0, 0.5, 0.0)
    assert abs(got - math.pi / 6.0) <= 1e-4
