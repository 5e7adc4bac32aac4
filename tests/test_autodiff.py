"""Values, gradients, and Hessians against hand values and finite differences."""

import hashlib
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arcipm import (
    ConvexProgram,
    DomainError,
    SolverStatus,
    evaluate,
    fold_bounds,
    gradient,
    hessian,
    parse_expression,
    solve,
    value_gradient_hessian,
)
from arcipm import expr as ast
from arcipm.autodiff import Quadratic, _walk, compile_objective
from conftest import load_problem, perfbench_module, quadratic_tree
from oracles import dense_value_gradient_hessian

X12 = ["x1", "x2"]


def fd_gradient(tree, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        step = h * (1.0 + abs(x[i]))
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (evaluate(tree, hi) - evaluate(tree, lo)) / (2.0 * step)
    return out


def fd_hessian(tree, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, x.size))
    for j in range(x.size):
        step = h * (1.0 + abs(x[j]))
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        out[:, j] = (gradient(tree, hi) - gradient(tree, lo)) / (2.0 * step)
    return out


def test_example_values():
    ex1, _ = load_problem("ex1")
    assert evaluate(ex1.objective, [1.0, 1.0]) == pytest.approx(-13.0, abs=1e-12)
    assert evaluate(parse_expression("x1", ["x1"]), [3.0]) == 3.0
    ex2, _ = load_problem("ex2")
    assert evaluate(ex2.objective, [2.0, 1.0]) == pytest.approx(70.9733, abs=1e-4)


def test_polynomial_gradient():
    tree = parse_expression("x1^2 + x2^2", X12)
    np.testing.assert_allclose(gradient(tree, [1.0, 2.0]), [2.0, 4.0], rtol=1e-12)


def test_log_gradient():
    tree = parse_expression("log(x1)", ["x1"])
    np.testing.assert_allclose(gradient(tree, [2.0]), [0.5], rtol=1e-12)


def test_reference_gradient_against_differences():
    ex1, _ = load_problem("ex1")
    grad = gradient(ex1.objective, [1.0, 1.0])
    np.testing.assert_allclose(grad, [-4.0, -6.0], rtol=1e-12)
    np.testing.assert_allclose(grad, fd_gradient(ex1.objective, [1.0, 1.0]), atol=1e-6)


def test_reference_hessians():
    ex1, _ = load_problem("ex1")
    np.testing.assert_allclose(hessian(ex1.objective, [1.0, 1.0]), np.diag([5.0, 7.0]), atol=1e-12)
    bilinear = parse_expression("x1*x2", X12)
    np.testing.assert_array_equal(hessian(bilinear, [3.7, -2.0]), [[0.0, 1.0], [1.0, 0.0]])
    ex5, _ = load_problem("ex5")
    h = hessian(ex5.objective, [5.0, 5.0])
    assert h[0, 0] == pytest.approx(10.0 / 7.0, rel=1e-12)
    np.testing.assert_allclose(h, fd_hessian(ex5.objective, [5.0, 5.0]), rtol=1e-5, atol=1e-7)


E2 = float(np.exp(2.0))

# (expression over x1, x2; point; value, gradient and Hessian by hand).
# The power cases share the base u = x1 + x2 = 4, so each Hessian is
# f''(4) times a matrix of ones; r = 0 and r = 1 are also taken at u = 0,
# where the general power rule would divide by zero.
NODE_CASES = [
    ("exp(x1 * x2)", [1.0, 2.0], E2, [2.0 * E2, E2], [[4.0 * E2, 3.0 * E2], [3.0 * E2, E2]]),
    ("-(x1 * x2)", [3.0, 2.0], -6.0, [-2.0, -3.0], [[0.0, -1.0], [-1.0, 0.0]]),
    ("x1 - x2 ^ 2", [3.0, 2.0], -1.0, [1.0, -4.0], [[0.0, 0.0], [0.0, -2.0]]),
    ("x1 / x2", [3.0, 2.0], 1.5, [0.5, -0.75], [[0.0, -0.25], [-0.25, 0.75]]),
    ("(x1 + x2) ^ 0", [1.0, 3.0], 1.0, [0.0, 0.0], np.zeros((2, 2))),
    ("(x1 + x2) ^ 1", [1.0, 3.0], 4.0, [1.0, 1.0], np.zeros((2, 2))),
    ("(x1 + x2) ^ -1", [1.0, 3.0], 0.25, [-1.0 / 16.0] * 2, np.full((2, 2), 1.0 / 32.0)),
    ("(x1 + x2) ^ 0.5", [1.0, 3.0], 2.0, [0.25] * 2, np.full((2, 2), -1.0 / 32.0)),
    ("(x1 + x2) ^ 3", [1.0, 3.0], 64.0, [48.0] * 2, np.full((2, 2), 24.0)),
    ("(x1 - x2) ^ 0", [2.0, 2.0], 1.0, [0.0, 0.0], np.zeros((2, 2))),
    ("(x1 - x2) ^ 1", [2.0, 2.0], 0.0, [1.0, -1.0], np.zeros((2, 2))),
]


@pytest.mark.parametrize(("text", "x", "value", "grad", "hess"), NODE_CASES, ids=[case[0] for case in NODE_CASES])
def test_node_derivatives_by_hand(text, x, value, grad, hess):
    tree = parse_expression(text, X12)
    f, g, h = value_gradient_hessian(tree, x)
    assert type(f) is float
    assert f == pytest.approx(value, rel=1e-12)
    np.testing.assert_allclose(g, grad, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(h, hess, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(h, fd_hessian(tree, x), rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("n", range(1, 13))
def test_quadratic_form_derivatives_at_larger_n(n):
    rng = np.random.default_rng(1000 + n)
    factor = rng.normal(size=(n, n))
    q = factor @ factor.T + np.eye(n)
    x = rng.normal(size=n)
    f, g, h = value_gradient_hessian(quadratic_tree(q), x)
    # entrywise bounds scaled by the sums of absolute terms, as for a dot product
    assert abs(f - 0.5 * x @ q @ x) <= 1e-12 * (0.5 * np.abs(x) @ np.abs(q) @ np.abs(x))
    assert np.all(np.abs(g - q @ x) <= 1e-12 * (np.abs(q) @ np.abs(x)))
    assert np.all(np.abs(h - q) <= 1e-12 * np.abs(q))
    assert np.array_equal(h, h.T)


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse_expression("log(x1)", ["x1"]), [-1.0])
    with pytest.raises(DomainError):
        evaluate(parse_expression("log(x1)", ["x1"]), [0.0])
    with pytest.raises(DomainError):
        evaluate(parse_expression("1 / x1", ["x1"]), [0.0])
    with pytest.raises(DomainError):
        evaluate(parse_expression("x1 ^ -1", ["x1"]), [0.0])
    with pytest.raises(DomainError):
        gradient(parse_expression("x1 ^ 0.5", ["x1"]), [-2.0])
    with pytest.raises(DomainError):
        hessian(parse_expression("log(x1 + x2)", X12), [1.0, -1.0])
    with pytest.raises(DomainError):
        evaluate(parse_expression("exp(x1)", ["x1"]), [1000.0])
    with pytest.raises(DomainError):
        evaluate(parse_expression("x1 ^ 2", ["x1"]), [1e200])
    with pytest.raises(DomainError):
        hessian(parse_expression("log(x1) + x2", X12), [1e-170, 1.0])
    with pytest.raises(DomainError, match="product overflows"):
        evaluate(parse_expression("x1 * x2", X12), [1e200, 1e200])
    with pytest.raises(DomainError, match="quotient overflows"):
        hessian(parse_expression("x1 / x2", X12), [1e200, 1e-200])


@pytest.mark.parametrize("function", [evaluate, value_gradient_hessian], ids=lambda f: f.__name__)
def test_a_point_with_too_few_entries_is_named(function):
    with pytest.raises(ValueError, match="point has 1 entries, fewer than the expression's variables"):
        function(parse_expression("x1 + x2", X12), [1.0])


def test_a_raw_tree_given_more_entries_than_its_variables_answers_with_zeros_for_them():
    # a program may leave a declared variable out of its objective
    # (vars x1 x2 x3, min -log(x1) + x2), so the extra entry is not an error
    tree = parse_expression("-log(x1) + x2", ["x1", "x2", "x3"])
    value, grad, hess = value_gradient_hessian(tree, [2.0, 3.0])
    assert hess[0, 0] == 0.25
    padded = value_gradient_hessian(tree, [2.0, 3.0, 5.0])
    assert padded[0] == value == evaluate(tree, [2.0, 3.0, 5.0])
    assert np.array_equal(padded[1], [*grad, 0.0])
    assert np.array_equal(padded[2], np.pad(hess, (0, 1)))


@pytest.mark.parametrize("function", [evaluate, value_gradient_hessian], ids=lambda f: f.__name__)
@pytest.mark.parametrize("point", [[1.0], [1.0, 2.0, 3.0]], ids=["short", "long"])
def test_a_wrong_length_point_on_a_compiled_quadratic_is_named(function, point):
    compiled = compile_objective(parse_expression("x1^2 + x2", X12), 2)
    assert isinstance(compiled, Quadratic)
    message = f"point has {len(point)} entries, the objective has 2 variables"
    with pytest.raises(ValueError, match=re.escape(message)):
        function(compiled, point)


def test_non_finite_values_and_exponents_raise():
    # a sum or a constant overflows without an exception; the walk's value is checked
    with pytest.raises(DomainError, match="expression value nan is not finite"):
        evaluate(parse_expression("x1 - 1e999 + 1e999", ["x1"]), [1.0])
    with pytest.raises(DomainError, match="expression value inf is not finite"):
        value_gradient_hessian(parse_expression("(x1-1)^2 + x2^2 + 1e999", X12), [1.0, 1.0])
    for exponent in (np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError, match="power exponent is not finite"):
            value_gradient_hessian(ast.Pow(ast.Var(0, "x1"), exponent), [0.5])
    # a program with such an exponent stops at its start, not at a NaN Newton matrix
    a_ineq, b_ineq = fold_bounds(np.zeros((0, 1)), [], [0.0], [1.0])
    program = ConvexProgram(1, ast.Pow(ast.Var(0, "x1"), np.inf), [], [], a_ineq, b_ineq)
    with pytest.raises(DomainError, match="power exponent is not finite"):
        solve(program)


def test_constant_subtrees_take_no_derivatives():
    # a constant carries no gradient or Hessian entry, and a variable leaf no Hessian entry
    assert _walk(ast.Const(2.5), []) == (2.5, {}, {})
    assert _walk(ast.Log(ast.Exp(ast.Const(2.0))), []) == (2.0, {}, {})
    assert _walk(parse_expression("x1 + 3", ["x1"]), [(1.0, {0: 1.0}, {})]) == (4.0, {0: 1.0}, {})
    assert _walk(ast.Pow(ast.Var(0, "x1"), 0.0), [(1.0, {0: 1.0}, {})]) == (1.0, {}, {})


def test_entropy_hessian_stores_one_entry_per_variable():
    # sum c_i x_i log x_i touches each variable in one term: its walk stores
    # n gradient and n Hessian entries, not n x n
    n = 128
    names = [f"x{i + 1}" for i in range(n)]
    weights = np.random.default_rng(128).uniform(0.5, 2.0, size=n).tolist()
    tree = parse_expression(" + ".join(f"{c!r}*{x}*log({x})" for c, x in zip(weights, names)), names)
    x = np.random.default_rng(129).uniform(0.1, 5.0, size=n)
    _, grad, hess = _walk(tree, [(v, {i: 1.0}, {}) for i, v in enumerate(x.tolist())])
    assert sorted(grad) == list(range(n))
    assert sorted(hess) == [(i, i) for i in range(n)]
    assert_equals_dense_walk(tree, x)


SHARED = parse_expression("x1*x2 + x1", X12)


@pytest.mark.parametrize(
    "tree",
    [
        parse_expression("x1 + x1 + x1*x1", X12),
        parse_expression("3 + x1 - x1 + x2/x1", X12),
        ast.Add(ast.Var(0, "x1"), ast.Var(0, "x1")),
        ast.Add(SHARED, SHARED),
        ast.Sub(ast.Mul(SHARED, SHARED), ast.Add(SHARED, ast.Pow(SHARED, 1.0))),
    ],
    ids=["x1 + x1 + x1*x1", "3 + x1 - x1 + x2/x1", "Add(x1, x1)", "Add(t, t)", "t*t - (t + t^1)"],
)
def test_walk_writes_into_no_leaf_or_child_map(tree):
    # a sum accumulates into maps it owns: a write into a leaf's or a
    # child's map would show in a later read of that leaf or subtree
    for x in ([1.5, 0.5], [1.5, 0.5], [0.25, 2.0]):
        assert_equals_dense_walk(tree, x)


def test_constant_exponents_whose_derivatives_alone_overflow():
    # d2/du2 u^0.5 = -u^-1.5/4 and d2/du2 log u = -u^-2 overflow at u = 1e-300,
    # but a constant subtree takes no derivatives
    assert evaluate(ast.Pow(ast.Const(1e-300), 0.5), ()) == 1e-150
    assert parse_expression("x1^(log(1e-300))", ["x1"]) == ast.Pow(ast.Var(0, "x1"), math.log(1e-300))
    # evaluate forms no derivative of a variable either; value_gradient_hessian,
    # which needs the Hessian, still raises
    for tree, value, message in (
        (ast.Log(ast.Var(0, "x1")), math.log(1e-300), "log overflows"),
        (ast.Pow(ast.Var(0, "x1"), 0.5), 1e-150, "power overflows"),
    ):
        assert evaluate(tree, [1e-300]) == value
        with pytest.raises(DomainError, match=message):
            value_gradient_hessian(tree, [1e-300])
    assert evaluate(ast.Log(ast.Var(0, "x1")), [1e-300]) == pytest.approx(-690.7755, abs=1e-4)


def test_evaluate_gives_the_walked_value_bitwise(fixture_runs):
    """The derivative-free walk of evaluate gives value_gradient_hessian's value, bit for bit."""
    checked = 0
    for program, recorded in fixture_runs.values():
        for tree in (program.objective, program.compiled_objective):
            for it in recorded.iterates:
                assert evaluate(tree, it.x).hex() == value_gradient_hessian(tree, it.x)[0].hex()
                checked += 1
    assert checked > 900


def test_integer_powers_allow_negative_base():
    tree = parse_expression("x1 ^ 3", ["x1"])
    assert evaluate(tree, [-2.0]) == -8.0
    np.testing.assert_allclose(gradient(tree, [-2.0]), [12.0], rtol=1e-12)
    np.testing.assert_allclose(hessian(tree, [-2.0]), [[-12.0]], rtol=1e-12)


# (expression, function, point, message from the parsed tree, message from
# the compiled tree): every case of test_domain_errors, plus a division by
# a zero or an overflowed constant, a zeroth power of an overflowing
# product and overflowing constants.  Only the two polynomial cases are
# folded; the others are left unfolded and keep the parsed tree's message.
DOMAIN_CASES = [
    ("log(x1)", evaluate, [-1.0], "log of a nonpositive value", None),
    ("log(x1)", evaluate, [0.0], "log of a nonpositive value", None),
    ("1 / x1", evaluate, [0.0], "division by zero", None),
    ("x1 ^ -1", evaluate, [0.0], "zero raised to a negative power", None),
    ("x1 ^ 0.5", gradient, [-2.0], "nonpositive base under a fractional power", None),
    ("log(x1 + x2)", hessian, [1.0, -1.0], "log of a nonpositive value", None),
    ("exp(x1)", evaluate, [1000.0], "exp overflows", None),
    ("x1 ^ 2", evaluate, [1e200], "power overflows", "polynomial overflows"),
    ("log(x1) + x2", hessian, [1e-170, 1.0], "log overflows", None),
    ("x1 * x2", evaluate, [1e200, 1e200], "product overflows", "polynomial overflows"),
    ("x1 / x2", hessian, [1e200, 1e-200], "quotient overflows", None),
    ("x1 / (2 - 2)", evaluate, [1.0], "division by zero", None),
    ("x1 / (1e200 * 1e200)", evaluate, [1.0], "product overflows", None),
    ("(x1 * x2) ^ 0", evaluate, [1e200, 1e200], "product overflows", None),
    ("x1 + 1e200 * 1e200", evaluate, [1.0], "product overflows", None),
    ("x1 * (1e200 * 1e200) * 0", evaluate, [1.0], "product overflows", None),
    ("log(1e200 * 1e200)", evaluate, [1.0], "product overflows", None),
    ("x1 * 1e400", evaluate, [1.0], "product overflows", None),
    ("x1 * 1e200 * 1e200", evaluate, [1.0], "product overflows", None),
    ("1 / x1", hessian, [1e-150], "gradient or Hessian is not finite", None),
]


@pytest.mark.parametrize(("text", "function", "x", "message", "folded"), DOMAIN_CASES)
def test_domain_errors_through_compiled_tree(text, function, x, message, folded):
    tree = parse_expression(text, X12[: len(x)])
    compiled = compile_objective(tree, len(x))
    with pytest.raises(DomainError, match=message):
        function(tree, x)
    with pytest.raises(DomainError, match=folded or message):
        function(compiled, x)


def test_only_whole_polynomial_trees_fold():
    names = ["x1", "x2", "x3"]
    polynomial = parse_expression("x1*x2 - (x3 + 1)/4 + -(x1 - 2*x2)^2 + 3^2 + 5^0", names)
    compiled = compile_objective(polynomial, 3)
    assert isinstance(compiled, Quadratic)
    x = np.array([0.5, 1.5, 2.0])
    for got, want in zip(value_gradient_hessian(compiled, x), value_gradient_hessian(polynomial, x)):
        assert np.array_equal(got, want)
    for text in ["log(x1) + x1*x2", "x1*x2*x3", "(x1*x2)^2 + x3", "x1 / x2", "x1 ^ 3", "x1 ^ 0", "exp(x1 + x2)"]:
        tree = parse_expression(text, names)
        assert compile_objective(tree, 3) is tree


@pytest.mark.parametrize("text", ["x1 / 1e400", "1e400 ^ 0 * x1"])
def test_infinite_literal_compiles_to_the_parsed_values(text):
    tree = parse_expression(text, ["x1"])
    compiled = compile_objective(tree, 1)
    for x in ([0.0], [2.5], [-3.0]):
        for got, want in zip(value_gradient_hessian(compiled, x), value_gradient_hessian(tree, x)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("origin", ["tests", "perfbench"])
@pytest.mark.parametrize("n", range(1, 13))
def test_quadratic_tree_compiles_to_one_node(origin, n):
    build = quadratic_tree if origin == "tests" else perfbench_module("instances").quadratic_tree
    rng = np.random.default_rng(2000 + n)
    factor = rng.normal(size=(n, n))
    q = np.triu(factor @ factor.T + np.eye(n))
    q = q + np.triu(q, 1).T
    compiled = compile_objective(build(q), n)
    assert isinstance(compiled, Quadratic)
    assert np.array_equal(compiled.hessian, q)
    assert not compiled.linear.any() and compiled.constant == 0.0
    x = rng.normal(size=n)
    _, _, h = value_gradient_hessian(compiled, x)
    assert h is compiled.hessian and not h.flags.writeable
    with pytest.raises(ValueError):
        h[0, 0] = 1.0
    assert value_gradient_hessian(compiled, x)[2] is h


def test_quadratic_tree_deeper_than_the_recursion_limit_builds_and_solves():
    n = 48
    rng = np.random.default_rng(48)
    factor = rng.normal(size=(n, n))
    q = np.triu(factor @ factor.T + np.eye(n))
    q = q + np.triu(q, 1).T
    tree = quadratic_tree(q)
    # a sum of n(n+1)/2 terms is parsed that deep on the left
    assert n * (n + 1) // 2 > sys.getrecursionlimit()
    lower = rng.uniform(0.2, 1.5, size=n)
    a_ineq, b_ineq = fold_bounds(np.zeros((0, n)), np.zeros(0), lower, lower + 1.0)
    program = ConvexProgram(n=n, objective=tree, a_eq=np.zeros((0, n)), b_eq=[], a_ineq=a_ineq, b_ineq=b_ineq)
    compiled = program.compiled_objective
    assert isinstance(compiled, Quadratic)
    assert np.array_equal(compiled.hessian, q)
    x = rng.uniform(-1.0, 1.0, size=n)
    f, g, h = value_gradient_hessian(tree, x)
    assert np.array_equal(h, q)
    assert f == pytest.approx(0.5 * x @ q @ x, rel=1e-12)
    np.testing.assert_allclose(g, q @ x, rtol=1e-12, atol=1e-12 * np.abs(q).max())
    report = solve(program)
    assert report.status is SolverStatus.CONVERGED
    assert np.all(a_ineq @ report.x >= b_ineq - 1e-8)


# Random trees over three or six variables, drawn so that the parsed and the
# compiled tree must agree closely: points and constants are small dyadic
# numbers, so every polynomial subtree is evaluated exactly by both paths,
# and every node has a positive value, so no sum cancels.  Subtraction and
# negation appear only in pairs that add up to a sum, which still covers
# their signs.  Half of the trees are polynomials of any degree, which fold
# when their degree is at most 2; the others put any node around and
# between polynomial subtrees, and are left unfolded.
def _polynomial_ops(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda ab: ast.Add(*ab)),
        pairs.map(lambda ab: ast.Mul(*ab)),
        pairs.map(lambda ab: ast.Sub(ab[0], ast.Neg(ab[1]))),
        pairs.map(lambda ab: ast.Neg(ast.Sub(ast.Neg(ab[0]), ab[1]))),
        children.map(lambda a: ast.Neg(ast.Neg(a))),
        children.map(lambda a: ast.Div(a, ast.Const(4.0))),
        st.tuples(children, st.sampled_from([0.0, 1.0, 2.0])).map(lambda ar: ast.Pow(*ar)),
    )


def _all_ops(children):
    return st.one_of(
        _polynomial_ops(children),
        st.tuples(children, children).map(lambda ab: ast.Div(*ab)),
        st.tuples(children, st.sampled_from([3.0, 0.5, -1.0])).map(lambda ar: ast.Pow(*ar)),
        children.map(lambda a: ast.Log(ast.Add(ast.Const(2.0), a))),
        children.map(lambda a: ast.Exp(ast.Div(a, ast.Const(8.0)))),
    )


def _trees_and_points(n):
    """Random trees over n variables and random points of n entries."""
    variables = [ast.Var(i, f"x{i + 1}") for i in range(n)]
    leaves = st.sampled_from(variables) | st.sampled_from([1.0, 2.0, 3.0]).map(ast.Const)
    polynomials = st.recursive(leaves, _polynomial_ops, max_leaves=6)
    trees = polynomials | st.recursive(polynomials, _all_ops, max_leaves=6)
    points = st.lists(st.sampled_from(np.arange(2, 9) / 4.0), min_size=n, max_size=n).map(np.array)
    return trees, points


TREES, POINTS = _trees_and_points(3)
# over six variables most nodes touch only some of the point's variables, so
# sums and products often merge an entry that only one side holds
TREES6, POINTS6 = _trees_and_points(6)


@given(TREES, POINTS)
@example(parse_expression("x1*x2 + exp(x3/8) - -(x1 + 2) - -log(2 + x2)", ["x1", "x2", "x3"]), np.array([0.5, 1.5, 2.0]))
@example(parse_expression("(x1*x2)^2 + x3^2*x1 + x1*x2*x3", ["x1", "x2", "x3"]), np.array([0.5, 1.5, 2.0]))
@example(parse_expression("x1*x2 - -(x1 + 2)*x3 + (x2/4)^2 - -x1", ["x1", "x2", "x3"]), np.array([0.5, 1.5, 2.0]))
@settings(max_examples=300, deadline=None)
def test_compiled_tree_agrees_with_parsed_tree(tree, x):
    try:
        f, g, h = value_gradient_hessian(tree, x)
    except DomainError:
        assume(False)
    fc, gc, hc = value_gradient_hessian(compile_objective(tree, 3), x)
    assert abs(fc - f) <= 1e-12 * abs(f)
    assert np.abs(gc - g).max() <= 1e-12 * np.abs(g).max()
    assert np.abs(hc - h).max() <= 1e-12 * np.abs(h).max()
    assert np.array_equal(hc, hc.T)


def assert_equals_dense_walk(tree, x):
    """The walk's (f, grad, Hessian) equal the dense walk's; -0.0 == 0.0 here."""
    got = value_gradient_hessian(tree, x)
    want = dense_value_gradient_hessian(tree, x)
    for got_part, want_part in zip(got, want):
        assert np.array_equal(got_part, want_part)


def test_walk_equals_dense_walk_along_reference_runs(fixture_runs):
    for program, run in fixture_runs.values():
        for iterate in run.iterates:
            assert_equals_dense_walk(program.objective, iterate.x)


@given(st.tuples(TREES, POINTS) | st.tuples(TREES6, POINTS6))
@example((parse_expression("x1*x2 + exp(x3/8) - -(x1 + 2) - -log(2 + x2)", ["x1", "x2", "x3"]), np.array([0.5, 1.5, 2.0])))
@example((parse_expression("3 - x1 / (2 + 1) * 2^0 + (x2 - 1)^2 / x3", ["x1", "x2", "x3"]), np.array([0.5, 1.5, 2.0])))
@settings(max_examples=600, deadline=None)
def test_walk_equals_dense_walk_on_random_trees(case):
    tree, x = case
    try:
        dense_value_gradient_hessian(tree, x)
    except DomainError as err:
        with pytest.raises(DomainError, match=re.escape(str(err))):
            value_gradient_hessian(tree, x)
        return
    assert_equals_dense_walk(tree, x)


@pytest.mark.parametrize("n", range(2, 21))
def test_compiled_quadratic_equals_dense_walk_at_zero(n):
    instance = perfbench_module("instances").boxqp_dense(np.random.default_rng(3000 + n), n)
    compiled = compile_objective(instance.program.objective, n)
    c, g, h = dense_value_gradient_hessian(instance.program.objective, np.zeros(n))
    assert isinstance(compiled, Quadratic)
    assert compiled.constant == c
    assert np.array_equal(compiled.linear, g)
    assert np.array_equal(compiled.hessian, h)


def _product_shortcut_trees():
    x1, x2 = ast.Var(0, "x1"), ast.Var(1, "x2")
    pair = ast.Mul(x1, x2)
    return [
        ast.Mul(ast.Const(0.0), x1),
        ast.Mul(x1, ast.Const(0.0)),
        pair,
        ast.Mul(ast.Const(2.5), pair),
        ast.Mul(pair, ast.Const(2.5)),
        ast.Mul(ast.Const(-3.0), ast.Mul(x1, x1)),
        ast.Add(ast.Mul(ast.Const(2.5), pair), ast.Mul(pair, ast.Const(-0.5))),
        ast.Mul(pair, ast.Add(x1, ast.Const(1.0))),
    ]


@pytest.mark.parametrize("x", [[0.0, 0.0], [0.0, 1.5], [1.5, 0.0], [1.5, -0.5], [-0.0, 2.0]])
@pytest.mark.parametrize("tree", _product_shortcut_trees(), ids=str)
def test_product_shortcuts_equal_the_dense_walk(tree, x):
    """A constant factor scales the other side, two factors of value 0 give
    their cross term alone; either way the result is the dense rule's, up
    to the sign of an exact zero."""
    assert_equals_dense_walk(tree, x)


def test_folded_seeded_quadratics_keep_their_bytes():
    # the SHA-256 of every (c, g, H) folded here, as the walk without its
    # product shortcuts computed them; about a fifth of the entries of Q
    # are exactly 0, so products with a zero constant are folded too
    build = perfbench_module("instances").quadratic_tree
    digest = hashlib.sha256()
    rng = np.random.default_rng(35)
    for n in range(1, 13):
        q = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, n))
        q[rng.random((n, n)) < 0.2] = 0.0
        folded = compile_objective(build(q), n)
        digest.update(np.float64(folded.constant).tobytes() + folded.linear.tobytes() + folded.hessian.tobytes())
    assert digest.hexdigest() == "9d8cd9e39c079188c5b58980f4181b26602218d83f0e91333aa5c46628d9ecf7"
