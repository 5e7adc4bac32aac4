"""Values, gradients, and Hessians against hand values and finite differences."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arcipm import DomainError, evaluate, gradient, hessian, parse_expression, value_gradient_hessian
from arcipm import expr as ast
from arcipm.autodiff import Quadratic, compile_objective
from conftest import REFERENCE, SAMPLING_BOX, load_problem, quadratic_tree

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


def test_hessian_storage_exactly_symmetric():
    ex8, _ = load_problem("ex8")
    h = hessian(ex8.objective, [6.0, 2.0, 6.0])
    assert np.array_equal(h, h.T)


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


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_derivatives_match_differences_at_random_points(name):
    program, _ = load_problem(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    box = SAMPLING_BOX[name]
    for _ in range(20):
        x = np.array([rng.uniform(lo, hi) for lo, hi in box])
        grad = gradient(program.objective, x)
        ref_g = fd_gradient(program.objective, x)
        scale_g = 1.0 + float(np.max(np.abs(ref_g)))
        assert np.max(np.abs(grad - ref_g)) <= 1e-5 * scale_g
        hess = hessian(program.objective, x)
        ref_h = fd_hessian(program.objective, x)
        scale_h = 1.0 + float(np.max(np.abs(ref_h)))
        assert np.max(np.abs(hess - ref_h)) <= 1e-4 * scale_h
        assert np.array_equal(hess, hess.T)


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


def _perfbench_quadratic_tree():
    """The benchmark's own ½xᵀQx tree function, loaded from its file."""
    name = "perfbench_instances"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "instances.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].quadratic_tree


@pytest.mark.parametrize("origin", ["tests", "perfbench"])
@pytest.mark.parametrize("n", range(1, 13))
def test_quadratic_tree_compiles_to_one_node(origin, n):
    build = quadratic_tree if origin == "tests" else _perfbench_quadratic_tree()
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


# Random trees over three variables, drawn so that the parsed and the
# compiled tree must agree closely: points and constants are small dyadic
# numbers, so every polynomial subtree is evaluated exactly by both paths,
# and every node has a positive value, so no sum cancels.  Subtraction and
# negation appear only in pairs that add up to a sum, which still covers
# their signs.  Half of the trees are polynomials of any degree, which fold
# when their degree is at most 2; the others put any node around and
# between polynomial subtrees, and are left unfolded.
VARS = [ast.Var(i, f"x{i + 1}") for i in range(3)]
LEAVES = st.sampled_from(VARS) | st.sampled_from([1.0, 2.0, 3.0]).map(ast.Const)


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


POLYNOMIALS = st.recursive(LEAVES, _polynomial_ops, max_leaves=6)
TREES = POLYNOMIALS | st.recursive(POLYNOMIALS, _all_ops, max_leaves=6)
POINTS = st.lists(st.sampled_from(np.arange(2, 9) / 4.0), min_size=3, max_size=3).map(np.array)


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
