"""Values, gradients, and Hessians against hand values and finite differences."""

import numpy as np
import pytest

from arcipm import DomainError, evaluate, gradient, hessian, parse_expression, value_gradient_hessian
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
