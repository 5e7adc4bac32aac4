"""Grammar, printing, and bound folding."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcipm import ConvexProgram, evaluate, fold_bounds, parse_expression
from arcipm.expr import Add, Const, Div, Exp, Log, Mul, Neg, ParseError, Pow, Sub, Var
from conftest import quadratic_tree

X12 = ["x1", "x2"]


def test_simple_sum_structure():
    tree = parse_expression("x1 + x2", X12)
    assert tree == Add(Var(0, "x1"), Var(1, "x2"))


def test_log_objective_parses_and_evaluates():
    text = "-(5*log(x1) - x1 + 7) - (7*log(x2) - x2 + 8)"
    tree = parse_expression(text, X12)
    assert isinstance(tree, Sub)
    assert isinstance(tree.left, Neg)
    assert evaluate(tree, [1.0, 1.0]) == pytest.approx(-13.0)


def test_quadratic_over_linear_structure():
    tree = parse_expression("(5*x1)^2 / (7*x2)", X12)
    assert tree == Div(Pow(Mul(Const(5.0), Var(0, "x1")), 2.0), Mul(Const(7.0), Var(1, "x2")))


def test_precedence():
    assert evaluate(parse_expression("2 + 3 * 4", []), []) == 14.0
    assert evaluate(parse_expression("2 * 3 ^ 2", []), []) == 18.0
    assert evaluate(parse_expression("-2 ^ 2", []), []) == -4.0  # unary minus binds looser than ^
    assert evaluate(parse_expression("2 ^ -1", []), []) == 0.5
    assert evaluate(parse_expression("8 ^ (1/3)", []), []) == pytest.approx(2.0)
    assert evaluate(parse_expression("2 - 3 - 4", []), []) == -5.0


def test_exponent_must_be_constant():
    with pytest.raises(ParseError, match="constant"):
        parse_expression("x1 ^ x2", X12)


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError, match="unknown variable 'q'"):
        parse_expression("x1 + q", X12)


def test_syntax_error_reports_column():
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + * x2", X12)
    assert err.value.position == 5


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("x1 x2", X12)


_names = st.sampled_from(["x1", "x2", "x3"])
_consts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _exprs():
    leaves = st.one_of(
        _consts.map(Const),
        _names.map(lambda s: Var(int(s[1]) - 1, s)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Add(*ab)),
            st.tuples(children, children).map(lambda ab: Sub(*ab)),
            st.tuples(children, children).map(lambda ab: Mul(*ab)),
            st.tuples(children, children).map(lambda ab: Div(*ab)),
            children.map(Neg),
            children.map(Log),
            children.map(Exp),
            st.tuples(children, st.floats(min_value=-8, max_value=8, allow_nan=False)).map(
                lambda br: Pow(*br)
            ),
        )

    return st.recursive(leaves, extend, max_leaves=25)


@given(_exprs())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(tree):
    assert parse_expression(str(tree), ["x1", "x2", "x3"]) == tree


def test_sums_print_and_compare_as_dataclasses_do():
    tree = parse_expression("x1 - 7 + x2 - (x1 - x2)", X12)
    assert str(tree) == "x1 - 7.0 + x2 - (x1 - x2)"
    assert repr(tree) == (
        "Sub(left=Add(left=Sub(left=Var(index=0, name='x1'), right=Const(value=7.0)), "
        "right=Var(index=1, name='x2')), right=Sub(left=Var(index=0, name='x1'), "
        "right=Var(index=1, name='x2')))"
    )
    twin = parse_expression("x1 - 7 + x2 - (x1 - x2)", X12)
    assert tree == twin and hash(tree) == hash(twin)
    assert tree != parse_expression("x1 - 7 + x2 - (x1 + x2)", X12)
    assert tree != parse_expression("x1 - 7 - x2 - (x1 - x2)", X12)
    assert Add(Var(0, "x1"), Var(1, "x2")) != Sub(Var(0, "x1"), Var(1, "x2"))
    assert Add(Var(0, "x1"), Var(1, "x2")) != Mul(Var(0, "x1"), Var(1, "x2"))


def test_sum_deeper_than_the_recursion_limit_prints_hashes_and_compares():
    n = 48
    q = np.eye(n) + 0.5
    tree = quadratic_tree(q)
    assert n * (n + 1) // 2 > sys.getrecursionlimit()
    text = str(tree)
    assert text.count(" + ") == n * (n + 1) // 2 - 1 and text.endswith("*(x48*x48)")
    assert repr(tree).startswith("Add(left=" * 10)
    lower = np.zeros(n)
    a_ineq, b_ineq = fold_bounds(np.zeros((0, n)), np.zeros(0), lower, lower + 1.0)
    program = ConvexProgram(n=n, objective=tree, a_eq=np.zeros((0, n)), b_eq=[], a_ineq=a_ineq, b_ineq=b_ineq)
    assert repr(tree) in repr(program)
    twin = quadratic_tree(q.copy())
    assert twin is not tree and twin == tree and hash(twin) == hash(tree)
    q[n - 1, n - 1] = 2.0
    assert quadratic_tree(q) != tree
    q[n - 1, n - 1], q[0, 0] = 1.5, 2.0
    assert quadratic_tree(q) != tree


def test_printed_quadratic_parses_back_at_n48():
    """Constants built from numpy scalars print as plain floats the parser reads."""
    n = 48
    names = [f"x{i + 1}" for i in range(n)]
    tree = quadratic_tree(np.eye(n) + 0.5)
    assert "np." not in str(tree)
    assert parse_expression(str(tree), names) == tree
    rng = np.random.default_rng(48)
    factor = rng.normal(size=(n, n))
    tree = quadratic_tree(factor @ factor.T)
    back = parse_expression(str(tree), names)
    for _ in range(5):
        x = rng.normal(size=n)
        assert evaluate(back, x) == evaluate(tree, x)


def test_fold_bounds_reference_layout():
    a, b = fold_bounds([[-1.0, -1.0]], [-10.0], [1.0, 1.0], [10.0, 10.0])
    assert a.shape == (5, 2)
    np.testing.assert_array_equal(
        a, [[-1, -1], [1, 0], [0, 1], [-1, 0], [0, -1]]
    )
    np.testing.assert_array_equal(b, [-10, 1, 1, -10, -10])


def test_fold_bounds_no_bounds_is_identity():
    rows = [[1.0, 2.0], [3.0, 4.0]]
    a, b = fold_bounds(rows, [1.0, 2.0], [-np.inf, -np.inf], [np.inf, np.inf])
    np.testing.assert_array_equal(a, rows)
    np.testing.assert_array_equal(b, [1.0, 2.0])


def test_fold_bounds_three_box_pairs():
    a, b = fold_bounds(
        [[-1.0, -1.0, 0.0], [0.0, -1.0, -1.0]],
        [-10.0, -10.0],
        [5.0, 1.0, 5.0],
        [10.0, 3.0, 10.0],
    )
    assert a.shape == (8, 3)


def test_fold_bounds_rejects_crossed_bounds():
    with pytest.raises(ValueError, match="lower bound"):
        fold_bounds(np.zeros((0, 2)), [], [2.0, 0.0], [1.0, 5.0])


def test_fold_bounds_rejects_nan_and_leaves_infinite_sides_open():
    for lower, upper in (([np.nan, 0.0], [1.0, 5.0]), ([0.0, 0.0], [1.0, np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            fold_bounds(np.zeros((0, 2)), [], lower, upper)
    a, b = fold_bounds(np.zeros((0, 2)), [], [-np.inf, 0.0], [1.0, np.inf])
    np.testing.assert_array_equal(a, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(b, [0.0, -1.0])


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=n, max_size=n
            ),
            st.lists(st.floats(min_value=-4, max_value=4, allow_nan=False), min_size=n, max_size=n),
            st.lists(
                st.floats(min_value=0.1, max_value=4, allow_nan=False), min_size=n, max_size=n
            ),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_fold_bounds_feasibility_equivalence(data):
    n, point, lows, widths, lo_open, hi_open = data
    x = np.array(point)
    lower = np.array(lows, dtype=float)
    upper = lower + np.array(widths)
    lower[np.array(lo_open)] = -np.inf
    upper[np.array(hi_open)] = np.inf
    a, b = fold_bounds(np.zeros((0, n)), np.zeros(0), lower, upper)
    in_box = bool(np.all(x >= lower) and np.all(x <= upper))
    satisfies_rows = bool(np.all(a @ x >= b)) if a.shape[0] else True
    assert in_box == satisfies_rows


def test_program_rejects_dependent_equalities():
    tree = parse_expression("x1 + x2 + x3", ["x1", "x2", "x3"])
    with pytest.raises(ValueError, match="dependent"):
        ConvexProgram(
            n=3,
            objective=tree,
            a_eq=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
            b_eq=[1.0, 2.0],
            a_ineq=[[1.0, 1.0, 1.0]],
            b_ineq=[0.0],
        )


def test_program_rejects_square_equality_system():
    tree = parse_expression("x1 + x2", X12)
    with pytest.raises(ValueError, match="fewer equality rows"):
        ConvexProgram(
            n=2,
            objective=tree,
            a_eq=[[1.0, 0.0], [0.0, 1.0]],
            b_eq=[1.0, 1.0],
            a_ineq=[[1.0, 1.0]],
            b_ineq=[0.0],
        )


def test_program_requires_an_inequality():
    tree = parse_expression("x1", ["x1"])
    with pytest.raises(ValueError, match="inequality"):
        ConvexProgram(n=1, objective=tree, a_eq=[], b_eq=[], a_ineq=[], b_ineq=[])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["a_eq", "b_eq", "a_ineq", "b_ineq"])
def test_program_rejects_non_finite_rows(name, bad):
    parts = {"a_eq": [[1.0, 1.0]], "b_eq": [1.0], "a_ineq": [[1.0, 0.0], [0.0, 1.0]], "b_ineq": [0.0, 0.0]}
    parts[name] = np.array(parts[name])
    parts[name].flat[-1] = bad
    with pytest.raises(ValueError, match=f"{name} has an entry that is not finite"):
        ConvexProgram(n=2, objective=parse_expression("x1 + x2", X12), **parts)
