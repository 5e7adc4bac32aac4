"""Grammar, printing, and bound folding."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcipm import ConvexProgram, evaluate, fold_bounds, parse_expression
from arcipm.autodiff import DomainError, compile_objective, value_gradient_hessian
from arcipm.expr import Add, Const, Div, Exp, Log, Mul, Neg, ParseError, Pow, Sub, Var, variable_indices
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
    assert parse_expression("x1^(8^(1/3))", X12) == Pow(Var(0, "x1"), 2.0)
    assert parse_expression("x1^(-8^(1/3))", X12) == Pow(Var(0, "x1"), -2.0)
    # an exponent outside the domain of its own operators, or not finite
    for exponent in ("(-8)^(1/3)", "1/0", "log(0)", "1e200*1e200", "1e300/1e-300", "0^0.5", "1e400", "1e308+1e308"):
        with pytest.raises(ParseError, match="constant"):
            parse_expression(f"x1^({exponent})", X12)


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError, match=r"^unknown variable 'q' \(column 6\)$") as err:
        parse_expression("x1 + q", X12)
    assert err.value.position == 5


def test_syntax_error_reports_column():
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + * x2", X12)
    assert err.value.position == 5


def test_reserved_word_cannot_name_a_variable():
    for name in ("log", "exp"):
        with pytest.raises(ValueError, match=f"'{name}' is a reserved word"):
            parse_expression(f"{name} + 1", [name])
        with pytest.raises(ValueError, match=f"'{name}' is a reserved word"):
            parse_expression("x1 + 1", ["x1", name])


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("x1 x2", X12)


@pytest.mark.parametrize("text", ["(" * 200 + "x1" + ")" * 200, "-(" * 200 + "x1" + ")" * 200])
def test_nesting_deeper_than_the_recursion_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match="expression nests too deeply"):
        parse_expression(text, X12)


@pytest.mark.parametrize("signs", [500, 5000])
def test_a_run_of_minus_signs_is_one_negation_or_none(signs):
    for extra, want in ((0, Var(0, "x1")), (1, Neg(Var(0, "x1")))):
        text = "-" * (signs + extra) + "x1"
        tree = parse_expression(text, X12)
        assert tree == want and hash(tree) == hash(want) and repr(tree) == repr(want)
        assert str(tree) == str(want) and parse_expression(str(tree), X12) == tree
    # a negated negation prints so that it parses back as itself
    twice = Neg(Neg(Var(1, "x2")))
    assert str(twice) == "-(-x2)" and parse_expression(str(twice), X12) == twice
    assert parse_expression("x1 - -x2", X12) == Sub(Var(0, "x1"), Neg(Var(1, "x2")))
    assert parse_expression("x1^--2", X12) == Pow(Var(0, "x1"), 2.0)


_names = st.sampled_from(["x1", "x2", "x3"])
_consts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_signed_consts = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def _exprs(consts=_consts):
    leaves = st.one_of(
        consts.map(Const),
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


def _value_or_error(tree, x) -> str:
    try:
        return evaluate(tree, x).hex()
    except DomainError as err:
        return f"DomainError: {err}"


@given(_exprs(_signed_consts), st.lists(st.floats(min_value=-4, max_value=4), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_printed_tree_with_signed_constants_parses_back_to_its_value(tree, x):
    # the parser reads -2 as Neg(Const(2)), so only the values can agree, bit for bit
    assert _value_or_error(parse_expression(str(tree), ["x1", "x2", "x3"]), x) == _value_or_error(tree, x)


def test_a_negative_constant_under_a_power_prints_in_parentheses():
    for value, want in ((-2.0, 4.0), (-0.0, 0.0)):
        text = str(Pow(Const(value), 2.0))
        assert text == f"({value!r})^2.0"
        assert evaluate(parse_expression(text, []), []).hex() == want.hex()
    # anywhere else it prints as a nonnegative constant under a sign would
    assert str(Mul(Const(-3.0), Var(0, "x1"))) == "-3.0*x1"
    assert str(Sub(Var(0, "x1"), Const(-2.0))) == "x1 - -2.0"
    assert str(Neg(Const(-2.0))) == "--2.0"


def test_links_give_the_bottom_operand_then_each_link_in_source_order():
    names = ["x1", "x2", "x3"]
    x1, x2, x3 = (Var(i, name) for i, name in enumerate(names))
    tree = parse_expression("x1 - 2*x2/x3 + x2", names)
    assert tree.links() == (x1, ((Sub, Div(Mul(Const(2.0), x2), x3)), (Add, x2)))
    assert tree != parse_expression("x1 + 2*x2/x3 + x2", names)
    tree = parse_expression("2*x1/x2*x3", names)
    assert tree.links() == (Const(2.0), ((Mul, x1), (Div, x2), (Mul, x3)))
    assert tree != parse_expression("2*x1*x2*x3", names)


def test_a_chain_keeps_its_view_and_compares_prints_and_hashes_without_it():
    text = "x1" + "".join(f"{'*/'[k % 2]}x{k % 2 + 1}" for k in range(1, 1500))
    t = parse_expression("x1*x2 - 3", X12)
    for build in (lambda: parse_expression(text, X12), lambda: Add(t, t)):
        tree, twin = build(), build()
        view = tree.links()
        assert tree.links() is view
        # twin has built no view yet; tree has
        assert twin._view is None
        assert tree == twin and twin == tree and hash(tree) == hash(twin)
        assert repr(tree) == repr(twin) and str(tree) == str(twin)
        assert "_view" not in repr(tree)
        assert twin._view is not None and twin.links() == view
    assert [f.name for f in dataclasses.fields(Add) if f.compare] == ["left", "right"]
    assert Add.__match_args__ == ("left", "right")
    # a replaced node builds its own view, not the one its source kept
    assert t.links()[1][-1] == (Sub, Const(3.0))
    assert dataclasses.replace(t, right=Const(4.0)) == parse_expression("x1*x2 - 4", X12)


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

    # products, and products mixed with quotients, are chains of the same depth:
    # x1*x2*x1*...*x2 is (x1*x2)^750 and x1/x2*x1/.../x2 is x1^750 / x2^750
    factors = 1500
    for ops, heads, (a, b) in (("*", "Mul(left=", (750, 750)), ("*/", "Div(left=Mul(left=", (750, -750))):
        text = "x1" + "".join(f"{ops[k % len(ops)]}x{k % 2 + 1}" for k in range(1, factors))
        tree = parse_expression(text, X12)
        assert str(tree) == text and repr(tree).startswith(heads * 10)
        twin = parse_expression(text, X12)
        assert twin is not tree and twin == tree and hash(twin) == hash(tree)
        assert parse_expression("x2" + text[2:], X12) != tree
        assert variable_indices(tree) == {0, 1}
        assert compile_objective(tree, 2) is tree
        v, g, h = value_gradient_hessian(tree, [1.0, 1.0])
        assert v == 1.0 and g.tolist() == [a, b]
        assert h.tolist() == [[a * (a - 1), a * b], [a * b, b * (b - 1)]]
    linear = compile_objective(parse_expression("x1" + "*1/1" * factors, X12), 2)
    assert linear.constant == 0.0 and linear.linear.tolist() == [1.0, 0.0] and not linear.hessian.any()


def test_constant_exponent_deeper_than_the_recursion_limit_folds():
    terms = 1500
    assert terms > sys.getrecursionlimit()

    def exponent_of(joined):
        try:
            return parse_expression(f"x1^({joined})", X12)
        except RecursionError:
            # returned, not raised: pytest takes minutes to render a traceback this deep
            return None

    assert exponent_of(" + ".join(["1"] * terms)) == Pow(Var(0, "x1"), 1500.0)
    assert exponent_of(" - ".join(["1"] * terms)) == Pow(Var(0, "x1"), 2.0 - terms)
    assert exponent_of(" * ".join(["1"] * terms)) == Pow(Var(0, "x1"), 1.0)
    assert exponent_of("2" + " * 2 / 2" * terms) == Pow(Var(0, "x1"), 2.0)
    with pytest.raises(ParseError, match="constant"):
        parse_expression("x1^(" + " + ".join(["1"] * terms) + " + x2)", X12)


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
    # assert_array_equal takes -0.0 for 0.0; the bytes tell the signed zeros apart
    want = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert a.tobytes() == want.tobytes()


def test_fold_bounds_no_bounds_is_identity():
    rows = [[1.0, 2.0], [3.0, 4.0]]
    a, b = fold_bounds(rows, [1.0, 2.0], [-np.inf, -np.inf], [np.inf, np.inf])
    np.testing.assert_array_equal(a, rows)
    np.testing.assert_array_equal(b, [1.0, 2.0])


def test_fold_bounds_rejects_rows_of_another_width():
    message = "constraint rows must have one coefficient per variable"
    with pytest.raises(ValueError, match=message):
        fold_bounds([[1.0, 2.0, 3.0]], [0.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=message):
        fold_bounds([[1.0]], [0.0], [0.0, 0.0], [1.0, 1.0])


def test_fold_bounds_rejects_crossed_bounds():
    with pytest.raises(ValueError, match="lower bound"):
        fold_bounds(np.zeros((0, 2)), [], [2.0, 0.0], [1.0, 5.0])


def test_fold_bounds_rejects_nan_and_leaves_infinite_sides_open():
    for lower, upper in (([np.nan, 0.0], [1.0, 5.0]), ([0.0, 0.0], [1.0, np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            fold_bounds(np.zeros((0, 2)), [], lower, upper)
    # x >= inf and x <= -inf admit no point; they must not read as open sides
    closed_at_infinity = (
        ([np.inf, 0.0], [10.0, 5.0]),
        ([0.0, 0.0], [1.0, -np.inf]),
        ([np.inf, 0.0], [np.inf, 1.0]),
    )
    for lower, upper in closed_at_infinity:
        with pytest.raises(ValueError, match="lower bound of inf or an upper bound of -inf"):
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


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: ConvexProgram(0, parse_expression("1", []), [], [], [[1.0]], [0.0]),
         "at least one variable is required"),
        (lambda: ConvexProgram(2, parse_expression("x1", X12), [], [], [[1.0, 0.0, 0.0]], [0.0]),
         "constraint rows must have one coefficient per variable"),
        (lambda: ConvexProgram(2, parse_expression("x1", X12), [], [], [[1.0, 0.0]], [0.0, 1.0]),
         "right-hand side length does not match its constraint matrix"),
        (lambda: ConvexProgram(2, parse_expression("x3", ["x1", "x2", "x3"]), [], [], [[1.0, 0.0]], [0.0]),
         "objective references a variable outside the declared list"),
        (lambda: fold_bounds(np.zeros((0, 2)), [], [0.0, 0.0], [1.0]),
         "lower and upper bound vectors differ in length"),
    ],
    ids=["no-variables", "row-width", "rhs-length", "unknown-variable", "bound-lengths"],
)
def test_program_and_fold_bounds_reject_malformed_input(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


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
