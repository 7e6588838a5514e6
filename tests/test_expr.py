import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from floworder.expr import (
    BinOp,
    Comparison,
    Coord,
    ExpressionError,
    Indicator,
    Num,
    Param,
    Table,
    evaluate,
    parse_expression,
)


def ev(source, x, params=None, n=None):
    """Array evaluation at the single state x, checked against the scalar oracle."""
    params = params or {}
    n = n if n is not None else len(x)
    expr = parse_expression(source, n, params.keys())
    (value,) = evaluate(expr.root, np.array([x], dtype=np.int64), params).tolist()
    assert repr(value) == repr(helpers.scalar_evaluate(expr.root, tuple(x), params))
    return value


def test_blocked_arrival_indicator():
    assert ev("beta * ind(x1 < s1)", (2, 0), {"beta": 1.0, "s1": 2}) == 0.0
    assert ev("beta * ind(x1 < s1)", (1, 0), {"beta": 1.0, "s1": 2}) == 1.0


def test_coordinate_projection():
    assert ev("x2", (3, 5)) == 5.0


def test_min_clamp_with_param():
    assert ev("min(x1, 2) * c", (7, 0), {"c": 1.5}) == 3.0


def test_precedence_and_associativity():
    assert ev("1 + 2 * 3", (0,)) == 7.0
    assert ev("2 - 1 - 1", (0,)) == 0.0
    assert ev("(1 + 2) * 3", (0,)) == 9.0


def test_unary_minus():
    assert ev("-x1 + 4", (1,)) == 3.0
    assert ev("- - 2", (0,)) == 2.0


def test_scientific_literals():
    assert ev("1e-3 + 2.5", (0,)) == pytest.approx(2.501)


def test_indicator_variants():
    assert ev("ind(x1 <= 2)", (2,)) == 1.0
    assert ev("ind(x1 < 2)", (2,)) == 0.0
    assert ev("ind(x1 = 2)", (2,)) == 1.0


def test_indicator_conjunction():
    src = "ind(x1 < 2, x2 < 3)"
    assert ev(src, (1, 2)) == 1.0
    assert ev(src, (2, 2)) == 0.0
    assert ev(src, (1, 3)) == 0.0


def test_max_multiarg():
    assert ev("max(x1, x2, 2)", (1, 5)) == 5.0
    assert ev("min(x1, x2, 2)", (1, 5)) == 1.0


def test_min_needs_two_arguments():
    with pytest.raises(ExpressionError):
        parse_expression("min(x1)", 1, set())


def test_unknown_identifier_rejected():
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse_expression("gamma * x1", 1, {"beta"})


def test_coordinate_out_of_range():
    with pytest.raises(ExpressionError, match="out of range"):
        parse_expression("x3", 2, set())


def test_comparison_outside_ind_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("x1 < 2", 1, set())


def test_ind_argument_must_compare():
    with pytest.raises(ExpressionError):
        parse_expression("ind(x1)", 1, set())


def test_malformed_expressions():
    for src in ("", "1 +", "min(1,", "x1 x2", "ind()", "2 ** 3", "a $ b"):
        with pytest.raises(ExpressionError):
            parse_expression(src, 2, {"a", "b"})


def test_source_round_trip_field():
    expr = parse_expression("beta * ind(x1 < s1)", 2, {"beta", "s1"})
    assert expr.source == "beta * ind(x1 < s1)"
    assert expr.n == 2


def test_evaluation_is_pure():
    expr = parse_expression("max(x1 - 1, 0) * c + ind(x2 = 0)", 2, {"c"})
    params = {"c": 0.7}
    states = np.array([(3, 0)])
    first = evaluate(expr.root, states, params)
    for _ in range(50):
        assert evaluate(expr.root, states, params) == first


@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(-3, 8),
)
def test_indicator_matches_python_semantics(a, b, c):
    x = (a, b)
    assert ev(f"ind(x1 < {c})", x, n=2) == float(a < c)
    assert ev(f"ind(x1 <= {c})", x, n=2) == float(a <= c)
    assert ev("ind(x1 = x2)", x) == float(a == b)


@given(st.integers(0, 9), st.integers(0, 9))
def test_arithmetic_matches_host(a, b):
    x = (a, b)
    assert ev("x1 + x2 * 2 - 1", x) == a + b * 2 - 1
    assert ev("min(x1, x2) + max(x1, x2)", x) == a + b
    assert not math.isnan(ev("-x1 - -x2", x))


def bits(values):
    """Float bit patterns, so signed zeros compare exactly."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize(
    "source, expected",
    [("2", [2.0] * 3), ("max(1e309, 0)", [math.inf] * 3), ("ind(1 < 2)", [1.0] * 3),
     ("x1", [0.0, 1.0, 2.0]), ("-x1", [-0.0, -1.0, -2.0]),
     # On a tie min and max keep their first argument, so a signed zero
     # shows which one won, on the array branch and on the float branch.
     ("min(0, -x1)", [0.0, -1.0, -2.0]), ("max(-x1, 0)", [-0.0, 0.0, 0.0]),
     ("min(0, -0)", [0.0] * 3), ("max(-0, 0)", [-0.0] * 3)],
)
def test_evaluate_returns_a_fresh_writable_array(source, expected):
    """Constant subtrees are Python floats inside the evaluator; the result is
    still a new (m,) float array that owns its memory, one per call."""
    states = np.array([(0,), (1,), (2,)], dtype=np.int64)
    root = parse_expression(source, 1, ()).root
    out = evaluate(root, states, {})
    assert out.shape == (3,) and out.dtype == np.float64
    assert out.flags.writeable and out.flags.owndata
    assert not np.shares_memory(out, states)
    assert bits(out) == bits(expected)
    out[:] = 7.0
    again = evaluate(root, states, {})
    assert not np.shares_memory(out, again)
    assert bits(again) == bits(expected)


# ------------------------------------------------------------ table runs


_TABLE_SCALES = ["a", "b", "c", "0", "1", "2.5", "1e308"]
_TABLE_LEVELS = ["1", "1", "2", "1.5", "1e9", "1e9", "1000000001"]
_TABLE_TAILS = ["", " + x1", " + c", " - b * ind(x1 = 1)", " + a * ind(x2 = 2)", " + 2 * x2"]
_NEAR_1E9 = [0, 1, 2, 999_999_999, 1_000_000_000, 1_000_000_001]


@st.composite
def table_sums(draw):
    """(text, params, states): a sum of 2 to 8 table terms on one coordinate,
    maybe followed by other terms, with parameter scales that may be
    negative, -0.0, 0, 2**53 or +-1e308, on a box or on a listed space with
    coordinates near 10**9 (so both of the evaluator's value branches run).
    Few levels, so that several terms often share one and their order of
    addition shows in rounding, overflow and signed zeros."""
    coord = draw(st.sampled_from([1, 2]))
    terms = draw(
        st.lists(st.tuples(st.sampled_from(_TABLE_SCALES), st.sampled_from(_TABLE_LEVELS)),
                 min_size=2, max_size=8)
    )
    text = " + ".join(f"{scale} * ind(x{coord} = {level})" for scale, level in terms)
    text += draw(st.sampled_from(_TABLE_TAILS))
    value = st.sampled_from([-3.5, -0.0, 0.0, 1.0, 2.0**53, 1e308, -1e308])
    params = {name: draw(value) for name in "abc"}
    if draw(st.booleans()):
        caps = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
        states = np.indices((caps[0] + 1, caps[1] + 1)).reshape(2, -1).T
    else:
        pairs = st.tuples(st.sampled_from(_NEAR_1E9), st.sampled_from(_NEAR_1E9))
        rows = draw(st.lists(pairs, min_size=1, max_size=8, unique=True))
        states = np.array(rows + [(1_000_000_000, 1_000_000_000)], dtype=np.int64)
    return text, params, states


@given(table_sums())
@example(("a * ind(x1 = 1) + 1 * ind(x1 = 1) + 1 * ind(x1 = 1)",
          {"a": 2.0**53, "b": 0.0, "c": 0.0}, np.indices((3, 2)).reshape(2, -1).T))
@example(("a * ind(x2 = 1e9) + b * ind(x2 = 1e9) + c * ind(x2 = 1e9)",
          {"a": 1e308, "b": 1e308, "c": -1e308}, np.array([[0, 10**9], [1, 0]])))
def test_table_runs_evaluate_as_the_chain(case):
    text, params, states = case
    root = parse_expression(text, 2, params).root
    spine = root
    while type(spine) is BinOp:
        spine = spine.left
    assert type(spine) is Table
    chain = helpers.reference_parse_expression(text, 2, params).root
    with np.errstate(over="ignore", invalid="ignore"):
        got = evaluate(root, states.astype(np.int64), params)
    want = [helpers.scalar_evaluate(chain, tuple(x), params) for x in states.tolist()]
    assert got.tobytes() == np.array(want).tobytes()


def term(scale, coord, level):
    """scale * ind(x_{coord+1} = level), as the plain chain has it."""
    return BinOp("*", scale, Indicator((Comparison("=", Coord(coord), Num(level)),)))


A, B = Param("a"), Param("b")
_RUN = Table(0, (A, B), (1.0, 2.0))


@pytest.mark.parametrize(
    "source, tree",
    [
        ("a * ind(x1 = 1) + b * ind(x1 = 2)", _RUN),
        ("a * ind(x1 = 1) + 2 * ind(x1 = 1.5) + b * ind(x1 = 1)",
         Table(0, (A, Num(2.0), B), (1.0, 1.5, 1.0))),
        ("(a * ind(x1 = 1) + b * ind(x1 = 2)) + a * ind(x1 = 3)",
         Table(0, (A, B, A), (1.0, 2.0, 3.0))),
        ("a * ind(x1 = 1) + b * ind(x1 = 2) + a * ind(x2 = 1) + 1",
         BinOp("+", BinOp("+", _RUN, term(A, 1, 1.0)), Num(1.0))),
        ("a * ind(x1 = 1) + b * ind(x1 = 2) - a * ind(x1 = 3)",
         BinOp("-", _RUN, term(A, 0, 3.0))),
        ("a * ind(x1 = 1) + (a * ind(x1 = 1) + b * ind(x1 = 2))",
         BinOp("+", term(A, 0, 1.0), _RUN)),
        ("(a * ind(x1 = 1) + b * ind(x1 = 2)) * ind(x2 < b)",
         BinOp("*", _RUN, Indicator((Comparison("<", Coord(1), B),)))),
        ("min(a * ind(x2 = 1) + b * ind(x2 = 2), 1)",
         Table(1, (A, B), (1.0, 2.0))),
    ],
)
def test_parser_folds_table_runs(source, tree):
    root = parse_expression(source, 2, {"a", "b"}).root
    if source.startswith("min"):
        root = root.args[0]
    assert helpers.same_tree(root, tree)


@pytest.mark.parametrize(
    "source",
    [
        "a * ind(x1 = 1)",  # a lone term
        "a * ind(x1 = 1) - b * ind(x1 = 2)",
        "a * ind(x1 = 1) + b * ind(x2 = 2)",
        "a * ind(x1 < 1) + b * ind(x1 = 2)",
        "a * ind(x1 = 1) + b * ind(x1 <= 2)",
        "ind(x1 = 1) * a + b * ind(x1 = 2)",
        "a * ind(x1 = 1) + ind(x1 = 2) * b",
        "-a * ind(x1 = 1) + b * ind(x1 = 2)",
        "(a + b) * ind(x1 = 1) + b * ind(x1 = 2)",
        "a * b * ind(x1 = 1) + b * ind(x1 = 2)",
        "a * ind(x1 = 1) * b + b * ind(x1 = 2)",
        "1 + a * ind(x1 = 1) + b * ind(x1 = 2)",
        "a * ind(x1 = 1, x2 = 1) + b * ind(x1 = 2)",
        "a * ind(x1 = b) + b * ind(x1 = 2)",
        "a * ind(1 = x1) + b * ind(x1 = 2)",
    ],
)
def test_parser_leaves_other_sums_as_chains(source):
    """A '-', another coordinate, another test, an indicator on the left, a
    scale that is not a leaf or a run not at the start makes no Table."""
    root = parse_expression(source, 2, {"a", "b"}).root
    assert helpers.same_tree(root, helpers.reference_parse_expression(source, 2, {"a", "b"}).root)
