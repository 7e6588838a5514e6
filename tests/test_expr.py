import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from floworder.expr import ExpressionError, evaluate, parse_expression


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
     ("x1", [0.0, 1.0, 2.0]), ("-x1", [-0.0, -1.0, -2.0])],
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
