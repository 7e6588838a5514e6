import contextlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from floworder.cli import main
from floworder.expr import ExpressionError, evaluate, parse_expression
from floworder.model import (
    ModelError,
    NetworkSpec,
    linear_links,
    load_model,
    model_digest,
    parse_model,
    serialize_model,
)


def test_tandem_document_enumerates_box():
    spec = parse_model(helpers.tandem_doc_text(2, 2, 1.0))
    assert spec.n == 2
    assert len(spec.states) == 9
    assert spec.states[0] == (0, 0)
    assert spec.states[-1] == (2, 2)
    assert spec.links == linear_links(2)


def test_empty_state_list_rejected():
    doc = {"n": 1, "space": {"list": []}, "rates": {"0->1": "0", "1->0": "0"}}
    with pytest.raises(ModelError, match="empty state space"):
        parse_model(doc)


def test_negative_rate_names_witness_state():
    doc = {
        "n": 1,
        "space": {"box": [2]},
        "rates": {"0->1": "0", "1->0": "x1 - 2"},
    }
    with pytest.raises(ModelError, match=r"negative at state \(0,\)"):
        parse_model(doc)


def test_lexicographic_enumeration():
    doc = {
        "n": 2,
        "space": {"box": [1, 1]},
        "rates": {"0->1": "0", "1->2": "0", "2->0": "0"},
    }
    spec = parse_model(doc)
    assert spec.states == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_box_minus_corner():
    doc = {
        "n": 2,
        "space": {"box": [1, 1], "exclude": [[1, 1]]},
        "rates": {"0->1": "0", "1->2": "0", "2->0": "0"},
    }
    spec = parse_model(doc)
    assert spec.states == ((0, 0), (0, 1), (1, 0))


def test_singleton_space():
    doc = {"n": 1, "space": {"list": [[0]]}, "rates": {"0->1": "0", "1->0": "0"}}
    assert parse_model(doc).states == ((0,),)


def test_eval_rate_examples():
    spec = parse_model(helpers.tandem_doc_text(2, 2, 1.0))
    arrival = spec.rates[(0, 1)]
    assert evaluate(arrival.root, np.array([(2, 0)]), spec.params)[0] == 0.0
    assert evaluate(arrival.root, np.array([(1, 2)]), spec.params)[0] == 1.0


def test_boundary_rule_strict_by_default():
    doc = {"n": 1, "space": {"box": [2]}, "params": {"b": 1.0},
           "rates": {"0->1": "b", "1->0": "x1"}}
    with pytest.raises(ModelError, match="leaves the state space"):
        parse_model(doc)


def test_clamp_flag_zeroes_escaping_moves():
    doc = {"n": 1, "space": {"box": [2]}, "params": {"b": 1.0},
           "rates": {"0->1": "b", "1->0": "x1"}, "clamp": True}
    spec = parse_model(doc)
    table = spec.rate_table((0, 1))
    assert table[(0,)] == 1.0
    assert table[(1,)] == 1.0
    assert table[(2,)] == 0.0
    assert helpers.no_escaping_rate(spec)


def one_node_parts(arrival, box=2, params=None, clamp=False):
    """The parts of a one-node spec over 0..box, for building it directly."""
    params = {"b": 2.0} if params is None else params
    return dict(
        n=1,
        links=linear_links(1),
        states=tuple((k,) for k in range(box + 1)),
        rates={
            (0, 1): parse_expression(arrival, 1, params),
            (1, 0): parse_expression("x1", 1, params),
        },
        params=params,
        clamp=clamp,
    )


def test_construction_rejects_forced_violation():
    # built directly, not parsed: construction holds it to the same rules
    with pytest.raises(ModelError) as err:
        NetworkSpec(**one_node_parts("b", box=1))
    assert str(err.value) == (
        "rate for link 0->1 is positive at state (1,) "
        "but the move leaves the state space; set clamp to allow this"
    )
    assert NetworkSpec(**one_node_parts("b", box=1, clamp=True)).rate_table((0, 1)) == {
        (0,): 2.0,
        (1,): 0.0,
    }


@pytest.mark.parametrize(
    "arrival, params, message",
    [
        # the arrival rate b stays positive at the full state (2,)
        ("b", {"b": 2.0},
         "rate for link 0->1 is positive at state (2,) "
         "but the move leaves the state space; set clamp to allow this"),
        # inf - inf is NaN at every state
        ("(b - b) * ind(x1 < 1)", {"b": math.inf},
         "rate for link 0->1 is not finite at state (0,)"),
    ],
    ids=["escaping", "nan"],
)
def test_direct_specs_with_escaping_or_nan_rates_are_rejected(arrival, params, message):
    """Specs built directly that the order checks and throughput once took as
    valid models; construction now refuses them."""
    parts = one_node_parts(arrival, params=params)
    assert helpers.scalar_model_error(**parts) == message
    with pytest.raises(ModelError) as err:
        NetworkSpec(**parts)
    assert str(err.value) == message


def test_balanced_tandem_has_no_escaping_rate():
    from floworder.tandem import TandemParams, build_balanced_tandem

    spec = build_balanced_tandem(TandemParams.linear(2, 2, 1.0))
    assert helpers.no_escaping_rate(spec)


def test_exit_link_never_leaves():
    doc = {"n": 1, "space": {"box": [3]}, "rates": {"0->1": "ind(x1 < 3)", "1->0": "x1"}}
    assert helpers.no_escaping_rate(parse_model(doc))


def test_positive_rates_have_in_space_targets():
    spec = parse_model(helpers.tandem_doc_text(2, 2, 1.0))
    index = spec.state_index
    for link in spec.links:
        for x, r in spec.rate_table(link).items():
            if r > 0:
                assert spec.target(x, link) in index


def test_round_trip_identity():
    spec1 = parse_model(helpers.tandem_doc_text(2, 2, 1.0))
    spec2 = parse_model(json.dumps(serialize_model(spec1)))
    assert spec1 == spec2
    assert model_digest(spec1) == model_digest(spec2)


def test_digest_sensitive_to_params():
    a = parse_model(helpers.tandem_doc_text(2, 2, 1.0))
    b = parse_model(helpers.tandem_doc_text(2, 2, 1.5))
    assert model_digest(a) != model_digest(b)


def test_load_model_from_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(helpers.tandem_doc_text(1, 1, 2.0))
    spec = load_model(path)
    assert len(spec.states) == 4


def test_unknown_document_keys():
    doc = {"n": 1, "space": {"box": [1]}, "rates": {"0->1": "0", "1->0": "0"},
           "extra": 1}
    with pytest.raises(ModelError, match="unknown document keys"):
        parse_model(doc)


def test_missing_required_key():
    with pytest.raises(ModelError, match="missing document key"):
        parse_model({"n": 1, "space": {"box": [1]}})


def test_bad_n():
    for n in (0, -1, 1.5, True, "2"):
        with pytest.raises(ModelError):
            parse_model({"n": n, "space": {"box": [1]},
                         "rates": {"0->1": "0", "1->0": "0"}})


def test_self_link_rejected():
    doc = {"n": 2, "space": {"box": [1, 1]}, "links": [[1, 1]],
           "rates": {"1->1": "0"}}
    with pytest.raises(ModelError, match="distinct endpoints"):
        parse_model(doc)


def test_duplicate_link_rejected():
    doc = {"n": 1, "space": {"box": [1]}, "links": [[0, 1], [0, 1]],
           "rates": {"0->1": "0"}}
    with pytest.raises(ModelError, match="duplicate link"):
        parse_model(doc)


def test_link_outside_node_range():
    doc = {"n": 1, "space": {"box": [1]}, "links": [[0, 2]], "rates": {"0->2": "0"}}
    with pytest.raises(ModelError, match="outside"):
        parse_model(doc)


def test_rate_for_undeclared_link():
    doc = {"n": 1, "space": {"box": [1]},
           "rates": {"0->1": "0", "1->0": "0", "1->2": "0"}}
    with pytest.raises(ModelError, match="undeclared link"):
        parse_model(doc)


def test_missing_rate_for_link():
    doc = {"n": 1, "space": {"box": [1]}, "rates": {"0->1": "0"}}
    with pytest.raises(ModelError, match="missing rate"):
        parse_model(doc)


def test_bad_rate_key_shape():
    doc = {"n": 1, "space": {"box": [1]}, "rates": {"0-1": "0", "1->0": "0"}}
    with pytest.raises(ModelError, match="i->j"):
        parse_model(doc)


def test_param_shadowing_coordinate():
    doc = {"n": 1, "space": {"box": [1]}, "params": {"x1": 3},
           "rates": {"0->1": "0", "1->0": "0"}}
    with pytest.raises(ModelError, match="shadows a coordinate"):
        parse_model(doc)


def test_reserved_param_names():
    for name in ("min", "max", "ind"):
        doc = {"n": 1, "space": {"box": [1]}, "params": {name: 1},
               "rates": {"0->1": "0", "1->0": "0"}}
        with pytest.raises(ModelError, match="reserved"):
            parse_model(doc)


def test_duplicate_state_in_list():
    doc = {"n": 1, "space": {"list": [[0], [0]]}, "rates": {"0->1": "0", "1->0": "0"}}
    with pytest.raises(ModelError, match="duplicate state"):
        parse_model(doc)


def test_exclude_outside_box():
    doc = {"n": 1, "space": {"box": [1], "exclude": [[5]]},
           "rates": {"0->1": "0", "1->0": "0"}}
    with pytest.raises(ModelError, match="outside the box"):
        parse_model(doc)


def test_wrong_dimension_state():
    doc = {"n": 2, "space": {"list": [[0]]},
           "rates": {"0->1": "0", "1->2": "0", "2->0": "0"}}
    with pytest.raises(ModelError, match="wrong dimension"):
        parse_model(doc)


def test_negative_coordinate_state():
    doc = {"n": 1, "space": {"list": [[-1]]}, "rates": {"0->1": "0", "1->0": "0"}}
    with pytest.raises(ModelError, match="negative coordinate"):
        parse_model(doc)


@pytest.mark.parametrize("clamp", ["false", "no", 0, 1, None])
def test_clamp_must_be_a_json_boolean(clamp):
    doc = helpers.single_node_doc("1", "x1", 1)
    doc["clamp"] = clamp
    with pytest.raises(ModelError) as err:
        parse_model(doc)
    assert str(err.value) == f"clamp must be a JSON boolean, not {clamp!r}"


@pytest.mark.parametrize(
    "space, message",
    [
        ({"list": [[0, 0], [1.6, 1]]}, "state [1.6, 1] must have integer coordinates"),
        ({"list": [[0, 0], ["1", 1]]}, "state ['1', 1] must have integer coordinates"),
        ({"box": [1, 1], "exclude": [[1.9, 0]]}, "excluded state [1.9, 0] must have integer coordinates"),
        ({"box": [1, 1], "exclude": [[1, None]]}, "excluded state [1, None] must have integer coordinates"),
    ],
    ids=["list-float", "list-string", "exclude-float", "exclude-null"],
)
def test_fractional_coordinates_rejected(space, message):
    doc = {"n": 2, "space": space, "rates": {"0->1": "0", "1->2": "0", "2->0": "0"}}
    with pytest.raises(ModelError) as err:
        parse_model(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("raw", [[0, 1.9], [0.5, 1], [0, 1, 0], [0], [0, "1"]])
def test_link_endpoints_must_be_two_integers(raw):
    doc = {"n": 1, "space": {"box": [1]}, "links": [[1, 0], raw],
           "rates": {"0->1": "0", "1->0": "0"}}
    with pytest.raises(ModelError) as err:
        parse_model(doc)
    assert str(err.value) == f"link {raw} must be a pair of integer nodes"


MALFORMED_SHAPES = {
    "param-null": ({"params": {"beta": None}}, "parameter beta must be a JSON number, not None"),
    "param-list": ({"params": {"beta": [1]}}, "parameter beta must be a JSON number, not [1]"),
    "param-string": ({"params": {"beta": "2"}}, "parameter beta must be a JSON number, not '2'"),
    "param-bool": ({"params": {"beta": True}}, "parameter beta must be a JSON number, not True"),
    "param-huge": ({"params": {"beta": 10**400}}, "parameter beta is too large for a double"),
    "params-list": ({"params": [1]}, "params must be a JSON object, not [1]"),
    "rates-list": ({"rates": ["1", "x1"]}, "rates must be a JSON object, not ['1', 'x1']"),
    "exclude-int": ({"space": {"box": [1], "exclude": 3}}, "exclude must be a JSON array, not 3"),
    "list-int": ({"space": {"list": 5}}, "list must be a JSON array, not 5"),
    "links-int": ({"links": 5}, "links must be a JSON array, not 5"),
    "box-bool": ({"space": {"box": [True]}}, "box needs one nonnegative capacity per node"),
    "list-bool": ({"space": {"list": [[0], [True]]}}, "state [True] must have integer coordinates"),
    "link-bool": ({"links": [[0, 1], [True, 0]]}, "link [True, 0] must be a pair of integer nodes"),
}


def malformed_doc(change):
    doc = helpers.single_node_doc("beta * ind(x1 < 1)", "x1", 1, params={"beta": 1.0})
    doc.update(change)
    return doc


@pytest.mark.parametrize("change, message", MALFORMED_SHAPES.values(), ids=MALFORMED_SHAPES)
def test_malformed_shapes_are_model_errors(change, message):
    with pytest.raises(ModelError) as err:
        parse_model(malformed_doc(change))
    assert str(err.value) == message


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("change", [c for c, _ in MALFORMED_SHAPES.values()], ids=MALFORMED_SHAPES)
def test_malformed_shapes_exit_two(command, change, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(malformed_doc(change)))
    models = ["--model-a", str(path)] + (["--model-b", str(path)] if command == "check" else [])
    assert main([command, *models, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("floworder: ")


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"n": 1, "params": {"beta": ' + b"9" * 5000 + b"}}", "floworder: not valid JSON: "),
        (b"\xff\xfe{}", "floworder: model file is not UTF-8 text: "),
    ],
    ids=["integer-too-long", "not-utf8"],
)
def test_unreadable_documents_exit_two(content, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["solve", "--model-a", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_integral_floats_still_name_states_and_links():
    """The rule is the one box capacities follow: a value equal to its int."""
    doc = {"n": 1, "space": {"list": [[0.0], [1.0]]}, "links": [[0.0, 1.0], [1, 0]],
           "rates": {"0->1": "ind(x1 < 1)", "1->0": "x1"}, "clamp": False}
    spec = parse_model(doc)
    assert spec.states == ((0,), (1,)) and spec.links == ((0, 1), (1, 0))


def test_not_json_text():
    with pytest.raises(ModelError, match="not valid JSON"):
        parse_model("{nope")


def test_rate_table_pure_and_cached():
    spec = helpers.two_state_chain()
    t1 = spec.rate_table((0, 1))
    t2 = spec.rate_table((0, 1))
    assert spec.rate_vector((0, 1)) is spec.rate_vector((0, 1))
    assert t1 == t2
    assert t1[(0,)] == 1.0 and t1[(1,)] == 0.0


def test_linear_links_shape():
    assert linear_links(1) == ((0, 1), (1, 0))
    assert linear_links(3) == ((0, 1), (1, 2), (2, 3), (3, 0))
    with pytest.raises(ModelError):
        linear_links(0)


def test_non_linear_links_accepted_for_simulation():
    doc = {
        "n": 2,
        "space": {"box": [1, 1]},
        "links": [[0, 1], [1, 0], [0, 2], [2, 0]],
        "rates": {
            "0->1": "ind(x1 < 1)",
            "1->0": "x1",
            "0->2": "ind(x2 < 1)",
            "2->0": "x2",
        },
    }
    spec = parse_model(doc)
    assert len(spec.links) == 4
    assert spec.target((0, 1), (2, 0)) == (0, 0)


# ------------------------------------------- rate arrays vs scalar oracle


def bits(values):
    """Float bit patterns, so signed zeros and NaNs compare exactly."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def expressions():
    """Random rate expression texts over x1, x2 and parameters a, b."""
    leaf = st.one_of(
        st.sampled_from(["x1", "x2", "a", "b", "0", "0.5", "3e-1", "1e308", "1e309"]),
        st.integers(0, 4).map(str),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["min", "max"]), st.lists(inner, min_size=2, max_size=3)).map(
                lambda t: f"{t[0]}({', '.join(t[1])})"
            ),
            inner.map(lambda e: f"-{e}"),
            st.tuples(inner, st.sampled_from(["<", "<=", "="]), inner).map(
                lambda t: f"ind({t[0]} {t[1]} {t[2]})"
            ),
        )

    return st.recursive(leaf, extend, max_leaves=8)


def assert_arrays_match_oracle(spec):
    for link in spec.links:
        oracle = helpers.scalar_rate_table(spec, link)
        assert bits(spec.rate_vector(link)) == bits([oracle[x] for x in spec.states])
        targets = [spec.target(x, link) for x in spec.states]
        expected = [spec.state_index.get(y, -1) for y in targets]
        assert spec.next_index(link).tolist() == expected


@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
def test_rate_arrays_bit_equal_scalar_oracle_on_random_tables(seed, c1, c2):
    spec, tables = helpers.random_table_instance(np.random.default_rng(seed), c1, c2)
    assert_arrays_match_oracle(spec)
    for link in spec.links:
        assert spec.rate_table(link) == tables[link]


@given(
    st.lists(expressions(), min_size=3, max_size=3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.25, 2.0]),
    st.sampled_from([1.0, 1e308]),
)
def test_rate_arrays_bit_equal_scalar_oracle_on_clamp_documents(exprs, c1, c2, a, b):
    rates = [f"max({e}, 0)" for e in exprs]
    doc = {
        "n": 2,
        "space": {"box": [c1, c2]},
        "params": {"a": a, "b": b},
        "rates": dict(zip(("0->1", "1->2", "2->0"), rates)),
        "clamp": True,
    }
    params = {"a": a, "b": b}
    parts = dict(
        n=2,
        links=linear_links(2),
        states=tuple((i, j) for i in range(c1 + 1) for j in range(c2 + 1)),
        rates={link: parse_expression(r, 2, params) for link, r in zip(linear_links(2), rates)},
        params=params,
        clamp=True,
    )
    expected = helpers.scalar_model_error(**parts)
    if expected is None:
        assert_arrays_match_oracle(parse_model(doc))
        assert_arrays_match_oracle(NetworkSpec(**parts))
    else:
        for build in (lambda: parse_model(doc), lambda: NetworkSpec(**parts)):
            with pytest.raises(ModelError) as err:
                build()
            assert str(err.value) == expected


@given(
    st.lists(expressions(), min_size=3, max_size=3),
    st.integers(0, 2),
    st.integers(0, 2),
    st.booleans(),
)
def test_validation_errors_match_scalar_oracle(exprs, c1, c2, clamp):
    params = {"a": 0.5, "b": 3.0}
    parts = dict(
        n=2,
        links=linear_links(2),
        states=tuple((i, j) for i in range(c1 + 1) for j in range(c2 + 1)),
        rates={link: parse_expression(e, 2, params) for link, e in zip(linear_links(2), exprs)},
        params=params,
        clamp=clamp,
    )
    doc = {
        "n": 2,
        "space": {"box": [c1, c2]},
        "params": params,
        "rates": dict(zip(("0->1", "1->2", "2->0"), exprs)),
        "clamp": clamp,
    }
    expected = helpers.scalar_model_error(**parts)
    if expected is None:
        spec = NetworkSpec(**parts)
        assert helpers.no_escaping_rate(spec)
        assert parse_model(doc) == spec
        assert parse_model(serialize_model(spec)) == spec
    else:
        for build in (lambda: parse_model(doc), lambda: NetworkSpec(**parts)):
            with pytest.raises(ModelError) as err:
                build()
            assert str(err.value) == expected


# ------------------------------------------- malformed and deep expressions


def one_node_doc(rate):
    return helpers.single_node_doc(rate, "x1", 3, params={"beta": 1.0}, clamp=True)


def assert_cli_exits_two(doc):
    """`solve` on the document exits 2 with one `floworder: ...` line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["solve", "--model-a", path, "--out", os.path.join(tmp, "out")])
    assert rc == 2
    assert err.getvalue().startswith("floworder: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "rate",
    ["(" * 400 + "x1" + ")" * 400, "-" * 5000 + "x1"],
    ids=["nested-parentheses", "unary-minuses"],
)
def test_deep_or_long_expressions_are_model_errors(rate):
    with pytest.raises(ModelError, match="nested too deeply"):
        parse_model(one_node_doc(rate))
    assert_cli_exits_two(one_node_doc(rate))


def test_long_flat_sums_and_products_evaluate():
    """A left-deep chain of any length evaluates; the expected rates are closed forms,
    since the recursive scalar oracle cannot go this deep."""
    cap = 5000
    table = " + ".join(f"{k} * ind(x1 = {k})" for k in range(1, cap + 1))
    spec = parse_model(helpers.single_node_doc(table, "x1", cap, clamp=True))
    expected = np.arange(cap + 1, dtype=float)
    expected[cap] = 0.0  # clamped: an arrival at capacity would leave the space
    assert np.array_equal(spec.rate_vector((0, 1)), expected)
    long_sum = "+".join(["x1"] * 20_000)
    long_product = " * ".join(["1"] * 5000 + ["x1"])
    for rate, scale in ((long_sum, 20_000.0), (long_product, 1.0)):
        spec = parse_model(helpers.single_node_doc("1", rate, 3, clamp=True))
        assert spec.rate_vector((1, 0)).tolist() == [scale * k for k in range(4)]


def test_long_flat_sum_models_compare_and_hash():
    """Equality and hashing must not walk a tree deeper than the recursion limit."""
    table = " + ".join(f"{k} * ind(x1 = {k})" for k in range(1, 2001))
    doc = helpers.single_node_doc(table, "x1", 2000, clamp=True)
    spec_a, spec_b = parse_model(doc), parse_model(doc)
    assert spec_a == spec_b
    assert parse_model(serialize_model(spec_a)) == spec_a
    assert hash(spec_a.rates[(0, 1)]) == hash(spec_b.rates[(0, 1)])
    other = parse_model(helpers.single_node_doc(table + " + 1", "x1", 2000, clamp=True))
    assert other != spec_a


def test_thousand_entry_service_table_solves(tmp_path, capsys):
    """The original tandem at s1 = 1000 has a 1,000-term service-rate sum."""
    rc = main(
        ["solve", "--family", "tandem-original", "--s1", "1000", "--s2", "1",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    assert "solved 2002 states" in capsys.readouterr().out


def test_moderately_deep_expressions_still_parse():
    nested = "(" * 100 + "x1" + ")" * 100
    table = " + ".join(f"{k} * ind(x1 = {k})" for k in range(1, 301))
    for rate, expected in ((nested, [0.0, 1.0, 2.0, 0.0]), (table, [0.0, 1.0, 2.0, 0.0])):
        spec = parse_model(one_node_doc(rate))
        assert spec.rate_vector((0, 1)).tolist() == expected


_PIECES = [
    "x1", "x2", "beta", "gamma", "1", "2.5", "1e3", "1e999", "+", "-", "*", "(", ")",
    ",", "<", "<=", "=", "min", "max", "ind", " ", "#", ".",
]


@given(
    st.one_of(
        st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
        st.text(max_size=30),
    )
)
def test_fuzzed_rate_texts_raise_only_model_errors(rate):
    try:
        parse_model(one_node_doc(rate))
    except ModelError:
        assert_cli_exits_two(one_node_doc(rate))


_WRAPPERS = [("(", ")"), ("-", ""), ("min(x1, ", ")"), ("ind(", " < 2)"), ("2 * ", ""), ("x1 + ", "")]


def nested_text(wrapper, depth, cut):
    opening, closing = wrapper
    rate = opening * depth + "x1" + closing * depth
    return rate[: len(rate) - cut]


@given(st.sampled_from(_WRAPPERS), st.integers(1, 3000), st.integers(0, 3))
def test_deeply_nested_rate_texts_raise_only_model_errors(wrapper, depth, cut):
    rate = nested_text(wrapper, depth, cut)
    try:
        parse_model(one_node_doc(rate))
    except ModelError:
        assert_cli_exits_two(one_node_doc(rate))


def parse_outcome(parse, source):
    """("tree", root) or ("error", message) of parsing source on one node with beta."""
    try:
        return "tree", parse(source, 1, {"beta"}).root
    except ExpressionError as e:
        return "error", str(e)


def assert_parser_matches_reference(source):
    """The index parser gives the reference parser's tree or error message.

    Running out of stack is the one allowed difference. The reference
    calls peek() and advance() where the index parser reads the list, so
    it needs a frame more at the end of the input, and at one nesting
    depth it runs out of stack where the index parser reports the syntax
    error. There the index parser must match the reference given more
    stack, and it never runs out where the reference does not.
    """
    too_deep = "error", "expression nested too deeply to parse"
    got = parse_outcome(parse_expression, source)
    expected = parse_outcome(helpers.reference_parse_expression, source)
    if expected == too_deep and got != too_deep:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 50)
        try:
            expected = parse_outcome(helpers.reference_parse_expression, source)
        finally:
            sys.setrecursionlimit(limit)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "tree":
        assert helpers.same_tree(got[1], expected[1])
    else:
        assert got[1] == expected[1]


@given(
    st.one_of(
        st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
        st.text(max_size=30),
        expressions(),
    )
)
def test_parser_matches_reference_on_fuzzed_texts(source):
    assert_parser_matches_reference(source)


@given(st.sampled_from(_WRAPPERS), st.integers(1, 3000), st.integers(0, 3))
def test_parser_matches_reference_on_nested_texts(wrapper, depth, cut):
    assert_parser_matches_reference(nested_text(wrapper, depth, cut))


@pytest.mark.parametrize(
    "source",
    ["1 $ 2", "x1 + 2 .5", "min(x1, 2)  #  ", "\tx1\u00a0+ 1 \u00e9 ", "   ", "", "1e", "x1.5",
     "-" * 980 + "x1", "-" * 980, "(" * 240 + "x1" + ")" * 240],
)
def test_parser_matches_reference_on_edge_texts(source):
    """Untokenizable text after white space, Unicode white space, trailing
    white space, empty input, and nesting near the stack limit."""
    assert_parser_matches_reference(source)
