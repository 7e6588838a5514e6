import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import helpers
from floworder.ctmc import build_generator, stationary_distribution, throughput
from floworder.expr import parse_expression
from floworder.model import ModelError, _parse_space, model_digest, parse_model, serialize_model
from floworder.ordering import check_flow_conditions
from floworder.tandem import (
    TandemParams,
    _tandem_pair,
    build_balanced_tandem,
    build_original_tandem,
    loss_rate,
    loss_rate_applies,
    product_form_residual,
)


def stationary(spec):
    return stationary_distribution(build_generator(spec))


# ---------------------------------------------------------------- params


def test_params_linear_tables():
    p = TandemParams.linear(2, 3, 1.5)
    assert p.delta1 == (0.0, 1.0, 2.0)
    assert p.delta2 == (0.0, 1.0, 2.0, 3.0)
    assert p.increasing


def test_params_monotonicity_flags():
    assert TandemParams(2, 2, 1.0, (0, 1, 1), (0, 1, 1)).increasing
    # only delta1 decreases, then only delta2
    assert not TandemParams(2, 2, 1.0, (0, 2, 1), (0, 1, 1)).increasing
    assert not TandemParams(2, 2, 1.0, (0, 1, 1), (0, 2, 1)).increasing


def test_params_validation():
    with pytest.raises(ModelError, match="at least 1"):
        TandemParams(0, 2, 1.0, (0,), (0, 1, 2))
    with pytest.raises(ModelError, match="nonnegative"):
        TandemParams(1, 1, -1.0, (0, 1), (0, 1))
    with pytest.raises(ModelError, match="one value per occupancy"):
        TandemParams(2, 2, 1.0, (0, 1), (0, 1, 2))
    # the box is made before the tables, so the default tables of 10**10 + 1
    # entries are never made
    with pytest.raises(ModelError, match="^box of 100000000020000000001 states is too large"):
        TandemParams.linear(10**10, 10**10, 1.0)
    with pytest.raises(ModelError, match="must be zero"):
        TandemParams(1, 1, 1.0, (1, 1), (0, 1))
    with pytest.raises(ModelError, match="delta2 must be nonnegative"):
        TandemParams(1, 1, 1.0, (0, 1), (0, -1))
    for value in (math.nan, math.inf):
        with pytest.raises(ModelError, match="^beta must be nonnegative and finite"):
            TandemParams(1, 1, value, (0, 1), (0, 1))
        with pytest.raises(ModelError, match="^delta1 must be nonnegative and finite"):
            TandemParams(2, 1, 1.0, (0, 1, value), (0, 1))
        with pytest.raises(ModelError, match="^delta2 must be nonnegative and finite"):
            TandemParams(1, 1, 1.0, (0, 1), (0, value))


# -------------------------------------------------------------- builders


def test_original_smallest_instance():
    spec = build_original_tandem(TandemParams.linear(1, 1, 1.0))
    assert spec.states == ((0, 0), (0, 1), (1, 0), (1, 1))
    at = {link: spec.rate_table(link)[(1, 0)] for link in spec.links}
    assert at == {(0, 1): 0.0, (1, 2): 1.0, (2, 0): 0.0}


def test_original_transfer_halts_at_full_second_queue():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    table = spec.rate_table((1, 2))
    for x1 in range(3):
        assert table[(x1, 2)] == 0.0
    assert table[(1, 1)] == 1.0


def test_original_exit_never_blocked():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    table = spec.rate_table((2, 0))
    for x in spec.states:
        assert table[x] == float(x[1])


def test_multi_server_tables_scale_linearly():
    c1, c2 = 1.5, 0.5
    params = TandemParams(
        2, 2, 1.0,
        tuple(c1 * k for k in range(3)),
        tuple(c2 * k for k in range(3)),
    )
    spec = build_original_tandem(params)
    for x in spec.states:
        assert spec.rate_table((1, 2))[x] == c1 * x[0] * (1 if x[1] < 2 else 0)
        assert spec.rate_table((2, 0))[x] == c2 * x[1]


def test_balanced_smallest_instance_drops_corner():
    spec = build_balanced_tandem(TandemParams.linear(1, 1, 1.0))
    assert spec.states == ((0, 0), (0, 1), (1, 0))


def test_balanced_blocks_arrivals_at_full_second_queue():
    spec = build_balanced_tandem(TandemParams.linear(2, 2, 1.0))
    table = spec.rate_table((0, 1))
    assert table[(0, 2)] == 0.0
    assert table[(1, 2)] == 0.0
    assert table[(0, 0)] == 1.0


def test_balanced_blocks_departures_at_full_first_queue():
    spec = build_balanced_tandem(TandemParams.linear(2, 2, 1.0))
    table = spec.rate_table((2, 0))
    assert table[(2, 1)] == 0.0
    assert table[(0, 1)] == 1.0


def test_balanced_passes_boundary_validation():
    for s1, s2 in ((1, 1), (2, 2), (3, 2)):
        spec = build_balanced_tandem(TandemParams.linear(s1, s2, 1.0))
        assert helpers.no_escaping_rate(spec)


def test_variants_differ_only_on_two_indicator_sets():
    params = TandemParams.linear(2, 2, 1.0)
    balanced = build_balanced_tandem(params)
    original = build_original_tandem(params)
    for x in balanced.states:
        arr_b = balanced.rate_table((0, 1))[x]
        arr_o = original.rate_table((0, 1))[x]
        if x[1] == 2 and x[0] < 2:
            assert arr_b == 0.0 and arr_o == 1.0
        else:
            assert arr_b == arr_o
        assert balanced.rate_table((1, 2))[x] == original.rate_table((1, 2))[x]
        dep_b = balanced.rate_table((2, 0))[x]
        dep_o = original.rate_table((2, 0))[x]
        if x[0] == 2 and x[1] > 0:
            assert dep_b == 0.0 and dep_o > 0.0
        else:
            assert dep_b == dep_o


@st.composite
def tandem_params(draw):
    """Tandem parameters whose tables often hold zeros, and are sometimes all zero."""
    s1, s2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    level = st.sampled_from((0.0, 0.0, 0.5, 1.0, 3.25))
    d1 = draw(st.lists(level, min_size=s1, max_size=s1))
    d2 = draw(st.lists(level, min_size=s2, max_size=s2))
    beta = draw(st.sampled_from((0.0, 0.7, 2.0)))
    return TandemParams(s1, s2, beta, [0.0, *d1], [0.0, *d2])


@given(tandem_params())
@example(TandemParams(1, 3, 0.0, (0, 0), (0, 0, 0, 0)))
@example(TandemParams(3, 1, 1.0, (0, 0, 2, 0), (0, 0)))
@example(TandemParams(2, 2, 1.0, (0, 0, 0), (0, 1, 0)))
def test_builder_trees_are_the_parsed_trees(params):
    # the builders make each rate's tree without parsing its text; the
    # parser must make the same tree from that text, and the document
    # must parse back to the same model
    for build in (build_original_tandem, build_balanced_tandem):
        spec = build(params)
        parsed = parse_model(serialize_model(spec))
        assert parsed == spec
        for link in spec.links:
            rate = spec.rates[link]
            assert helpers.same_tree(rate.root, parse_expression(rate.source, 2, spec.params).root)
            for got, want in (
                (spec.rate_vector(link), parsed.rate_vector(link)),
                (spec.next_index(link), parsed.next_index(link)),
            ):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(tandem_params())
@example(TandemParams(1, 1, 0.0, (0, 0), (0, 0)))
def test_tandem_pair_is_the_two_builders(params):
    # one box and one pair of table expressions give both variants; the
    # balanced space, the box less its last row, is the box less (s1, s2)
    pair = _tandem_pair(params)
    built = build_balanced_tandem(params), build_original_tandem(params)
    space = {"box": [params.s1, params.s2], "exclude": [[params.s1, params.s2]]}
    assert pair[0].coords.tobytes() == _parse_space(space, 2).tobytes()
    for got, want in zip(pair, built):
        assert got == want
        assert got.coords.tobytes() == want.coords.tobytes()
        for link in want.links:
            assert helpers.same_tree(got.rates[link].root, want.rates[link].root)
            assert got.rate_vector(link).tobytes() == want.rate_vector(link).tobytes()
            assert got.next_index(link).tobytes() == want.next_index(link).tobytes()
        assert model_digest(got) == model_digest(want)


def test_flow_conditions_iff_increasing_tables():
    values = (0.0, 1.0, 2.0)
    for d1 in itertools.product(values, repeat=2):
        for d2 in itertools.product(values, repeat=2):
            params = TandemParams(2, 2, 1.0, (0.0,) + d1, (0.0,) + d2)
            report = check_flow_conditions(
                build_balanced_tandem(params), build_original_tandem(params)
            )
            assert report.passed == params.increasing, (d1, d2)


def test_flow_conditions_iff_mixed_sizes():
    values = (0.0, 1.0, 2.0)
    for d1 in values:
        for d2 in itertools.product(values, repeat=2):
            params = TandemParams(1, 2, 1.0, (0.0, d1), (0.0,) + d2)
            report = check_flow_conditions(
                build_balanced_tandem(params), build_original_tandem(params)
            )
            assert report.passed == params.increasing, (d1, d2)


# ------------------------------------------------------------- loss rate


def test_loss_rate_zero_offered_load():
    spec = build_original_tandem(TandemParams(1, 1, 0.0, (0, 1), (0, 1)))
    pi = stationary(spec)
    assert loss_rate(spec, pi) == 0.0


def test_loss_rate_matches_blocked_mass_oracle():
    spec = build_original_tandem(TandemParams(1, 1, 1.0, (0, 1), (0, 1)))
    pi = stationary(spec)
    oracle_pi = helpers.nullspace_stationary(helpers.dense_q(spec))
    blocked = sum(
        p for x, p in zip(spec.states, oracle_pi) if x[0] == 1
    )
    assert loss_rate(spec, pi) == pytest.approx(1.0 * blocked, abs=1e-10)


def test_loss_rate_balanced_dominates_original():
    for beta in (0.5, 1.0, 2.0):
        for s in (1, 2):
            params = TandemParams.linear(s, s, beta)
            balanced = build_balanced_tandem(params)
            original = build_original_tandem(params)
            loss_b = loss_rate(balanced, stationary(balanced))
            loss_o = loss_rate(original, stationary(original))
            assert loss_b >= loss_o - 1e-10


def test_loss_rate_needs_beta_parameter():
    spec = helpers.two_state_chain()
    with pytest.raises(ModelError, match="beta"):
        loss_rate(spec, [0.5, 0.5])


def test_loss_rate_applies_only_where_arrivals_are_beta_or_zero():
    for params in (TandemParams.linear(2, 2, 1.5), TandemParams(1, 1, 0.0, (0, 1), (0, 1))):
        assert loss_rate_applies(build_original_tandem(params))
        assert loss_rate_applies(build_balanced_tandem(params))
    assert not loss_rate_applies(helpers.two_state_chain())
    half = helpers.single_node_doc("0.5 * beta * ind(x1 < 3)", "x1", 3, params={"beta": 2.0})
    assert not loss_rate_applies(parse_model(half))


def test_loss_rate_detects_partial_blocking():
    doc = helpers.single_node_doc(
        "0.5 * beta * ind(x1 < 1)", "x1", 1, params={"beta": 2.0}
    )
    spec = parse_model(doc)
    pi = stationary(spec)
    with pytest.raises(ModelError, match="accounting mismatch"):
        loss_rate(spec, pi)


# ----------------------------------------------------------- product form


def test_balanced_tandem_is_product_form():
    for params in (TandemParams.linear(2, 2, 1.0), TandemParams.linear(3, 2, 1.0)):
        spec = build_balanced_tandem(params)
        assert product_form_residual(spec, stationary(spec)) < 1e-10


def test_original_tandem_is_not_product_form():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    assert product_form_residual(spec, stationary(spec)) > 1e-3


def test_single_queue_trivially_product_form():
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    assert product_form_residual(spec, stationary(spec)) < 1e-12


def test_product_form_rejects_vanishing_mass():
    spec = build_original_tandem(TandemParams(1, 1, 0.0, (0, 1), (0, 1)))
    with pytest.raises(ModelError, match="strictly positive"):
        product_form_residual(spec, stationary(spec))


def test_product_form_needs_axis_states():
    doc = {
        "n": 2,
        "space": {"list": [[0, 0], [1, 0], [1, 1]]},
        "rates": {"0->1": "0", "1->2": "0", "2->0": "0"},
    }
    spec = parse_model(doc)
    with pytest.raises(ModelError, match="coordinate axis"):
        product_form_residual(spec, [1 / 3, 1 / 3, 1 / 3])


def test_product_form_wrong_length():
    spec = build_balanced_tandem(TandemParams.linear(2, 2, 1.0))
    with pytest.raises(ValueError, match="length"):
        product_form_residual(spec, [1.0])


def test_balanced_product_form_across_parameters():
    # separability should not depend on the particular increasing tables
    for params in (
        TandemParams.linear(3, 2, 0.7),
        TandemParams(2, 2, 2.0, (0, 1, 3), (0, 2, 2)),
    ):
        spec = build_balanced_tandem(params)
        assert product_form_residual(spec, stationary(spec)) < 1e-9


def test_product_form_names_the_first_missing_axis_state():
    # axes are walked in order and k upwards; an axis whose largest value is
    # 0 has no ratio to take, so the error names the next axis's first gap
    for states, hi in (
        ([[0, 1], [0, 2]], (0, 1)),
        ([[0, 0], [0, 1], [2, 0], [1, 1]], (1, 0)),
        ([[0, 0], [1, 0], [0, 2], [1, 1]], (0, 1)),
        ([[0, 0, 0], [0, 0, 1], [1, 1, 1]], (1, 0, 0)),
    ):
        spec = parse_model(
            {"n": len(hi), "space": {"list": states}, "links": [[0, 1], [1, 0]],
             "rates": {"0->1": "0", "1->0": "0"}}
        )
        rng = np.random.default_rng(5)
        for order in (range(len(states)), rng.permutation(len(states))):
            permuted = helpers.permuted_spec(spec, order)
            with pytest.raises(ModelError, match=re.escape(f"axis through {hi}")):
                product_form_residual(permuted, np.full(len(states), 1 / len(states)))


@pytest.mark.parametrize("s", [3, 30, 150])
def test_product_form_residual_equals_the_per_state_product(s):
    params = TandemParams.linear(s, s, 1.3)
    specs = [build_balanced_tandem(params)]
    if s == 3:
        order = np.random.default_rng(2).permutation(len(specs[0].coords))
        specs += [build_original_tandem(params), helpers.permuted_spec(specs[0], order)]
        # box [2, 0]: the second axis's largest value is 0, so its profile is [1.0]
        specs.append(parse_model(
            {"n": 2, "space": {"box": [2, 0]}, "links": [[0, 1], [1, 0]],
             "rates": {"0->1": "1", "1->0": "x1"}, "clamp": True}
        ))
    for spec in specs:
        pi = stationary(spec)
        assert product_form_residual(spec, pi) == helpers.reference_product_form_residual(spec, pi)


def test_accepted_throughput_ordering():
    params = TandemParams.linear(2, 2, 1.0)
    balanced = build_balanced_tandem(params)
    original = build_original_tandem(params)
    thr_b = throughput(balanced, stationary(balanced), (0, 1))
    thr_o = throughput(original, stationary(original), (0, 1))
    assert thr_b <= thr_o + 1e-10
    assert thr_b == pytest.approx(2 / 3, abs=1e-9)
