import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from floworder import coupling
from floworder.coupling import (
    marching_rates,
    paired_log_csv,
    simulate_coupled,
)
from floworder.ctmc import event_log_csv, simulate_path
from floworder.model import ModelError, balance_signature, parse_model
from floworder.ordering import pathwise_flow_order_check, pathwise_population_order_check
from floworder.tandem import TandemParams, build_balanced_tandem, build_original_tandem


def tandem_pair(s1=2, s2=2, beta=1.0):
    params = TandemParams.linear(s1, s2, beta)
    return build_balanced_tandem(params), build_original_tandem(params)


def single_node(arrival_scale: float):
    return parse_model(
        helpers.single_node_doc(
            f"{arrival_scale} * ind(x1 < 1)", "x1", 1
        )
    )


# --------------------------------------------------------- marching rates


def test_marching_rates_examples():
    assert marching_rates(2.0, 3.0) == (2.0, 1.0, 0.0)
    assert marching_rates(3.0, 3.0) == (3.0, 0.0, 0.0)
    assert marching_rates(5.0, 0.0) == (0.0, 0.0, 5.0)


def test_marching_rates_negative_rejected():
    with pytest.raises(ValueError):
        marching_rates(-1.0, 2.0)
    with pytest.raises(ValueError):
        marching_rates(1.0, -2.0)


@given(
    st.floats(0, 100, allow_nan=False, allow_infinity=False),
    st.floats(0, 100, allow_nan=False, allow_infinity=False),
)
def test_marching_rates_properties(a, b):
    joint, b_only, a_only = marching_rates(a, b)
    assert joint >= 0 and b_only >= 0 and a_only >= 0
    assert joint == min(a, b)
    assert b_only == 0 or a_only == 0
    assert joint + a_only == pytest.approx(a, rel=1e-12, abs=1e-12)
    assert joint + b_only == pytest.approx(b, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------- builders


def test_identical_specs_diagonal_has_no_one_sided_rates():
    spec = helpers.two_state_chain()
    for x in spec.states:
        for _, joint, b_only, a_only in helpers.pair_rates(spec, spec, x, x):
            assert b_only == 0.0
            assert a_only == 0.0


def test_unequal_arrival_rates_split():
    spec_a, spec_b = single_node(1.0), single_node(2.0)
    triples = {link: (j, b, a) for link, j, b, a in helpers.pair_rates(spec_a, spec_b, (0,), (0,))}
    assert triples[(0, 1)] == (1.0, 1.0, 0.0)
    assert triples[(1, 0)] == (0.0, 0.0, 0.0)


def test_tandem_pair_arrival_rates_at_empty_and_at_full():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    at_empty = dict(
        (link, (j, b, a)) for link, j, b, a in helpers.pair_rates(spec_a, spec_b, (0, 0), (0, 0))
    )
    assert at_empty[(0, 1)] == (1.0, 0.0, 0.0)
    # both arrival indicators shut off once the first buffer is full
    at_full = dict(
        (link, (j, b, a)) for link, j, b, a in helpers.pair_rates(spec_a, spec_b, (2, 0), (2, 0))
    )
    assert at_full[(0, 1)] == (0.0, 0.0, 0.0)


def test_mismatched_node_count_rejected():
    a = helpers.two_state_chain()
    b, _ = tandem_pair()
    with pytest.raises(ModelError, match="same number of nodes"):
        simulate_coupled(a, b, (0,), (0, 0), 1.0, seed=0)


def test_mismatched_link_family_rejected():
    a = helpers.two_state_chain()
    doc = {
        "n": 1,
        "space": {"box": [1]},
        "links": [[1, 0], [0, 1]],
        "rates": {"0->1": "ind(x1 < 1)", "1->0": "x1"},
    }
    b = parse_model(doc)
    with pytest.raises(ModelError, match="share the link family"):
        simulate_coupled(a, b, (0,), (0,), 1.0, seed=0)


def test_marginality_exhaustive_tandem_pair():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    for xa in spec_a.states:
        for xb in spec_b.states:
            for link, joint, b_only, a_only in helpers.pair_rates(spec_a, spec_b, xa, xb):
                # integer-valued rates here, so marginality is exact
                assert joint + a_only == spec_a.rate_table(link)[xa]
                assert joint + b_only == spec_b.rate_table(link)[xb]
                assert min(joint, b_only, a_only) >= 0.0


def test_marginality_exhaustive_random_dyadic_pairs():
    rng = np.random.default_rng(401)
    for _ in range(5):
        spec_a, _ = helpers.random_table_instance(rng, 2, 2)
        spec_b, _ = helpers.random_table_instance(rng, 2, 2)
        for xa in spec_a.states:
            for xb in spec_b.states:
                for link, joint, b_only, a_only in helpers.pair_rates(spec_a, spec_b, xa, xb):
                    assert joint + a_only == spec_a.rate_table(link)[xa]
                    assert joint + b_only == spec_b.rate_table(link)[xb]


def test_balanced_never_outserves_original_at_equal_states():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    for x in spec_a.states:
        triples = {l: (j, b, a) for l, j, b, a in helpers.pair_rates(spec_a, spec_b, x, x)}
        assert triples[(2, 0)][2] == 0.0


def test_pair_row_fallback_reads_a_rate_that_vanishes_in_the_running_sum():
    # Link 1's A-only rate 1.0 disappears in 1e17 + 1.0; it is still the last positive bin.
    total, cumulative, last, _ = coupling._pair_row(
        ([1e17, 1.0], [0, 0]), ([1e17, 0.0], [0, 0]), 0, 0
    )
    assert cumulative == [1e17] * 6
    assert last == 5
    assert total == 1e17 + 1.0
    # every bin positive but the final one: the last positive bin is 4 (B-only of link 1).
    # A is at index 4 and B at 7 of a width-10 pair code: A's targets come
    # times 10, and per link the codes are (joint, B-only, A-only) moves.
    row = coupling._pair_row(([1.0, 1.0], [50, 30]), ([2.0, 3.0], [8, 6]), 40, 7)
    assert row == (5.0, [1.0, 2.0, 2.0, 3.0, 5.0, 5.0], 4, [58, 48, 57, 36, 46, 37])
    # the bins are marching_rates link by link, running-summed in bin order
    rates_a, rates_b = [0.5, 3.0, 2.0, 0.0], [1.5, 1.0, 2.0, 0.0]
    total, cumulative, last, targets = coupling._pair_row(
        (rates_a, [10, 20, 30, 40]), (rates_b, [1, 2, 3, 4]), 50, 5
    )
    acc = expected_total = 0.0
    for k, (a, b) in enumerate(zip(rates_a, rates_b)):
        triple = marching_rates(a, b)
        expected_total += sum(triple)
        for kind, r in enumerate(triple):
            acc += r
            assert cumulative[3 * k + kind] == acc
    assert len(cumulative) == 12
    assert total == expected_total
    assert last == 6  # link 2's joint bin: link 2 has no one-sided rate, link 3 no rate
    assert targets == [11, 51, 15, 22, 52, 25, 33, 53, 35, 44, 54, 45]


# ------------------------------------------------------------- simulation


def test_zero_horizon_empty():
    spec_a, spec_b = tandem_pair()
    log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 0.0, seed=1)
    assert log.events == []
    assert not log.absorbed


def test_identical_specs_all_joint_and_diagonal():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    log = simulate_coupled(spec, spec, (0, 0), (0, 0), 30.0, seed=6)
    assert len(log.events) > 10
    for ev in log.events:
        assert ev.kind == "joint"
        assert ev.state_a == ev.state_b
        assert ev.flows_a == ev.flows_b


def test_projection_matches_identical_direct_path():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    log = simulate_coupled(spec, spec, (0, 0), (0, 0), 30.0, seed=6)
    # on the diagonal the coupled chain draws exactly like the single chain
    direct = simulate_path(spec, (0, 0), 30.0, seed=6)
    assert len(log.times) > 10
    assert list(log.times) == list(direct.times)
    assert log.visits("a").tolist() == list(direct.visits)
    assert np.array_equal(log.flows("a"), direct.flows())


def test_projections_are_valid_component_paths():
    """Each side's columns form a path of its own chain: at every coupled
    event the side either moves along one link with a positive rate, its
    counter on that link up by one and its state moved by the link, or
    keeps both its counters and its state."""
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 40.0, seed=77)
    assert len(log.times) > 20
    assert (np.diff(np.asarray(log.times)) > 0).all()
    for side, spec, coords, x in (
        ("a", spec_a, log.coords_a, log.initial_a),
        ("b", spec_b, log.coords_b, log.initial_b),
    ):
        flows = log.flows(side)
        moved = 0
        for e, row in enumerate(coords[log.visits(side)].tolist()):
            step = (flows[e + 1] - flows[e]).tolist()
            post = tuple(row)
            if any(step):
                k = step.index(1)
                assert sum(step) == 1
                link = spec.links[k]
                assert spec.rate_vector(link)[spec.find(x)] > 0.0
                assert post == helpers.target(x, link)
                moved += 1
            else:
                assert post == x
            x = post
        assert 0 < moved <= len(log.times)


def test_projections_of_an_absorbed_path_are_absorbed():
    drain = parse_model(helpers.single_node_doc("0", "x1", 3))
    log = simulate_coupled(drain, drain, (3,), (3,), 1e9, seed=4)
    direct = simulate_path(drain, (3,), 1e9, seed=4)
    assert log.absorbed and direct.absorbed
    for side, coords in (("a", log.coords_a), ("b", log.coords_b)):
        last = int(log.visits(side)[-1])
        assert coords[last].tolist() == [0]
        assert all(drain.rate_vector(link)[last] == 0.0 for link in drain.links)


def test_project_rejects_unknown_side():
    """A coupled log's side views, flows(side) and visits(side), take
    only 'a' and 'b'."""
    spec_a, spec_b = tandem_pair()
    log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 1.0, seed=0)
    with pytest.raises(ValueError, match="side must be"):
        log.flows("c")
    with pytest.raises(ValueError, match="side must be"):
        log.visits("c")


def test_balance_pair_conserved_along_coupled_paths():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 40.0, seed=13)
    links = log.links
    flows_a, flows_b = log.flows("a"), log.flows("b")
    sig_a = balance_signature(log.initial_a, flows_a[0], links)
    sig_b = balance_signature(log.initial_b, flows_b[0], links)
    assert (sig_a, sig_b) == ((0, 0), (0, 0))
    for ia, ib, row_a, row_b in zip(log.visits("a"), log.visits("b"), flows_a[1:], flows_b[1:]):
        assert balance_signature(log.coords_a[ia], row_a, links) == sig_a
        assert balance_signature(log.coords_b[ib], row_b, links) == sig_b


def test_tandem_pair_counters_stay_ordered():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    for rep in range(50):
        log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 20.0, seed=9000 + rep)
        for ev in log.events:
            assert all(fa <= fb for fa, fb in zip(ev.flows_a, ev.flows_b))


def test_bad_initial_states_rejected():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    with pytest.raises(ModelError, match="first state space"):
        simulate_coupled(spec_a, spec_b, (2, 2), (0, 0), 1.0, seed=0)
    with pytest.raises(ModelError, match="second state space"):
        simulate_coupled(spec_a, spec_b, (0, 0), (9, 9), 1.0, seed=0)


def test_same_seed_reproducible():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    a = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 25.0, seed=4)
    b = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 25.0, seed=4)
    assert a == b


def test_logs_compare_their_spaces_by_value():
    """A log holds its spec's coords array. Same-seed logs of two equal
    specs built apart are equal (their arrays are equal, not the same
    object), and equal columns over different spaces are not."""
    (spec_a, spec_b), (twin_a, twin_b) = tandem_pair(2, 2, 1.0), tandem_pair(2, 2, 1.0)
    assert twin_a.coords is not spec_a.coords
    path, twin_path = (simulate_path(s, (0, 0), 25.0, seed=4) for s in (spec_b, twin_b))
    coupled = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 25.0, seed=4)
    twin_coupled = simulate_coupled(twin_a, twin_b, (0, 0), (0, 0), 25.0, seed=4)
    assert path == twin_path and coupled == twin_coupled
    shifted = spec_b.coords + 1
    assert path != dataclasses.replace(path, coords=shifted)
    assert coupled != dataclasses.replace(coupled, coords_a=shifted)
    assert coupled != dataclasses.replace(coupled, coords_b=shifted[:-1])


@pytest.mark.parametrize("permutation", ["reversed", "shuffled"])
def test_paths_follow_the_states_not_their_indices(permutation):
    """Specs listing their states in another order give the same seeded
    paths: the same CSV bytes, from labels read off each spec's own
    coords rows, and the same population-order violations."""
    pair = tandem_pair(2, 3, 1.5)  # 11 and 12 states
    rng = np.random.default_rng(5)
    orders = [np.arange(len(spec.coords)) for spec in pair]
    orders = [o[::-1] if permutation == "reversed" else rng.permutation(o) for o in orders]
    permuted = [helpers.permuted_spec(spec, o.tolist()) for spec, o in zip(pair, orders)]
    for spec, twin in zip(pair, permuted):
        log, twin_log = (simulate_path(s, (1, 2), 30.0, seed=8) for s in (spec, twin))
        assert not np.array_equal(log.visits, twin_log.visits)
        assert "".join(event_log_csv(log)) == "".join(event_log_csv(twin_log))
    # From unequal starts, so that A's counts exceed B's on some events.
    log, twin_log = (simulate_coupled(*p, (2, 1), (0, 0), 30.0, seed=8) for p in (pair, permuted))
    assert not np.array_equal(log.pairs, twin_log.pairs)
    assert "".join(paired_log_csv(log)) == "".join(paired_log_csv(twin_log))
    violations = pathwise_population_order_check(log)
    assert violations and pathwise_population_order_check(twin_log) == violations


def test_projected_event_counts_match_direct_distribution():
    # two-sample homogeneity of the A-projection against direct simulation
    spec_a = single_node(1.0)
    spec_b = single_node(2.0)
    reps = 10_000
    horizon = 5.0
    proj_counts: dict[int, int] = {}
    for rep in range(reps):
        log = simulate_coupled(spec_a, spec_b, (0,), (0,), horizon, seed=rep)
        k = sum(1 for ev in log.events if ev.kind in ("joint", "a_only"))
        proj_counts[k] = proj_counts.get(k, 0) + 1
    direct_counts: dict[int, int] = {}
    for rep in range(reps):
        log = simulate_path(spec_a, (0,), horizon, seed=2_000_000 + rep)
        k = len(log.events)
        direct_counts[k] = direct_counts.get(k, 0) + 1
    assert helpers.chi_square_pvalue(proj_counts, direct_counts) >= 1e-3


def test_coupled_path_memory_per_event_is_bounded():
    """The log holds columns, not one object per event (about 440 bytes each before)."""
    spec_a, spec_b = tandem_pair(10, 10, 10.0)
    tracemalloc.start()
    try:
        log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 2000.0, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.events) > 40_000
    assert peak / len(log.events) <= 120


# -------------------------------------------------------------------- csv


def test_paired_log_csv_stateflow():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 10.0, seed=2)
    lines = "".join(paired_log_csv(log)).strip().split("\n")
    assert lines[0] == "time,link_from,link_to,which,stateA,stateB,flowA,flowB"
    assert len(lines) == len(log.events) + 1
    ev = log.events[0]
    cells = lines[1].split(",")
    assert float(cells[0]) == ev.time
    assert (int(cells[1]), int(cells[2])) == ev.link
    assert cells[3] == ev.kind
    assert cells[4] == ";".join(str(v) for v in ev.state_a)
    assert cells[5] == ";".join(str(v) for v in ev.state_b)
    assert cells[6] == ";".join(str(v) for v in ev.flows_a)
    assert cells[7] == ";".join(str(v) for v in ev.flows_b)


@pytest.fixture(scope="module", params=["closed", "not closed"])
def long_coupled_path(request):
    """A coupled path of several CSV blocks, on the tandem pair either way
    round: balanced below original (closed) or original below balanced
    (not closed, with flow-order violations)."""
    balanced, original = tandem_pair(2, 2, 1.0)
    spec_a, spec_b = (balanced, original) if request.param == "closed" else (original, balanced)
    log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 6000.0, seed=3)
    assert len(log.times) > helpers.CHUNK_ROW_COUNTS[-1]
    return log


@pytest.mark.parametrize("rows", helpers.CHUNK_ROW_COUNTS)
def test_paired_log_csv_chunks_join_to_the_whole_text(long_coupled_path, rows):
    log = dataclasses.replace(
        long_coupled_path,
        times=long_coupled_path.times[:rows],
        bins=long_coupled_path.bins[:rows],
        pairs=long_coupled_path.pairs[:rows],
    )
    chunks = list(paired_log_csv(log))
    assert helpers.text_lines(chunks) == helpers.text_lines([helpers.whole_paired_log_csv(log)])
    assert [chunk.count("\n") for chunk in chunks] == helpers.chunk_row_counts(rows)


def test_writer_and_flow_scan_leave_the_cached_codes_unbuilt(long_coupled_path):
    """The CSV writer and the flow-order scan decode block by block; the
    log's whole-path code arrays are built only for readers that ask."""
    log = dataclasses.replace(long_coupled_path)
    "".join(paired_log_csv(log))
    pathwise_flow_order_check(log)
    assert "_bin_codes" not in vars(log) and "_pair_codes" not in vars(log)


def assert_arrays_match_reference(log, events):
    """Each side's flows and visits arrays against the reference loop's events."""
    for side, coords, flows_of, state_of in (
        ("a", log.coords_a, lambda ev: ev.flows_a, lambda ev: ev.state_a),
        ("b", log.coords_b, lambda ev: ev.flows_b, lambda ev: ev.state_b),
    ):
        flows = log.flows(side)
        assert flows.shape == (len(events) + 1, len(log.links))
        assert not flows[0].any()
        assert [tuple(row) for row in flows[1:].tolist()] == [flows_of(ev) for ev in events]
        visited = coords[log.visits(side)].tolist()
        assert list(map(tuple, visited)) == [state_of(ev) for ev in events]
        assert not log.visits(side).flags.writeable  # the log's own decoded column


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5]),
    st.integers(0, 2**32 - 1),
)
def test_coupled_path_matches_reference_loop(table_seed, p_zero, seed):
    rng = np.random.default_rng(table_seed)
    spec_a, _ = helpers.random_table_instance(rng, 2, 1, p_zero)
    spec_b, _ = helpers.random_table_instance(rng, 2, 1, p_zero)
    init_a = spec_a.states[int(rng.integers(len(spec_a.states)))]
    init_b = spec_b.states[int(rng.integers(len(spec_b.states)))]
    log = simulate_coupled(spec_a, spec_b, init_a, init_b, 20.0, seed)
    events, absorbed = helpers.reference_simulate_coupled(
        spec_a, spec_b, init_a, init_b, 20.0, seed
    )
    assert log.events == events
    assert log.absorbed == absorbed
    assert_arrays_match_reference(log, events)


@given(
    st.lists(st.floats(0.05, 3.0), min_size=5, max_size=5),
    st.lists(st.floats(0.05, 3.0), min_size=5, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_coupled_path_matches_reference_loop_on_tandems(values_a, values_b, seed):
    def params(values):
        beta, a1, a2, b1, b2 = values
        return TandemParams(s1=2, s2=2, beta=beta, delta1=(0.0, a1, a2), delta2=(0.0, b1, b2))

    spec_a = build_balanced_tandem(params(values_a))
    spec_b = build_original_tandem(params(values_b))
    log = simulate_coupled(spec_a, spec_b, (1, 0), (1, 0), 20.0, seed)
    events, absorbed = helpers.reference_simulate_coupled(
        spec_a, spec_b, (1, 0), (1, 0), 20.0, seed
    )
    assert log.events == events
    assert log.absorbed == absorbed
    assert_arrays_match_reference(log, events)
