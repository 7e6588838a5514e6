import bisect
import itertools
import random
import time
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from floworder import ctmc, ordering
from floworder.coupling import (
    CoupledEvent,
    PairedEventLog,
    simulate_coupled,
)
from floworder.model import ModelError, NetworkSpec, linear_links, parse_model
from floworder.ordering import (
    check_flow_conditions,
    check_population_conditions,
    mean_order_check,
    pathwise_flow_order_check,
    pathwise_population_order_check,
    verify_tight_configurations,
)
from floworder.tandem import TandemParams, build_balanced_tandem, build_original_tandem


def tandem_pair(s1=2, s2=2, beta=1.0, delta1=None, delta2=None):
    if delta1 is None and delta2 is None:
        params = TandemParams.linear(s1, s2, beta)
    else:
        params = TandemParams(s1, s2, beta, tuple(delta1), tuple(delta2))
    return build_balanced_tandem(params), build_original_tandem(params)


def constant_rate_chain(n=2, cap=2, value=1.0):
    rates = {f"{i}->{j}": str(value) for i, j in linear_links(n)}
    return parse_model(
        {"n": n, "space": {"box": [cap] * n}, "rates": rates, "clamp": True}
    )


def mm1c_pair():
    # arrivals 1 vs 2, service 2x vs x: the slower-arriving, faster-serving
    # chain should sit below the other one
    a = parse_model(helpers.single_node_doc("ind(x1 < 3)", "2 * x1", 3))
    b = parse_model(helpers.single_node_doc("2 * ind(x1 < 3)", "x1", 3))
    return a, b


# -------------------------------------------------------- flow conditions


def test_flow_conditions_pass_for_increasing_service():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    report = check_flow_conditions(spec_a, spec_b)
    assert report.passed
    assert report.witnesses == ()
    assert [c.condition for c in report.conditions] == [
        "flow-link-0",
        "flow-link-1",
        "flow-link-2",
    ]
    nonlinear_a, nonlinear_b = tandem_pair(2, 2, 1.0, (0, 1, 3), (0, 1, 4))
    assert check_flow_conditions(nonlinear_a, nonlinear_b).passed


def test_flow_conditions_fail_for_decreasing_service():
    spec_a, spec_b = tandem_pair(1, 2, 1.0, (0, 1), (0, 2, 1))
    report = check_flow_conditions(spec_a, spec_b, all_witnesses=True)
    assert not report.passed
    failing = {c.condition for c in report.conditions if not c.passed}
    assert failing == {"flow-link-2"}
    for w in report.witnesses:
        assert w.part == "rate"
        assert w.rate_a > w.rate_b
        assert w.state_a[1] <= w.state_b[1]


def test_flow_conditions_constant_rates_self_pair():
    spec = constant_rate_chain()
    assert check_flow_conditions(spec, spec).passed


def test_flow_conditions_exact_no_tolerance():
    base = parse_model(
        {"n": 1, "space": {"box": [2]}, "rates": {"0->1": "1", "1->0": "1"},
         "clamp": True}
    )
    bumped = parse_model(
        {"n": 1, "space": {"box": [2]},
         "rates": {"0->1": "1.000000000000001", "1->0": "1"}, "clamp": True}
    )
    assert check_flow_conditions(base, base).passed
    report = check_flow_conditions(bumped, base)
    assert not report.passed
    assert {c.condition for c in report.conditions if not c.passed} == {"flow-link-0"}


def test_flow_conditions_reject_nonlinear_family():
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
    star = parse_model(doc)
    with pytest.raises(ModelError, match="linear link family"):
        check_flow_conditions(star, star)


def test_flow_conditions_first_witness_only_by_default():
    spec_a, spec_b = tandem_pair(1, 2, 1.0, (0, 1), (0, 2, 1))
    first = check_flow_conditions(spec_a, spec_b)
    full = check_flow_conditions(spec_a, spec_b, all_witnesses=True)
    assert len(first.witnesses) == 1
    assert len(full.witnesses) > 1
    assert first.witnesses[0] in full.witnesses


# -------------------------------------------------- population conditions


def test_population_conditions_fail_direct_tandem_order():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    report = check_population_conditions(spec_a, spec_b, all_witnesses=True)
    assert not report.passed
    failing = {c.condition for c in report.conditions if not c.passed}
    assert failing == {"population-node-2"}
    assert len(report.witnesses) == 1
    w = report.witnesses[0]
    # the balanced exit stalls at a full first buffer while the plain one drains
    assert w.part == "outflow"
    assert w.state_a == w.state_b == (2, 1)
    assert w.rate_a < w.rate_b


def test_population_conditions_fail_swapped_tandem_order():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    report = check_population_conditions(spec_b, spec_a, all_witnesses=True)
    assert not report.passed
    failing = {c.condition for c in report.conditions if not c.passed}
    assert failing == {"population-node-1"}
    for w in report.witnesses:
        assert w.part == "inflow"
        assert all(a <= b for a, b in zip(w.state_a, w.state_b))
    shapes = [
        w
        for w in report.witnesses
        if w.state_a[0] == w.state_b[0] < 2 and w.state_a[1] < w.state_b[1] == 2
    ]
    assert shapes, "expected a witness with a strictly fuller second queue on B"


def test_population_conditions_pass_mm1c_pair():
    spec_a, spec_b = mm1c_pair()
    report = check_population_conditions(spec_a, spec_b)
    assert report.passed
    # hand enumeration of the same implications, independent of the checker
    for xa in spec_a.states:
        for xb in spec_b.states:
            if xa[0] == xb[0]:
                assert spec_a.rate_table((0, 1))[xa] <= spec_b.rate_table((0, 1))[xb]
                assert spec_a.rate_table((1, 0))[xa] >= spec_b.rate_table((1, 0))[xb]


def test_population_conditions_quantify_over_ordered_pairs():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    report = check_population_conditions(spec_b, spec_a, all_witnesses=True)
    for w in report.witnesses:
        assert all(a <= b for a, b in zip(w.state_a, w.state_b))


# ----------------------------------------------------------- closure


def _recount_tight_configurations(spec_a, spec_b, bound):
    """Independent recount: enumerate gap vectors first, then filter."""
    import itertools

    n = spec_a.n
    count = 0
    for k in range(n + 1):
        for xa in spec_a.states:
            for xb in spec_b.states:
                found = None
                for d in itertools.product(range(bound + 1), repeat=n + 1):
                    if d[k] != 0:
                        continue
                    if all(xb[i] - xa[i] == d[i] - d[i + 1] for i in range(n)):
                        found = d
                        break
                if found is not None:
                    count += 1
    return count


def test_closure_tandem_pair_closed():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    report = verify_tight_configurations(spec_a, spec_b)
    assert report.closed
    assert report.witnesses == ()
    assert report.to_dict()["gap_exceeded"] == []
    assert report.gap_bound == 4
    assert report.checked == _recount_tight_configurations(spec_a, spec_b, 4)


def test_closure_constant_arrival_excess_not_closed():
    fast = parse_model(
        {"n": 1, "space": {"box": [2]}, "rates": {"0->1": "2", "1->0": "min(x1, 1)"},
         "clamp": True}
    )
    slow = parse_model(
        {"n": 1, "space": {"box": [2]}, "rates": {"0->1": "1", "1->0": "min(x1, 1)"},
         "clamp": True}
    )
    report = verify_tight_configurations(fast, slow)
    assert not report.closed
    diagonal = [
        w
        for w in report.witnesses
        if w.config.link_index == 0
        and w.config.state_a == w.config.state_b
        and w.config.gaps == (0, 0)
    ]
    assert diagonal
    assert diagonal[0].rate_a == 2.0
    assert diagonal[0].rate_b == 1.0


def test_closure_gap_vectors_satisfy_balance():
    """On pairs that are not closed: the swapped tandems, decreasing tables,
    and unequal buffers."""
    for spec_a, spec_b in (
        tandem_pair(2, 2, 1.0)[::-1],
        tandem_pair(2, 2, 1.0, (0, 3, 1), (0, 1, 3)),
        tandem_pair(3, 2, 2.0, (0, 1, 3, 2), (0, 2, 1)),
    ):
        report = verify_tight_configurations(spec_a, spec_b)
        assert not report.closed and report.witnesses
        for witness in report.witnesses:
            config = witness.config
            d = config.gaps
            assert d[config.link_index] == 0
            assert 0 <= min(d) and max(d) <= report.gap_bound
            for i in range(spec_a.n):
                assert config.state_b[i] - config.state_a[i] == d[i] - d[i + 1]


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_closure_implied_by_conditions_on_random_pairs(seed, c1, c2):
    rng = np.random.default_rng(seed)
    spec_a, spec_b = helpers.random_certified_pair(rng, c1, c2)
    assert check_flow_conditions(spec_a, spec_b).passed
    assert verify_tight_configurations(spec_a, spec_b).closed
    # unconstrained pairs: whenever the conditions happen to pass, closure
    # must follow; the reverse direction is not asserted
    spec_a, _ = helpers.random_table_instance(rng, c1, c2)
    spec_b, _ = helpers.random_table_instance(rng, c1, c2)
    if check_flow_conditions(spec_a, spec_b).passed:
        assert verify_tight_configurations(spec_a, spec_b).closed


# ------------------------------------------ grid queries against the scans


@pytest.mark.parametrize("block, path", [(None, "scan"), (64, "grid")])
@pytest.mark.parametrize("seed", range(4))
def test_dominance_is_blind_to_the_order_of_the_inexact_axes(seed, block, path, monkeypatch):
    """Permuting the axes after an exact first axis, or every axis of a
    query with none exact, gives bit-equal outputs, whether the pairs are
    scanned or, with a small _BLOCK_PAIRS, the grid is swept in slabs."""
    rng = np.random.default_rng(seed)
    (spec_a, _), (spec_b, _) = (helpers.random_table_instance(rng, 3, 3) for _ in range(2))
    x = np.concatenate([spec_a.coords, spec_b.coords])
    # four axes of four cells each: 256 cells against 256 pairs
    columns = np.stack([x[:, 0], x[:, 1], x.sum(axis=1) // 2, x.max(axis=1)], axis=1)
    axes = ordering._axes(columns, len(spec_a.coords))
    rb = spec_b.rate_vector((1, 2))
    ones = np.ones(len(rb), dtype=np.int64)
    queries = [(np.minimum, np.inf, rb), (np.maximum, -np.inf, rb), (np.add, 0, ones)]
    scans = []
    scan_rows = ordering._scan_rows

    def recording_scan(*args):
        scans.append(args)
        return scan_rows(*args)

    monkeypatch.setattr(ordering, "_scan_rows", recording_scan)
    if block is not None:
        monkeypatch.setattr(ordering, "_BLOCK_PAIRS", block)
    for exact in (True, False):
        fixed = int(exact)
        want = [out.tobytes() for out in ordering._dominance(axes, queries, exact)]
        for rest in itertools.permutations(axes[fixed:]):
            got = ordering._dominance(axes[:fixed] + list(rest), queries, exact)
            assert [out.tobytes() for out in got] == want, (exact, rest)
    assert bool(scans) == (path == "scan")


def random_box_spec(rng, caps, p_zero):
    """Dyadic rate tables on a box with any number of nodes, clamped at its edges."""
    states = list(itertools.product(*(range(c + 1) for c in caps)))
    rates = {}
    for i, j in linear_links(len(caps)):
        table = {x: 0.0 if rng.random() < p_zero else helpers.dyadic(rng) for x in states}
        rates[f"{i}->{j}"] = helpers.table_to_expression(table)
    return parse_model(
        {"n": len(caps), "space": {"box": list(caps)}, "rates": rates, "clamp": True}
    )


@st.composite
def model_pairs(draw):
    """Certified pairs either way round, random tables, and random boxes of
    unequal sizes on one to three nodes, some with many zero rates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["certified", "tables", "boxes"]))
    p_zero = draw(st.sampled_from([0.0, 0.5]))
    if kind == "certified":
        pair = helpers.random_certified_pair(rng, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        return pair if draw(st.booleans()) else pair[::-1]
    if kind == "tables":
        c1, c2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        spec_a, _ = helpers.random_table_instance(rng, c1, c2, p_zero)
        spec_b, _ = helpers.random_table_instance(rng, c1, c2, p_zero)
        return spec_a, spec_b
    n = draw(st.integers(1, 3))
    caps = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return random_box_spec(rng, draw(caps), p_zero), random_box_spec(rng, draw(caps), p_zero)


@st.composite
def tandem_pairs(draw):
    """Balanced and original tandems with random buffers, beta and tables,
    either way round."""
    s1, s2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rate = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])

    def table(size):
        return (0.0,) + tuple(draw(st.lists(rate, min_size=size, max_size=size)))

    pair = tandem_pair(s1, s2, draw(rate), table(s1), table(s2))
    return pair if draw(st.booleans()) else pair[::-1]


# Runs of consecutive values far apart: the coordinates are sparse and
# reach 10**9, yet a move often stays inside a listed space.
SPARSE_VALUES = (0, 1, 2, 500_000_000, 500_000_001, 999_999_999, 1_000_000_000)


@st.composite
def list_pairs(draw):
    """Listed spaces on one to three nodes, drawn from SPARSE_VALUES per
    coordinate, with dyadic rate tables that are often zero; A's and B's
    spaces share values, so every premise holds somewhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    grid = list(itertools.product(SPARSE_VALUES, repeat=n))

    def spec():
        size = draw(st.integers(1, min(len(grid), 12)))
        states = [grid[i] for i in sorted(rng.choice(len(grid), size, replace=False))]
        rates = {}
        for i, j in linear_links(n):
            table = {x: 0.0 if rng.random() < 0.3 else helpers.dyadic(rng) for x in states}
            rates[f"{i}->{j}"] = helpers.table_to_expression(table)
        return parse_model(
            {"n": n, "space": {"list": [list(x) for x in states]}, "rates": rates, "clamp": True}
        )

    return spec(), spec()


@given(st.one_of(model_pairs(), list_pairs()))
def test_next_index_and_rates_match_the_dict_route(pair):
    """The key search gives the dict route's next_index, and the rates the
    scalar oracle's bits, on boxes, tables and sparse listed spaces."""
    for spec in pair:
        for link in spec.links:
            expected = helpers.reference_next_index(spec, link)
            assert spec.next_index(link).tolist() == expected.tolist()
            oracle = helpers.scalar_rate_table(spec, link)
            assert spec.rate_vector(link).tobytes() == np.array(
                [oracle[x] for x in spec.states]
            ).tobytes()


def assert_same_report(report, oracle):
    # repr also tells Python floats and ints from numpy scalars, and the
    # dataclasses compare the state and gap tuples themselves
    assert repr(report.to_dict()) == repr(oracle.to_dict())
    assert report.witnesses == oracle.witnesses


BLOCKS = pytest.mark.parametrize(
    "block", [None, 7, 40], ids=["block-default", "block-7", "block-40"]
)
# tandem and listed pairs, each with its own examples
OTHER_PAIRS = pytest.mark.parametrize(
    "pairs", [tandem_pairs(), list_pairs()], ids=["tandem", "list"]
)


def assert_conditions_match_oracles(block, pair, all_witnesses):
    """The queries give the block scans' and the loops' reports byte for
    byte; a small _BLOCK_PAIRS sweeps the grids in slabs and sends other
    queries to the row scan."""
    spec_a, spec_b = pair
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(ordering, "_BLOCK_PAIRS", block)
        flow = check_flow_conditions(spec_a, spec_b, all_witnesses)
        population = check_population_conditions(spec_a, spec_b, all_witnesses)
        blocked_flow = helpers.blocked_flow_conditions(spec_a, spec_b, all_witnesses)
        blocked_population = helpers.blocked_population_conditions(spec_a, spec_b, all_witnesses)
    assert_same_report(flow, blocked_flow)
    assert_same_report(population, blocked_population)
    assert_same_report(flow, helpers.reference_flow_conditions(spec_a, spec_b, all_witnesses))
    assert_same_report(
        population, helpers.reference_population_conditions(spec_a, spec_b, all_witnesses)
    )


def assert_closure_matches_oracles(block, pair):
    """Verdict, witnesses and the exact `checked` count of the queries
    equal the block scan's and the loop's."""
    spec_a, spec_b = pair
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(ordering, "_BLOCK_PAIRS", block)
        report = verify_tight_configurations(spec_a, spec_b)
        blocked = helpers.blocked_closure(spec_a, spec_b)
    assert_same_report(report, blocked)
    assert report.checked == blocked.checked
    assert_same_report(report, helpers.reference_closure(spec_a, spec_b))


@BLOCKS
@given(pair=model_pairs(), all_witnesses=st.booleans())
def test_condition_checks_match_loop_oracles(block, pair, all_witnesses):
    assert_conditions_match_oracles(block, pair, all_witnesses)


@BLOCKS
@OTHER_PAIRS
@given(data=st.data(), all_witnesses=st.booleans())
def test_condition_checks_match_oracles_on_tandem_and_list_pairs(
    block, pairs, data, all_witnesses
):
    assert_conditions_match_oracles(block, data.draw(pairs), all_witnesses)


@BLOCKS
@given(pair=model_pairs())
def test_closure_matches_loop_oracle(block, pair):
    assert_closure_matches_oracles(block, pair)


@BLOCKS
@OTHER_PAIRS
@given(data=st.data())
def test_closure_matches_oracles_on_tandem_and_list_pairs(block, pairs, data):
    assert_closure_matches_oracles(block, data.draw(pairs))


@given(pair=st.one_of(model_pairs(), tandem_pairs()))
def test_no_realizable_gap_exceeds_the_default_bound(pair):
    """verify_tight_configurations checks no gap against its bound, since
    max S - min S <= n * c: the loop oracle, which does, never finds one over it."""
    oracle = helpers.reference_closure(*pair)
    assert oracle.gap_exceeded == ()


def test_population_first_witness_is_inflow_when_both_parts_fail():
    # at (1,) against (1,) A arrives faster and serves slower than B
    spec_a = parse_model(helpers.single_node_doc("2 * ind(x1 < 2) - ind(x1 < 1)", "0", 2))
    spec_b = parse_model(helpers.single_node_doc("ind(x1 < 2)", "x1", 2))
    full = check_population_conditions(spec_a, spec_b, all_witnesses=True)
    assert [(w.part, w.state_a, w.state_b) for w in full.witnesses] == [
        ("inflow", (1,), (1,)),
        ("outflow", (1,), (1,)),
        ("outflow", (2,), (2,)),
    ]
    first = check_population_conditions(spec_a, spec_b)
    assert first.witnesses == full.witnesses[:1]


def test_exact_checks_at_thirty_by_thirty():
    spec_a, spec_b = tandem_pair(30, 30, 30.0)
    tracemalloc.start()
    try:
        closure = verify_tight_configurations(spec_a, spec_b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert closure.closed
    assert closure.checked == 962_735
    assert peak < 16 * 2**20
    assert check_flow_conditions(spec_a, spec_b).passed
    population = check_population_conditions(spec_a, spec_b)
    assert not population.passed
    assert [w.to_dict() for w in population.witnesses] == [
        {
            "condition": "population-node-2",
            "part": "outflow",
            "state_a": [30, 1],
            "state_b": [30, 1],
            "rate_a": 0.0,
            "rate_b": 1.0,
        }
    ]


def test_exact_checks_at_two_hundred_by_two_hundred():
    """40,400 and 40,401 states, so 1.6e9 pairs a link: each check is a few
    grid queries plus one listed row, well within 3 s and 16 MiB."""
    spec_a, spec_b = tandem_pair(200, 200, 200.0)
    assert (len(spec_a.states), len(spec_b.states)) == (40_400, 40_401)
    reports = []
    for check in (check_flow_conditions, check_population_conditions, verify_tight_configurations):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            reports.append(check(spec_a, spec_b))
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 3.0, f"{check.__name__} took {elapsed:.2f} s"
        assert peak < 16 * 2**20, f"{check.__name__} peaked at {peak / 2**20:.1f} MiB"
    flow, population, closure = reports
    assert flow.passed
    assert [w.to_dict() for w in population.witnesses] == [
        {
            "condition": "population-node-2",
            "part": "outflow",
            "state_a": [200, 1],
            "state_b": [200, 1],
            "rate_a": 0.0,
            "rate_b": 1.0,
        }
    ]
    assert closure.closed
    assert closure.checked == 1_643_047_900


def thin_pair(states):
    """A listed space and the same space with its arrival rate raised by 1
    at the fourth state, so that some conditions fail."""
    n = len(states[0])
    rates = {f"{i}->{j}": (f"x{i}" if i else "1") for i, j in linear_links(n)}
    doc = {"n": n, "space": {"list": [list(x) for x in states]}, "rates": rates, "clamp": True}
    spec_b = parse_model(doc)
    raised = " * ".join(f"ind(x{c + 1} = {v})" for c, v in enumerate(states[3]))
    doc["rates"] = {**rates, "0->1": f"1 + {raised}"}
    return parse_model(doc), spec_b


@pytest.mark.parametrize(
    "states, verdict",
    [
        # every move leaves the diagonal, so every rate is clamped to 0
        ([(i,) * 4 for i in range(1001)], "pass"),
        (list(itertools.product((0, 1), repeat=10)), "fail"),
    ],
    ids=["diagonal-4x1001", "box-2^10"],
)
def test_exact_checks_scan_the_pairs_on_thin_spaces(states, verdict):
    """Few states spread over many values on every axis: a grid on the
    diagonal would have about 1e12 cells a closure link, one slice alone
    about 1e9, and on the ten-node 0/1 box about 4e7 cells against 1e6
    pairs. The queries scan the pairs instead, each call within 3 s and
    16 MiB, and give the block scans' reports."""
    spec_a, spec_b = thin_pair(states)
    checks = [
        (check_flow_conditions, helpers.blocked_flow_conditions),
        (check_population_conditions, helpers.blocked_population_conditions),
        (verify_tight_configurations, helpers.blocked_closure),
    ]
    for check, oracle in checks:
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = check(spec_a, spec_b)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 3.0, f"{check.__name__} took {elapsed:.2f} s"
        assert peak < 16 * 2**20, f"{check.__name__} peaked at {peak / 2**20:.1f} MiB"
        expected = oracle(spec_a, spec_b)
        assert_same_report(report, expected)
        assert report.to_dict()["verdict"] == verdict


# ------------------------------------------------------- pathwise checks


def test_pathwise_flow_order_certified_pair_clean():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    for seed in range(20):
        log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 20.0, seed=seed)
        assert pathwise_flow_order_check(log) == []


@given(
    st.lists(st.floats(0.05, 3.0), min_size=5, max_size=5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_pathwise_flow_order_matches_counter_loop_on_reference_paths(values, swapped, seed):
    """Violations counted from the bins column equal the loop over the
    counters that the reference coupled loop carries event by event."""
    beta, a1, a2, b1, b2 = values
    params = TandemParams(s1=2, s2=2, beta=beta, delta1=(0.0, a1, a2), delta2=(0.0, b1, b2))
    pair = [build_balanced_tandem(params), build_original_tandem(params)]
    if swapped:
        pair.reverse()
    log = simulate_coupled(*pair, (0, 0), (0, 0), 20.0, seed)
    events, _ = helpers.reference_simulate_coupled(*pair, (0, 0), (0, 0), 20.0, seed)
    expected = [
        (ev.time, link)
        for ev in events
        for k, link in enumerate(pair[0].links)
        if ev.flows_a[k] > ev.flows_b[k]
    ]
    assert pathwise_flow_order_check(log) == expected


def test_pathwise_flow_order_flags_hand_built_violation():
    links = linear_links(2)
    events = [
        CoupledEvent(0.2, (0, 1), "joint", (1, 0), (1, 0), (1, 0, 0), (1, 0, 0)),
        CoupledEvent(0.5, (0, 1), "a_only", (2, 0), (1, 0), (2, 0, 0), (1, 0, 0)),
    ]
    coords = np.array([(0, 0), (1, 0), (2, 0)])
    log = PairedEventLog(
        initial_a=(0, 0),
        initial_b=(0, 0),
        links=links,
        coords_a=coords,
        coords_b=coords,
        times=array("d", [0.2, 0.5]),
        bins=array("q", [0, 2]),  # joint, then A alone, on link 0
        pairs=array("q", [1 * 3 + 1, 2 * 3 + 1]),
        horizon=1.0,
        absorbed=False,
    )
    assert log.events == events
    assert pathwise_flow_order_check(log) == [(0.5, (0, 1))]


def test_pathwise_flow_order_identical_specs_clean():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    log = simulate_coupled(spec, spec, (0, 0), (0, 0), 30.0, seed=2)
    assert pathwise_flow_order_check(log) == []


@pytest.mark.parametrize("horizon", [2000.0, 8000.0])
@pytest.mark.parametrize("swapped", [False, True])
def test_blockwise_flow_order_scan_equals_the_flows_array_scan(horizon, swapped):
    """The scan forms the flows arrays a block at a time, the counters carried
    across blocks; it must list what one scan of the whole arrays lists."""
    spec_a, spec_b = tandem_pair(2, 2, 1.0, (0, 2, 1), (0, 2, 1))
    if swapped:
        spec_a, spec_b = spec_b, spec_a
    log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), horizon, seed=1)
    found = pathwise_flow_order_check(log)
    assert found == helpers.flows_array_flow_order(log)
    assert len(log.times) > ctmc._CSV_ROWS
    if not swapped and horizon == 2000.0:
        assert (len(log.events), len(found)) == (4437, 276)
    if swapped:  # A out-serves B: violations in every block, read off carried counters
        blocks = {bisect.bisect_left(log.times, t) // ctmc._CSV_ROWS for t, _ in found}
        assert blocks == set(range(len(log.times) // ctmc._CSV_ROWS + 1))


def test_pathwise_population_order_certified_pair_clean():
    spec_a, spec_b = mm1c_pair()
    for seed in range(20):
        log = simulate_coupled(spec_a, spec_b, (0,), (0,), 20.0, seed=seed)
        assert pathwise_population_order_check(log) == []


@given(
    st.lists(st.floats(0.05, 3.0), min_size=5, max_size=5),
    st.booleans(),
    st.sampled_from([0.0, 20.0]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_pathwise_population_order_matches_event_loop(values, swapped, horizon, pick, seed):
    """Violations read from the pairs column equal the loop over the events,
    from unequal starts so that both outcomes occur, and on empty logs."""
    beta, a1, a2, b1, b2 = values
    params = TandemParams(s1=2, s2=2, beta=beta, delta1=(0.0, a1, a2), delta2=(0.0, b1, b2))
    pair = [build_balanced_tandem(params), build_original_tandem(params)]
    if swapped:
        pair.reverse()
    rng = random.Random(pick)
    init_a, init_b = (rng.choice(spec.states) for spec in pair)
    log = simulate_coupled(*pair, init_a, init_b, horizon, seed)
    if horizon == 0.0:
        assert not log.events
    assert pathwise_population_order_check(log) == helpers.reference_population_order(log)


def test_pathwise_population_order_flags_hand_built_violation():
    links = linear_links(2)
    events = [CoupledEvent(0.7, (0, 1), "a_only", (1, 1), (1, 0), (1, 0, 0), (0, 0, 0))]
    log = PairedEventLog(
        initial_a=(0, 1),
        initial_b=(0, 0),
        links=links,
        coords_a=np.array([(0, 1), (1, 1)]),
        coords_b=np.array([(0, 0), (1, 0)]),
        times=array("d", [0.7]),
        bins=array("q", [2]),  # A alone on link 0
        pairs=array("q", [1 * 2 + 1]),
        horizon=1.0,
        absorbed=False,
    )
    assert log.events == events
    assert pathwise_population_order_check(log) == [(0.7, 2)]


# ------------------------------------------------------------ mean order


def test_mean_order_identical_specs_zero_margins():
    spec = helpers.two_state_chain()
    report = mean_order_check(spec, spec, (0, 1), [0.0, 1.0, 2.0], (0,))
    assert report.passed
    assert all(abs(m) <= 2e-10 for m in report.margins)
    assert report.margins[0] == 0.0
    assert report.mean_a[0] == report.mean_b[0] == 0.0


def test_mean_order_tandem_pair_short_grid():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    report = mean_order_check(spec_a, spec_b, (0, 1), [1.0, 5.0, 10.0], (0, 0))
    assert report.passed
    assert all(m >= -1e-8 for m in report.margins)
    assert report.margins[-1] > 0.01  # the gap is clearly visible by t=10


def test_mean_order_builds_one_generator_per_model(monkeypatch):
    built = []
    real = ctmc.build_generator
    monkeypatch.setattr(ctmc, "build_generator", lambda spec: built.append(spec) or real(spec))
    spec_a, spec_b = tandem_pair(3, 3, 1.0)
    mean_order_check(spec_a, spec_b, (0, 1), tuple(float(t) for t in range(21)), (0, 0))
    assert len(built) == 2


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, -1e-300])
def test_mean_order_rejects_tolerances_that_decide_nothing(tol):
    """An infinite tol would pass any margins, NaN fail all, a negative one demand |tol|."""
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    with pytest.raises(ctmc.ToleranceError, match="margin tolerance"):
        mean_order_check(spec_b, spec_a, (0, 1), [1.0, 5.0], (0, 0), tol=tol)


def test_mean_order_zero_tolerance_demands_nonnegative_margins():
    spec = helpers.two_state_chain()
    assert mean_order_check(spec, spec, (0, 1), [0.0], (0,), tol=0.0).passed
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    assert not mean_order_check(spec_b, spec_a, (0, 1), [1.0, 5.0], (0, 0), tol=0.0).passed


def test_mean_order_rejects_foreign_initial_state():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    with pytest.raises(ModelError, match="both state spaces"):
        mean_order_check(spec_a, spec_b, (0, 1), [1.0], (2, 2))


# -------------------------------------------------- enumeration-order


def _shuffle_states(spec, rng):
    order = list(spec.states)
    rng.shuffle(order)
    return NetworkSpec(
        n=spec.n,
        links=spec.links,
        states=tuple(order),
        rates=spec.rates,
        params=spec.params,
        clamp=spec.clamp,
    )


def test_verdicts_stable_under_state_permutation():
    rng = random.Random(5)
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    shuffled_a = _shuffle_states(spec_a, rng)
    shuffled_b = _shuffle_states(spec_b, rng)

    flow = check_flow_conditions(spec_b, spec_a, all_witnesses=True)
    flow_shuffled = check_flow_conditions(shuffled_b, shuffled_a, all_witnesses=True)
    assert flow.passed == flow_shuffled.passed
    assert set(flow.witnesses) == set(flow_shuffled.witnesses)

    pop = check_population_conditions(spec_a, spec_b, all_witnesses=True)
    pop_shuffled = check_population_conditions(shuffled_a, shuffled_b, all_witnesses=True)
    assert pop.passed == pop_shuffled.passed
    assert set(pop.witnesses) == set(pop_shuffled.witnesses)

    closure = verify_tight_configurations(spec_a, spec_b)
    closure_shuffled = verify_tight_configurations(shuffled_a, shuffled_b)
    assert closure.closed == closure_shuffled.closed
    assert closure.checked == closure_shuffled.checked
    assert set(closure.witnesses) == set(closure_shuffled.witnesses)


# -------------------------------------------------------- soundness chain


def test_soundness_chain_on_certified_instances():
    rng = np.random.default_rng(123)
    for case in range(10):
        spec_a, spec_b = helpers.random_certified_pair(rng, 2, 2)
        assert check_flow_conditions(spec_a, spec_b).passed
        assert verify_tight_configurations(spec_a, spec_b).closed
        init = (0, 0)
        for seed in range(3):
            log = simulate_coupled(spec_a, spec_b, init, init, 10.0, seed=6000 + 10 * case + seed)
            assert pathwise_flow_order_check(log) == []


def test_population_conditions_imply_ordered_paths():
    spec_a, spec_b = mm1c_pair()
    assert check_population_conditions(spec_a, spec_b).passed
    for seed in range(30):
        log = simulate_coupled(spec_a, spec_b, (1,), (1,), 15.0, seed=500 + seed)
        assert pathwise_population_order_check(log) == []


def test_report_dictionaries_have_stable_shape():
    spec_a, spec_b = tandem_pair(2, 2, 1.0)
    flow = check_flow_conditions(spec_a, spec_b).to_dict()
    assert flow["verdict"] == "pass"
    assert flow["kind"] == "flow"
    closure = verify_tight_configurations(spec_a, spec_b).to_dict()
    assert closure["closed"] is True
    assert closure["checked"] > 0
    pop = check_population_conditions(spec_a, spec_b).to_dict()
    assert pop["verdict"] == "fail"
    assert pop["witnesses"]
    mean = mean_order_check(spec_a, spec_b, (0, 1), (0.0, 1.0), (0, 0)).to_dict()
    # timings belong in a trace, never in a report
    for report in (flow, closure, pop, mean):
        assert "runtime" not in report
