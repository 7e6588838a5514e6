from array import array
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from floworder.ctmc import EventLog, simulate_path
from floworder.model import ModelError, balance_signature, parse_model
from floworder.tandem import TandemParams, build_original_tandem


def linear_tandem(s1=2, s2=2, beta=1.0):
    return build_original_tandem(TandemParams.linear(s1, s2, beta))


def augmented_moves(spec, x, flows):
    """Enabled moves of the state-flow chain at (x, flows), read off the
    per-link arrays: (link, rate, (x2, flows2)) for every positive rate,
    counters aligned with spec.links."""
    i = spec.find(x)
    assert i >= 0
    out = []
    for k, link in enumerate(spec.links):
        rate = float(spec.rate_vector(link)[i])
        if rate > 0.0:
            f2 = flows[:k] + (flows[k] + 1,) + flows[k + 1 :]
            out.append((link, rate, (spec.states[spec.next_index(link)[i]], f2)))
    return out


def counters_at(log, t):
    """The counters at time t, right-continuous: the flows row after the
    last event at or before t."""
    return tuple(log.flows()[bisect_right(log.times, t)].tolist())


# --------------------------------------------------------------- augment


def test_augment_empty_tandem_only_arrival():
    spec = linear_tandem()
    moves = augmented_moves(spec, (0, 0), (0, 0, 0))
    assert len(moves) == 1
    link, rate, (x2, f2) = moves[0]
    assert link == (0, 1)
    assert rate == 1.0
    assert x2 == (1, 0)
    assert f2 == (1, 0, 0)


def test_augment_absorbing_state_no_moves():
    doc = {"n": 1, "space": {"box": [1]}, "rates": {"0->1": "0", "1->0": "x1"}}
    spec = parse_model(doc)
    for f in ((0, 0), (5, 5)):
        assert augmented_moves(spec, (0,), f) == []


def test_augment_rates_ignore_counters():
    spec = linear_tandem()
    a = augmented_moves(spec, (1, 1), (0, 0, 0))
    b = augmented_moves(spec, (1, 1), (5, 5, 5))
    assert [(l, r, x) for l, r, (x, _) in a] == [(l, r, x) for l, r, (x, _) in b]
    for (_, _, (_, fa)), (_, _, (_, fb)) in zip(a, b):
        assert [vb - va for va, vb in zip(fa, fb)] == [5, 5, 5]


def test_augment_projection_matches_population_rule():
    spec = linear_tandem()
    for x in spec.states:
        moves = augmented_moves(spec, x, (0, 0, 0))
        expected = [
            (link, spec.rate_table(link)[x], helpers.target(x, link))
            for link in spec.links
            if spec.rate_table(link)[x] > 0.0
        ]
        assert [(l, r, x2) for l, r, (x2, _) in moves] == expected


def test_augment_increments_one_counter():
    spec = linear_tandem()
    f0 = (2, 1, 0)
    for link, _, (_, f2) in augmented_moves(spec, (1, 1), f0):
        for k, other in enumerate(spec.links):
            assert f2[k] - f0[k] == (1 if other == link else 0)


# ----------------------------------------------------- balance signature


def test_signature_zero_flows_is_population():
    assert balance_signature((2, 1), (0, 0, 0), ((0, 1), (1, 2), (2, 0))) == (2, 1)


def test_signature_worked_example():
    links = ((0, 1), (1, 2), (2, 0))
    assert balance_signature((1, 1), (1, 0, 0), links) == (0, 1)
    # an array row reads the same as the tuple
    assert balance_signature((1, 1), np.array([[0, 0, 0], [1, 0, 0]])[1], links) == (0, 1)


def test_signature_invariant_under_every_transition():
    spec = linear_tandem()
    for x in spec.states:
        for f in ((0, 0, 0), (3, 1, 0), (7, 7, 7)):
            before = balance_signature(x, f, spec.links)
            for _, _, (x2, f2) in augmented_moves(spec, x, f):
                assert balance_signature(x2, f2, spec.links) == before


def test_signature_constant_along_seeded_path():
    spec = linear_tandem(3, 3, 2.0)
    log = simulate_path(spec, (1, 2), 120.0, seed=42)
    flows = log.flows()
    assert len(log.times) >= 100
    start = balance_signature(log.initial, flows[0], log.links)
    assert start == (1, 2)
    for post, row in zip(helpers.states_after(log), flows[1:]):
        assert balance_signature(post, row, log.links) == start


# ------------------------------------------------------------ simulation


def test_stateflow_matches_population_path_same_seed():
    spec = linear_tandem()
    ref, ref_absorbed = helpers.reference_simulate_path(spec, (0, 0), 40.0, 9)
    pop = simulate_path(spec, (0, 0), 40.0, seed=9)
    helpers.assert_path(pop, ref)
    assert ref_absorbed == pop.absorbed


def test_stateflow_counters_count_events():
    spec = linear_tandem()
    log = simulate_path(spec, (0, 0), 40.0, seed=9)
    final = log.flows()[-1].tolist()
    path = helpers.stateflow_events(log)
    for k, link in enumerate(log.links):
        assert final[k] == sum(1 for m in log.moves if log.links[m] == link)
        assert path[-1][3][k] == final[k]


def test_stateflow_counters_nondecreasing_integers():
    spec = linear_tandem()
    log = simulate_path(spec, (0, 0), 40.0, seed=9)
    flows = log.flows()
    assert flows.dtype == np.int64
    assert flows.shape == (len(log.times) + 1, len(log.links))
    steps = np.diff(flows, axis=0)
    assert (steps >= 0).all()
    assert (steps.sum(axis=1) == 1).all()


def test_stateflow_nonzero_start():
    """Counters offset by any start keep the balance signature constant;
    with the start f0 it is x0 minus inflow plus outflow of f0."""
    spec = linear_tandem()
    log = simulate_path(spec, (0, 0), 10.0, seed=3)
    f0 = np.array([4, 2, 2])
    flows = log.flows() + f0
    assert tuple(flows[0].tolist()) == (4, 2, 2)
    start = balance_signature(log.initial, flows[0], log.links)
    assert start == (0 - 4 + 2, 0 - 2 + 2)
    for post, row in zip(helpers.states_after(log), flows[1:]):
        assert balance_signature(post, row, log.links) == start


def test_stateflow_bad_init_rejected():
    with pytest.raises(ModelError, match="not in the state space"):
        simulate_path(linear_tandem(), (9, 9), 1.0, seed=0)


# ------------------------------------------------------------ flows()


def test_recover_empty_log_all_zero():
    spec = linear_tandem()
    log = simulate_path(spec, (0, 0), 0.0, seed=0)
    flows = log.flows()
    assert flows.shape == (1, len(spec.links))
    assert not flows.any()
    assert counters_at(log, 0.0) == (0, 0, 0)


def test_recover_counting_definition():
    links = ((0, 1), (1, 2), (2, 0))
    events = [
        helpers.Event(0.5, (0, 1), (0, 0), (1, 0)),
        helpers.Event(1.2, (1, 2), (1, 0), (0, 1)),
    ]
    log = EventLog(
        initial=(0, 0),
        times=array("d", [0.5, 1.2]),
        moves=array("q", [0, 1]),
        visits=array("q", [1, 2]),
        coords=np.array([(0, 0), (1, 0), (0, 1)]),
        horizon=2.0,
        absorbed=False,
        links=links,
    )
    helpers.assert_path(log, events)
    assert log.flows().tolist() == [[0, 0, 0], [1, 0, 0], [1, 1, 0]]
    assert counters_at(log, 1.0) == (1, 0, 0)
    assert counters_at(log, 1.2) == (1, 1, 0)
    assert counters_at(log, 0.49) == (0, 0, 0)
    assert counters_at(log, 0.5) == (1, 0, 0)  # right-continuous at the jump


def test_recover_matches_direct_stateflow():
    spec = linear_tandem(3, 2, 1.5)
    pop = simulate_path(spec, (0, 0), 60.0, seed=17)
    rows = [tuple(row) for row in pop.flows()[1:].tolist()]
    assert rows == [flows for _, _, _, flows in helpers.stateflow_events(pop)]
    for t, _, _, flows in helpers.stateflow_events(pop):
        assert counters_at(pop, t) == flows


def test_trajectory_queries_between_jumps():
    log = EventLog(
        initial=(0,),
        times=array("d", [1.0, 2.0, 3.0]),
        moves=array("q", [0, 1, 0]),
        visits=array("q", [1, 0, 1]),
        coords=np.array([(0,), (1,)]),
        horizon=4.0,
        absorbed=False,
        links=((0, 1), (1, 0)),
    )
    assert counters_at(log, 0.0) == (0, 0)
    assert counters_at(log, 1.0) == (1, 0)
    assert counters_at(log, 1.99) == (1, 0)
    assert counters_at(log, 2.5) == (1, 1)
    assert counters_at(log, 3.0) == (2, 1)
    assert log.flows()[-1].tolist() == [2, 1]


@given(st.integers(0, 2**32 - 1))
def test_recover_identity_random_seeds(seed):
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    pop = simulate_path(spec, (0,), 8.0, seed)
    sf = helpers.stateflow_events(pop)
    flows = pop.flows()
    assert [tuple(row) for row in flows[1:].tolist()] == [f for _, _, _, f in sf]
    assert tuple(flows[-1].tolist()) == (sf[-1][3] if sf else (0,) * len(pop.links))
    start = balance_signature(pop.initial, flows[0], pop.links)
    for _, _, state, f in sf:
        assert balance_signature(state, f, pop.links) == start


def test_signature_on_random_instances():
    rng = np.random.default_rng(33)
    for case in range(5):
        spec, _ = helpers.random_table_instance(rng, 2, 2)
        log = simulate_path(spec, spec.states[0], 25.0, seed=1000 + case)
        flows = log.flows()
        start = balance_signature(log.initial, flows[0], log.links)
        for post, row in zip(helpers.states_after(log), flows[1:]):
            assert balance_signature(post, row, log.links) == start
