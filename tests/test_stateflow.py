from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from floworder.ctmc import EventLog, Event, simulate_path
from floworder.model import ModelError, parse_model
from floworder.stateflow import (
    FlowTrajectory,
    balance_signature,
    recover_flows,
    zero_flows,
)
from floworder.tandem import TandemParams, build_original_tandem


def linear_tandem(s1=2, s2=2, beta=1.0):
    return build_original_tandem(TandemParams.linear(s1, s2, beta))


def augmented_moves(spec, x, flows):
    """Enabled moves of the state-flow chain at (x, flows), read off the
    per-link arrays: (link, rate, (x2, flows2)) for every positive rate."""
    i = spec.index_of(x)
    out = []
    for link in spec.links:
        rate = float(spec.rate_vector(link)[i])
        if rate > 0.0:
            f2 = dict(flows)
            f2[link] = f2.get(link, 0) + 1
            out.append((link, rate, (spec.states[spec.next_index(link)[i]], f2)))
    return out


def counters(traj, t):
    return tuple(traj.counters_at(t)[link] for link in traj.links)


# --------------------------------------------------------------- augment


def test_augment_empty_tandem_only_arrival():
    spec = linear_tandem()
    moves = augmented_moves(spec, (0, 0), zero_flows(spec.links))
    assert len(moves) == 1
    link, rate, (x2, f2) = moves[0]
    assert link == (0, 1)
    assert rate == 1.0
    assert x2 == (1, 0)
    assert f2 == {(0, 1): 1, (1, 2): 0, (2, 0): 0}


def test_augment_absorbing_state_no_moves():
    doc = {"n": 1, "space": {"box": [1]}, "rates": {"0->1": "0", "1->0": "x1"}}
    spec = parse_model(doc)
    for f in (zero_flows(spec.links), {(0, 1): 5, (1, 0): 5}):
        assert augmented_moves(spec, (0,), f) == []


def test_augment_rates_ignore_counters():
    spec = linear_tandem()
    f_zero = zero_flows(spec.links)
    f_big = {(0, 1): 5, (1, 2): 5, (2, 0): 5}
    a = augmented_moves(spec, (1, 1), f_zero)
    b = augmented_moves(spec, (1, 1), f_big)
    assert [(l, r, x) for l, r, (x, _) in a] == [(l, r, x) for l, r, (x, _) in b]
    for (_, _, (_, fa)), (_, _, (_, fb)) in zip(a, b):
        for link in spec.links:
            assert fb[link] - fa[link] == 5


def test_augment_projection_matches_population_rule():
    spec = linear_tandem()
    for x in spec.states:
        moves = augmented_moves(spec, x, zero_flows(spec.links))
        expected = [
            (link, spec.rate_table(link)[x], spec.target(x, link))
            for link in spec.links
            if spec.rate_table(link)[x] > 0.0
        ]
        assert [(l, r, x2) for l, r, (x2, _) in moves] == expected


def test_augment_increments_one_counter():
    spec = linear_tandem()
    f0 = {(0, 1): 2, (1, 2): 1, (2, 0): 0}
    for link, _, (_, f2) in augmented_moves(spec, (1, 1), f0):
        for other in spec.links:
            assert f2[other] - f0[other] == (1 if other == link else 0)


# ----------------------------------------------------- balance signature


def test_signature_zero_flows_is_population():
    assert balance_signature((2, 1), {(0, 1): 0, (1, 2): 0, (2, 0): 0}) == (2, 1)


def test_signature_worked_example():
    f = {(0, 1): 1, (1, 2): 0, (2, 0): 0}
    assert balance_signature((1, 1), f) == (0, 1)


def test_signature_invariant_under_every_transition():
    spec = linear_tandem()
    flow_set = [
        zero_flows(spec.links),
        {(0, 1): 3, (1, 2): 1, (2, 0): 0},
        {(0, 1): 7, (1, 2): 7, (2, 0): 7},
    ]
    for x in spec.states:
        for f in flow_set:
            before = balance_signature(x, f)
            for _, _, (x2, f2) in augmented_moves(spec, x, f):
                assert balance_signature(x2, f2) == before


def test_signature_constant_along_seeded_path():
    spec = linear_tandem(3, 3, 2.0)
    log = simulate_path(spec, (1, 2), 120.0, seed=42)
    traj = recover_flows(log)
    assert len(log.events) >= 100
    start = balance_signature(log.initial, traj.initial)
    assert start == (1, 2)
    for ev in log.events:
        assert balance_signature(ev.post, traj.counters_at(ev.time)) == start


# ------------------------------------------------------------ simulation


def test_stateflow_matches_population_path_same_seed():
    spec = linear_tandem()
    ref, ref_absorbed = helpers.reference_simulate_path(spec, (0, 0), 40.0, 9)
    pop = simulate_path(spec, (0, 0), 40.0, seed=9)
    assert len(ref) == len(pop.events)
    for a, b in zip(ref, pop.events):
        assert a.time == b.time
        assert a.link == b.link
        assert a.post == b.post
    assert ref_absorbed == pop.absorbed


def test_stateflow_counters_count_events():
    spec = linear_tandem()
    log = simulate_path(spec, (0, 0), 40.0, seed=9)
    final = recover_flows(log).final()
    path = helpers.stateflow_events(log)
    for k, link in enumerate(log.links):
        assert final[link] == sum(1 for ev in log.events if ev.link == link)
        assert path[-1][3][k] == final[link]


def test_stateflow_counters_nondecreasing_integers():
    spec = linear_tandem()
    log = simulate_path(spec, (0, 0), 40.0, seed=9)
    traj = recover_flows(log)
    prev = counters(traj, 0.0)
    for ev in log.events:
        flows = counters(traj, ev.time)
        assert all(isinstance(v, int) for v in flows)
        assert all(b >= a for a, b in zip(prev, flows))
        assert sum(flows) - sum(prev) == 1
        prev = flows


def test_stateflow_nonzero_start():
    spec = linear_tandem()
    log = simulate_path(spec, (0, 0), 10.0, seed=3)
    traj = recover_flows(log, {(0, 1): 4, (1, 2): 2, (2, 0): 2})
    assert counters(traj, 0.0) == (4, 2, 2)
    start = balance_signature(log.initial, traj.counters_at(0.0))
    assert start == (0 - 4 + 2, 0 - 2 + 2)
    for ev in log.events:
        assert balance_signature(ev.post, traj.counters_at(ev.time)) == start


def test_stateflow_bad_init_rejected():
    with pytest.raises(ModelError, match="not in the state space"):
        simulate_path(linear_tandem(), (9, 9), 1.0, seed=0)


# --------------------------------------------------------- recover_flows


def test_recover_empty_log_all_zero():
    spec = linear_tandem()
    log = simulate_path(spec, (0, 0), 0.0, seed=0)
    traj = recover_flows(log)
    assert traj.final() == zero_flows(spec.links)
    assert traj.counters_at(0.0) == zero_flows(spec.links)


def test_recover_counting_definition():
    links = ((0, 1), (1, 2), (2, 0))
    events = [
        Event(0.5, (0, 1), (0, 0), (1, 0)),
        Event(1.2, (1, 2), (1, 0), (0, 1)),
    ]
    log = EventLog(
        initial=(0, 0),
        times=array("d", [0.5, 1.2]),
        moves=array("q", [0, 1]),
        visits=array("q", [1, 2]),
        states=((0, 0), (1, 0), (0, 1)),
        horizon=2.0,
        absorbed=False,
        links=links,
    )
    assert log.events == events
    traj = recover_flows(log)
    assert traj.value((0, 1), 1.0) == 1
    assert traj.value((1, 2), 1.0) == 0
    assert traj.value((1, 2), 1.2) == 1
    assert traj.value((0, 1), 0.49) == 0
    assert traj.value((0, 1), 0.5) == 1  # right-continuous at the jump


def test_recover_matches_direct_stateflow():
    spec = linear_tandem(3, 2, 1.5)
    pop = simulate_path(spec, (0, 0), 60.0, seed=17)
    traj = recover_flows(pop)
    for t, _, _, flows in helpers.stateflow_events(pop):
        assert counters(traj, t) == flows


def test_recover_with_offset_start():
    spec = linear_tandem()
    pop = simulate_path(spec, (0, 0), 20.0, seed=8)
    f0 = {(0, 1): 10, (1, 2): 0, (2, 0): 5}
    traj = recover_flows(pop, f0)
    base = recover_flows(pop)
    for link in spec.links:
        assert traj.final()[link] == base.final()[link] + f0[link]


def test_trajectory_rows_and_csv():
    spec = linear_tandem()
    pop = simulate_path(spec, (0, 0), 15.0, seed=21)
    traj = recover_flows(pop)
    rows = traj.rows()
    assert len(rows) == len(pop.events)
    assert [t for t, _, _ in rows] == [ev.time for ev in pop.events]
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "time,link,counter"
    t, link, count = lines[1].split(",")
    assert float(t) == pop.events[0].time
    assert link == f"{pop.events[0].link[0]}->{pop.events[0].link[1]}"
    assert int(count) == 1


def test_trajectory_queries_between_jumps():
    links = ((0, 1), (1, 0))
    traj = FlowTrajectory(links, {(0, 1): 2}, {(0, 1): [1.0, 3.0], (1, 0): [2.0]})
    assert traj.value((0, 1), 0.0) == 2
    assert traj.value((0, 1), 1.0) == 3
    assert traj.value((0, 1), 2.5) == 3
    assert traj.value((0, 1), 3.0) == 4
    assert traj.value((1, 0), 1.99) == 0
    assert traj.final() == {(0, 1): 4, (1, 0): 1}


@given(st.integers(0, 2**32 - 1))
def test_recover_identity_random_seeds(seed):
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    pop = simulate_path(spec, (0,), 8.0, seed)
    sf = helpers.stateflow_events(pop)
    traj = recover_flows(pop)
    final = traj.final()
    assert tuple(final[link] for link in pop.links) == (
        sf[-1][3] if sf else (0,) * len(pop.links)
    )
    start = balance_signature(pop.initial, zero_flows(pop.links))
    for _, _, state, flows in sf:
        assert balance_signature(state, dict(zip(pop.links, flows))) == start


def test_signature_on_random_instances():
    rng = np.random.default_rng(33)
    for case in range(5):
        spec, _ = helpers.random_table_instance(rng, 2, 2)
        log = simulate_path(spec, spec.states[0], 25.0, seed=1000 + case)
        traj = recover_flows(log)
        start = balance_signature(log.initial, traj.initial)
        for ev in log.events:
            assert balance_signature(ev.post, traj.counters_at(ev.time)) == start
