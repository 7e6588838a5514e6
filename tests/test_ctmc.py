import dataclasses
import gc
import hashlib
import math
import tracemalloc
import warnings
import weakref
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm
from scipy.sparse import find
from scipy.sparse._base import _spbase

import helpers
from floworder import coupling, ctmc
from floworder.coupling import paired_log_csv, simulate_coupled
from floworder.ctmc import (
    ConvergenceError,
    EventLog,
    ReducibleChainError,
    SolverError,
    ToleranceError,
    build_generator,
    distribution_csv,
    distribution_vector,
    event_log_csv,
    gillespie,
    simulate_path,
    stationary_distribution,
    throughput,
    transient_distribution,
    transient_mean_flow,
)
from floworder.expr import parse_expression
from floworder.model import ModelError, NetworkSpec, linear_links, parse_model
from floworder.ordering import mean_order_check
from floworder.rng import make_stream
from floworder.tandem import TandemParams, build_balanced_tandem, build_original_tandem


# ------------------------------------------------------------ generator


def off_diagonal(gen):
    """(src, dst, rate) of every move: the off-diagonal entries of the generator."""
    rows, cols, vals = find(gen.matrix)
    keep = rows != cols
    return list(zip(rows[keep].tolist(), cols[keep].tolist(), vals[keep].tolist()))


def move_link(spec, src, dst):
    """The one link whose move from state index src positively leads to dst."""
    (link,) = [
        link
        for link in spec.links
        if spec.rate_vector(link)[src] > 0.0 and spec.next_index(link)[src] == dst
    ]
    return link


def test_generator_two_state_entries():
    gen = build_generator(helpers.two_state_chain())
    assert len(off_diagonal(gen)) == 2
    states = list(map(tuple, gen.coords.tolist()))
    moves = {(states[i], states[j]): r for i, j, r in off_diagonal(gen)}
    assert moves[((0,), (1,))] == 1.0
    assert moves[((1,), (0,))] == 1.0
    assert gen.unif_rate == 1.0


def test_generator_blocked_transfer_at_full_downstream():
    spec = build_original_tandem(TandemParams.linear(1, 1, 1.0))
    gen = build_generator(spec)
    src = spec.find((1, 1))
    out = [(move_link(spec, i, j), r) for i, j, r in off_diagonal(gen) if i == src]
    # transfer 1->2 is shut off when the second buffer is full
    assert out == [((2, 0), 1.0)]
    assert spec.rate_vector((2, 0))[src] == 1.0


def test_generator_all_zero_rates():
    doc = {"n": 1, "space": {"box": [1]}, "rates": {"0->1": "0", "1->0": "0"}}
    gen = build_generator(parse_model(doc))
    assert gen.matrix.nnz == 0
    assert gen.unif_rate == 0.0
    assert off_diagonal(gen) == []


def test_generator_row_sums_vanish():
    specs = [
        helpers.two_state_chain(),
        helpers.mm1c_chain(1.0, 2.0, 2),
        build_original_tandem(TandemParams.linear(2, 2, 1.0)),
        build_balanced_tandem(TandemParams.linear(2, 2, 1.0)),
    ]
    rng = np.random.default_rng(7)
    specs += [helpers.random_table_instance(rng, 2, 2)[0] for _ in range(5)]
    for spec in specs:
        q = build_generator(spec).matrix.toarray()
        assert np.abs(q.sum(axis=1)).max() < 1e-12
        off = q - np.diag(np.diag(q))
        assert off.min() >= 0.0


def test_generator_matches_dense_oracle():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    q = build_generator(spec).matrix.toarray()
    assert np.abs(q - helpers.dense_q(spec)).max() == 0.0


# ------------------------------------------------------------ simulation


def test_zero_horizon_empty_log():
    log = simulate_path(helpers.two_state_chain(), (0,), 0.0, seed=1)
    assert len(log.times) == len(log.moves) == len(log.visits) == 0
    assert not log.absorbed


def test_absorbing_start_flagged():
    doc = {"n": 1, "space": {"box": [1]}, "rates": {"0->1": "0", "1->0": "x1"}}
    log = simulate_path(parse_model(doc), (0,), 5.0, seed=1)
    assert len(log.times) == len(log.moves) == len(log.visits) == 0
    assert log.absorbed


def test_drain_path_absorbs_at_zero():
    doc = {"n": 1, "space": {"box": [3]}, "rates": {"0->1": "0", "1->0": "x1"}}
    log = simulate_path(parse_model(doc), (3,), 1e9, seed=4)
    assert helpers.states_after(log) == [(2,), (1,), (0,)]
    assert log.absorbed


def test_switching_rate_matches_stationary_oracle():
    spec = helpers.two_state_chain()
    log = simulate_path(spec, (0,), 1000.0, seed=20260822)
    pi = stationary_distribution(build_generator(spec))
    oracle = throughput(spec, pi, (0, 1)) + throughput(spec, pi, (1, 0))
    assert oracle == pytest.approx(1.0)
    assert abs(len(log.times) / 1000.0 - oracle) <= 0.1


def test_init_outside_space_rejected():
    with pytest.raises(ModelError, match="not in the state space"):
        simulate_path(helpers.two_state_chain(), (7,), 1.0, seed=0)


def test_negative_horizon_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_path(helpers.two_state_chain(), (0,), -1.0, seed=0)


def test_same_seed_bit_identical():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    a = simulate_path(spec, (0, 0), 50.0, seed=99)
    b = simulate_path(spec, (0, 0), 50.0, seed=99)
    assert a == b
    c = simulate_path(spec, (0, 0), 50.0, seed=100)
    assert a != c


def test_event_chain_and_flow_conservation():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    log = simulate_path(spec, (0, 0), 30.0, seed=5)
    assert len(log.times) > 10
    x = log.initial
    counts = {link: 0 for link in spec.links}
    prev_t = 0.0
    for t, k, post in zip(log.times, log.moves, helpers.states_after(log)):
        link = log.links[k]
        assert t > prev_t
        assert post == helpers.target(x, link)
        counts[link] += 1
        x = post
        prev_t = t
        for node in range(1, spec.n + 1):
            inflow = sum(counts[l] for l in spec.links if l[1] == node)
            outflow = sum(counts[l] for l in spec.links if l[0] == node)
            assert x[node - 1] - log.initial[node - 1] == inflow - outflow


def state_at(log, t):
    """The state at time t, right-continuous: the state after the last
    event at or before t, read off the visits column."""
    e = bisect_right(log.times, t)
    return tuple(log.coords[log.visits[e - 1]].tolist()) if e else log.initial


def test_state_at_steps_through_log():
    spec = helpers.two_state_chain()
    log = simulate_path(spec, (0,), 10.0, seed=3)
    assert state_at(log, 0.0) == (0,)
    posts = helpers.states_after(log)
    assert state_at(log, log.times[0] / 2) == (0,)
    assert state_at(log, log.times[0]) == posts[0]
    assert state_at(log, 10.0) == posts[-1]
    for e, (t, i) in enumerate(zip(log.times, log.visits)):
        assert state_at(log, t) == tuple(log.coords[i].tolist()) == posts[e]


@pytest.mark.parametrize("horizon", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("simulator", ["simulate_path", "simulate_coupled"])
def test_non_finite_horizon_rejected(simulator, horizon):
    spec = helpers.two_state_chain()
    with pytest.raises(ValueError, match="horizon must be finite"):
        if simulator == "simulate_path":
            simulate_path(spec, (0,), horizon, seed=0)
        else:
            simulate_coupled(spec, spec, (0,), (0,), horizon, seed=0)


def test_moves_leaving_the_space_rejected():
    # built directly, not parsed: no spec with an escaping rate reaches the
    # generator or the simulators, since construction refuses it
    params = {"b": 2.0}
    with pytest.raises(ModelError) as err:
        NetworkSpec(
            n=1,
            links=linear_links(1),
            states=((0,), (1,)),
            rates={
                (0, 1): parse_expression("b", 1, params),
                (1, 0): parse_expression("x1", 1, params),
            },
            params=params,
        )
    assert str(err.value) == (
        "rate for link 0->1 is positive at state (1,) "
        "but the move leaves the state space; set clamp to allow this"
    )


def kernel_row(rates, total):
    """Rows of one state 0, with its bin rates as simulate_path builds them and
    `total` in place of their sum; every bin moves back to state 0."""
    _, cumulative, last, targets = ctmc._link_row(rates, [0] * len(rates))
    return {0: (total, cumulative, last, targets)}


def test_kernel_rounding_fallback_picks_last_positive_bin():
    # A total above the sum of the bins sends most draws past the last
    # running sum, which is where rounding would otherwise send them.
    _, bins, _, _ = gillespie(kernel_row([0.5, 0.5, 0.0], 4.0), 0, 50.0, seed=3)
    rng = make_stream(3)
    expected = []
    for _ in bins:
        helpers.exponential(rng, 4.0)
        expected.append(0 if rng.random() * 4.0 < 0.5 else 1)
    assert list(bins) == expected
    assert expected.count(1) > 2 * expected.count(0)


def test_kernel_fallback_reads_a_rate_that_vanishes_in_the_running_sum():
    # 1e17 + 1.0 == 1e17, so the running sums cannot show that bin 1 is
    # positive; the fallback must still pick it, never bin 0 or bin 2.
    rows = kernel_row([1e17, 1.0, 0.0], 2e17)
    _, cumulative, last, _ = rows[0]
    assert cumulative[0] == cumulative[1] == cumulative[2] and last == 1
    _, bins, _, _ = gillespie(rows, 0, 1e-15, seed=5)
    rng = make_stream(5)
    expected = []
    for _ in bins:
        helpers.exponential(rng, 2e17)
        expected.append(0 if rng.random() * 2e17 < 1e17 else 1)
    assert list(bins) == expected
    assert expected.count(0) > 20 and expected.count(1) > 20


class StubStream:
    """Hands out fixed blocks of uniforms, checking each request's size."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def random(self, size):
        block = self.blocks.pop(0)
        assert size == len(block)
        return np.array(block)


def test_kernel_rejects_a_zero_uniform_at_a_block_edge(monkeypatch):
    # Block 1 ends with a zero where the second holding time is drawn: it
    # is rejected and the holding time takes block 2's first uniform.
    monkeypatch.setattr(ctmc, "_BLOCK", 3)
    stub = StubStream([[0.5, 0.25, 0.0], [0.75, 0.5, 0.9]])
    monkeypatch.setattr(ctmc, "make_stream", lambda seed: stub)
    t1 = -math.log1p(-0.5) / 2.0
    t2 = t1 + -math.log1p(-0.75) / 2.0
    rows = ctmc._Rows(lambda s: (2.0, [1.0, 2.0], 1, [s + 1, s + 1]))
    times, bins, states, absorbed = gillespie(rows, 0, t2 + 0.1, seed=0)
    assert list(times) == [t1, t2]
    assert list(bins) == [0, 1]  # 0.25 * 2 < 1.0; 0.5 * 2 is not
    assert list(states) == [1, 2]
    assert not absorbed
    assert stub.blocks == []


def test_simulators_build_rows_only_for_the_states_they_visit(monkeypatch):
    """A path builds a kernel row on each first visit and none before, and
    its writer labels only what it visited: on the 90,601-state tandem a
    short path costs its events, not the state space."""
    built = []

    def counting(rows, state, horizon, seed):
        path = gillespie(rows, state, horizon, seed)
        built.append(set(rows))  # a _Rows keeps every row it built
        return path

    monkeypatch.setattr(ctmc, "gillespie", counting)
    monkeypatch.setattr(coupling, "gillespie", counting)
    params = TandemParams.linear(300, 300, 300.0)
    spec_a, spec_b = build_balanced_tandem(params), build_original_tandem(params)
    log = simulate_path(spec_b, (0, 0), 1.0, seed=7)
    rows = built.pop()
    assert rows == {spec_b.find((0, 0)), *log.visits} and len(rows) <= len(log.times) + 1
    assert "".join(event_log_csv(log)) == helpers.whole_event_log_csv(log)
    log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 1.0, seed=7)
    rows = built.pop()
    assert rows == {0, *log.pairs} and len(rows) <= len(log.times) + 1
    assert "".join(paired_log_csv(log)) == helpers.whole_paired_log_csv(log)


@pytest.fixture
def million_state_pair():
    """The s1 = s2 = 1000 tandem pair: 1,002,000 balanced and 1,002,001
    original states, about 100 MB, freed after each test."""
    params = TandemParams.linear(1000, 1000, 1000.0)
    return build_balanced_tandem(params), build_original_tandem(params)


@pytest.mark.parametrize(
    "simulate, write, columns, path_sha, csv_sha",
    [
        (
            lambda a, b: simulate_path(b, (0, 0), 0.05, seed=7),
            event_log_csv,
            ("times", "moves", "visits"),
            "e0edc2c1e8d22f5406f56fadf38fcda05d0794d03fcbc339d75fcae1cd3e8806",
            "94964b1e6fd4f3fe71847fa7443e10ec44232d5c461a2a7e9cf8979d171ea4cb",
        ),
        (
            lambda a, b: simulate_coupled(a, b, (0, 0), (0, 0), 0.05, seed=7),
            paired_log_csv,
            ("times", "bins", "pairs"),
            "029110a66663a33ec9dd401905b72255ac844720b6b567f1c6371e9a7aeb75cc",
            "d0d811496b2fc7e73d218e79181bab180305088b527c6a07bce24fabff8950df",
        ),
    ],
    ids=["simulate_path", "simulate_coupled"],
)
def test_short_path_memory_does_not_grow_with_the_space(
    million_state_pair, simulate, write, columns, path_sha, csv_sha
):
    """A 51-event path on the million-state pair, simulated and written,
    keeps its traced peak under 4 MiB: beyond the column compare that
    finds the start, rows and labels are made for visited states only.
    Running sums over every state and a label list over every row peaked
    at 24 MiB (simulate_path) and 15 MiB (simulate_coupled). The path's
    columns and the CSV bytes are unchanged."""
    text = hashlib.sha256()
    tracemalloc.start()
    try:
        log = simulate(*million_state_pair)
        for chunk in write(log):
            text.update(chunk.encode("ascii"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    path = hashlib.sha256()
    for name in columns:
        path.update(getattr(log, name).tobytes())
    assert len(log.times) == 51
    assert path.hexdigest() == path_sha
    assert text.hexdigest() == csv_sha
    assert peak < 4 * 2**20


def test_logs_are_freed_without_the_cyclic_collector():
    """A log holds no reference to itself (its decoded views hold arrays
    only), so a finished replication is freed when it is dropped."""
    params = TandemParams.linear(3, 3, 2.0)
    spec_a, spec_b = build_balanced_tandem(params), build_original_tandem(params)
    gc.disable()
    try:
        log = simulate_path(spec_b, (0, 0), 10.0, seed=1)
        assert len(log.times) > 0 and log.flows()[-1].sum() == len(log.times)
        path = weakref.ref(log)
        del log
        assert path() is None
        log = simulate_coupled(spec_a, spec_b, (0, 0), (0, 0), 10.0, seed=1)
        assert len(log.times) > 0 and len(log.visits("a")) == len(log.flows("b")) - 1
        coupled = weakref.ref(log)
        del log
        assert coupled() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_paths_across_many_blocks_match_reference_loops(monkeypatch, seed):
    monkeypatch.setattr(ctmc, "_BLOCK", 7)
    spec_a = build_balanced_tandem(TandemParams.linear(3, 3, 2.0))
    spec_b = build_original_tandem(TandemParams.linear(3, 3, 2.0))
    log = simulate_path(spec_b, (0, 0), 10.0, seed)
    events, absorbed = helpers.reference_simulate_path(spec_b, (0, 0), 10.0, seed)
    assert 2 * len(events) > 3 * ctmc._BLOCK  # two uniforms an event: three refills or more
    helpers.assert_path(log, events)
    assert log.absorbed == absorbed
    log = simulate_coupled(spec_a, spec_b, (1, 0), (0, 1), 10.0, seed)
    events, absorbed = helpers.reference_simulate_coupled(
        spec_a, spec_b, (1, 0), (0, 1), 10.0, seed
    )
    assert 2 * len(events) > 3 * ctmc._BLOCK
    helpers.assert_coupled_path(log, events)
    assert log.absorbed == absorbed


@given(
    st.lists(st.floats(0.05, 3.0), min_size=5, max_size=5),
    st.sampled_from(["original", "balanced"]),
    st.integers(0, 2**32 - 1),
)
def test_path_matches_reference_loop_on_tandems(values, variant, seed):
    beta, a1, a2, b1, b2 = values
    params = TandemParams(s1=2, s2=2, beta=beta, delta1=(0.0, a1, a2), delta2=(0.0, b1, b2))
    build = build_original_tandem if variant == "original" else build_balanced_tandem
    spec = build(params)
    log = simulate_path(spec, (1, 0), 20.0, seed)
    events, absorbed = helpers.reference_simulate_path(spec, (1, 0), 20.0, seed)
    helpers.assert_path(log, events)
    assert log.absorbed == absorbed


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.integers(1, 2),
    st.sampled_from([0.0, 0.5]),
    st.integers(0, 2**32 - 1),
)
def test_path_matches_reference_loop(table_seed, c1, c2, p_zero, seed):
    rng = np.random.default_rng(table_seed)
    spec, _ = helpers.random_table_instance(rng, c1, c2, p_zero)
    init = spec.states[int(rng.integers(len(spec.states)))]
    log = simulate_path(spec, init, 20.0, seed)
    events, absorbed = helpers.reference_simulate_path(spec, init, 20.0, seed)
    helpers.assert_path(log, events)
    assert log.absorbed == absorbed


@given(st.integers(0, 2**32 - 1))
def test_path_validity_random_seeds(seed):
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    log = simulate_path(spec, (0,), 5.0, seed)
    x = log.initial
    t = 0.0
    for time, k, post in zip(log.times, log.moves, helpers.states_after(log)):
        assert time > t
        assert time <= 5.0
        assert post == helpers.target(x, log.links[k])
        assert spec.find(post) >= 0
        x = post
        t = time


# ------------------------------------------------------------ stationary


def test_stationary_two_state_symmetric():
    pi = stationary_distribution(build_generator(helpers.two_state_chain()))
    assert pi == pytest.approx([0.5, 0.5], abs=1e-12)


def test_stationary_birth_death_detailed_balance():
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    pi = stationary_distribution(build_generator(spec))
    # birth-death chain: pi(k+1)/pi(k) = lambda/mu, frozen from that relation
    assert pi == pytest.approx([4 / 7, 2 / 7, 1 / 7], abs=1e-12)


def test_stationary_balanced_tandem_matches_nullspace():
    spec = build_balanced_tandem(TandemParams.linear(2, 2, 1.0))
    assert len(spec.states) == 8
    pi = stationary_distribution(build_generator(spec))
    oracle = helpers.nullspace_stationary(helpers.dense_q(spec))
    assert np.abs(pi - oracle).max() < 1e-10


def test_stationary_residual_below_tol():
    spec = build_original_tandem(TandemParams.linear(3, 3, 1.0))
    gen = build_generator(spec)
    pi = stationary_distribution(gen, tol=1e-12)
    assert float(np.abs(pi @ gen.matrix).max()) < 1e-12
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert pi.min() >= 0.0


def test_stationary_node_balance():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    pi = stationary_distribution(build_generator(spec))
    t01 = throughput(spec, pi, (0, 1))
    t12 = throughput(spec, pi, (1, 2))
    t20 = throughput(spec, pi, (2, 0))
    assert abs(t01 - t12) < 1e-10
    assert abs(t12 - t20) < 1e-10


def test_stationary_with_transient_states():
    doc = {"n": 1, "space": {"box": [2]}, "rates": {"0->1": "0", "1->0": "x1"}}
    pi = stationary_distribution(build_generator(parse_model(doc)))
    assert pi == pytest.approx([1.0, 0.0, 0.0], abs=0)


@pytest.mark.parametrize("build", [build_original_tandem, build_balanced_tandem])
@pytest.mark.parametrize("permutation", ["reversed", "shuffled"])
def test_permuted_spec_gives_the_permuted_solutions(build, permutation):
    """A spec built directly with its states out of lexicographic order has
    its generator rows sorted, so every solver gives the sorted spec's
    answers, permuted. Without the sort, the reversed 2x2 original raised
    ConvergenceError (residual 0.33), its CSR columns read unsorted."""
    spec = build(TandemParams.linear(2, 3, 1.0))
    m = len(spec.states)
    if permutation == "reversed":
        order = np.arange(m)[::-1]
    else:
        order = np.random.default_rng(3).permutation(m)
    permuted = helpers.permuted_spec(spec, order.tolist())
    gen, gen_permuted = build_generator(spec), build_generator(permuted)
    assert gen.matrix.has_canonical_format and gen_permuted.matrix.has_canonical_format
    pi, pi_permuted = stationary_distribution(gen), stationary_distribution(gen_permuted)
    assert np.abs(pi_permuted - pi[order]).max() < 1e-12
    for link in spec.links:
        assert abs(throughput(permuted, pi_permuted, link) - throughput(spec, pi, link)) < 1e-12
        means = transient_mean_flow(spec, (1, 1), link, (0.5, 2.0))
        means_permuted = transient_mean_flow(permuted, (1, 1), link, (0.5, 2.0))
        assert np.abs(np.subtract(means_permuted, means)).max() < 1e-12


def test_stationary_stiff_large_tandem_solves():
    # 2,601 states with arrivals 1e4 times faster than service.
    spec = build_original_tandem(TandemParams.linear(50, 50, 1e4))
    gen = build_generator(spec)
    pi = stationary_distribution(gen)
    assert float(np.abs(pi @ gen.matrix).max()) < 1e-12
    t01, t12, t20 = (throughput(spec, pi, link) for link in spec.links)
    assert abs(t01 - t12) < 1e-10
    assert abs(t12 - t20) < 1e-10


@pytest.mark.parametrize("s, beta", [(10, 1e-3), (20, 1e-6), (10, 1e4)])
def test_stationary_extreme_beta_matches_nullspace(s, beta):
    spec = build_original_tandem(TandemParams.linear(s, s, beta))
    pi = stationary_distribution(build_generator(spec))
    oracle = helpers.nullspace_stationary(helpers.dense_q(spec))
    assert np.abs(pi - oracle).max() < 1e-10


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_stationary_random_tables_match_nullspace(seed, c1, c2):
    spec, _ = helpers.random_table_instance(np.random.default_rng(seed), c1, c2)
    gen = build_generator(spec)
    q = helpers.dense_q(spec)
    try:
        pi = stationary_distribution(gen)
    except ReducibleChainError as exc:
        assert len(exc.classes) > 1
        assert np.linalg.matrix_rank(q) < len(spec.states) - 1
        return
    assert np.abs(pi - helpers.nullspace_stationary(q)).max() < 1e-10


def test_stationary_zero_tolerance_raises():
    gen = build_generator(build_original_tandem(TandemParams.linear(2, 2, 1.0)))
    with pytest.raises(ConvergenceError) as exc:
        stationary_distribution(gen, tol=0.0)
    assert exc.value.residual >= 0.0
    assert str(exc.value).startswith("stationary residual ")
    assert str(exc.value).endswith(" above tolerance 0")


def scaled_generator(gen, c):
    """The generator of the same chain run c times as fast: c·Q."""
    return dataclasses.replace(gen, matrix=gen.matrix * c, unif_rate=gen.unif_rate * c)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e8])
def test_stationary_verdict_does_not_depend_on_the_time_unit(c):
    """max|pi Q| grows with the rates and is checked relative to the
    largest exit rate: Q and c·Q are both accepted and give the same pi.
    The stiff tandem with beta = 1e8 passes too."""
    gen = build_generator(build_original_tandem(TandemParams.linear(2, 2, 1.0)))
    pi = stationary_distribution(gen)
    assert np.abs(stationary_distribution(scaled_generator(gen, c)) - pi).max() < 1e-14
    stiff = build_generator(build_original_tandem(TandemParams.linear(2, 2, 1e8)))
    stiff_pi = stationary_distribution(stiff)
    assert np.abs(stationary_distribution(scaled_generator(stiff, c)) - stiff_pi).max() < 1e-14


def perturb_solves(monkeypatch):
    """Every sparse LU solve returns its answer with every other entry off
    by a relative error of 1e-6."""
    import scipy.sparse.linalg

    factorise = scipy.sparse.linalg.splu

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            x[::2] *= 1 + 1e-6
            return x

    monkeypatch.setattr(
        scipy.sparse.linalg, "splu", lambda *args, **kw: Perturbed(factorise(*args, **kw))
    )


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e8])
def test_stationary_rejects_a_perturbed_vector_at_every_time_unit(c, monkeypatch):
    """A relative error of 1e-6 in every other entry of the solves is
    rejected whatever the rates' scale."""
    perturb_solves(monkeypatch)
    gen = build_generator(build_original_tandem(TandemParams.linear(2, 2, 1.0)))
    with pytest.raises(ConvergenceError) as exc:
        stationary_distribution(scaled_generator(gen, c))
    assert exc.value.residual > 1e-9


# State 2 is never entered and leaves at rate 1e6; the recurrent class
# {0, 1} moves at rate 1.
FAST_TRANSIENT_DOC = {
    "n": 1,
    "space": {"list": [[0], [1], [2]]},
    "rates": {"0->1": "ind(x1 = 0)", "1->0": "ind(x1 = 1) + 1e6 * ind(x1 = 2)"},
}


def test_stationary_residual_is_relative_to_the_recurrent_class(monkeypatch):
    """The residual is measured on the recurrent class and divided by its
    largest exit rate, 1, not by the chain's, 1e6: a vector off by 1e-6
    is rejected, though its residual over 1e6 would pass."""
    gen = build_generator(parse_model(FAST_TRANSIENT_DOC))
    assert gen.unif_rate == 1e6
    assert stationary_distribution(gen) == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
    perturb_solves(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        stationary_distribution(gen)
    assert 1e-7 < exc.value.residual < 1e-6
    assert exc.value.residual / 1e6 < 1e-12


TWO_CLASS_DOC = {
    "n": 1,
    "space": {"list": [[0], [1], [3], [4]]},
    "rates": {
        "0->1": "ind(x1 = 0) + ind(x1 = 3)",
        "1->0": "ind(x1 = 1) + ind(x1 = 4)",
    },
}


def assert_recurrent_class_matches_reference(spec):
    """The members, or the classes ReducibleChainError lists, equal the dense oracle's."""
    expected = helpers.reference_recurrent_classes(spec)
    gen = build_generator(spec)
    if len(expected) == 1:
        assert ctmc._recurrent_class(gen).tolist() == expected[0]
        return
    with pytest.raises(ReducibleChainError) as exc:
        ctmc._recurrent_class(gen)
    assert sorted(sorted(spec.find(x) for x in c) for c in exc.value.classes) == expected


@given(
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.sampled_from([0.0, 0.5])
)
def test_recurrent_class_matches_dense_reachability(seed, c1, c2, p_zero):
    # p_zero = 0.5 makes most chains reducible, 0.0 most of them irreducible
    spec, _ = helpers.random_table_instance(np.random.default_rng(seed), c1, c2, p_zero)
    assert_recurrent_class_matches_reference(spec)


def test_recurrent_classes_of_two_class_chain_match_dense_reachability():
    assert_recurrent_class_matches_reference(parse_model(TWO_CLASS_DOC))


def test_two_recurrent_classes_rejected():
    gen = build_generator(parse_model(TWO_CLASS_DOC))
    with pytest.raises(ReducibleChainError) as exc:
        stationary_distribution(gen)
    classes = sorted(sorted(c) for c in exc.value.classes)
    assert classes == [[(0,), (1,)], [(3,), (4,)]]


# ------------------------------------- direct assembly and solve vs oracles


def assert_csr_equal(a, b):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def assert_stationary_matches_reference(spec):
    """Same generator arrays as the COO build, and the same pi bytes as the
    reindexed, identity-shifted solve, or the same error."""
    gen = build_generator(spec)
    assert_csr_equal(gen.matrix, helpers.reference_generator(spec))
    try:
        expected = helpers.reference_stationary(gen)
    except (ReducibleChainError, ConvergenceError) as exc:
        with pytest.raises(type(exc)) as got:
            stationary_distribution(gen)
        assert str(got.value) == str(exc)
        if isinstance(exc, ReducibleChainError):
            assert got.value.classes == exc.classes
        return
    assert stationary_distribution(gen).tobytes() == expected.tobytes()


@given(
    st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 4), st.sampled_from([0.0, 0.5])
)
def test_generator_and_stationary_match_reference_on_random_tables(seed, c1, c2, p_zero):
    spec, _ = helpers.random_table_instance(np.random.default_rng(seed), c1, c2, p_zero)
    assert_stationary_matches_reference(spec)


@pytest.mark.parametrize("beta", [1e-3, 1.0, 1e4])
@pytest.mark.parametrize("build", [build_original_tandem, build_balanced_tandem])
@pytest.mark.parametrize("s", [1, 4, 12])
def test_generator_and_stationary_match_reference_on_tandems(s, build, beta):
    assert_stationary_matches_reference(build(TandemParams.linear(s, s + 1, beta)))


def test_stationary_matches_reference_with_transient_states():
    """A class smaller than the space is cut out of the matrix, as before."""
    doc = {
        "n": 1,
        "space": {"box": [3]},
        "rates": {"0->1": "ind(x1 < 3)", "1->0": "ind(1 < x1)"},  # state 0 is left for good
    }
    spec = parse_model(doc)
    assert ctmc._recurrent_class(build_generator(spec)).tolist() == [1, 2, 3]
    assert_stationary_matches_reference(spec)


# ------------------------------------------------------------- transient


def test_transient_zero_time_is_identity():
    gen = build_generator(helpers.two_state_chain())
    p = transient_distribution(gen, (1,), 0.0)
    assert p.tolist() == [0.0, 1.0]


def test_transient_two_state_closed_form():
    gen = build_generator(helpers.two_state_chain())
    for t in (0.3, 1.0, 20.0):
        p = transient_distribution(gen, (0,), t, tol=1e-13)
        # p0(t) = 1/2 (1 + exp(-2t)) for the symmetric switch
        assert abs(p[0] - 0.5 * (1.0 + math.exp(-2.0 * t))) < 1e-12
    p = transient_distribution(gen, (0,), 20.0, tol=1e-13)
    assert p == pytest.approx([0.5, 0.5], abs=1e-12)


def test_transient_matches_rk4_oracle():
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    gen = build_generator(spec)
    p = transient_distribution(gen, (0,), 1.0, tol=1e-12)
    q = helpers.dense_q(spec)
    oracle = helpers.rk4_transient(q, np.array([1.0, 0.0, 0.0]), 1.0)
    assert np.abs(p - oracle).max() < 1e-6


def test_transient_semigroup():
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    gen = build_generator(spec)
    tol = 1e-12
    direct = transient_distribution(gen, (0,), 1.2, tol=tol)
    staged = transient_distribution(
        gen, transient_distribution(gen, (0,), 0.7, tol=tol), 0.5, tol=tol
    )
    assert np.abs(direct - staged).max() < 2 * tol


def test_transient_long_horizon_chunking():
    spec = helpers.mm1c_chain(100.0, 200.0, 2)
    gen = build_generator(spec)
    assert gen.unif_rate * 10.0 > 500.0  # exp(-q) underflows at q = 3000
    p = transient_distribution(gen, (0,), 10.0, tol=1e-12)
    pi = stationary_distribution(gen)
    assert np.abs(p - pi).max() < 1e-9


def test_transient_long_horizon_matches_expm():
    # a slow drift up past a fast reflecting top state: q = 1200 but far
    # from stationary at t = 2
    spec = parse_model(
        helpers.single_node_doc("0.05 * ind(x1 < 3)", "600 * ind(x1 = 3)", 3)
    )
    gen = build_generator(spec)
    assert gen.unif_rate * 2.0 > 500.0
    p = transient_distribution(gen, (0,), 2.0, tol=1e-12)
    oracle = expm(helpers.dense_q(spec) * 2.0)[0]
    assert oracle[0] < 0.95
    assert np.abs(p - oracle).max() < 1e-11


def test_transient_preserves_mass_and_sign():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    gen = build_generator(spec)
    p = transient_distribution(gen, (0, 0), 3.0, tol=1e-12)
    assert p.min() >= 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_overflowing_poisson_mean_raises_solver_error():
    """Lambda * t = inf has no truncation depth: a SolverError, not an OverflowError."""
    spec = build_original_tandem(TandemParams.linear(2, 2, 1e308))
    with pytest.raises(SolverError, match=r"Lambda\*t = inf"):
        transient_distribution(build_generator(spec), (0, 0), 10.0)
    with pytest.raises(SolverError, match=r"Lambda\*t = inf"):
        transient_mean_flow(spec, (0, 0), (0, 1), (0.0, 10.0))


def test_poisson_depth_above_the_limit_raises_before_allocating():
    """A Lambda * t whose truncation depth passes the limit is refused before
    its weight arrays are laid out (2e6 would take four 16 MB arrays)."""
    q = 2e6
    assert int(q + 40.0 * math.sqrt(q) + 200.0) > ctmc._MAX_POISSON_DEPTH
    tracemalloc.start()
    try:
        with pytest.raises(SolverError, match=r"Lambda\*t = 2e\+06 needs truncation depth 2056768,"):
            ctmc._poisson_weights(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    spec = build_original_tandem(TandemParams.linear(2, 2, 1e20))
    with pytest.raises(SolverError, match="above the limit 1000000"):
        transient_distribution(build_generator(spec), (0, 0), 1.0)
    with pytest.raises(SolverError, match="above the limit 1000000"):
        transient_mean_flow(spec, (0, 0), (0, 1), (0.0, 1.0))


@pytest.mark.parametrize("q", [5e-324, 1e-310])
def test_subnormal_poisson_mean_gives_weights_without_a_warning(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, tail = ctmc._poisson_weights(q)
    assert w.size == 201
    assert w[0] == 1.0 and w[1] == q and not w[2:].any()
    assert tail[0] == q and not tail[1:].any()


def assert_transient_matches_reference(spec, p0, times):
    """The cached P^T is scipy's I + Q / Lambda transposed, and both solvers
    are bit-equal to the reference loops that take powers as vec @ P."""
    gen = build_generator(spec)
    if gen.unif_rate > 0.0:
        kernel_t, reference = gen.transposed_kernel(), helpers.reference_kernel(gen)
        assert kernel_t.format == "csc" and kernel_t is gen.transposed_kernel()
        for name in ("data", "indices", "indptr"):
            got, want = getattr(kernel_t, name), getattr(reference, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # An absorbing state's row of P is the identity's alone.
        for i in np.flatnonzero(np.diff(gen.matrix.indptr) == 0).tolist():
            column = slice(kernel_t.indptr[i], kernel_t.indptr[i + 1])
            assert kernel_t.indices[column].tolist() == [i]
            assert kernel_t.data[column].tolist() == [1.0]
    for t in times:
        got = transient_distribution(gen, p0, t)
        assert got.tobytes() == helpers.reference_transient_distribution(gen, p0, t).tobytes()
    for link in spec.links:
        got = transient_mean_flow(spec, p0, link, times)
        assert repr(got) == repr(helpers.reference_transient_mean_flow(spec, p0, link, times))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.5]),
    st.booleans(),
)
def test_transient_solvers_match_reference_loops_on_random_tables(seed, c1, c2, p_zero, dense):
    rng = np.random.default_rng(seed)
    spec, _ = helpers.random_table_instance(rng, c1, c2, p_zero)
    m = len(spec.states)
    p0 = rng.dirichlet(np.ones(m)) if dense else spec.states[rng.integers(m)]
    times = (0.0,) + tuple(sorted(rng.uniform(0.0, 5.0, 2).tolist()))
    assert_transient_matches_reference(spec, p0, times)


@pytest.mark.parametrize("beta", [1e-3, 1.0, 1e4])
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([build_original_tandem, build_balanced_tandem]),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_transient_solvers_match_reference_loops_on_tandems(beta, s1, s2, build, shares, seed):
    spec = build(TandemParams.linear(s1, s2, beta))
    start = spec.states[np.random.default_rng(seed).integers(len(spec.states))]
    horizon = 20.0 / max(1.0, beta)  # Lambda <= max(1, beta) + 4, so Lambda t <= 100
    assert_transient_matches_reference(spec, start, tuple(f * horizon for f in shares))


def test_transient_solvers_match_reference_loops_with_a_dropped_diagonal():
    """Exit rates 2, 4, 2: the middle state's entry of P is 1 - 4 / 4 = 0.0,
    which I + Q / Lambda does not store."""
    spec = helpers.mm1c_chain(2.0, 2.0, 2)
    gen = build_generator(spec)
    kernel_t = gen.transposed_kernel()
    assert gen.unif_rate == 4.0
    assert 1 not in kernel_t.indices[kernel_t.indptr[1] : kernel_t.indptr[2]].tolist()
    assert gen.matrix[1, 1] == -4.0
    for start in spec.states:
        assert_transient_matches_reference(spec, start, (0.0, 0.3, 2.5))


def test_power_steps_build_no_sparse_matrices(monkeypatch):
    """Every power is a product with the one cached P^T, so the sparse matrices
    a mean-flow call builds do not grow in number with the truncation depth;
    and each product is a direct call of the C routine, never a sparse
    matrix's __matmul__, in either solver or the stationary residual."""
    made, depths, products = [], [], []
    init = _spbase.__init__
    depth = ctmc._truncation_depth

    def counting_init(self, *args, **kwargs):
        made.append(type(self).__name__)
        init(self, *args, **kwargs)

    def recording_depth(*args):
        depths.append(depth(*args))
        return depths[-1]

    def refused_matmul(self, other):
        products.append(type(self).__name__)
        raise AssertionError("a power step went through a sparse matrix's __matmul__")

    monkeypatch.setattr(_spbase, "__init__", counting_init)
    monkeypatch.setattr(_spbase, "__matmul__", refused_matmul)
    monkeypatch.setattr(ctmc, "_truncation_depth", recording_depth)
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    counts = []
    for t in (1.0, 50.0):
        made.clear()
        transient_mean_flow(spec, (0, 0), (0, 1), (t,))
        counts.append(len(made))
    assert depths[1] > 8 * depths[0]
    assert counts[0] == counts[1] > 0
    gen = build_generator(spec)
    transient_distribution(gen, (0, 0), 50.0)
    stationary_distribution(gen)
    assert products == []


def absorbing_chain():
    """Arrivals up to x1 = 2 and no service: state (2,) is absorbing."""
    return parse_model(helpers.single_node_doc("ind(x1 < 2)", "0", 2))


@pytest.mark.parametrize(
    "make",
    [
        absorbing_chain,
        lambda: helpers.mm1c_chain(2.0, 2.0, 2),
        lambda: build_original_tandem(TandemParams.linear(3, 2, 1.5)),
    ],
    ids=["absorbing", "dropped-diagonal", "tandem"],
)
def test_column_product_is_bit_equal_to_sparse_matmul(make):
    """_column_product calls scipy's private csc_matvec as A @ vec does; on
    the kernel P^T and on Q's CSR arrays read as Q^T's CSC arrays (the
    stationary residual), every product equals scipy's bit for bit."""
    gen = build_generator(make())
    kernel_t, q = gen.transposed_kernel(), gen.matrix
    step = ctmc._column_product(kernel_t.indptr, kernel_t.indices, kernel_t.data)
    residual = ctmc._column_product(q.indptr, q.indices, q.data)
    rng = np.random.default_rng(5)
    for _ in range(20):
        vec = rng.dirichlet(np.ones(len(gen.coords))) * rng.choice([1e-300, 1.0, 1e300])
        for got, want in ((step(vec), kernel_t @ vec), (residual(vec), q.T @ vec)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ------------------------------------------------- distribution arguments


def test_distribution_vector_forms_agree():
    gen = build_generator(helpers.mm1c_chain(1.0, 2.0, 2))
    dense = distribution_vector(gen, [0.25, 0.5, 0.25])
    array = distribution_vector(gen, np.array([0.25, 0.5, 0.25]))
    point = distribution_vector(gen, (1,))
    assert dense.tolist() == array.tolist() == [0.25, 0.5, 0.25]
    assert point.tolist() == distribution_vector(gen, (1.0,)).tolist() == [0.0, 1.0, 0.0]


def test_distribution_vector_errors():
    gen = build_generator(helpers.mm1c_chain(1.0, 2.0, 2))
    with pytest.raises(ModelError):
        distribution_vector(gen, (9,))
    with pytest.raises(ValueError, match="length"):
        distribution_vector(gen, [1.0, 0.0])
    with pytest.raises(ValueError, match="sums to"):
        distribution_vector(gen, [0.5, 0.1, 0.1])
    with pytest.raises(ValueError, match="negative"):
        distribution_vector(gen, [1.5, -0.5, 0.0])


# Each library entry point that takes a starting state, run from x on a
# tandem, reduced to values that compare with ==.
START_ENTRY_POINTS = {
    "simulate_path": lambda spec, x: (
        (log := simulate_path(spec, x, 5.0, 1)).initial, list(log.times), list(log.visits)
    ),
    "simulate_coupled": lambda spec, x: (
        (log := simulate_coupled(spec, spec, x, x, 5.0, 1)).initial_a,
        log.initial_b,
        list(log.times),
        list(log.pairs),
    ),
    "distribution_vector": lambda spec, x: distribution_vector(build_generator(spec), x).tolist(),
    "mean_order_check": lambda spec, x: mean_order_check(spec, spec, (0, 1), (1.0, 2.0), x),
    "transient_mean_flow": lambda spec, x: transient_mean_flow(spec, x, (0, 1), (1.0, 2.0)),
}


@pytest.mark.parametrize(
    "state",
    [(1.7, 0.2), (1.5, 0), (0.5, 0), (0.9, 0), (True, 0), (1, math.nan), (1, math.inf)],
    ids=["1.7,0.2", "1.5,0", "0.5,0", "0.9,0", "True,0", "1,nan", "1,inf"],
)
@pytest.mark.parametrize("entry", list(START_ENTRY_POINTS))
def test_non_integral_start_state_refused(entry, state):
    """A starting state's coordinates follow the model rule: one not equal
    to its int, or a boolean, is a ModelError, never rounded to a state."""
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    with pytest.raises(ModelError, match="must have integer coordinates"):
        START_ENTRY_POINTS[entry](spec, state)


@pytest.mark.parametrize("entry", list(START_ENTRY_POINTS))
def test_integral_start_state_accepted_in_any_number_type(entry):
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    run = START_ENTRY_POINTS[entry]
    expected = run(spec, (1, 0))
    assert run(spec, (1.0, 0.0)) == expected
    assert run(spec, (np.int64(1), np.float64(0.0))) == expected
    with pytest.raises(ModelError, match="state space"):
        run(spec, (3.0, 0))


@pytest.mark.parametrize("p0", [[math.nan, 0.5, 0.5]], ids=["dense"])
def test_non_finite_mass_rejected(p0):
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    with pytest.raises(ValueError, match="non-finite"):
        transient_distribution(build_generator(spec), p0, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        transient_mean_flow(spec, p0, (0, 1), (1.0,))


# ------------------------------------------------------------- mean flow


def test_mean_flow_zero_time():
    spec = helpers.two_state_chain()
    assert transient_mean_flow(spec, (0,), (0, 1), (0.0,)) == (0.0,)


def test_mean_flow_pure_arrivals_monte_carlo():
    doc = helpers.single_node_doc("ind(x1 < 10)", "0", 10)
    spec = parse_model(doc)
    (flow,) = transient_mean_flow(spec, (0,), (0, 1), (1.0,), tol=1e-10)
    # arrivals form a unit Poisson process stopped at its 10th point, so the
    # count at t=1 is min(N, 10) with N ~ Poisson(1)
    rng = np.random.default_rng(20260822)
    sample = np.minimum(rng.poisson(1.0, 100_000), 10)
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    assert abs(flow - sample.mean()) <= 3 * se
    assert 0.9 <= flow <= 1.0


def test_mean_flow_stationary_start_is_linear():
    spec = helpers.two_state_chain()
    pi = stationary_distribution(build_generator(spec))
    (flow,) = transient_mean_flow(spec, pi, (0, 1), (10.0,), tol=1e-10)
    assert flow == pytest.approx(5.0, abs=1e-8)


def test_mean_flow_monotone_in_time():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    values = transient_mean_flow(
        spec, (0, 0), (0, 1), (0.0, 0.5, 1.0, 2.0, 4.0), tol=1e-10
    )
    assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


def test_mean_flow_flat_rate_shortcut():
    doc = {"n": 1, "space": {"list": [[0]]}, "rates": {"0->1": "0", "1->0": "0"},
           "clamp": True}
    spec = parse_model(doc)
    assert transient_mean_flow(spec, (0,), (0, 1), (7.0,)) == (0.0,)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.booleans())
def test_mean_flow_random_tables_match_van_loan(seed, c1, c2, dense):
    rng = np.random.default_rng(seed)
    spec, _ = helpers.random_table_instance(rng, c1, c2)
    m = len(spec.states)
    if dense:
        p0 = rng.dirichlet(np.ones(m))
        start = p0
    else:
        p0 = spec.states[rng.integers(m)]
        start = np.eye(m)[spec.find(p0)]
    link = spec.links[rng.integers(len(spec.links))]
    times = (0.0,) + tuple(sorted(rng.uniform(0.0, 20.0, 3)))
    means = transient_mean_flow(spec, p0, link, times)
    oracle = helpers.van_loan_mean_flow(spec, start, link, times)
    assert means[0] == 0.0
    for got, want in zip(means, oracle):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "spec, start, t",
    [
        pytest.param(build_balanced_tandem(TandemParams.linear(2, 2, 1.0)), (0, 0), 500.0,
                     id="tandem-balanced-t500"),
        pytest.param(build_original_tandem(TandemParams.linear(2, 2, 1.0)), (0, 0), 500.0,
                     id="tandem-original-t500"),
        pytest.param(helpers.mm1c_chain(100.0, 200.0, 2), (0,), 10.0, id="mm1c-q3000"),
    ],
)
def test_mean_flow_long_horizon_matches_van_loan(spec, start, t):
    (mean,) = transient_mean_flow(spec, start, (0, 1), (t,))
    (oracle,) = helpers.van_loan_mean_flow(
        spec, np.eye(len(spec.states))[spec.find(start)], (0, 1), (t,)
    )
    assert abs(mean - oracle) <= 1e-9 * max(1.0, abs(oracle))


@pytest.mark.parametrize("tol", [-1e-12, math.nan])
def test_unreachable_tolerance_raises(tol):
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    with pytest.raises(ToleranceError, match="truncation depth"):
        transient_distribution(build_generator(spec), (0,), 1.0, tol=tol)
    with pytest.raises(ToleranceError, match="truncation depth"):
        transient_mean_flow(spec, (0,), (0, 1), (1.0,), tol=tol)


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_bad_times_raise(t):
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        transient_distribution(build_generator(spec), (0,), t)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        transient_mean_flow(spec, (0,), (0, 1), (0.0, t))


def test_mean_flow_unknown_link():
    with pytest.raises(ModelError, match="unknown link"):
        transient_mean_flow(helpers.two_state_chain(), (0,), (3, 4), (1.0,))


# ------------------------------------------------------------ throughput


def test_throughput_two_state():
    spec = helpers.two_state_chain()
    pi = stationary_distribution(build_generator(spec))
    assert throughput(spec, pi, (0, 1)) == pytest.approx(0.5, abs=1e-12)
    assert throughput(spec, pi, (1, 0)) == pytest.approx(0.5, abs=1e-12)


def test_throughput_birth_death():
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    pi = stationary_distribution(build_generator(spec))
    assert throughput(spec, pi, (0, 1)) == pytest.approx(6 / 7, abs=1e-12)


def test_throughput_all_zero_rates():
    doc = {"n": 1, "space": {"box": [1]}, "rates": {"0->1": "0", "1->0": "0"}}
    spec = parse_model(doc)
    assert throughput(spec, [1.0, 0.0], (0, 1)) == 0.0


def test_throughput_dimension_mismatch():
    with pytest.raises(ValueError):
        throughput(helpers.two_state_chain(), [1.0, 0.0, 0.0], (0, 1))


# ------------------------------------------------------------------- csv


def test_event_log_csv_shape():
    spec = build_original_tandem(TandemParams.linear(2, 2, 1.0))
    log = simulate_path(spec, (0, 0), 5.0, seed=11)
    text = "".join(event_log_csv(log))
    lines = text.strip().split("\n")
    assert lines[0] == "time,link_from,link_to,state_after"
    assert len(lines) == len(log.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == log.times[0]
    assert (int(first[1]), int(first[2])) == log.links[log.moves[0]]
    assert first[3] == ";".join(str(v) for v in helpers.states_after(log)[0])


def test_event_log_csv_round_trips_floats():
    spec = helpers.two_state_chain()
    log = simulate_path(spec, (0,), 5.0, seed=2)
    rows = "".join(event_log_csv(log)).strip().split("\n")[1:]
    times = [float(r.split(",")[0]) for r in rows]
    assert times == list(log.times)


def test_distribution_csv_shape():
    spec = helpers.mm1c_chain(1.0, 2.0, 2)
    pi = stationary_distribution(build_generator(spec))
    lines = "".join(distribution_csv(spec.coords, pi)).strip().split("\n")
    assert lines[0] == "state,probability"
    assert lines[1].split(",")[0] == "0"
    assert float(lines[1].split(",")[1]) == pi[0]
    assert len(lines) == 4


@pytest.fixture(scope="module")
def long_path():
    spec = build_original_tandem(TandemParams.linear(10, 10, 10.0))
    log = simulate_path(spec, (0, 0), 600.0, seed=4)
    assert len(log.times) > helpers.CHUNK_ROW_COUNTS[-1]
    return log


@pytest.mark.parametrize("rows", helpers.CHUNK_ROW_COUNTS)
def test_event_log_csv_chunks_join_to_the_whole_text(long_path, rows):
    log = dataclasses.replace(
        long_path,
        times=long_path.times[:rows],
        moves=long_path.moves[:rows],
        visits=long_path.visits[:rows],
    )
    chunks = list(event_log_csv(log))
    assert helpers.text_lines(chunks) == helpers.text_lines([helpers.whole_event_log_csv(log)])
    assert [chunk.count("\n") for chunk in chunks] == helpers.chunk_row_counts(rows)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("rows", helpers.CHUNK_ROW_COUNTS)
def test_distribution_csv_chunks_join_to_the_whole_text(rows, n):
    states = tuple((k // 97, k % 97, 3)[:n] for k in range(rows))
    probs = np.random.default_rng(rows).random(rows)
    chunks = list(distribution_csv(np.array(states, dtype=np.int64).reshape(rows, n), probs))
    whole = helpers.whole_distribution_csv(states, probs)
    assert helpers.text_lines(chunks) == helpers.text_lines([whole])
    assert [chunk.count("\n") for chunk in chunks] == helpers.chunk_row_counts(rows)


def test_distribution_csv_memory_stays_within_a_chunk_of_rows():
    """On the 501 x 501 box (251,001 states) draining the writer keeps its
    traced peak under 16 MiB: each chunk's states are labelled and its
    probabilities listed as it is made. Labelling every state and listing
    every probability before the first chunk peaked at 27 MiB here, and
    at 122 MiB on the 1001 x 1001 box. The bytes are unchanged."""
    coords = np.indices((501, 501)).reshape(2, -1).T.copy()
    probs = np.full(len(coords), 1 / len(coords))
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        for chunk in distribution_csv(coords, probs):
            digest.update(chunk.encode("ascii"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest.hexdigest() == "b7199add5a75decd34d7ba392b0981d4237c7aa6f46164e76877ab3f78107fbb"
    assert peak < 16 * 2**20
