"""Acceptance suite: one test per criterion, budgets enforced, verdict printed.

Run with -s to see the per-criterion lines; under plain -v each test's
PASSED/FAILED entry is the verdict. Criteria that reuse a simulation
batch share module-scoped fixtures so the batch runs once and its
digests stay available for the determinism re-run.
"""

import hashlib
import itertools
import time

import numpy as np
import pytest

import helpers
from floworder import (
    TandemParams,
    balance_signature,
    build_balanced_tandem,
    build_generator,
    build_original_tandem,
    check_flow_conditions,
    check_population_conditions,
    mean_order_check,
    parse_model,
    pathwise_flow_order_check,
    pathwise_population_order_check,
    product_form_residual,
    replication_seed,
    simulate_coupled,
    simulate_path,
    stationary_distribution,
    throughput,
    verify_tight_configurations,
)
from floworder.coupling import paired_log_csv

FLOW_REPS = 1000
FLOW_HORIZON = 50.0
FLOW_SEED = 20260402
POP_REPS = 500
POP_HORIZON = 20.0
POP_SEED = 20260405


def report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def audit_coupled_log(log):
    """Both component paths keep a constant balance signature along their
    flows arrays, and each side's own moves (the joint events and its own
    one-sided ones, decoded from the bins), counted afresh, give the same
    counters. Returns events audited."""
    links = log.links
    positions, kinds = np.divmod(np.asarray(log.bins, dtype=np.int64), 3)
    for side, initial, coords, still in (
        ("a", log.initial_a, log.coords_a, 1),  # A stays put in B-only events
        ("b", log.initial_b, log.coords_b, 2),
    ):
        flows = log.flows(side)
        sig = balance_signature(initial, flows[0], links)
        for x, row in zip(coords[log.visits(side)].tolist(), flows[1:].tolist()):
            assert balance_signature(x, row, links) == sig
        own = np.flatnonzero(kinds != still)
        recount = np.zeros_like(flows)
        recount[own + 1, positions[own]] = 1
        assert np.array_equal(np.cumsum(recount, axis=0), flows)
    return len(log.times)


def audit_stateflow_log(spec, log, seed):
    """Single-model variant of the audit on a population log: counters
    counted move by move keep the balance signature constant, and the same
    seed lets flows() rebuild them from a fresh population log alone."""
    links = log.links
    path = helpers.stateflow_events(log)
    sig = balance_signature(log.initial, (0,) * len(links), links)
    for _, _, state, flows in path:
        assert balance_signature(state, flows, links) == sig
    plain = simulate_path(spec, log.initial, log.horizon, seed)
    rows = plain.flows()
    assert [tuple(row) for row in rows[1:].tolist()] == [flows for _, _, _, flows in path]
    final = path[-1][3] if path else (0,) * len(links)
    assert tuple(rows[-1].tolist()) == final
    return len(path)


def tandem_pair(s1, s2, beta):
    params = TandemParams.linear(s1, s2, beta)
    return build_balanced_tandem(params), build_original_tandem(params)


@pytest.fixture(scope="module")
def flow_batch():
    """Criterion 2 workload; audit timing kept apart from the sim budget."""
    bal, orig = tandem_pair(3, 3, 1.0)
    violations = 0
    events = 0
    audited = 0
    digests = []
    first_texts = []
    sim_check_seconds = 0.0
    audit_seconds = 0.0
    for k in range(FLOW_REPS):
        t0 = time.monotonic()
        log = simulate_coupled(
            bal, orig, (0, 0), (0, 0), FLOW_HORIZON, replication_seed(FLOW_SEED, k)
        )
        violations += len(pathwise_flow_order_check(log))
        sim_check_seconds += time.monotonic() - t0
        t0 = time.monotonic()
        audited += audit_coupled_log(log)
        audit_seconds += time.monotonic() - t0
        text = "".join(paired_log_csv(log))
        digests.append(digest(text))
        if k < 3:
            first_texts.append(text)
        events += len(log.times)
    return {
        "links": bal.links,
        "violations": violations,
        "events": events,
        "audited_events": audited,
        "digests": digests,
        "first_texts": first_texts,
        "sim_check_seconds": sim_check_seconds,
        "audit_seconds": audit_seconds,
    }


@pytest.fixture(scope="module")
def pop_batch():
    """Criterion 5 workload: ordered single-node pair, equal start, checked
    on the coupled states alone (the population coupling is the state-flow
    coupling read without its counters)."""
    spec_a = parse_model(helpers.single_node_doc("1", "2 * x1", 3, clamp=True))
    spec_b = parse_model(helpers.single_node_doc("2", "x1", 3, clamp=True))
    conditions = check_population_conditions(spec_a, spec_b)
    violations = 0
    dominated = True
    events = 0
    digests = []
    first_texts = []
    for k in range(POP_REPS):
        log = simulate_coupled(
            spec_a, spec_b, (0,), (0,), POP_HORIZON, replication_seed(POP_SEED, k)
        )
        violations += len(pathwise_population_order_check(log))
        first_a, first_b = log.coords_a[log.visits("a"), 0], log.coords_b[log.visits("b"), 0]
        dominated &= bool((first_a <= first_b).all())
        text = "".join(paired_log_csv(log))
        digests.append(digest(text))
        if k < 3:
            first_texts.append(text)
        events += len(log.times)
    return {
        "conditions_passed": conditions.passed,
        "violations": violations,
        "dominated": dominated,
        "events": events,
        "digests": digests,
        "first_texts": first_texts,
    }


def test_criterion_01_flow_conditions_iff_monotone_rates():
    values = (0.0, 1.0, 2.0)
    t0 = time.monotonic()
    checked = 0
    mismatches = 0
    for tail1 in itertools.product(values, repeat=2):
        for tail2 in itertools.product(values, repeat=2):
            params = TandemParams(
                s1=2, s2=2, beta=1.0, delta1=(0.0,) + tail1, delta2=(0.0,) + tail2
            )
            flow = check_flow_conditions(
                build_balanced_tandem(params), build_original_tandem(params)
            )
            checked += 1
            if flow.passed != params.increasing:
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and checked == 81 and elapsed < 10.0
    report(1, ok, f"{checked} table pairs, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_pathwise_flow_order(flow_batch):
    ok = (
        flow_batch["violations"] == 0
        and len(flow_batch["links"]) == 3
        and flow_batch["events"] > 0
        and flow_batch["sim_check_seconds"] < 60.0
    )
    report(
        2,
        ok,
        f"{FLOW_REPS} replications, {flow_batch['events']} events, "
        f"{flow_batch['violations']} violations on {len(flow_batch['links'])} links, "
        f"{flow_batch['sim_check_seconds']:.1f}s",
    )


def test_criterion_03_mean_flow_order():
    bal, orig = tandem_pair(3, 3, 1.0)
    t0 = time.monotonic()
    order = mean_order_check(
        bal, orig, (0, 1), tuple(float(t) for t in range(21)), (0, 0),
        tol=1e-8, flow_tol=1e-10,
    )
    elapsed = time.monotonic() - t0
    worst = min(order.margins)
    ok = order.passed and len(order.margins) == 21 and worst >= -1e-8 and elapsed < 30.0
    report(3, ok, f"21 margins, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_population_failure_witnesses():
    bal, orig = tandem_pair(2, 2, 1.0)
    direct = check_population_conditions(bal, orig, all_witnesses=True)
    direct_ok = (
        not direct.passed
        and {w.condition for w in direct.witnesses} == {"population-node-2"}
        and all(w.part == "outflow" for w in direct.witnesses)
        and any(
            w.state_a[0] == w.state_b[0] == 2
            and w.state_a[1] == w.state_b[1]
            and 0 < w.state_a[1] < 2
            for w in direct.witnesses
        )
    )
    swapped = check_population_conditions(orig, bal, all_witnesses=True)
    swapped_ok = (
        not swapped.passed
        and {w.condition for w in swapped.witnesses} == {"population-node-1"}
        and all(w.part == "inflow" for w in swapped.witnesses)
        and any(
            w.state_a[0] == w.state_b[0] < 2 and w.state_a[1] < w.state_b[1] == 2
            for w in swapped.witnesses
        )
    )
    ok = direct_ok and swapped_ok
    report(
        4,
        ok,
        f"direct: {len(direct.witnesses)} outflow witnesses at the full first "
        f"queue; swapped: {len(swapped.witnesses)} inflow witnesses at the "
        f"full second queue",
    )


def test_criterion_05_population_order_positive(pop_batch):
    ok = (
        pop_batch["conditions_passed"]
        and pop_batch["violations"] == 0
        and pop_batch["dominated"]
        and pop_batch["events"] > 0
    )
    report(
        5,
        ok,
        f"conditions pass, {POP_REPS} replications, {pop_batch['events']} events, "
        f"{pop_batch['violations']} order violations",
    )


def test_criterion_06_coupling_marginality():
    rng = np.random.default_rng(20260406)
    worst = 0.0
    checked = 0
    for _ in range(100):
        spec_a, table_a = helpers.random_table_instance(rng, 2, 2)
        spec_b, table_b = helpers.random_table_instance(rng, 2, 2)
        for xa in spec_a.states:
            for xb in spec_b.states:
                for link, joint, b_only, a_only in helpers.pair_rates(spec_a, spec_b, xa, xb):
                    da = abs(joint + a_only - table_a[link][xa])
                    db = abs(joint + b_only - table_b[link][xb])
                    worst = max(worst, da, db)
                    checked += 1
    ok = worst <= 1e-15
    report(6, ok, f"100 random tables, {checked} marginality checks, worst {worst:.1e}")


def test_criterion_07_flow_conservation(flow_batch):
    rng = np.random.default_rng(20260407)
    fresh_paths = 0
    fresh_events = 0
    for i in range(20):
        spec, _ = helpers.random_table_instance(rng, 2, 2)
        seed = 7000 + i
        log = simulate_path(spec, spec.states[0], 15.0, seed)
        fresh_events += audit_stateflow_log(spec, log, seed)
        fresh_paths += 1
    for spec in tandem_pair(2, 2, 1.0) + tandem_pair(3, 3, 1.0):
        seed = 977
        log = simulate_path(spec, (0, 0), 40.0, seed)
        fresh_events += audit_stateflow_log(spec, log, seed)
        fresh_paths += 1
    ok = flow_batch["audited_events"] > 0 and fresh_events > 0
    report(
        7,
        ok,
        f"signature constant and counters recovered on {2 * FLOW_REPS} coupled "
        f"projections ({flow_batch['audited_events']} events) and {fresh_paths} "
        f"direct paths ({fresh_events} events)",
    )


def test_criterion_08_soundness_chain():
    rng = np.random.default_rng(20260408)
    sims = 0
    sim_events = 0
    for i in range(100):
        spec_a, spec_b = helpers.random_certified_pair(rng, 2, 2)
        flow = check_flow_conditions(spec_a, spec_b)
        assert flow.passed, f"pair {i} was not certified"
        closure = verify_tight_configurations(spec_a, spec_b)
        assert closure.closed, f"pair {i} not closed: {closure.witnesses[:1]}"
        for k in range(10):
            log = simulate_coupled(
                spec_a, spec_b, (0, 0), (0, 0), 10.0, replication_seed(8000 + i, k)
            )
            assert pathwise_flow_order_check(log) == []
            audit_coupled_log(log)
            sims += 1
            sim_events += len(log.times)
    report(
        8,
        True,
        f"100 certified pairs closed, {sims} coupled paths clean "
        f"({sim_events} events)",
    )


def test_criterion_09_stationary_solver_and_product_form():
    t0 = time.monotonic()
    bal, _ = tandem_pair(2, 2, 1.0)
    pi = stationary_distribution(build_generator(bal))
    res_q = float(np.abs(pi @ helpers.dense_q(bal)).max())
    res_pf = product_form_residual(bal, pi)
    grid_ok = True
    pairs = 0
    for beta in (0.5, 1.0, 2.0):
        for s in (1, 2, 3):
            b, o = tandem_pair(s, s, beta)
            thr_b = throughput(b, stationary_distribution(build_generator(b)), (0, 1))
            thr_o = throughput(o, stationary_distribution(build_generator(o)), (0, 1))
            grid_ok &= thr_b <= thr_o + 1e-10
            pairs += 1
    elapsed = time.monotonic() - t0
    ok = res_q < 1e-12 and res_pf < 1e-10 and grid_ok and elapsed < 30.0
    report(
        9,
        ok,
        f"stationarity residual {res_q:.1e}, product-form residual {res_pf:.1e}, "
        f"throughput ordered on {pairs} grid points, {elapsed:.1f}s",
    )


def test_criterion_10_determinism(flow_batch, pop_batch):
    bal, orig = tandem_pair(3, 3, 1.0)
    flow_digests = []
    flow_texts = []
    for k in range(FLOW_REPS):
        log = simulate_coupled(
            bal, orig, (0, 0), (0, 0), FLOW_HORIZON, replication_seed(FLOW_SEED, k)
        )
        text = "".join(paired_log_csv(log))
        flow_digests.append(digest(text))
        if k < 3:
            flow_texts.append(text)
    spec_a = parse_model(helpers.single_node_doc("1", "2 * x1", 3, clamp=True))
    spec_b = parse_model(helpers.single_node_doc("2", "x1", 3, clamp=True))
    pop_digests = []
    pop_texts = []
    for k in range(POP_REPS):
        log = simulate_coupled(
            spec_a, spec_b, (0,), (0,), POP_HORIZON, replication_seed(POP_SEED, k)
        )
        text = "".join(paired_log_csv(log))
        pop_digests.append(digest(text))
        if k < 3:
            pop_texts.append(text)
    ok = (
        flow_digests == flow_batch["digests"]
        and flow_texts == flow_batch["first_texts"]
        and pop_digests == pop_batch["digests"]
        and pop_texts == pop_batch["first_texts"]
    )
    report(
        10,
        ok,
        f"{FLOW_REPS} + {POP_REPS} replication logs byte-identical on re-run",
    )
