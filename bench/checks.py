"""Output checks of each CLI command against the independent computations in oracle.py.

`CHECKS[command](op, outdir, rc)` returns a list of problems; an empty list means
the invocation's reports agree with the method. Tolerances are fixed here
from the solvers' stated accuracy, not fitted to today's output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracle
from oracle import Chain, Tandem

# Allowed exit codes per command; exit 1 is a verdict failure that the
# checks must confirm from the rate formulas.
EXIT_CODES = {
    "check": (0, 1),
    "verify": (0, 1),
    "couple": (0, 1),
    "transient": (0, 1),
    "solve": (0,),
    "simulate": (0,),
    "sweep": (0,),
}


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _pair(t: Tandem) -> tuple[Chain, Chain]:
    return oracle.chain(t, "balanced"), oracle.chain(t, "original")


def _same(a, b) -> bool:
    return list(map(float, a)) == list(map(float, b))


def _condition_problems(name: str, report: dict, expected: list[dict]) -> list[str]:
    problems = []
    got = {c["condition"]: c for c in report["conditions"]}
    for exp in expected:
        cond = got.get(exp["condition"])
        if cond is None:
            problems.append(f"{name}: {exp['condition']} missing")
            continue
        if cond["passed"] != exp["passed"]:
            problems.append(f"{name}: {exp['condition']} passed={cond['passed']}, brute force {exp['passed']}")
            continue
        if exp["witness"] is None:
            if cond["witnesses"]:
                problems.append(f"{name}: {exp['condition']} lists a witness but passes")
            continue
        part, xa, xb, ra, rb = exp["witness"]
        w = cond["witnesses"][0] if cond["witnesses"] else {}
        if (
            w.get("part") != part
            or not _same(w.get("state_a", []), xa)
            or not _same(w.get("state_b", []), xb)
            or w.get("rate_a") != ra
            or w.get("rate_b") != rb
        ):
            problems.append(f"{name}: {exp['condition']} first witness {w} != brute force {exp['witness']}")
    verdict = "pass" if all(e["passed"] for e in expected) else "fail"
    if report["verdict"] != verdict:
        problems.append(f"{name}: verdict {report['verdict']}, brute force {verdict}")
    return problems


def check_check(op, outdir, rc):
    a, b = _pair(op.tandem)
    flow = oracle.flow_conditions(a, b)
    problems = _condition_problems("check_flow", _load_json(os.path.join(outdir, "check_flow.json")), flow)
    problems += _condition_problems(
        "check_population",
        _load_json(os.path.join(outdir, "check_population.json")),
        oracle.population_conditions(a, b),
    )
    passed = all(c["passed"] for c in flow)
    if rc != (0 if passed else 1):
        problems.append(f"exit {rc} with flow conditions passed={passed}")
    if passed and not oracle.closure(a, b)["closed"]:
        problems.append("flow conditions pass but the closure check fails")
    return problems


def check_verify(op, outdir, rc):
    a, b = _pair(op.tandem)
    exp = oracle.closure(a, b)
    rep = _load_json(os.path.join(outdir, "closure.json"))
    problems = []
    for key in ("closed", "checked", "gap_bound"):
        if rep[key] != exp[key]:
            problems.append(f"closure {key}={rep[key]}, brute force {exp[key]}")
    if rep["gap_exceeded"] or exp["exceeded"]:
        problems.append("a realizable gap exceeds the default bound")
    got = rep["witnesses"]
    if len(got) != len(exp["witnesses"]):
        problems.append(f"{len(got)} closure witnesses, brute force {len(exp['witnesses'])}")
    else:
        for w, (k, xa, xb, d, ra, rb) in zip(got, exp["witnesses"]):
            if (
                w["link_index"] != k
                or not _same(w["state_a"], xa)
                or not _same(w["state_b"], xb)
                or not _same(w["gaps"], d)
                or w["rate_a"] != ra
                or w["rate_b"] != rb
            ):
                problems.append(f"closure witness {w} != brute force {(k, xa, xb, d, ra, rb)}")
                break
    if rc != (0 if exp["closed"] else 1):
        problems.append(f"exit {rc} with closed={exp['closed']}")
    return problems


def _stationary_problems(t: Tandem, variant: str, pi: np.ndarray, states: np.ndarray) -> list[str]:
    c = oracle.chain(t, variant)
    if not np.array_equal(states, c.states):
        return ["stationary.csv states differ from the lexicographic state space"]
    problems = []
    if pi.min() < 0.0 or abs(pi.sum() - 1.0) > 1e-9:
        problems.append(f"pi has min {pi.min()} and sum {pi.sum()}")
    max_exit = float(c.rates.sum(axis=1).max())
    residual = float(np.abs(pi @ c.q).max())
    if residual > 1e-10 * max_exit:
        problems.append(f"residual {residual:g} against the formula generator (max exit rate {max_exit:g})")
    ref = oracle.product_form(t, c.states) if variant == "balanced" else oracle.stationary(c)
    err = float(np.abs(pi - ref).max())
    if err > 1e-8:
        what = "product form" if variant == "balanced" else "direct solve"
        problems.append(f"pi differs from the {what} by {err:g}")
    return problems


def check_solve(op, outdir, rc):
    rows = oracle.read_csv(os.path.join(outdir, "stationary.csv"))
    states = oracle.int_rows([r[0] for r in rows])
    pi = np.array([float(r[1]) for r in rows])
    problems = _stationary_problems(op.tandem, op.variant, pi, states)
    if problems:
        return problems
    c = oracle.chain(op.tandem, op.variant)
    rep = _load_json(os.path.join(outdir, "solve.json"))
    for k, link in enumerate(oracle.LINKS):
        exp = float(pi @ c.rates[:, k])
        if not math.isclose(rep["throughput"][link], exp, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"throughput {link} {rep['throughput'][link]!r}, from pi {exp!r}")
    loss = op.tandem.beta - rep["throughput"]["0->1"]
    if not math.isclose(rep["loss_rate"], loss, rel_tol=1e-9, abs_tol=1e-9 * op.tandem.beta):
        problems.append(f"loss rate {rep['loss_rate']!r}, beta minus throughput {loss!r}")
    return problems


def check_transient(op, outdir, rc):
    rows = oracle.read_csv(os.path.join(outdir, "transient.csv"))
    times = [float(r[0]) for r in rows]
    a, b = _pair(op.tandem)
    link = oracle.LINKS.index(op.opt("link", "0->1"))
    tol = float(op.opt("tol", "1e-8"))
    problems = []
    for side, col, c in (("a", 1, a), ("b", 2, b)):
        got = np.array([float(r[col]) for r in rows])
        exp = oracle.mean_flow(c, link, times)
        err = float(np.abs(got - exp).max())
        if err > 1e-8 * max(1.0, float(np.abs(exp).max())):
            problems.append(f"mean flow of {side} differs from the block exponential by {err:g}")
    for r in rows:
        if float(r[3]) != float(r[2]) - float(r[1]):
            problems.append(f"margin {r[3]} is not mean_b - mean_a at t={r[0]}")
            break
    passed = all(float(r[3]) >= -tol for r in rows)
    rep = _load_json(os.path.join(outdir, "transient.json"))
    if rep["verdict"] != ("pass" if passed else "fail") or rc != (0 if passed else 1):
        problems.append(f"verdict {rep['verdict']} exit {rc}, margins pass={passed}")
    if not passed and oracle.closure(a, b)["closed"]:
        problems.append("a mean-flow margin is below -tol on a closed pair")
    return problems


def check_sweep(op, outdir, rc):
    rows = oracle.read_csv(os.path.join(outdir, "sweep.csv"))
    problems = []
    for r in rows:
        beta, s1, s2 = float(r[0]), int(r[1]), int(r[2])
        thr_bal, thr_orig, loss_bal, loss_orig, margin = map(float, r[3:])
        t = Tandem.linear(s1, s2, beta)
        bal = oracle.chain(t, "balanced")
        orig = oracle.chain(t, "original")
        exp_bal = float(oracle.product_form(t, bal.states) @ bal.rates[:, 0])
        exp_orig = float(oracle.stationary(orig) @ orig.rates[:, 0])
        if not math.isclose(thr_bal, exp_bal, rel_tol=1e-9):
            problems.append(f"balanced throughput {thr_bal!r} at {r[:3]}, product form {exp_bal!r}")
        if not math.isclose(thr_orig, exp_orig, rel_tol=1e-8):
            problems.append(f"original throughput {thr_orig!r} at {r[:3]}, direct solve {exp_orig!r}")
        if margin != thr_orig - thr_bal or margin < 0.0:
            problems.append(f"margin {margin!r} at {r[:3]}")
        for loss, thr in ((loss_bal, thr_bal), (loss_orig, thr_orig)):
            if not math.isclose(loss, beta - thr, rel_tol=1e-9, abs_tol=1e-9 * beta):
                problems.append(f"loss {loss!r} is not beta - throughput at {r[:3]}")
    if len(rows) != len(op.opt("betas", "0.5,1,2").split(",")) * len(op.opt("sizes", "1,2,3").split(",")):
        problems.append(f"{len(rows)} sweep rows")
    return problems


def _balance(states: np.ndarray, flows: np.ndarray) -> np.ndarray:
    """x_i - inflow_i + outflow_i per node, for the links 0->1, 1->2, 2->0."""
    return states + flows[:, [1, 2]] - flows[:, [0, 1]]


def check_couple(op, outdir, rc):
    a, b = _pair(op.tandem)
    closed = oracle.closure(a, b)["closed"]
    horizon = float(op.opt("horizon", "10"))
    problems = []
    events = violations = 0
    for path in oracle.rep_files(outdir, "couple_rep"):
        rows = oracle.read_csv(path)
        events += len(rows)
        if not rows:
            continue
        t = np.array([float(r[0]) for r in rows])
        link = np.array([oracle.LINKS.index(f"{r[1]}->{r[2]}") for r in rows])
        kind = np.array([r[3] for r in rows])
        sa, sb = oracle.int_rows([r[4] for r in rows]), oracle.int_rows([r[5] for r in rows])
        fa, fb = oracle.int_rows([r[6] for r in rows], 3), oracle.int_rows([r[7] for r in rows], 3)
        name = os.path.basename(path)
        if not (np.all(np.diff(t) > 0) and t[0] > 0 and t[-1] <= horizon):
            problems.append(f"{name}: event times not increasing within (0, horizon]")
        if _balance(sa, fa).any() or _balance(sb, fb).any():
            problems.append(f"{name}: a balance signature moved off the initial population")
        step = np.eye(3, dtype=np.int64)[link]
        da = np.diff(np.vstack([np.zeros(3, dtype=np.int64), fa]), axis=0)
        db = np.diff(np.vstack([np.zeros(3, dtype=np.int64), fb]), axis=0)
        moves_a = np.isin(kind, ("joint", "a_only"))[:, None]
        moves_b = np.isin(kind, ("joint", "b_only"))[:, None]
        if not (np.array_equal(da, step * moves_a) and np.array_equal(db, step * moves_b)):
            problems.append(f"{name}: counters do not step with the event's link and side")
        violations += int((fa > fb).sum())
    summary = _load_json(os.path.join(outdir, "couple_summary.json"))
    if summary["events"] != events or summary["flow_order_violations"] != violations:
        problems.append(f"summary {summary['events']} events/{summary['flow_order_violations']} "
                        f"violations, logs {events}/{violations}")
    if closed and violations:
        problems.append(f"{violations} flow-order violations on a closed pair")
    if rc != (0 if violations == 0 else 1):
        problems.append(f"exit {rc} with {violations} violations")
    return problems


def _arrival_times(path: str, c: Chain, horizon: float, problems: list) -> np.ndarray:
    """Accepted-arrival times of one simulated path, after checking every move is legal."""
    rows = oracle.read_csv(path)
    if not rows:
        return np.zeros(0)
    t = np.array([float(r[0]) for r in rows])
    link = np.array([oracle.LINKS.index(f"{r[1]}->{r[2]}") for r in rows])
    post = oracle.int_rows([r[3] for r in rows])
    pre = np.vstack([np.zeros((1, 2), dtype=np.int64), post[:-1]])
    name = os.path.basename(path)
    if not (np.all(np.diff(t) > 0) and t[0] > 0 and t[-1] <= horizon):
        problems.append(f"{name}: event times not increasing within (0, horizon]")
    if not np.array_equal(post - pre, oracle.MOVES[link]):
        problems.append(f"{name}: a state change does not match its link")
    index = {tuple(x): i for i, x in enumerate(c.states.tolist())}
    if any(tuple(x) not in index for x in post.tolist()):
        problems.append(f"{name}: a path leaves the state space")
    elif not all(c.rates[index[tuple(x)], k] > 0 for x, k in zip(pre.tolist(), link)):
        problems.append(f"{name}: a move fires at zero rate")
    return t[link == 0]


def _paths(op, outdir, problems) -> list[np.ndarray]:
    c = oracle.chain(op.tandem, op.variant)
    horizon = float(op.opt("horizon", "10"))
    return [_arrival_times(p, c, horizon, problems) for p in oracle.rep_files(outdir, "sim_rep")]


# Paths at least this long are checked one invocation at a time by batch
# means; shorter ones are pooled over the workload by pooled_simulate_problems.
LONG_HORIZON = 200.0


def check_simulate(op, outdir, rc):
    """Legal moves, and batch means of the accepted-arrival rate on long paths."""
    problems = []
    paths = _paths(op, outdir, problems)
    horizon = float(op.opt("horizon", "10"))
    summary = _load_json(os.path.join(outdir, "simulate_summary.json"))
    if len(paths) != int(op.opt("reps", "1")) or summary["absorbed_paths"] != 0:
        problems.append(f"{len(paths)} paths, {summary['absorbed_paths']} absorbed")
    if horizon < LONG_HORIZON:
        return problems
    c = oracle.chain(op.tandem, op.variant)
    thr = float(oracle.stationary(c) @ c.rates[:, 0])
    width = horizon / 20  # the first batch is the warm-up
    rates = np.concatenate([np.histogram(a, bins=19, range=(width, horizon))[0] / width for a in paths])
    se = rates.std(ddof=1) / math.sqrt(len(rates))
    if abs(rates.mean() - thr) > 6 * se:
        problems.append(f"arrival rate {rates.mean():.4g} +- {se:.2g} (batch means), throughput {thr:.6g}")
    return problems


def pooled_simulate_problems(runs) -> list[str]:
    """Accepted arrivals summed over short paths against their exact expectation.

    `runs` holds (op, outdir) pairs. The expectation of each path's count
    is the Van Loan mean flow from the empty state; its variance is
    estimated from the spread between the replications of one invocation.
    """
    observed = expected = variance = 0.0
    problems = []
    for op, outdir in runs:
        c = oracle.chain(op.tandem, op.variant)
        counts = np.array([len(a) for a in _paths(op, outdir, problems)], dtype=float)
        observed += counts.sum()
        expected += len(counts) * float(oracle.mean_flow(c, 0, [float(op.opt("horizon", "10"))])[0])
        if len(counts) > 1:
            variance += len(counts) * counts.var(ddof=1)
    se = math.sqrt(variance) if variance > 0 else math.sqrt(max(expected, 1.0))
    if abs(observed - expected) > 6 * se:
        problems.append(f"pooled accepted arrivals {observed:g}, expected {expected:.6g} +- {se:.3g}")
    return problems


CHECKS = {
    "check": check_check,
    "verify": check_verify,
    "solve": check_solve,
    "transient": check_transient,
    "sweep": check_sweep,
    "couple": check_couple,
    "simulate": check_simulate,
}
