"""Order certification for pairs of linear-network models.

Three mechanized routes, from strongest assumptions to weakest:

  * check_flow_conditions: pointwise rate inequalities which guarantee
    that, under the marching-soldiers state-flow coupling started from
    equal states and zero counters, every per-link counter of model A
    stays below model B's for all time. The premises compare one model's
    state against the other's across the full product of the two state
    spaces.
  * check_population_conditions: pointwise rate inequalities at pairs
    x <= x' with an equal coordinate, guaranteeing the population of A
    stays below B coordinatewise under the population coupling.
  * verify_tight_configurations: an exact closure check of the flow-order
    relation itself. Per-node balance pins the vector of per-link counter
    gaps once one link's gap is fixed at zero, so all configurations that
    could break the order are finitely enumerable; the relation is closed
    exactly when no tight link can fire an A-only move.

The closure check is implied by the flow conditions but not conversely,
so it can certify pairs the pointwise conditions reject.

Pathwise and statistical diagnostics complement the exact routes:
violation scans over coupled logs, an empirical tail comparison with a
three-standard-error margin, and a mean-flow margin check on a time grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .coupling import A_ONLY, B_ONLY, JOINT, PairedEventLog
from .ctmc import transient_mean_flow
from .model import Link, ModelError, NetworkSpec, State, is_linear_family

__all__ = [
    "Witness",
    "ConditionResult",
    "ConditionReport",
    "TightConfiguration",
    "ClosureWitness",
    "ClosureReport",
    "MeanOrderReport",
    "TailOrderReport",
    "check_flow_conditions",
    "check_population_conditions",
    "verify_tight_configurations",
    "pathwise_flow_order_check",
    "pathwise_population_order_check",
    "empirical_tail_order",
    "mean_order_check",
]

# The premise of each pointwise condition quantifies the first state over
# model A's space and the second over model B's space. Reports carry this
# convention explicitly so a reader can audit what was enumerated.
_DOMAINS = {"state_a": "model A state space", "state_b": "model B state space"}


@dataclass(frozen=True)
class Witness:
    condition: str
    part: str
    state_a: State
    state_b: State
    rate_a: float
    rate_b: float

    def to_dict(self):
        return {
            "condition": self.condition,
            "part": self.part,
            "state_a": list(self.state_a),
            "state_b": list(self.state_b),
            "rate_a": self.rate_a,
            "rate_b": self.rate_b,
        }


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    passed: bool
    witnesses: tuple[Witness, ...]


@dataclass
class ConditionReport:
    kind: str  # "flow" or "population"
    domains: dict
    conditions: tuple[ConditionResult, ...]
    all_witnesses: bool
    runtime: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def witnesses(self) -> tuple[Witness, ...]:
        return tuple(w for c in self.conditions for w in c.witnesses)

    def to_dict(self, include_runtime: bool = True) -> dict:
        d = {
            "verdict": "pass" if self.passed else "fail",
            "kind": self.kind,
            "domains": dict(self.domains),
            "all_witnesses": self.all_witnesses,
            "conditions": [
                {
                    "condition": c.condition,
                    "passed": c.passed,
                    "witnesses": [w.to_dict() for w in c.witnesses],
                }
                for c in self.conditions
            ],
            "witnesses": [w.to_dict() for w in self.witnesses],
            "margins": [],
        }
        if include_runtime:
            d["runtime"] = self.runtime
        return d


def _require_linear_pair(spec_a: NetworkSpec, spec_b: NetworkSpec):
    if not is_linear_family(spec_a) or not is_linear_family(spec_b):
        raise ModelError("order checks need the linear link family on both models")
    if spec_a.n != spec_b.n:
        raise ModelError("order checks need the same number of nodes on both models")


def check_flow_conditions(
    spec_a: NetworkSpec, spec_b: NetworkSpec, all_witnesses: bool = False
) -> ConditionReport:
    """Pointwise conditions certifying per-link flow dominance of B over A.

    One condition per link position k of the linear family, quantified
    over every pair (x in A's space, x' in B's space):

      k = 0 (arrival):   x_1 >= x'_1            implies  rate_A <= rate_B
      0 < k < n:         x_k <= x'_k and
                         x_{k+1} >= x'_{k+1}    implies  rate_A <= rate_B
      k = n (exit):      x_n <= x'_n            implies  rate_A <= rate_B

    Verdicts are exact rate comparisons with no tolerance. With
    all_witnesses=False only the first witness per condition is kept.
    """
    _require_linear_pair(spec_a, spec_b)
    start = time.perf_counter()
    n = spec_a.n
    links = spec_a.links
    tables_a = [spec_a.rate_vector(link).tolist() for link in links]
    tables_b = [spec_b.rate_vector(link).tolist() for link in links]
    conditions = []
    for k in range(n + 1):
        name = f"flow-link-{k}"
        witnesses = []
        done = False
        for ia, xa in enumerate(spec_a.states):
            if done:
                break
            for ib, xb in enumerate(spec_b.states):
                if k == 0:
                    premise = xa[0] >= xb[0]
                elif k == n:
                    premise = xa[n - 1] <= xb[n - 1]
                else:
                    premise = xa[k - 1] <= xb[k - 1] and xa[k] >= xb[k]
                if premise:
                    ra = tables_a[k][ia]
                    rb = tables_b[k][ib]
                    if ra > rb:
                        witnesses.append(Witness(name, "rate", xa, xb, ra, rb))
                        if not all_witnesses:
                            done = True
                            break
        conditions.append(
            ConditionResult(condition=name, passed=not witnesses, witnesses=tuple(witnesses))
        )
    return ConditionReport(
        kind="flow",
        domains=dict(_DOMAINS),
        conditions=tuple(conditions),
        all_witnesses=all_witnesses,
        runtime=time.perf_counter() - start,
    )


def check_population_conditions(
    spec_a: NetworkSpec, spec_b: NetworkSpec, all_witnesses: bool = False
) -> ConditionReport:
    """Pointwise conditions certifying coordinatewise population dominance.

    Quantified over pairs x <= x' (x in A's space, x' in B's space). One
    condition per node i with the premise x_i = x'_i:

      inflow:   the rate into node i of A is at most B's
      outflow:  the rate out of node i of A is at least B's

    For node 1 the inflow is the arrival link; for node n the outflow is
    the exit link.
    """
    _require_linear_pair(spec_a, spec_b)
    start = time.perf_counter()
    n = spec_a.n
    links = spec_a.links
    tables_a = [spec_a.rate_vector(link).tolist() for link in links]
    tables_b = [spec_b.rate_vector(link).tolist() for link in links]
    witnesses_by_node: dict[int, list] = {i: [] for i in range(1, n + 1)}
    for ia, xa in enumerate(spec_a.states):
        for ib, xb in enumerate(spec_b.states):
            if any(xa[i] > xb[i] for i in range(n)):
                continue
            for node in range(1, n + 1):
                if not all_witnesses and witnesses_by_node[node]:
                    continue  # first witness already found for this node
                if xa[node - 1] != xb[node - 1]:
                    continue
                name = f"population-node-{node}"
                in_k = node - 1  # arrival link for node 1, else link (node-1, node)
                out_k = node
                ra_in = tables_a[in_k][ia]
                rb_in = tables_b[in_k][ib]
                if ra_in > rb_in:
                    witnesses_by_node[node].append(
                        Witness(name, "inflow", xa, xb, ra_in, rb_in)
                    )
                ra_out = tables_a[out_k][ia]
                rb_out = tables_b[out_k][ib]
                if ra_out < rb_out:
                    witnesses_by_node[node].append(
                        Witness(name, "outflow", xa, xb, ra_out, rb_out)
                    )
                if not all_witnesses and witnesses_by_node[node]:
                    witnesses_by_node[node] = witnesses_by_node[node][:1]
    conditions = tuple(
        ConditionResult(
            condition=f"population-node-{node}",
            passed=not witnesses_by_node[node],
            witnesses=tuple(witnesses_by_node[node]),
        )
        for node in range(1, n + 1)
    )
    return ConditionReport(
        kind="population",
        domains=dict(_DOMAINS),
        conditions=conditions,
        all_witnesses=all_witnesses,
        runtime=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class TightConfiguration:
    """A pair (x, x') with the counter-gap vector d forced by node balance.

    d has one entry per link position; entry k is B's counter minus A's.
    The configuration is tight at `link_index`, where the gap is zero.
    """

    link_index: int
    state_a: State
    state_b: State
    gaps: tuple[int, ...]

    def to_dict(self):
        return {
            "link_index": self.link_index,
            "state_a": list(self.state_a),
            "state_b": list(self.state_b),
            "gaps": list(self.gaps),
        }


@dataclass(frozen=True)
class ClosureWitness:
    config: TightConfiguration
    rate_a: float
    rate_b: float

    def to_dict(self):
        d = self.config.to_dict()
        d["rate_a"] = self.rate_a
        d["rate_b"] = self.rate_b
        return d


@dataclass
class ClosureReport:
    closed: bool
    witnesses: tuple[ClosureWitness, ...]
    gap_exceeded: tuple[TightConfiguration, ...]
    checked: int
    gap_bound: int
    domains: dict
    runtime: float

    def to_dict(self, include_runtime: bool = True) -> dict:
        d = {
            "verdict": "pass" if self.closed else "fail",
            "closed": self.closed,
            "domains": dict(self.domains),
            "checked": self.checked,
            "gap_bound": self.gap_bound,
            "conditions": [
                {
                    "condition": "closure",
                    "passed": self.closed,
                    "witnesses": [w.to_dict() for w in self.witnesses],
                }
            ],
            "witnesses": [w.to_dict() for w in self.witnesses],
            "gap_exceeded": [c.to_dict() for c in self.gap_exceeded],
            "margins": [],
        }
        if include_runtime:
            d["runtime"] = self.runtime
        return d


def verify_tight_configurations(
    spec_a: NetworkSpec, spec_b: NetworkSpec, gap_bound: int | None = None
) -> ClosureReport:
    """Exact closure check of the flow-order relation under the coupling.

    For equal starts with zero counters, node balance forces
    x'_i - x_i = d_{i-1} - d_i for the per-link counter gaps d. Fixing
    d_k = 0 therefore determines the whole gap vector from (x, x'). A
    configuration is realizable under the order relation only if every
    gap is nonnegative; the order can then break only through an A-only
    move on the tight link k, which has rate max(rate_A - rate_B, 0).
    Closure holds exactly when rate_A <= rate_B at every realizable tight
    configuration.

    The default gap_bound, n times the largest coordinate in either
    space, provably covers every realizable gap vector. A smaller bound
    makes any configuration that overflows it count against closure
    instead of being dropped silently.
    """
    _require_linear_pair(spec_a, spec_b)
    start = time.perf_counter()
    n = spec_a.n
    links = spec_a.links
    tables_a = [spec_a.rate_vector(link).tolist() for link in links]
    tables_b = [spec_b.rate_vector(link).tolist() for link in links]
    max_coord = 0
    for x in spec_a.states:
        max_coord = max(max_coord, max(x))
    for x in spec_b.states:
        max_coord = max(max_coord, max(x))
    bound = n * max_coord if gap_bound is None else int(gap_bound)
    witnesses = []
    exceeded = []
    checked = 0
    for k in range(n + 1):
        for ia, xa in enumerate(spec_a.states):
            for ib, xb in enumerate(spec_b.states):
                d = [0] * (n + 1)
                for j in range(k + 1, n + 1):
                    d[j] = d[j - 1] - (xb[j - 1] - xa[j - 1])
                for j in range(k, 0, -1):
                    d[j - 1] = d[j] + (xb[j - 1] - xa[j - 1])
                if min(d) < 0:
                    continue  # not reachable inside the order relation
                checked += 1
                config = TightConfiguration(k, xa, xb, tuple(d))
                if max(d) > bound:
                    exceeded.append(config)
                    continue
                ra = tables_a[k][ia]
                rb = tables_b[k][ib]
                if ra > rb:
                    witnesses.append(ClosureWitness(config, ra, rb))
    closed = not witnesses and not exceeded
    return ClosureReport(
        closed=closed,
        witnesses=tuple(witnesses),
        gap_exceeded=tuple(exceeded),
        checked=checked,
        gap_bound=bound,
        domains=dict(_DOMAINS),
        runtime=time.perf_counter() - start,
    )


def pathwise_flow_order_check(log: PairedEventLog):
    """Scan a coupled state-flow log for counter-order violations.

    Returns (time, link) pairs at which some counter of A exceeds B's.
    The log must come from the state-flow coupling with equal initial
    states and zero initial counters.
    """
    if not log.with_flows:
        raise ValueError("pathwise flow check needs a state-flow coupled log")
    violations = []
    for ev in log.events:
        for k, link in enumerate(log.links):
            if ev.flows_a[k] > ev.flows_b[k]:
                violations.append((ev.time, link))
    return violations


def pathwise_population_order_check(log: PairedEventLog):
    """Scan a coupled log for coordinatewise population-order violations.

    Returns (time, node) pairs (nodes 1-based) where A's count exceeds B's.
    """
    violations = []
    n = len(log.initial_a)
    for ev in log.events:
        for i in range(n):
            if ev.state_a[i] > ev.state_b[i]:
                violations.append((ev.time, i + 1))
    return violations


@dataclass
class TailOrderReport:
    thresholds: tuple[float, ...]
    violations: tuple[float, ...]  # survival(A) - survival(B) per threshold
    margins: tuple[float, ...]  # three standard errors per threshold
    max_violation: float
    consistent: bool

    def to_dict(self, include_runtime: bool = True) -> dict:
        return {
            "verdict": "pass" if self.consistent else "fail",
            "conditions": [],
            "witnesses": [],
            "margins": [
                {
                    "threshold": s,
                    "violation": v,
                    "allowance": m,
                }
                for s, v, m in zip(self.thresholds, self.violations, self.margins)
            ],
            "max_violation": self.max_violation,
        }


def empirical_tail_order(samples_a, samples_b) -> TailOrderReport:
    """Compare empirical survival functions of two samples.

    Consistent with A below B (in the strong order sense) when every
    positive excess of A's survival over B's stays within three standard
    errors of the difference estimate at that threshold.
    """
    a = np.asarray(list(samples_a), dtype=float)
    b = np.asarray(list(samples_b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    thresholds = np.unique(np.concatenate([a, b]))
    violations = []
    margins = []
    na, nb = a.size, b.size
    for s in thresholds:
        pa = float(np.mean(a > s))
        pb = float(np.mean(b > s))
        violations.append(pa - pb)
        margins.append(3.0 * math.sqrt(pa * (1 - pa) / na + pb * (1 - pb) / nb))
    consistent = all(v <= m for v, m in zip(violations, margins))
    return TailOrderReport(
        thresholds=tuple(float(s) for s in thresholds),
        violations=tuple(violations),
        margins=tuple(margins),
        max_violation=max([0.0] + violations),
        consistent=consistent,
    )


@dataclass
class MeanOrderReport:
    link: Link
    times: tuple[float, ...]
    mean_a: tuple[float, ...]
    mean_b: tuple[float, ...]
    margins: tuple[float, ...]  # mean_b - mean_a per time
    tol: float
    passed: bool
    runtime: float

    def to_dict(self, include_runtime: bool = True) -> dict:
        d = {
            "verdict": "pass" if self.passed else "fail",
            "link": list(self.link),
            "tol": self.tol,
            "conditions": [],
            "witnesses": [],
            "margins": [
                {"time": t, "mean_a": ma, "mean_b": mb, "margin": mg}
                for t, ma, mb, mg in zip(self.times, self.mean_a, self.mean_b, self.margins)
            ],
        }
        if include_runtime:
            d["runtime"] = self.runtime
        return d


def mean_order_check(
    spec_a: NetworkSpec,
    spec_b: NetworkSpec,
    link: Link,
    times,
    init,
    tol: float = 1e-8,
    flow_tol: float = 1e-10,
) -> MeanOrderReport:
    """Expected-flow margins of B over A on a time grid.

    Both models start from the same state (which must lie in both state
    spaces) with zero counters. Passes when every margin is at least -tol.
    Each model's expected flows come from one transient_mean_flow call
    over the whole grid; flow_tol bounds the truncation error of every
    mean, and rounding adds a relative error of order K times machine
    epsilon, K being the Poisson truncation depth.
    """
    start = time.perf_counter()
    init = tuple(int(v) for v in init)
    if init not in spec_a.state_index or init not in spec_b.state_index:
        raise ModelError(f"initial state {init} must lie in both state spaces")
    times = tuple(float(t) for t in times)
    mean_a = transient_mean_flow(spec_a, init, link, times, flow_tol)
    mean_b = transient_mean_flow(spec_b, init, link, times, flow_tol)
    margins = tuple(mb - ma for ma, mb in zip(mean_a, mean_b))
    return MeanOrderReport(
        link=link,
        times=times,
        mean_a=mean_a,
        mean_b=mean_b,
        margins=margins,
        tol=tol,
        passed=all(m >= -tol for m in margins),
        runtime=time.perf_counter() - start,
    )
