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
    stays below B coordinatewise under the same coupling, read without
    its counters.
  * verify_tight_configurations: an exact closure check of the flow-order
    relation itself. Per-node balance pins the vector of per-link counter
    gaps once one link's gap is fixed at zero, so all configurations that
    could break the order are finitely enumerable; the relation is closed
    exactly when no tight link can fire an A-only move. With P and P'
    the prefix sums of x and x' (P_0 = 0) and S = P' - P, the gap vector
    tight at link k is d = S_k - S, realizable exactly when S_k = max S.

The closure check is implied by the flow conditions but not conversely,
so it can certify pairs the pointwise conditions reject.

All three enumerate |A|·|B| pairs of states (closure once per tight
link, so |A|·|B|·(n+1) configurations) as numpy masks over blocks of
A's states times all of B's, about 2**16 pairs a block. Their temporary
arrays therefore stay within a few MiB at any state-space size, and
reports list witnesses in the order a scan by A's state, then B's, meets
them.

Pathwise and statistical diagnostics complement the exact routes:
violation scans over a coupled log's flows and visits arrays, an
empirical tail comparison with a three-standard-error margin, and a
mean-flow margin check on a time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import PairedEventLog
from .ctmc import ToleranceError, transient_mean_flow
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

# The exact checks scan all pairs of states as blocks of A's states times
# all of B's with about this many pairs each, so their temporaries stay a
# few MiB however large the two state spaces are.
_BLOCK_PAIRS = 1 << 16


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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def witnesses(self) -> tuple[Witness, ...]:
        return tuple(w for c in self.conditions for w in c.witnesses)

    def to_dict(self) -> dict:
        return {
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


def _require_linear_pair(spec_a: NetworkSpec, spec_b: NetworkSpec):
    if not is_linear_family(spec_a) or not is_linear_family(spec_b):
        raise ModelError("order checks need the linear link family on both models")
    if spec_a.n != spec_b.n:
        raise ModelError("order checks need the same number of nodes on both models")


def _row_blocks(m_a: int, m_b: int):
    """Slices of A's state indices, each covering at most _BLOCK_PAIRS pairs
    with all of B's states (one row when B alone has more)."""
    step = max(1, _BLOCK_PAIRS // m_b)
    return [slice(lo, min(lo + step, m_a)) for lo in range(0, m_a, step)]


def _hits(mask, rows: slice, first_only: bool):
    """(ia, ib) of the True entries of a block mask, in row-major order.

    ia indexes A's whole state space; with first_only at most one hit.
    """
    flat = np.flatnonzero(mask)
    if first_only:
        flat = flat[:1]
    ia, ib = np.divmod(flat, mask.shape[1])
    return ia + rows.start, ib


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

    Verdicts are exact rate comparisons with no tolerance. Witnesses come
    in order of A's state, then B's. With all_witnesses=False only the
    first witness per condition is kept.
    """
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    xa, xb = np.asarray(spec_a.states), np.asarray(spec_b.states)
    blocks = _row_blocks(len(xa), len(xb))
    conditions = []
    for k, link in enumerate(spec_a.links):
        name = f"flow-link-{k}"
        ra, rb = spec_a.rate_vector(link), spec_b.rate_vector(link)
        witnesses = []
        for rows in blocks:
            failing = ra[rows, None] > rb
            if k > 0:
                failing &= xa[rows, k - 1, None] <= xb[:, k - 1]
            if k < n:
                failing &= xa[rows, k, None] >= xb[:, k]
            ia, ib = _hits(failing, rows, not all_witnesses)
            for i, j, rate_a, rate_b in zip(
                ia.tolist(), ib.tolist(), ra[ia].tolist(), rb[ib].tolist()
            ):
                witnesses.append(
                    Witness(name, "rate", spec_a.states[i], spec_b.states[j], rate_a, rate_b)
                )
            if witnesses and not all_witnesses:
                break
        conditions.append(
            ConditionResult(condition=name, passed=not witnesses, witnesses=tuple(witnesses))
        )
    return ConditionReport(
        kind="flow",
        domains=dict(_DOMAINS),
        conditions=tuple(conditions),
        all_witnesses=all_witnesses,
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
    the exit link. Witnesses come in order of A's state, then B's, with
    the inflow part first at a pair that fails both; with
    all_witnesses=False only the first is kept per node.
    """
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    xa, xb = np.asarray(spec_a.states), np.asarray(spec_b.states)
    rates = [(spec_a.rate_vector(link), spec_b.rate_vector(link)) for link in spec_a.links]
    witnesses_by_node: dict[int, list] = {i: [] for i in range(1, n + 1)}
    for rows in _row_blocks(len(xa), len(xb)):
        below = np.ones((rows.stop - rows.start, len(xb)), dtype=bool)
        for i in range(n):
            below &= xa[rows, i, None] <= xb[:, i]
        for node in range(1, n + 1):
            found = witnesses_by_node[node]
            if found and not all_witnesses:
                continue  # first witness already found for this node
            name = f"population-node-{node}"
            premise = below & (xa[rows, node - 1, None] == xb[:, node - 1])
            # arrival link for node 1, else link (node-1, node); out via link node
            (ra_in, rb_in), (ra_out, rb_out) = rates[node - 1], rates[node]
            inflow = premise & (ra_in[rows, None] > rb_in)
            outflow = premise & (ra_out[rows, None] < rb_out)
            ia, ib = _hits(inflow | outflow, rows, not all_witnesses)
            for i, j in zip(ia.tolist(), ib.tolist()):
                xa_i, xb_j = spec_a.states[i], spec_b.states[j]
                if inflow[i - rows.start, j]:
                    found.append(
                        Witness(name, "inflow", xa_i, xb_j, float(ra_in[i]), float(rb_in[j]))
                    )
                if outflow[i - rows.start, j] and (all_witnesses or not found):
                    found.append(
                        Witness(name, "outflow", xa_i, xb_j, float(ra_out[i]), float(rb_out[j]))
                    )
        if not all_witnesses and all(witnesses_by_node.values()):
            break
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
    checked: int
    gap_bound: int
    domains: dict

    def to_dict(self) -> dict:
        return {
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
            # no realizable gap exceeds gap_bound (see verify_tight_configurations)
            "gap_exceeded": [],
            "margins": [],
        }


def verify_tight_configurations(spec_a: NetworkSpec, spec_b: NetworkSpec) -> ClosureReport:
    """Exact closure check of the flow-order relation under the coupling.

    For equal starts with zero counters, node balance forces
    x'_i - x_i = d_{i-1} - d_i for the per-link counter gaps d. Fixing
    d_k = 0 therefore determines the whole gap vector from (x, x'). A
    configuration is realizable under the order relation only if every
    gap is nonnegative; the order can then break only through an A-only
    move on the tight link k, which has rate max(rate_A - rate_B, 0).
    Closure holds exactly when rate_A <= rate_B at every realizable tight
    configuration.

    In prefix sums: with P_j = x_1 + ... + x_j (P_0 = 0) for each model
    and S = P' - P, a vector of length n+1, the gap vector tight at k is
    d = S_k - S. The pair is realizable at k exactly when S_k = max S,
    and then max d = max S - min S for every such k. So one S array
    settles every tight link of a pair, and the scan runs over blocks of
    A's states times all of B's, about 2**16 pairs each, which bounds its
    temporaries to a few MiB whatever the size of the spaces.

    The report's gap_bound is n times the largest coordinate c in either
    space, and no gap can exceed it: S_j - S_i is the sum of x'_l - x_l
    over i < l <= j, each term lies in [-c, c], so max S - min S <= n·c.
    Witnesses come per tight link, then in order of A's state and B's.
    """
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    xa, xb = np.asarray(spec_a.states), np.asarray(spec_b.states)
    # P_j per state, one row per j, so that S_j of a block is one contiguous plane
    prefix_a = np.zeros((n + 1, len(xa)), dtype=xa.dtype)
    prefix_b = np.zeros((n + 1, len(xb)), dtype=xb.dtype)
    prefix_a[1:] = xa.cumsum(axis=1).T
    prefix_b[1:] = xb.cumsum(axis=1).T
    rates = [(spec_a.rate_vector(link), spec_b.rate_vector(link)) for link in spec_a.links]
    witnesses: list[list] = [[] for _ in range(n + 1)]
    checked = 0
    for rows in _row_blocks(len(xa), len(xb)):
        s = prefix_b[:, None, :] - prefix_a[:, rows, None]
        top = s.max(axis=0)
        for k, (ra, rb) in enumerate(rates):
            tight = s[k] == top  # realizable with d_k = 0
            checked += int(np.count_nonzero(tight))
            ia, ib = _hits(tight & (ra[rows, None] > rb), rows, False)
            for i, j in zip(ia.tolist(), ib.tolist()):
                s_ij = s[:, i - rows.start, j]
                gaps = tuple((s_ij[k] - s_ij).tolist())
                config = TightConfiguration(k, spec_a.states[i], spec_b.states[j], gaps)
                witnesses[k].append(ClosureWitness(config, float(ra[i]), float(rb[j])))
    witnesses = [w for per_link in witnesses for w in per_link]
    return ClosureReport(
        closed=not witnesses,
        witnesses=tuple(witnesses),
        checked=checked,
        gap_bound=n * int(max(xa.max(initial=0), xb.max(initial=0))),
        domains=dict(_DOMAINS),
    )


def pathwise_flow_order_check(log: PairedEventLog):
    """Scan a coupled log for counter-order violations.

    Returns (time, link) pairs, in (event, link) order, at which some
    counter of A exceeds B's, comparing the rows after each event of the
    log's two flows arrays. Counters start at zero, so the scan is
    meaningful for equal initial states.
    """
    events, ahead = np.nonzero(log.flows("a")[1:] > log.flows("b")[1:])
    times, links = log.times, log.links
    return [(times[e], links[k]) for e, k in zip(events.tolist(), ahead.tolist())]


def pathwise_population_order_check(log: PairedEventLog):
    """Scan a coupled log for coordinatewise population-order violations.

    Returns (time, node) pairs (nodes 1-based), in (event, node) order,
    where A's count exceeds B's. The states after each event are read
    through the log's visits arrays; the counters are not needed.
    """
    n = len(log.initial_a)
    states_a = np.asarray(log.states_a, dtype=np.int64).reshape(-1, n)
    states_b = np.asarray(log.states_b, dtype=np.int64).reshape(-1, n)
    events, nodes = np.nonzero(states_a[log.visits("a")] > states_b[log.visits("b")])
    times = log.times
    return [(times[e], i + 1) for e, i in zip(events.tolist(), nodes.tolist())]


@dataclass
class TailOrderReport:
    thresholds: tuple[float, ...]
    violations: tuple[float, ...]  # survival(A) - survival(B) per threshold
    margins: tuple[float, ...]  # three standard errors per threshold
    max_violation: float
    consistent: bool

    def to_dict(self) -> dict:
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

    def to_dict(self) -> dict:
        return {
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
    tol must be finite and nonnegative, or ToleranceError is raised: an
    infinite tol would pass any margins, a NaN one fail all of them, and
    a negative one demand a margin of at least |tol|.
    Each model's expected flows come from one transient_mean_flow call
    over the whole grid; flow_tol bounds the truncation error of every
    mean, and rounding adds a relative error of order K times machine
    epsilon, K being the Poisson truncation depth.
    """
    if not 0.0 <= tol < math.inf:
        raise ToleranceError(f"margin tolerance must be finite and nonnegative, not {tol:g}")
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
    )
