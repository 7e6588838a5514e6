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

All three quantify over |A|·|B| pairs of states (closure once per tight
link, so |A|·|B|·(n+1) configurations). Every premise is a dominance
relation on one to n coordinates, so each condition is one query on a
grid of those coordinates' values over both spaces: a prefix minimum or
maximum of B's rate, or for closure's `checked` an int64 prefix count
of B's states, read at each of A's states. A grid query costs
O(|A| + |B| + cells) and forms no pair; the grid is swept in slabs of
about _BLOCK_PAIRS cells, so it is never held whole. Where the pairs
fit in one block of _BLOCK_PAIRS, where the grid would have more cells
than there are pairs (a few states spread over many values, as on a
listed diagonal), or where one slice of it alone would exceed a block,
the query scans the pairs instead, a block at a time. So no query costs
much more than a scan of the pairs. Each axis is the signed sum of a
run of coordinates, one int64 column over both spaces (see _axis), and
a condition builds its axes only when it is reached, so the working
memory is a few blocks plus one such column per axis of the condition
at hand, besides the query's own arrays over the states.

One routine, _breaches, decides every condition of the three checks.
The verdict comes from the query alone: a condition fails exactly at
the states of A where some part's bound breaches A's rate, and passes
(or closes) when there are none. Witnesses are then listed from the
same premise, each failing state against all of B's, in the order a
scan by A's state, then B's, then part meets them. Query
and listing must agree: a failing state with no listed partner raises
RuntimeError, so a fault in the listing cannot turn a fail into a pass.

Pathwise and expected-flow diagnostics complement the exact routes:
violation scans over a coupled log's flows and visits arrays, and a
mean-flow margin check on a time grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coupling import PairedEventLog, _flow_blocks
from .ctmc import ToleranceError, transient_mean_flow
from .model import Link, ModelError, NetworkSpec, State, _as_state, _row_state, is_linear_family

__all__ = [
    "Witness",
    "ConditionResult",
    "ConditionReport",
    "TightConfiguration",
    "ClosureWitness",
    "ClosureReport",
    "MeanOrderReport",
    "check_flow_conditions",
    "check_population_conditions",
    "verify_tight_configurations",
    "pathwise_flow_order_check",
    "flow_order_violations",
    "pathwise_population_order_check",
    "mean_order_check",
]

# The premise of each pointwise condition quantifies the first state over
# model A's space and the second over model B's space. Reports carry this
# convention explicitly so a reader can audit what was enumerated.
_DOMAINS = {"state_a": "model A state space", "state_b": "model B state space"}

# The exact checks sweep a dominance grid of more cells than this in slabs
# of about this many cells (one slice of the grid at least), so that no
# grid is held whole, however large the two state spaces are.
_BLOCK_PAIRS = 1 << 16

# Per op of a condition's part (see _breaches): its identity, and the
# comparison by which a rate of B breaches A's rate.
_PARTS = {np.minimum: (np.inf, np.less), np.maximum: (-np.inf, np.greater)}


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


def _axis(spec_a: NetworkSpec, spec_b: NetworkSpec, lo: int, hi: int, sign: int = 1):
    """The grid axis of sign·(x_{lo+1} + ... + x_hi) over both spaces: an
    (A's cells, B's cells, size) triple, each cells a contiguous column.

    Cells are ordered as the values are. A run whose values span no more
    integers than the two spaces have states indexes the grid by its value
    less the least value; any other run, such as coordinates near 10**9 on
    a few listed states, by its rank among the distinct values of both
    spaces. So no axis is longer than |A| + |B|.
    """
    xa, xb = spec_a.coords, spec_b.coords
    values = np.concatenate((xa[:, lo], xb[:, lo]))
    for c in range(lo + 1, hi):
        values += np.concatenate((xa[:, c], xb[:, c]))
    least, most = values.min(), values.max()
    if most - least >= len(values):
        distinct, values = np.unique(values, return_inverse=True)
        least, most = 0, len(distinct) - 1
    if sign > 0:
        values -= least
    else:  # the negated run's cells: the run's in reverse order
        np.subtract(most, values, out=values)
    return values[: len(xa)], values[len(xa) :], int(most - least) + 1


def _dominance(axes, queries, exact: bool = False):
    """For each query (op, identity, values_b) and each of A's states x,
    op reduced over values_b at the states x' of B whose cell is at most
    x's on every axis, and equal to it on the first if `exact`; identity
    where no state of B qualifies. One array per query, indexed by A's
    states.

    op is np.minimum, np.maximum or np.add, with identity inf, -inf or 0;
    axes come from _axis. Each query puts B's values on the grid of cells,
    accumulates it by op along every axis but an exact one and reads it at
    A's cells: O(|A| + |B| + cells) work, and no pair of states is formed.
    The grid is swept in slabs of about _BLOCK_PAIRS cells, one slice at
    least, along its first axis: each slab is accumulated along the other
    axes, then along the first, starting from the last slice of the slab
    before it.

    The pairs are scanned instead (_scan_rows) where they fit in one block
    of _BLOCK_PAIRS, a single pass of a few numpy calls, which on small
    spaces costs less than sorting the states into slabs; where the grid
    has more cells than there are pairs; and where one slice alone has
    more cells than a block. So a query never costs much more than the
    scan, and besides a few arrays over the states its memory stays
    within a few blocks of _BLOCK_PAIRS either way.
    """
    cells_a, cells_b, shape = zip(*axes)
    pairs, slice_cells = len(cells_a[0]) * len(cells_b[0]), math.prod(shape[1:])
    if pairs <= _BLOCK_PAIRS or slice_cells * shape[0] > pairs or slice_cells > _BLOCK_PAIRS:
        return _scan_rows(axes, queries, exact)
    step = _BLOCK_PAIRS // slice_cells
    order_a, order_b = np.argsort(cells_a[0]), np.argsort(cells_b[0])
    ends = list(range(0, shape[0], step)) + [shape[0]]
    cut_a = np.searchsorted(cells_a[0], ends, sorter=order_a).tolist()
    cut_b = np.searchsorted(cells_b[0], ends, sorter=order_b).tolist()
    outs = [np.empty(len(order_a), dtype=values_b.dtype) for _, _, values_b in queries]
    carries = [None] * len(queries)
    for s, lo in enumerate(ends[:-1]):
        in_a, in_b = order_a[cut_a[s] : cut_a[s + 1]], order_b[cut_b[s] : cut_b[s + 1]]
        at_a = (cells_a[0][in_a] - lo,) + tuple(a[in_a] for a in cells_a[1:])
        at_b = (cells_b[0][in_b] - lo,) + tuple(b[in_b] for b in cells_b[1:])
        for q, (op, identity, values_b) in enumerate(queries):
            slab = np.full((ends[s + 1] - lo,) + shape[1:], identity, dtype=values_b.dtype)
            op.at(slab, at_b, values_b[in_b])
            for axis in range(1, len(shape)):
                op.accumulate(slab, axis=axis, out=slab)
            if not exact:
                if carries[q] is not None:
                    op(slab[0], carries[q], out=slab[0])
                op.accumulate(slab, axis=0, out=slab)
                carries[q] = slab[-1]
            outs[q][in_a] = slab[at_a]
    return outs


def _admitted(axes, rows, exact: bool):
    """Which of B's states the premise of _dominance admits for A's states
    at `rows`: cell at most theirs on every axis, and equal on the first
    if `exact`. One row of the mask per state for a slice, and a 1-D mask
    for a single index."""
    (first_a, first_b, _), *rest = axes
    admitted = (np.equal if exact else np.less_equal)(first_b, first_a[rows, None])
    for a, b, _ in rest:
        admitted &= b <= a[rows, None]
    return admitted


def _scan_rows(axes, queries, exact: bool):
    """_dominance by scanning the pairs, in blocks of A's states against
    all of B's of about _BLOCK_PAIRS pairs (one row when B alone has more)."""
    m_a, m_b = len(axes[0][0]), len(axes[0][1])
    outs = [np.empty(m_a, dtype=values_b.dtype) for _, _, values_b in queries]
    step = max(1, _BLOCK_PAIRS // m_b)
    for lo in range(0, m_a, step):
        rows = slice(lo, lo + step)
        admitted = _admitted(axes, rows, exact)
        for out, (op, identity, values_b) in zip(outs, queries):
            out[rows] = op.reduce(np.where(admitted, values_b, identity), axis=1)
    return outs


def _breaches(axes, parts, first: bool, exact: bool = False, extra=()):
    """Where one condition fails: its verdict, and the pairs that show it.

    Each part (ra, rb, op) asks that A's rate ra be at most B's rate rb
    (op np.minimum) or at least it (np.maximum) at every pair the premise
    of axes admits (see _dominance). One _dominance call answers the
    queries in `extra` and, per part, the least or largest rb over the
    premise at each of A's states; A's state fails where some part's
    answer breaches its ra.

    Returns (failing, pairs, answers to extra): the failing states of A,
    and the breaching (i, j, part) triples that _admitted lists from the
    same premise, one failing state against all of B's at a time, in
    order of A's state i, then B's j, then part; only the first, at the
    first failing state, when `first` is set. A listed failing state with
    no breaching partner means the query and the listing disagree, and
    raises RuntimeError rather than pass.
    """
    queries = [(op, _PARTS[op][0], rb) for _, rb, op in parts]
    answers = _dominance(axes, [*extra, *queries], exact)
    bounds = zip(parts, answers[len(extra) :])
    breached = [_PARTS[op][1](bound, ra) for (ra, _, op), bound in bounds]
    (failing,) = np.nonzero(functools.reduce(np.logical_or, breached))
    stop = 1 if first else None
    pairs = []
    for i in failing[:stop].tolist():
        premise = _admitted(axes, i, exact)
        hits = [premise & _PARTS[op][1](rb, ra[i]) for ra, rb, op in parts]
        js = np.nonzero(functools.reduce(np.logical_or, hits))[0][:stop].tolist()
        if not js:
            raise RuntimeError(f"state {i} of model A fails its query but has no listed partner")
        pairs += [(i, j, p) for j in js for p, hit in enumerate(hits) if hit[j]][:stop]
    return failing, pairs, answers[: len(extra)]


def _condition_report(kind: str, spec_a, spec_b, conditions, all_witnesses: bool):
    """The ConditionReport of conditions given as (name, axes, exact,
    parts), parts a dict of named (ra, rb, op) parts (see _breaches):
    each passes exactly when no state of A fails its query."""
    xa, xb = spec_a.coords, spec_b.coords
    results = []
    for name, axes, exact, parts in conditions:
        named = list(parts.items())
        failing, pairs, _ = _breaches(axes, list(parts.values()), not all_witnesses, exact)
        witnesses = []
        for i, j, p in pairs:
            part, (ra, rb, _) = named[p]
            state_a, state_b = _row_state(xa, i), _row_state(xb, j)
            witnesses.append(Witness(name, part, state_a, state_b, float(ra[i]), float(rb[j])))
        results.append(ConditionResult(name, passed=not len(failing), witnesses=tuple(witnesses)))
    return ConditionReport(kind, dict(_DOMAINS), tuple(results), all_witnesses)


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

    Each premise is a dominance relation on one or two coordinates, so
    link k fails at x exactly when rate_A(x) exceeds the least rate_B over
    the x' it admits: one prefix or suffix minimum on a grid of those
    coordinates' values over both spaces, read at every x, or a scan of
    the pairs where that costs less (see _dominance). That query alone
    gives the verdict; pairs are listed from the same premise (see
    _breaches), and only for the first failing x unless all_witnesses is
    set.

    Verdicts are exact rate comparisons with no tolerance. Witnesses come
    in order of A's state, then B's. With all_witnesses=False only the
    first witness per condition is kept.
    """
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    axis = functools.partial(_axis, spec_a, spec_b)
    # link k: x admits the x' with x'_k >= x_k and x'_{k+1} <= x_{k+1}
    conditions = (
        (
            f"flow-link-{k}",
            ([axis(k - 1, k, -1)] if k > 0 else []) + ([axis(k, k + 1)] if k < n else []),
            False,
            {"rate": (spec_a.rate_vector(link), spec_b.rate_vector(link), np.minimum)},
        )
        for k, link in enumerate(spec_a.links)
    )
    return _condition_report("flow", spec_a, spec_b, conditions, all_witnesses)


def check_population_conditions(
    spec_a: NetworkSpec, spec_b: NetworkSpec, all_witnesses: bool = False
) -> ConditionReport:
    """Pointwise conditions certifying coordinatewise population dominance.

    Quantified over pairs x <= x' (x in A's space, x' in B's space). One
    condition per node i with the premise x_i = x'_i:

      inflow:   the rate into node i of A is at most B's
      outflow:  the rate out of node i of A is at least B's

    For node 1 the inflow is the arrival link; for node n the outflow is
    the exit link. On the slice x'_i = x_i the premise is x'_j >= x_j for
    every other j, so node i fails at x exactly when A's inflow exceeds
    the least inflow of B over the premise, or A's outflow falls short of
    the largest outflow: an (n-1)-D suffix minimum and maximum on a grid
    of coordinate values over both spaces, read at every x, or a scan of
    the pairs where that costs less (see _dominance). That query alone
    gives the verdict; pairs are listed from the same premise (see
    _breaches), and only for the first failing x unless all_witnesses is
    set.

    Witnesses come in order of A's state, then B's, with the inflow part
    first at a pair that fails both; with all_witnesses=False only the
    first is kept per node.
    """
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    axis = functools.partial(_axis, spec_a, spec_b)
    rates = [(spec_a.rate_vector(link), spec_b.rate_vector(link)) for link in spec_a.links]
    # node c + 1, in by link c and out by link c + 1: x admits the x' with
    # x'_{c+1} = x_{c+1} and x'_j >= x_j for every other j
    conditions = (
        (
            f"population-node-{c + 1}",
            [axis(c, c + 1)] + [axis(j, j + 1, -1) for j in range(n) if j != c],
            True,
            {"inflow": (*rates[c], np.minimum), "outflow": (*rates[c + 1], np.maximum)},
        )
        for c in range(n)
    )
    return _condition_report("population", spec_a, spec_b, conditions, all_witnesses)


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
    that is when u(x) <= u(x') componentwise for u(x)_j = P_k - P_j,
    j != k, the sum of x over a run between j and k, negated for j > k;
    and then max d = max S - min S for every such k. So for each
    tight link the verdict is an n-D suffix minimum of rate_B on the grid
    of u's ranks over both spaces, read at each of A's states, and
    `checked` is the int64 suffix count of B's states on the same grid,
    summed over A's states: O(|A| + |B| + cells) work per link, with no
    pair listed, or a scan of the pairs where that costs less (see
    _dominance). Pairs are listed only on A's states with a violating
    partner, each such row against all of B's states, and a witness's gap
    vector is read off the S of its two states.

    The report's gap_bound is n times the largest coordinate c in either
    space, and no gap can exceed it: S_j - S_i is the sum of x'_l - x_l
    over i < l <= j, each term lies in [-c, c], so max S - min S <= n·c.
    Witnesses come per tight link, then in order of A's state and B's.
    """
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    axis = functools.partial(_axis, spec_a, spec_b)
    ones = np.ones(len(spec_b.coords), dtype=np.int64)
    closed, checked, witnesses = True, 0, []
    for k, link in enumerate(spec_a.links):
        ra, rb = spec_a.rate_vector(link), spec_b.rate_vector(link)
        # realizable at k: P'_j - P'_k <= P_j - P_k for every j != k, where
        # P_j - P_k is minus the run of coordinates j + 1..k for j < k
        axes = [axis(j, k, -1) if j < k else axis(k, j) for j in range(n + 1) if j != k]
        failing, pairs, (admitted,) = _breaches(
            axes, [(ra, rb, np.minimum)], first=False, extra=[(np.add, 0, ones)]
        )
        closed = closed and not len(failing)
        checked += int(admitted.sum())
        for i, j, _ in pairs:
            state_a, state_b = _row_state(spec_a.coords, i), _row_state(spec_b.coords, j)
            s = [0, *itertools.accumulate(b - a for a, b in zip(state_a, state_b))]
            config = TightConfiguration(k, state_a, state_b, tuple(s[k] - v for v in s))
            witnesses.append(ClosureWitness(config, float(ra[i]), float(rb[j])))
    return ClosureReport(
        closed=closed,
        witnesses=tuple(witnesses),
        checked=checked,
        gap_bound=n * max(int(spec.coords.max()) for spec in (spec_a, spec_b)),
        domains=dict(_DOMAINS),
    )


def pathwise_flow_order_check(log: PairedEventLog):
    """Scan a coupled log for counter-order violations.

    Returns (time, link) pairs, in (event, link) order, at which some
    counter of A exceeds B's, comparing the rows after each event of the
    log's two flows arrays. The arrays are formed a block of events at a
    time, the counters carried from block to block, so the scan holds one
    block of them, never the whole (events + 1, links) pair. Counters
    start at zero, so the scan is meaningful for equal initial states.
    """
    times, links = log.times, log.links
    found = []
    for start, flows_a, flows_b in _flow_blocks(log):
        events, ahead = np.nonzero(flows_a[1:] > flows_b[1:])
        found += [(times[start + e], links[k]) for e, k in zip(events.tolist(), ahead.tolist())]
    return found


def flow_order_violations(log: PairedEventLog) -> int:
    """len(pathwise_flow_order_check(log)) from the same block scan, with
    no (time, link) pair made per violation."""
    return int(sum(np.count_nonzero(fa[1:] > fb[1:]) for _, fa, fb in _flow_blocks(log)))


def pathwise_population_order_check(log: PairedEventLog):
    """Scan a coupled log for coordinatewise population-order violations.

    Returns (time, node) pairs (nodes 1-based), in (event, node) order,
    where A's count exceeds B's. The states after each event are the
    coords rows at the log's visits arrays; the counters are not needed.
    """
    events, nodes = np.nonzero(log.coords_a[log.visits("a")] > log.coords_b[log.visits("b")])
    return [(log.times[e], i + 1) for e, i in zip(events.tolist(), nodes.tolist())]


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
    init = _as_state(init, "initial state")
    if spec_a.find(init) < 0 or spec_b.find(init) < 0:
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
