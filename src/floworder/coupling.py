"""Marching-soldiers couplings of two population processes.

Two chains A and B over the same link family move together as much as
their rates allow: on each link with component rates a and b, the pair
takes a joint step at min(a, b), B alone at max(b - a, 0) and A alone at
max(a - b, 0). Each marginal therefore sees exactly its own rates, and
whenever one rate dominates the other, only the dominant side can step
ahead. There is one form, the state-flow coupling: the pair (x, x') with
per-link flow counters for both sides. It runs on ctmc.gillespie over
index pairs (i, i'), with the bins (joint, B-only, A-only) of each link
in declared link order. A pair's row of running bin sums is built on its
first visit and kept, so only the pairs a path reaches are ever
evaluated.

A coupled path is a PairedEventLog of three columns: event times, bins
and state-index pairs. The flow counters are not stored: each is the
number of events so far on its link in which its side moved, so
paired_log_csv, ordering.pathwise_flow_order_check and the events view
count them from the bins column as they go. The population coupling is
the same path read without its counters, from the pairs column alone
(ordering.pathwise_population_order_check).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from .ctmc import EventLog, EventView, _link_arrays, _state_labels, gillespie
from .model import Link, ModelError, NetworkSpec, State

__all__ = [
    "marching_rates",
    "CoupledSpec",
    "build_stateflow_coupling",
    "CoupledEvent",
    "PairedEventLog",
    "simulate_coupled",
    "paired_log_csv",
]

JOINT = "joint"
B_ONLY = "b_only"
A_ONLY = "a_only"
_KINDS = (JOINT, B_ONLY, A_ONLY)  # bin order within a link: bin = 3 * link + kind


def marching_rates(a: float, a_prime: float) -> tuple[float, float, float]:
    """(joint, b_only, a_only) rates for component rates a and a_prime.

    Marginality holds by construction: joint + a_only equals a, and
    joint + b_only equals a_prime.
    """
    if a < 0 or a_prime < 0:
        raise ValueError("component rates must be nonnegative")
    joint = a if a <= a_prime else a_prime
    return (joint, max(a_prime - a, 0.0), max(a - a_prime, 0.0))


@dataclass
class CoupledSpec:
    """A pair of specs over one link family, coupled link by link.

    The coupled generator is never materialized; simulate_coupled builds
    the rates of a pair from the component rate arrays when a path first
    reaches it, so the reachable pair space stays implicit.
    """

    spec_a: NetworkSpec
    spec_b: NetworkSpec

    def __post_init__(self):
        if self.spec_a.n != self.spec_b.n:
            raise ModelError("coupled specs must have the same number of nodes")
        if self.spec_a.links != self.spec_b.links:
            raise ModelError("coupled specs must share the link family")

    @property
    def links(self) -> tuple[Link, ...]:
        return self.spec_a.links

    @property
    def n(self) -> int:
        return self.spec_a.n


def build_stateflow_coupling(spec_a: NetworkSpec, spec_b: NetworkSpec) -> CoupledSpec:
    return CoupledSpec(spec_a=spec_a, spec_b=spec_b)


class CoupledEvent(NamedTuple):
    """One coupled event: both states and both sides' counters after it.

    flows_a[k] and flows_b[k] count the events so far on links[k] in
    which that side moved; both start at zero.
    """

    time: float
    link: Link
    kind: str  # "joint", "b_only" or "a_only"
    state_a: State
    state_b: State
    flows_a: tuple[int, ...]
    flows_b: tuple[int, ...]


@dataclass
class PairedEventLog:
    """One coupled path, as columns over its events.

    times[e] is the time of event e; bins[e] is 3 * k + kind, with k the
    position of its link in `links` and kind 0, 1, 2 for joint, B-only
    and A-only; pairs[e] is ia * len(states_b) + ib, the indices in
    states_a and states_b of the two states after it. Flow counters
    start at zero and are counted from the bins column when read.
    """

    initial_a: State
    initial_b: State
    links: tuple[Link, ...]
    states_a: tuple[State, ...] = field(repr=False)
    states_b: tuple[State, ...] = field(repr=False)
    times: array
    bins: array
    pairs: array
    horizon: float
    absorbed: bool
    # The path as CoupledEvent tuples, counters included.
    events: EventView = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.events = EventView(len(self.times), self._events)

    @property
    def initial_flows_a(self) -> tuple[int, ...]:
        return (0,) * len(self.links)

    @property
    def initial_flows_b(self) -> tuple[int, ...]:
        return self.initial_flows_a

    def _events(self):
        links, states_a, states_b = self.links, self.states_a, self.states_b
        width = len(states_b)
        flows_a, flows_b = [0] * len(links), [0] * len(links)
        for t, b, pair in zip(self.times, self.bins, self.pairs):
            k, kind = divmod(b, 3)
            ia, ib = divmod(pair, width)
            if kind != 1:  # A moved
                flows_a[k] += 1
            if kind != 2:  # B moved
                flows_b[k] += 1
            yield CoupledEvent(
                t, links[k], _KINDS[kind], states_a[ia], states_b[ib],
                tuple(flows_a), tuple(flows_b),
            )

    def project(self, side: str) -> EventLog:
        """Component event log of side 'a' or 'b' (joint plus one-sided moves).

        The projection is absorbed when the coupled path is, since then
        neither side can move. A side that absorbs while the other still
        moves is not flagged, because the log holds no rates to tell.
        """
        if side not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b'")
        skip = 1 if side == "a" else 2  # the other side's one-sided kind
        which = 0 if side == "a" else 1
        width = len(self.states_b)
        times, moves, visits = array("d"), array("q"), array("q")
        for t, b, pair in zip(self.times, self.bins, self.pairs):
            k, kind = divmod(b, 3)
            if kind != skip:
                times.append(t)
                moves.append(k)
                visits.append(divmod(pair, width)[which])
        return EventLog(
            initial=self.initial_a if side == "a" else self.initial_b,
            times=times,
            moves=moves,
            visits=visits,
            states=self.states_a if side == "a" else self.states_b,
            horizon=self.horizon,
            absorbed=self.absorbed,
            links=self.links,
        )


def _pair_row(component_rates):
    """Kernel row (total, cumulative, last) of a pair, from each link's rates (a, b).

    The bins are (joint, B-only, A-only) per link, the total is summed
    link by link, and `last` is the last bin with a positive rate, read
    from the rates since one can vanish in the running sum.
    """
    total = acc = 0.0
    cumulative = []
    last = 0
    for a, b in component_rates:
        # marching_rates(a, b), up to the sign of a zero rate
        triple = (a if a <= b else b, b - a if b > a else 0.0, a - b if a > b else 0.0)
        total += triple[0] + triple[1] + triple[2]
        for r in triple:
            acc += r
            if r > 0.0:
                last = len(cumulative)
            cumulative.append(acc)
    return total, cumulative, last


class _Rows(dict):
    """Kernel rows by state, each built by `build` on its first visit and kept.

    A dict, so that the kernel's lookup of a visited state runs no Python code.
    """

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, state):
        row = self[state] = self._build(state)
        return row


def simulate_coupled(
    coupled: CoupledSpec,
    init_a,
    init_b,
    horizon: float,
    seed: int,
) -> PairedEventLog:
    """Simulate the coupled chain; counters start at zero.

    The kernel's state is the pair code ia * len(B's states) + ib.
    Candidate events are ordered (joint, B-only, A-only) within each link
    and links keep their declared order, so a seed fixes the path exactly.
    A pair's total rate is summed link by link, each link's three rates
    first.
    """
    xa = tuple(int(v) for v in init_a)
    xb = tuple(int(v) for v in init_b)
    if xa not in coupled.spec_a.state_index:
        raise ModelError(f"initial state {xa} not in the first state space")
    if xb not in coupled.spec_b.state_index:
        raise ModelError(f"initial state {xb} not in the second state space")
    arrays_a, arrays_b = _link_arrays(coupled.spec_a), _link_arrays(coupled.spec_b)
    rates = [(ra.tolist(), rb.tolist()) for (ra, _), (rb, _) in zip(arrays_a, arrays_b)]
    width = len(coupled.spec_b.states)

    def row(pair):
        ia, ib = divmod(pair, width)
        return _pair_row([(rates_a[ia], rates_b[ib]) for rates_a, rates_b in rates])

    # Per bin, where each side goes: a side that does not move keeps its index.
    stay_a = list(range(len(coupled.spec_a.states)))
    stay_b = list(range(width))
    targets = []
    for (_, next_a), (_, next_b) in zip(arrays_a, arrays_b):
        next_a, next_b = next_a.tolist(), next_b.tolist()
        targets += [(next_a, next_b), (stay_a, next_b), (next_a, stay_b)]

    def advance(pair, b):
        ia, ib = divmod(pair, width)
        next_a, next_b = targets[b]
        return next_a[ia] * width + next_b[ib]

    start = coupled.spec_a.state_index[xa] * width + coupled.spec_b.state_index[xb]
    times, bins, pairs, absorbed = gillespie(
        _Rows(row).__getitem__, advance, start, horizon, seed
    )
    return PairedEventLog(
        initial_a=xa,
        initial_b=xb,
        links=coupled.links,
        states_a=coupled.spec_a.states,
        states_b=coupled.spec_b.states,
        times=times,
        bins=bins,
        pairs=pairs,
        horizon=float(horizon),
        absorbed=absorbed,
    )


def paired_log_csv(log: PairedEventLog) -> str:
    """CSV rows: time,link_from,link_to,which,stateA,stateB,flowA,flowB.

    Each state's label and each bin's `i,j,kind,` prefix are formatted
    once; a counter cell is re-joined only when its side moved.
    """
    prefixes = [f"{i},{j},{kind}," for i, j in log.links for kind in _KINDS]
    labels_a, labels_b = _state_labels(log.states_a), _state_labels(log.states_b)
    width = len(log.states_b)
    counts_a, counts_b = [0] * len(log.links), [0] * len(log.links)
    cells_a, cells_b = ["0"] * len(log.links), ["0"] * len(log.links)
    fa = fb = ";".join(cells_a)
    lines = ["time,link_from,link_to,which,stateA,stateB,flowA,flowB"]
    for t, b, pair in zip(log.times, log.bins, log.pairs):
        ia, ib = divmod(pair, width)
        k, kind = divmod(b, 3)
        if kind != 1:  # A moved
            counts_a[k] += 1
            cells_a[k] = str(counts_a[k])
            fa = ";".join(cells_a)
        if kind != 2:  # B moved
            counts_b[k] += 1
            cells_b[k] = str(counts_b[k])
            fb = ";".join(cells_b)
        lines.append(f"{t!r},{prefixes[b]}{labels_a[ia]},{labels_b[ib]},{fa},{fb}")
    return "\n".join(lines) + "\n"
