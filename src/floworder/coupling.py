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
and state-index pairs. The bin code 3 * k + kind and the pair code
ia * len(states_b) + ib are decoded here, once per log and as arrays,
and every reader goes through the log's array views: flows(side), each
side's counters as one (events + 1, links) int64 array, and
visits(side), each side's state index after every event. The flow-order
scan (ordering.pathwise_flow_order_check) compares the two flows arrays;
the population coupling is the same path read without its counters,
from the visits arrays alone (ordering.pathwise_population_order_check).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .ctmc import EventLog, EventView, _flow_counts, _state_labels, gillespie
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
# Per side: its entry in a decoded pair, and the kind in which it stays put.
_SIDES = {"a": (0, 1), "b": (1, 2)}


def _side(side: str) -> tuple[int, int]:
    if side not in _SIDES:
        raise ValueError("side must be 'a' or 'b'")
    return _SIDES[side]


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
    states_a and states_b of the two states after it. Both codes are
    decoded once, on first read; flows(side) and visits(side) are the
    decoded views.
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

    @cached_property
    def _bin_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """(link position, kind) of every event, read-only."""
        return _read_only(np.divmod(np.asarray(self.bins, dtype=np.int64), 3))

    @cached_property
    def _pair_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """(A's state index, B's state index) after every event, read-only."""
        pairs = np.asarray(self.pairs, dtype=np.int64)
        return _read_only(np.divmod(pairs, len(self.states_b)))

    def flows(self, side: str) -> np.ndarray:
        """Flow counters of side 'a' or 'b', as an (events + 1, links) int64 array.

        Row 0 is the zero start and row e + 1 holds the counters after
        event e: column k counts the events so far on links[k] in which
        that side moved (joint or its own one-sided kind).
        """
        _, still = _side(side)
        positions, kinds = self._bin_codes
        return _flow_counts(positions, kinds != still, len(self.links))

    def visits(self, side: str) -> np.ndarray:
        """State index of side 'a' or 'b' after every event, read-only."""
        column, _ = _side(side)
        return self._pair_codes[column]

    def _events(self):
        links, states_a, states_b = self.links, self.states_a, self.states_b
        positions, kinds = (codes.tolist() for codes in self._bin_codes)
        visits_a, visits_b = (codes.tolist() for codes in self._pair_codes)
        # zip over the columns yields each row as a tuple
        flows_a = zip(*self.flows("a")[1:].T.tolist())
        flows_b = zip(*self.flows("b")[1:].T.tolist())
        for t, k, kind, ia, ib, fa, fb in zip(
            self.times, positions, kinds, visits_a, visits_b, flows_a, flows_b
        ):
            yield CoupledEvent(t, links[k], _KINDS[kind], states_a[ia], states_b[ib], fa, fb)

    def project(self, side: str) -> EventLog:
        """Component event log of side 'a' or 'b' (joint plus one-sided moves).

        The projection is absorbed when the coupled path is, since then
        neither side can move. A side that absorbs while the other still
        moves is not flagged, because the log holds no rates to tell.
        """
        column, still = _side(side)
        positions, kinds = self._bin_codes
        moved = kinds != still
        return EventLog(
            initial=self.initial_a if side == "a" else self.initial_b,
            times=array("d", np.asarray(self.times)[moved].tobytes()),
            moves=array("q", positions[moved].tobytes()),
            visits=array("q", self._pair_codes[column][moved].tobytes()),
            states=self.states_a if side == "a" else self.states_b,
            horizon=self.horizon,
            absorbed=self.absorbed,
            links=self.links,
        )


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    spec_a, spec_b = coupled.spec_a, coupled.spec_b
    xa = tuple(int(v) for v in init_a)
    xb = tuple(int(v) for v in init_b)
    if xa not in spec_a.state_index:
        raise ModelError(f"initial state {xa} not in the first state space")
    if xb not in spec_b.state_index:
        raise ModelError(f"initial state {xb} not in the second state space")
    rates = [
        (spec_a.rate_vector(link).tolist(), spec_b.rate_vector(link).tolist())
        for link in coupled.links
    ]
    width = len(spec_b.states)

    def row(pair):
        ia, ib = divmod(pair, width)
        return _pair_row([(rates_a[ia], rates_b[ib]) for rates_a, rates_b in rates])

    # Per bin, where each side goes: a side that does not move keeps its index.
    stay_a = list(range(len(spec_a.states)))
    stay_b = list(range(width))
    targets = []
    for link in coupled.links:
        next_a, next_b = spec_a.next_index(link).tolist(), spec_b.next_index(link).tolist()
        targets += [(next_a, next_b), (stay_a, next_b), (next_a, stay_b)]

    def advance(pair, b):
        ia, ib = divmod(pair, width)
        next_a, next_b = targets[b]
        return next_a[ia] * width + next_b[ib]

    start = spec_a.state_index[xa] * width + spec_b.state_index[xb]
    times, bins, pairs, absorbed = gillespie(
        _Rows(row).__getitem__, advance, start, horizon, seed
    )
    return PairedEventLog(
        initial_a=xa,
        initial_b=xb,
        links=coupled.links,
        states_a=spec_a.states,
        states_b=spec_b.states,
        times=times,
        bins=bins,
        pairs=pairs,
        horizon=float(horizon),
        absorbed=absorbed,
    )


def paired_log_csv(log: PairedEventLog) -> str:
    """CSV rows: time,link_from,link_to,which,stateA,stateB,flowA,flowB.

    Each state's label and each bin's `i,j,kind,` prefix are formatted
    once; the counters are counted as the rows are written, from the
    log's decoded codes, and a cell is re-joined only when its side moved.
    """
    prefixes = [f"{i},{j},{kind}," for i, j in log.links for kind in _KINDS]
    labels_a, labels_b = _state_labels(log.states_a), _state_labels(log.states_b)
    positions, kinds = (codes.tolist() for codes in log._bin_codes)
    visits_a, visits_b = (codes.tolist() for codes in log._pair_codes)
    counts_a, counts_b = [0] * len(log.links), [0] * len(log.links)
    cells_a, cells_b = ["0"] * len(log.links), ["0"] * len(log.links)
    fa = fb = ";".join(cells_a)
    lines = ["time,link_from,link_to,which,stateA,stateB,flowA,flowB"]
    for t, b, k, kind, ia, ib in zip(log.times, log.bins, positions, kinds, visits_a, visits_b):
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
