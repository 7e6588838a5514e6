"""Marching-soldiers couplings of two population processes.

Two chains A and B over the same link family move together as much as
their rates allow: on each link with component rates a and b, the pair
takes a joint step at min(a, b), B alone at max(b - a, 0) and A alone at
max(a - b, 0). Each marginal therefore sees exactly its own rates, and
whenever one rate dominates the other, only the dominant side can step
ahead. There is one form, the state-flow coupling: the pair (x, x') with
per-link flow counters for both sides, simulated by
simulate_coupled(spec_a, spec_b, ...) straight from the two specs. It
runs on ctmc.gillespie over index pairs (i, i'), each coded as the int
i * len(B's coords) + i', with the bins (joint, B-only, A-only) of each
link in declared link order. A pair's kernel row is built on its first
visit and kept (a ctmc._Rows), so only the pairs a path reaches are ever
evaluated. Each side reads a state on its own first visit
(ctmc._state_reader: its per-link rates and move targets), and
_pair_row makes a pair's row from the two in one pass over the links:
per link the three bins' rates, running sums and pair codes after a
move. A side that does not move in a bin keeps its index.

A coupled path is a PairedEventLog of three columns: event times, bins
and state-index pairs. The bin code 3 * k + kind and the pair code
ia * len(coords_b) + ib are decoded here, as arrays. The log's views
decode them once per log: flows(side), each side's counters as one
(events + 1, links) int64 array, and visits(side), each side's state
index after every event. The population coupling is the same path read
without its counters, from the visits arrays alone
(ordering.pathwise_population_order_check). The CSV writer
paired_log_csv and the flow-order scan (ordering.pathwise_flow_order_check,
through _flow_blocks) decode the codes a block of ctmc._CSV_ROWS events
at a time instead, carrying the counters from block to block, so
neither holds more than a block beside the log's own columns; the
writer yields its text as chunks, one per block.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .ctmc import (
    _CSV_ROWS,
    EventView,
    _flow_counts,
    _label_visits,
    _log_eq,
    _Rows,
    _state_reader,
    gillespie,
)
from .model import Link, ModelError, NetworkSpec, State, _as_state

__all__ = [
    "marching_rates",
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
    and A-only; pairs[e] is ia * len(coords_b) + ib, the rows of the
    specs' arrays coords_a and coords_b holding the two states after it.
    Both codes are decoded once, on first read; flows(side) and
    visits(side) are the decoded views.
    """

    initial_a: State
    initial_b: State
    links: tuple[Link, ...]
    coords_a: np.ndarray = field(repr=False)
    coords_b: np.ndarray = field(repr=False)
    times: array
    bins: array
    pairs: array
    horizon: float
    absorbed: bool
    # The path as CoupledEvent tuples, counters included.
    events: EventView = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The view holds the columns, not the log, so a log is no reference
        # cycle and is freed as soon as it is dropped.
        columns = (self.times, self.bins, self.pairs)
        make = partial(_coupled_events, *columns, self.links, self.coords_a, self.coords_b)
        self.events = EventView(len(self.times), make)

    __eq__ = _log_eq

    @cached_property
    def _bin_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """(link position, kind) of every event, read-only."""
        return _read_only(np.divmod(np.asarray(self.bins, dtype=np.int64), 3))

    @cached_property
    def _pair_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """(A's state index, B's state index) after every event, read-only."""
        pairs = np.asarray(self.pairs, dtype=np.int64)
        return _read_only(np.divmod(pairs, len(self.coords_b)))

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


def _coupled_events(times, bins, pairs, links, coords_a, coords_b):
    positions, kinds = np.divmod(np.asarray(bins, dtype=np.int64), 3)
    visits_a, visits_b = np.divmod(np.asarray(pairs, dtype=np.int64), len(coords_b))
    # zip over the columns yields each row as a tuple
    flows_a = zip(*_flow_counts(positions, kinds != _SIDES["a"][1], len(links))[1:].T.tolist())
    flows_b = zip(*_flow_counts(positions, kinds != _SIDES["b"][1], len(links))[1:].T.tolist())
    states_a, states_b = coords_a[visits_a].tolist(), coords_b[visits_b].tolist()
    columns = (positions.tolist(), kinds.tolist(), states_a, states_b)
    for t, k, kind, xa, xb, fa, fb in zip(times, *columns, flows_a, flows_b):
        yield CoupledEvent(t, links[k], _KINDS[kind], tuple(xa), tuple(xb), fa, fb)


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _pair_row(side_a, side_b, stay_a: int, ib: int):
    """A pair's kernel row (total, cumulative, last, targets) from its sides.

    side_a and side_b are (rates, targets) as ctmc._state_reader reads
    them, A's targets times len(B's coords); stay_a is A's index times
    that width and ib is B's index, the parts of the pair code that stay
    put when that side does not move. The bins are (joint, B-only,
    A-only) per link, the total is summed link by link, each link's three
    rates first, and `last` is the last bin with a positive rate, read
    from the rates since one can vanish in the running sum.
    """
    (rates_a, moved_a), (rates_b, moved_b) = side_a, side_b
    total = acc = 0.0
    cumulative, targets = [], []
    last = 0
    for a, b, ta, tb in zip(rates_a, rates_b, moved_a, moved_b):
        # marching_rates(a, b), up to the sign of a zero rate
        triple = (a if a <= b else b, b - a if b > a else 0.0, a - b if a > b else 0.0)
        total += triple[0] + triple[1] + triple[2]
        for r in triple:
            acc += r
            if r > 0.0:
                last = len(cumulative)
            cumulative.append(acc)
        targets += (ta + tb, stay_a + tb, ta + ib)
    return total, cumulative, last, targets


def _start_pair(spec_a: NetworkSpec, spec_b: NetworkSpec, xa: State, xb: State):
    """Indices of the two initial states, or ModelError when the specs
    cannot be coupled from them."""
    if spec_a.n != spec_b.n:
        raise ModelError("coupled specs must have the same number of nodes")
    if spec_a.links != spec_b.links:
        raise ModelError("coupled specs must share the link family")
    start_a, start_b = spec_a.find(xa), spec_b.find(xb)
    if start_a < 0:
        raise ModelError(f"initial state {xa} not in the first state space")
    if start_b < 0:
        raise ModelError(f"initial state {xb} not in the second state space")
    return start_a, start_b


def simulate_coupled(
    spec_a: NetworkSpec,
    spec_b: NetworkSpec,
    init_a,
    init_b,
    horizon: float,
    seed: int,
) -> PairedEventLog:
    """Simulate the coupling of spec_a and spec_b; counters start at zero.

    Both specs must have the same nodes and the same link family. The
    coupled generator is never materialized: a pair's rates are built
    from the component rate arrays when a path first reaches it, so the
    reachable pair space stays implicit.

    The kernel's state is the pair code ia * len(B's coords) + ib, and a
    pair's row, with its bins' target codes, is built on its first visit.
    Candidate events are ordered (joint, B-only, A-only) within each link
    and links keep their declared order, so a seed fixes the path exactly.
    A pair's total rate is summed link by link, each link's three rates
    first.
    """
    xa = _as_state(init_a, "initial state")
    xb = _as_state(init_b, "initial state")
    start_a, start_b = _start_pair(spec_a, spec_b, xa, xb)
    links = spec_a.links
    width = len(spec_b.coords)
    side_a, side_b = _Rows(_state_reader(spec_a, width)), _Rows(_state_reader(spec_b))

    def row(pair):
        ia, ib = divmod(pair, width)
        return _pair_row(side_a[ia], side_b[ib], ia * width, ib)

    start = start_a * width + start_b
    times, bins, pairs, absorbed = gillespie(_Rows(row), start, horizon, seed)
    return PairedEventLog(
        initial_a=xa,
        initial_b=xb,
        links=links,
        coords_a=spec_a.coords,
        coords_b=spec_b.coords,
        times=times,
        bins=bins,
        pairs=pairs,
        horizon=float(horizon),
        absorbed=absorbed,
    )


def _flow_blocks(log: PairedEventLog):
    """Both sides' flows arrays, a block of at most _CSV_ROWS events at a time.

    Yields (start, flows_a, flows_b) for the events start, start + 1, ...
    of one block: row 0 of each array holds that side's counters before
    the block and row e + 1 those after its event e, so the arrays are
    rows start to start + block of flows("a") and flows("b"). Each block
    decodes its own slice of the bin codes, and the counters carry over
    from one block to the next.
    """
    links = len(log.links)
    before_a = before_b = 0
    for start in range(0, len(log.bins), _CSV_ROWS):
        codes = np.asarray(log.bins[start : start + _CSV_ROWS], dtype=np.int64)
        positions, kinds = np.divmod(codes, 3)
        flows_a = _flow_counts(positions, kinds != _SIDES["a"][1], links, before_a)
        flows_b = _flow_counts(positions, kinds != _SIDES["b"][1], links, before_b)
        yield start, flows_a, flows_b
        before_a, before_b = flows_a[-1], flows_b[-1]


def paired_log_csv(log: PairedEventLog):
    """CSV rows: time,link_from,link_to,which,stateA,stateB,flowA,flowB.

    A generator of text chunks: the header line, then the rows at most
    _CSV_ROWS to a chunk, so a long log is never held as one string;
    "".join of the chunks is the whole CSV text. Each chunk decodes its
    own slice of the bin and pair codes with numpy. Each bin's `i,j,kind,`
    prefix is formatted once, and so is each visited state's label (no
    other state is labelled); the counters are counted as the rows are
    written, carried from chunk to chunk, and a cell is re-joined only
    when its side moved.
    """
    prefixes = [f"{i},{j},{kind}," for i, j in log.links for kind in _KINDS]
    width = len(log.coords_b)
    labels_a, labels_b = {}, {}
    counts_a, counts_b = [0] * len(log.links), [0] * len(log.links)
    cells_a, cells_b = ["0"] * len(log.links), ["0"] * len(log.links)
    fa = fb = ";".join(cells_a)
    yield "time,link_from,link_to,which,stateA,stateB,flowA,flowB\n"
    for start in range(0, len(log.times), _CSV_ROWS):
        stop = start + _CSV_ROWS
        bins = log.bins[start:stop]
        positions, kinds = (c.tolist() for c in np.divmod(np.asarray(bins, dtype=np.int64), 3))
        pairs = np.asarray(log.pairs[start:stop], dtype=np.int64)
        visits_a, visits_b = (c.tolist() for c in np.divmod(pairs, width))
        _label_visits(labels_a, log.coords_a, visits_a)
        _label_visits(labels_b, log.coords_b, visits_b)
        lines = []
        for t, b, k, kind, ia, ib in zip(
            log.times[start:stop], bins, positions, kinds, visits_a, visits_b
        ):
            if kind != 1:  # A moved
                counts_a[k] += 1
                cells_a[k] = str(counts_a[k])
                fa = ";".join(cells_a)
            if kind != 2:  # B moved
                counts_b[k] += 1
                cells_b[k] = str(counts_b[k])
                fb = ";".join(cells_b)
            lines.append(f"{t!r},{prefixes[b]}{labels_a[ia]},{labels_b[ib]},{fa},{fb}\n")
        yield "".join(lines)
