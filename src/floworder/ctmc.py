"""Generator construction, simulation and distribution solvers.

The continuous-time chain lives on the finite state set of a NetworkSpec.
Its generator's CSR arrays are laid down directly from the per-link rate
and next_index arrays, each row's columns already in sorted order when
the states are lexicographic, as parsed ones are (and sorted afterwards
when a spec built directly lists them in another order). A
link (i, j) moves x to x - e_i + e_j, and that target fixes (i, j), so no
two links share a (source, target) pair: the off-diagonal of the matrix
is exactly the set of moves, and a move's link and rate are read back
from the spec's rate_vector and next_index arrays. The spec checked its
rates when it was built (no positive rate leaves the space), so the
generator and the simulators read those arrays as they are.

Simulation: gillespie is the one Gillespie (1977) kernel, over integer
states and numbered bins: one exponential draw for the holding time, then
one uniform draw for the bin. It reads its uniforms from the seeded PCG64
stream in blocks of _BLOCK, chained at C level; rng.random(n) yields
exactly the doubles of n scalar calls, so a seed fixes the same path as
drawing one at a time. The kernel calls no Python code per event: it
looks each state's row (total, cumulative, last, targets) up in a
mapping. The running sums make the bin a bisection, and targets[b] is
the state after a move in bin b. When rounding carries a draw past the
last running sum, the move is the last bin with a positive rate, read
from the rates when the row is built (a positive rate can vanish in a
running sum). The mapping is a _Rows dict, which builds a row on the
path's first visit to its state, so a path costs the states it visits.
Both simulators read a visited state with _state_reader, its per-link
rates and move targets taken from the spec's rate_vector and next_index
arrays, and build its row in one loop over the links: simulate_path
with one bin per link (_link_row), coupling's simulate_coupled on index
pairs with three bins per link. Apart from finding the start
(NetworkSpec.find), a path makes nothing over the whole state space.
The path is returned as columns (times, bins, states), not as one
object per event. EventLog keeps the columns and builds its Event
tuples only when they are read; its flow counters, one per link, are
one int64 array counted from the moves column (flows()).

The generator holds the states as the spec's coords array, and nothing
here makes a tuple per state: a state is looked up by comparing columns
(find_row), and ReducibleChainError names its classes' states from
their rows, and a log's event views and CSV writers read coords rows too.

Reports: the CSV writers event_log_csv and distribution_csv (and
coupling's paired_log_csv) are generators of text chunks of at most
_CSV_ROWS rows each, so a caller writes a long report as it is made and
never holds its whole text. Every state label is joined from the
columns by model._row_labels, one str per distinct coordinate value:
distribution_csv labels every row of the coords it is given, a chunk
at a time, and the event writers label only the states a path visits,
kept in a dict by row.

Solvers:

  * stationary_distribution: one sparse LU factorisation of the
    recurrent-class generator, shifted off singularity by subtracting
    from a copy of its diagonal entries, and two steps of inverse
    iteration. The chain may have transient states, but exactly one
    recurrent class; when that class is the whole space the generator's
    own arrays are factorised, with no reindexing.
  * transient_distribution: uniformization, p(t) = sum_k P(N = k) p0 P^k
    with N ~ Poisson(Lambda t) and P = I + Q / Lambda, truncated at the
    first depth K whose Poisson tail P(N > K) is at most tol.
  * transient_mean_flow: cumulative-reward uniformization (Reibman and
    Trivedi 1988), E[N_l(t)] = (1/Lambda) sum_k P(N > k) (p0 P^k) r_l.
    One pass over the powers p0 P^k serves a whole grid of times; the
    depth K bounds the truncation error by (max r_l / Lambda)
    sum_{k>K} P(N > k) at the largest time.

Both take their Poisson weights from _poisson_weights, the one place the
truncation policy lives; a mean Lambda t that overflows to infinity, or
whose truncation depth passes _MAX_POISSON_DEPTH, raises SolverError
there. transient_mean_flow sets its depth from the largest time's tail
and reuses that tail for the largest time's mean. Both read the
transposed kernel P^T, built once per generator as a CSC matrix and
cached: P's CSR arrays are P^T's CSC arrays, and they are laid down from
Q's CSR arrays with numpy, equal byte for byte to those of scipy's
I + Q / Lambda (Generator.transposed_kernel). Each power is one column
product vec = P^T vec, made by _column_product as one call of scipy's C
routine csc_matvec, the one P^T @ vec ends in, on the same arrays, so
bit-equal to it without a sparse matrix's __matmul__ dispatch; no sparse
matrix is made per step. csc_matvec lives in a private scipy module
(scipy.sparse._sparsetools), and a test pins it against P^T @ vec. The
stationary residual max|pi Q| is the column product Q^T pi in the same
way, on Q's CSR arrays.

scipy is imported inside the five functions that build, factor or
multiply sparse matrices (build_generator, Generator.transposed_kernel,
_column_product, _recurrent_class and stationary_distribution), not at
module level. Importing scipy.sparse
and its csgraph and linalg parts takes longer than importing numpy and
the rest of floworder together, and at module level every process that
imports floworder would pay it, including the check, verify, couple and
simulate commands, which never build a sparse matrix.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain, repeat
from operator import methodcaller
from typing import NamedTuple

import numpy as np

from .model import Link, ModelError, NetworkSpec, State, _as_state, _row_labels, find_row
from .rng import make_stream

__all__ = [
    "SolverError",
    "ReducibleChainError",
    "ConvergenceError",
    "ToleranceError",
    "Event",
    "EventLog",
    "EventView",
    "Generator",
    "build_generator",
    "simulate_path",
    "stationary_distribution",
    "transient_distribution",
    "transient_mean_flow",
    "throughput",
    "distribution_vector",
    "event_log_csv",
    "distribution_csv",
]


class SolverError(RuntimeError):
    pass


class ReducibleChainError(SolverError):
    """More than one recurrent class; no unique stationary distribution."""

    def __init__(self, classes):
        self.classes = classes
        preview = "; ".join(str(list(c)) for c in classes)
        super().__init__(f"chain has {len(classes)} recurrent classes: {preview}")


class ConvergenceError(SolverError):
    """The stationary vector's residual max|pi Q|, divided by the recurrent
    class's largest exit rate, is not below the tolerance."""

    def __init__(self, residual, tol):
        self.residual = residual
        super().__init__(
            f"stationary residual {residual:g} (relative to the recurrent class's "
            f"largest exit rate) above tolerance {tol:g}"
        )


class ToleranceError(SolverError):
    """A tolerance nothing can meet or that decides nothing.

    No Poisson truncation depth meets a negative or NaN one, and a margin
    test against an infinite one passes whatever the margins are.
    """


class Event(NamedTuple):
    time: float
    link: Link
    pre: State
    post: State


class EventView:
    """Read-only events of a columnar log, built when read; len() builds nothing.

    Equal to a list, tuple or view holding equal events in the same order.
    """

    def __init__(self, size: int, make):
        self._size = size
        self._make = make  # returns a fresh iterator over the events
        self._built = None

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self._built) if self._built is not None else self._make()

    def __getitem__(self, i):
        if self._built is None:
            self._built = tuple(self._make())
        return self._built[i]

    def __eq__(self, other):
        if not isinstance(other, (list, tuple, EventView)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"EventView({list(self)!r})"


def _log_eq(a, b):
    """A dataclass's ==, with ndarray fields compared by value."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare)
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


@dataclass
class EventLog:
    """One simulated path, as columns over its events.

    times[e] is the time of event e, moves[e] the position in `links` of
    the link it moved along and visits[e] the row of `coords`, the spec's
    read-only (m, n) int64 array, holding the state after it.
    """

    initial: State
    times: array
    moves: array
    visits: array
    coords: np.ndarray = field(repr=False)
    horizon: float
    absorbed: bool
    links: tuple[Link, ...]
    # The path as Event(time, link, pre, post) tuples.
    events: EventView = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The view holds the columns, not the log, so a log is no reference
        # cycle and is freed as soon as it is dropped.
        columns = (self.times, self.moves, self.visits)
        make = partial(_events, self.initial, *columns, self.coords, self.links)
        self.events = EventView(len(self.times), make)

    __eq__ = _log_eq

    def flows(self) -> np.ndarray:
        """The flow counters as an (events + 1, links) int64 array.

        Row 0 is the zero start and row e + 1 holds the counters after
        event e: column k counts the events so far along links[k].
        """
        moves = np.asarray(self.moves, dtype=np.int64)
        return _flow_counts(moves, 1, len(self.links))


def _events(initial, times, moves, visits, coords, links):
    pre = initial
    for t, k, post in zip(times, moves, map(tuple, coords[visits].tolist())):
        yield Event(t, links[k], pre, post)
        pre = post


def _flow_counts(positions: np.ndarray, moved, links: int, start=0) -> np.ndarray:
    """(events + 1, links) counters from `start` (row 0; zero by default):
    event e adds moved[e] (a 0/1 mask, or 1 for every event) to the counter
    of link position positions[e]."""
    counts = np.zeros((positions.size + 1, links), dtype=np.int64)
    counts[0] = start
    counts[np.arange(1, positions.size + 1), positions] = moved
    return np.cumsum(counts, axis=0, out=counts)


@dataclass
class Generator:
    matrix: sp.csr_matrix  # includes the diagonal
    unif_rate: float
    # The states as the spec's read-only (m, n) int64 array, rows in the
    # matrix's order: find_row looks a state up in it, and errors name
    # states from it.
    coords: np.ndarray = field(repr=False, compare=False)
    _kernel_t: sp.csc_matrix | None = field(default=None, repr=False, compare=False)

    def transposed_kernel(self) -> sp.csc_matrix:
        """P^T as a CSC matrix, P = I + Q / unif_rate; requires unif_rate > 0.

        Built on first use and cached, P itself is not kept. P's CSR arrays
        are P^T's CSC arrays, and they are laid down from Q's CSR arrays
        with numpy, as scipy's sum I + Q / unif_rate makes them: Q's
        entries times 1 / unif_rate (the reciprocal scipy's Q / unif_rate
        multiplies by), 1.0 added to each diagonal entry, a 1.0 as the one
        entry of each row that stores none (an absorbing state's), and
        exact zeros dropped (a state whose exit rate is unif_rate has
        1 - 1 = 0.0 on the diagonal). That is scipy's sum when Q's rows
        are sorted and each row stores its diagonal entry unless it stores
        nothing, as build_generator leaves them: a positive rate makes a
        positive exit rate. A power step p P is then one column product
        P^T p (_column_product), on the arrays p @ P would use, so
        bit-equal to it.
        """
        if self._kernel_t is None:
            import scipy.sparse as sp

            q = self.matrix
            m = len(self.coords)
            stored = np.diff(q.indptr)
            rows = np.repeat(np.arange(m, dtype=q.indices.dtype), stored)
            indices = q.indices
            data = q.data * (1 / self.unif_rate)
            data[np.flatnonzero(indices == rows)] += 1.0
            absorbing = np.flatnonzero(stored == 0)
            if absorbing.size:
                at = q.indptr[absorbing]
                rows = np.insert(rows, at, absorbing)
                indices = np.insert(indices, at, absorbing)
                data = np.insert(data, at, 1.0)
            kept = data != 0.0
            indptr = np.zeros(m + 1, dtype=q.indptr.dtype)
            np.cumsum(np.bincount(rows[kept], minlength=m), out=indptr[1:])
            arrays = (data[kept], indices[kept], indptr)
            self._kernel_t = sp.csc_matrix(arrays, shape=(m, m))
        return self._kernel_t


def _column_product(indptr, indices, data):
    """vec -> A vec for the square matrix A whose CSC arrays these are.

    Each product is one call of csc_matvec into a fresh zero vector, the
    routine and arguments scipy's A @ vec ends in, so the result is
    bit-equal to it without the dispatch of a sparse matrix's __matmul__.
    The arrays may also be the CSR arrays of A^T. csc_matvec lives in a
    private scipy module; a test pins it against A @ vec.
    """
    from scipy.sparse._sparsetools import csc_matvec

    m = indptr.size - 1

    def product(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(m)
        csc_matvec(m, m, indptr, indices, data, vec, out)
        return out

    return product


def build_generator(spec: NetworkSpec) -> Generator:
    """The generator as CSR arrays, assembled directly from the link arrays.

    A state's row holds one slot per link and one for the diagonal, and a
    slot is stored where its rate (on the diagonal, the exit rate) is
    positive. A move along a link adds the same vector to every state, so
    when the states are in lexicographic order, as a parsed document's
    are, the slots of every row come in one column order: that of the
    moves' vectors, the diagonal's being zero. Each row's column indices
    are then sorted as they are laid down. A spec built directly may list
    its states in another order, and the solvers read the arrays as
    canonical CSR, so the rows are sorted afterwards: scipy's
    sort_indices first checks the order in one pass and leaves sorted
    rows as they are.
    """
    import scipy.sparse as sp

    m = len(spec.coords)
    exit_rates = np.zeros(m)
    slots = []
    for link in spec.links:
        rates = spec.rate_vector(link)
        exit_rates += rates  # link by link in declared order, which fixes the rounding
        slots.append((rates > 0.0, spec.next_index(link), rates))
    slots.append((exit_rates > 0.0, np.arange(m), -exit_rates))
    # The vector a move along (i, j) adds, -e_i + e_j; node 0 has no coordinate.
    moves = [tuple((d == j) - (d == i) for d in range(1, spec.n + 1)) for i, j in spec.links]
    moves.append((0,) * spec.n)
    slots = [slots[k] for k in sorted(range(len(slots)), key=moves.__getitem__)]
    stored = np.column_stack([s for s, _, _ in slots])
    indices = np.column_stack([c for _, c, _ in slots])[stored]
    data = np.column_stack([v for _, _, v in slots])[stored]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(stored.sum(axis=1), out=indptr[1:])
    matrix = sp.csr_matrix((data, indices, indptr), shape=(m, m))
    matrix.sort_indices()
    return Generator(matrix=matrix, unif_rate=float(exit_rates.max()), coords=spec.coords)


# Uniforms drawn from the stream per call of rng.random.
_BLOCK = 512


def _uniforms(rng):
    """The stream's uniforms one at a time, drawn _BLOCK at a time.

    A C-level iterator: each block is one rng.random(_BLOCK).tolist(), and
    the blocks are chained, so a draw resumes no Python frame.
    """
    blocks = map(methodcaller("tolist"), map(rng.random, repeat(_BLOCK)))
    return chain.from_iterable(blocks)


def gillespie(rows, state: int, horizon: float, seed: int):
    """Gillespie (1977) path from `state` up to `horizon`, over numbered bins.

    rows[state] is the row (total, cumulative, last, targets) of a state:
    the total rate as the caller sums it, the running sums of the bin
    rates in bin order (formed as acc += r), the last bin with a positive
    rate, and targets[b], the state after a move in bin b. States are ints,
    and `rows` is any mapping; a _Rows builds each row on first visit.

    Each step draws the holding time -log1p(-U) / total from a uniform
    U > 0 (a draw of exactly 0 is rejected and redrawn), then one uniform
    U': the move is the first bin whose running sum exceeds U' * total,
    found by bisection. When rounding carries U' * total past the last
    running sum it is `last`, which the caller reads from the rates, since
    a positive rate can vanish in a running sum (acc + r == acc). Uniforms
    come from the seed's stream in blocks (_uniforms), in the order of
    one-at-a-time draws. The path stops at the first event past the
    horizon (not recorded) or at a state whose total rate is zero.

    Returns (times, bins, states, absorbed): one array entry per event,
    states[e] being the state after event e.
    """
    if not 0.0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    draw = _uniforms(make_stream(seed)).__next__
    times, bins, states = array("d"), array("q"), array("q")
    add_time, add_bin, add_state = times.append, bins.append, states.append
    log1p = math.log1p
    t = 0.0
    while True:
        total, cumulative, last, targets = rows[state]
        if total <= 0.0:
            return times, bins, states, True
        u = draw()
        while u == 0.0:  # keep holding times strictly positive
            u = draw()
        t += -log1p(-u) / total
        if t > horizon:
            return times, bins, states, False
        b = bisect_right(cumulative, draw() * total)
        if b == len(cumulative):  # rounding pushed the draw past the last bin
            b = last
        state = targets[b]
        add_time(t)
        add_bin(b)
        add_state(state)


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


def _state_reader(spec: NetworkSpec, scale: int = 1):
    """i -> (rates, targets): state i's rate on each link, in declared
    order, and the index each move leads to times `scale`, read off the
    spec's rate_vector and next_index arrays one entry at a time."""
    rates = [spec.rate_vector(link) for link in spec.links]
    targets = [spec.next_index(link) for link in spec.links]
    return lambda i: ([r.item(i) for r in rates], [n.item(i) * scale for n in targets])


def _link_row(rates: list, targets: list):
    """Kernel row (total, cumulative, last, targets) with one bin per rate.

    The running sums are formed as acc += r from 0.0, the total is the
    last of them, and `last` is the last bin with a positive rate, read
    from the rates since one can vanish in the running sum.
    """
    acc = 0.0
    cumulative = []
    last = 0
    for b, r in enumerate(rates):
        acc += r
        if r > 0.0:
            last = b
        cumulative.append(acc)
    return acc, cumulative, last, targets


def _start_index(spec: NetworkSpec, init: State) -> int:
    """Index of the initial state, or ModelError when it is not a state."""
    start = spec.find(init)
    if start < 0:
        raise ModelError(f"initial state {init} not in the state space")
    return start


def simulate_path(spec: NetworkSpec, init, horizon: float, seed: int) -> EventLog:
    """Gillespie path up to `horizon`, one bin per link in declared order.

    The path stops at the first event time past the horizon (that event is
    not recorded) or when the total exit rate hits zero, which sets the
    absorbed flag. Ties in link selection resolve in declared link order.
    A state's total exit rate is summed link by link in declared order.
    A state's row is read off the link arrays when the path first reaches
    it, so beyond the lookup of the start the cost grows with the states
    the path visits.
    """
    init = _as_state(init, "initial state")
    start = _start_index(spec, init)
    read = _state_reader(spec)
    rows = _Rows(lambda i: _link_row(*read(i)))
    times, moves, visits, absorbed = gillespie(rows, start, horizon, seed)
    return EventLog(
        initial=init,
        times=times,
        moves=moves,
        visits=visits,
        coords=spec.coords,
        horizon=float(horizon),
        absorbed=absorbed,
        links=spec.links,
    )


def _recurrent_class(gen: Generator):
    """Indices of the unique recurrent class, or raise ReducibleChainError.

    The classes are the strong components of the matrix's graph (the
    diagonal only adds self-loops), and a class is recurrent when no
    off-diagonal entry leads out of it. A single component is the class.
    """
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(gen.matrix, directed=True, connection="strong")
    if n_comp == 1:
        return np.arange(len(gen.coords))
    moves = gen.matrix.tocoo()
    src, dst = labels[moves.row], labels[moves.col]
    has_exit = np.zeros(n_comp, dtype=bool)
    has_exit[src[src != dst]] = True
    recurrent = np.flatnonzero(~has_exit)
    if recurrent.size > 1:
        classes = [list(map(tuple, gen.coords[labels == c].tolist())) for c in recurrent]
        raise ReducibleChainError(classes)
    return np.flatnonzero(labels == recurrent[0])


def stationary_distribution(gen: Generator, tol: float = 1e-12) -> np.ndarray:
    """Stationary distribution with relative residual max|pi Q| / Λ below
    `tol`, Λ being the largest exit rate of a state of the recurrent class.

    Transient states (outside the unique recurrent class) get mass zero.
    On the recurrent class the balance equations pi Q = 0 are solved
    directly: Q^T - sigma I, with sigma = 1e-12 times the largest exit
    rate, is factorised once by sparse LU, and two solves of inverse
    iteration from the uniform vector pick out its null direction.
    When the class is the whole space, Q is gen.matrix itself; otherwise
    it is the class's rows and columns of it. The shift is subtracted from
    a copy of Q's stored diagonal entries, and the CSR arrays of the result
    are read as the CSC arrays of its transpose. The residual is then
    checked; a miss raises ConvergenceError. max|pi Q| grows with the
    rates, so it is divided by Λ: Q and c·Q give the same verdict for any
    c > 0, whatever the unit of time. Λ is taken over the class alone, the
    states the residual is measured on, so a fast transient state does not
    loosen the check; a class of more than one state has Λ > 0.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    m = len(gen.coords)
    members = _recurrent_class(gen)
    k = len(members)
    if k == 1:
        pi_full = np.zeros(m)
        pi_full[members[0]] = 1.0
        return pi_full
    sub = gen.matrix if k == m else gen.matrix[np.ix_(members, members)].tocsr()
    # Every state of a class with more than one state has a positive exit
    # rate, so each row stores its diagonal entry.
    rows = np.repeat(np.arange(k), np.diff(sub.indptr))
    diagonal = np.flatnonzero(sub.indices == rows)
    data = sub.data.copy()
    # The shift makes the factorisation nonsingular without densifying a
    # row (as a normalisation row of ones would) and without pinning the
    # mass of one state, which is badly conditioned when that state is rare.
    rate = float(-data[diagonal].min())  # Λ, the class's largest exit rate
    sigma = 1e-12 * rate
    data[diagonal] -= sigma
    shifted = sp.csc_matrix((data, sub.indices, sub.indptr), shape=(k, k))
    lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1)
    pi = np.full(k, 1.0 / k)
    for _ in range(2):
        pi = lu.solve(pi)
        pi /= pi.sum()
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum()
    # pi Q as sub.T @ pi: sub's CSR arrays are the CSC arrays of sub.T.
    balance = _column_product(sub.indptr, sub.indices, sub.data)(pi)
    residual = float(np.abs(balance).max()) / rate
    if not residual < tol:  # a NaN residual fails too
        raise ConvergenceError(residual, tol)
    if k == m:
        return pi
    pi_full = np.zeros(m)
    pi_full[members] = pi
    return pi_full


def distribution_vector(gen: Generator, p0) -> np.ndarray:
    """Normalize a distribution argument.

    A tuple is a state (point mass), looked up by comparing the columns of
    gen.coords (find_row); anything else is a dense vector over the
    enumeration.
    """
    m = len(gen.coords)
    if isinstance(p0, tuple):
        x = _as_state(p0, "state")
        k = find_row(gen.coords, x)
        if k < 0:
            raise ModelError(f"state {x} not in the state space")
        vec = np.zeros(m)
        vec[k] = 1.0
        return vec
    vec = np.asarray(p0, dtype=float).copy()
    if vec.shape != (m,):
        raise ValueError(f"distribution must have length {m}")
    if not np.isfinite(vec).all():
        raise ValueError("distribution has non-finite mass")
    if vec.min() < -1e-12:
        raise ValueError("distribution has negative mass")
    s = vec.sum()
    if abs(s - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {s}, not 1")
    np.clip(vec, 0.0, None, out=vec)
    return vec / vec.sum()


# Largest Poisson truncation depth _poisson_weights lays out: each of its
# arrays then holds at most 8 MB, and a solver at most this many powers.
_MAX_POISSON_DEPTH = 10**6


def _poisson_weights(q: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(q) probabilities P(N = k) and right tails P(N > k), k = 0..K.

    Logarithms are accumulated outward from the mode, so no weight
    underflows before it is negligible, and tails are summed from the
    right, so small tails keep their relative accuracy. K = q + 40 sqrt(q)
    + 200 puts the mass beyond K below 1e-300, which the tails treat as 0.
    q is the uniformization rate times a time; an infinite (overflowed)
    or NaN q has no truncation depth, and a K above _MAX_POISSON_DEPTH is
    refused before anything is allocated: both raise SolverError.
    """
    if not q < math.inf:
        raise SolverError(f"Poisson mean Lambda*t = {q:g} is not finite; no truncation depth")
    if q == 0.0:
        return np.ones(1), np.zeros(1)
    kmax = int(q + 40.0 * math.sqrt(q) + 200.0)
    if kmax > _MAX_POISSON_DEPTH:
        raise SolverError(
            f"Poisson mean Lambda*t = {q:g} needs truncation depth {kmax}, "
            f"above the limit {_MAX_POISSON_DEPTH}"
        )
    mode = int(q)
    with np.errstate(divide="ignore"):  # q / k underflows to 0 when q is subnormal
        steps = np.log(q / np.arange(1, kmax + 1))  # log P(N = k) / P(N = k - 1)
    logw = np.zeros(kmax + 1)
    logw[mode + 1 :] = np.cumsum(steps[mode:])
    logw[:mode] = -np.cumsum(steps[:mode][::-1])[::-1]
    w = np.exp(logw)
    w /= w.sum()
    tail = np.zeros(kmax + 1)
    tail[:-1] = np.cumsum(w[:0:-1])[::-1]
    return w, tail


def _truncation_depth(error: np.ndarray, tol: float) -> int:
    """First k with error[k] <= tol, for a nonincreasing error bound."""
    hits = np.flatnonzero(error <= tol)
    if hits.size == 0:
        raise ToleranceError(f"no Poisson truncation depth reaches tolerance {tol:g}")
    return int(hits[0])


def transient_distribution(gen: Generator, p0, t: float, tol: float = 1e-12) -> np.ndarray:
    """Distribution at time t by uniformization.

    p(t) = sum_{k<=K} P(N = k) p0 P^k with N ~ Poisson(unif_rate t) and
    P = I + Q / unif_rate. K is the first depth with P(N > K) <= tol, so
    the dropped mass is at most tol; the result is renormalized. A tol no
    depth meets (negative or NaN) raises ToleranceError, and a unif_rate t
    that overflows to infinity or is too large to truncate raises
    SolverError.
    """
    vec = distribution_vector(gen, p0)
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    if t == 0.0 or gen.unif_rate == 0.0:
        return vec
    w, tail = _poisson_weights(gen.unif_rate * t)
    depth = _truncation_depth(tail, tol)
    kernel_t = gen.transposed_kernel()
    step = _column_product(kernel_t.indptr, kernel_t.indices, kernel_t.data)
    acc = w[0] * vec
    for k in range(1, depth + 1):
        vec = step(vec)
        acc += w[k] * vec
    np.clip(acc, 0.0, None, out=acc)
    return acc / acc.sum()


def transient_mean_flow(
    spec: NetworkSpec, p0, link: Link, times, tol: float = 1e-10
) -> tuple[float, ...]:
    """Expected numbers of moves along `link` in (0, t] for each t in `times`.

    Counters start at zero. With N ~ Poisson(Lambda t), Lambda the
    uniformization rate and r the link's rate vector,

        E[N_link(t)] = (1/Lambda) sum_k P(N > k) (p0 P^k) r.

    The rewards c_k = (p0 P^k) r are computed once, to a depth K set by
    the largest time, and each time takes one dot product with its tail
    weights. The truncation error at every time is at most
    (max r / Lambda) sum_{k>K} P(N > k) <= tol. Every term is nonnegative,
    so rounding adds a relative error of order K times machine epsilon on
    top. A tol no depth meets (negative or NaN) raises ToleranceError, and
    a Lambda t that overflows to infinity or is too large to truncate
    raises SolverError.
    """
    if link not in spec.rates:
        raise ModelError(f"unknown link {link}")
    times = tuple(float(t) for t in times)
    if not all(0.0 <= t < math.inf for t in times):
        raise ValueError("times must be finite and nonnegative")
    gen = build_generator(spec)
    rate_vec = spec.rate_vector(link)
    vec = distribution_vector(gen, p0)
    lam = gen.unif_rate
    if lam == 0.0:  # no link ever fires
        return (0.0,) * len(times)
    top = max(times, default=0.0)
    _, top_tail = _poisson_weights(lam * top)
    dropped = np.zeros(top_tail.size)
    dropped[:-1] = np.cumsum(top_tail[:0:-1])[::-1]  # sum_{j>k} P(N > j)
    depth = _truncation_depth(rate_vec.max() / lam * dropped, tol)
    kernel_t = gen.transposed_kernel()
    step = _column_product(kernel_t.indptr, kernel_t.indices, kernel_t.data)
    rewards = np.empty(depth + 1)
    rewards[0] = vec @ rate_vec
    for k in range(1, depth + 1):
        vec = step(vec)
        rewards[k] = vec @ rate_vec
    means = []
    for t in times:
        tail = top_tail if t == top else _poisson_weights(lam * t)[1]
        tail = tail[: depth + 1]
        means.append(float(tail @ rewards[: tail.size]) / lam)
    return tuple(means)


def throughput(spec: NetworkSpec, pi, link: Link) -> float:
    """Stationary rate of moves along `link`: sum_x pi(x) rate(x)."""
    if link not in spec.rates:
        raise ModelError(f"unknown link {link}")
    vec = np.asarray(pi, dtype=float)
    if vec.shape != (len(spec.coords),):
        raise ValueError(
            f"distribution has length {vec.shape}, expected {len(spec.coords)}"
        )
    return float(vec @ spec.rate_vector(link))


# Rows in each chunk the CSV writers yield.
_CSV_ROWS = 4096


def _label_visits(labels: dict, coords: np.ndarray, visits) -> None:
    """Label each row of coords in `visits` that `labels`, a dict by row,
    holds no label for yet (_row_labels, joined by ';'); a writer fills
    it block by block, so it holds the visited states only."""
    fresh = list(set(visits).difference(labels))
    labels.update(zip(fresh, _row_labels(coords[fresh].T.tolist(), ";")))


def event_log_csv(log: EventLog):
    """CSV rows time,link_from,link_to,state_after; states joined by ';'.

    A generator of text chunks: the header line, then the rows at most
    _CSV_ROWS to a chunk, so a long log is never held as one string.
    "".join of the chunks is the whole CSV text. Only the states the log
    visits are labelled, each before the first chunk that names it.
    """
    prefixes = [f"{i},{j}," for i, j in log.links]
    labels = {}
    yield "time,link_from,link_to,state_after\n"
    for start in range(0, len(log.times), _CSV_ROWS):
        stop = start + _CSV_ROWS
        visits = log.visits[start:stop]
        _label_visits(labels, log.coords, visits)
        rows = zip(log.times[start:stop], log.moves[start:stop], visits)
        yield "".join([f"{t!r},{prefixes[k]}{labels[i]}\n" for t, k, i in rows])


def distribution_csv(coords: np.ndarray, probs):
    """CSV rows state,probability, for the states of an (m, n) coords array;
    states joined by ';' (_row_labels over its columns).

    A generator of text chunks, as event_log_csv: the header line, then
    the rows at most _CSV_ROWS to a chunk. Each chunk's states are
    labelled and its probabilities listed as it is made, so neither is
    held for the whole space.
    """
    yield "state,probability\n"
    probs = np.asarray(probs, dtype=float)
    for start in range(0, len(probs), _CSV_ROWS):
        rows = slice(start, start + _CSV_ROWS)
        labels = _row_labels(coords[rows].T.tolist(), ";")
        yield "".join([f"{x},{p!r}\n" for x, p in zip(labels, probs[rows].tolist())])
