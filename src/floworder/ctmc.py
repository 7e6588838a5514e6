"""Generator construction, simulation and distribution solvers.

The continuous-time chain lives on the finite state set of a NetworkSpec.
Its generator's CSR arrays are laid down directly from the per-link rate
and next_index arrays, each row's columns already in sorted order. A
link (i, j) moves x to x - e_i + e_j, and that target fixes (i, j), so no
two links share a (source, target) pair: the off-diagonal of the matrix
is exactly the set of moves, and a move's link and rate are read back
from the spec's rate_vector and next_index arrays. The spec checked its
rates when it was built (no positive rate leaves the space), so the
generator and the simulators read those arrays as they are.

Simulation: gillespie is the one Gillespie (1977) kernel, over integer
states and numbered bins: one exponential draw for the holding time, then
one uniform draw for the bin. It reads its uniforms from the seeded PCG64
stream in blocks of _BLOCK; rng.random(n) yields exactly the doubles of n
scalar calls, so a seed fixes the same path as drawing one at a time.
Each state's bins come as one row of running sums, so the bin is a
bisection; when rounding carries a draw past the last running sum, the
move is the last bin with a positive rate, read from the rates when the
row is built (a positive rate can vanish in a running sum). The path is
returned as columns (times, bins, states), not as one object per event.
simulate_path runs the kernel with one bin per link, all rows from one
cumulative sum over the state index; coupling's simulate_coupled runs it
on index pairs with three bins per link. EventLog keeps the columns and
builds its Event tuples only when they are read; its flow counters, one
per link, are one int64 array counted from the moves column (flows()).

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
there. Both read the transposed kernel P^T, built once
per generator as a CSC matrix and cached, so each power is one column
product vec = P^T vec; no sparse matrix is made per step. The stationary
residual max|pi Q| is the column product Q^T pi in the same way.

scipy is imported inside the four functions that build or factor sparse
matrices (build_generator, Generator.transposed_kernel, _recurrent_class
and stationary_distribution), not at module level. Importing scipy.sparse
and its csgraph and linalg parts takes longer than importing numpy and
the rest of floworder together, and at module level every process that
imports floworder would pay it, including the check, verify, couple and
simulate commands, which never build a sparse matrix.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import Link, ModelError, NetworkSpec, State
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
    """The stationary vector's residual max|pi Q| is not below the tolerance."""

    def __init__(self, residual, tol):
        self.residual = residual
        super().__init__(f"stationary residual {residual:g} above tolerance {tol:g}")


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


@dataclass
class EventLog:
    """One simulated path, as columns over its events.

    times[e] is the time of event e, moves[e] the position in `links` of
    the link it moved along and visits[e] the index in `states` of the
    state after it.
    """

    initial: State
    times: array
    moves: array
    visits: array
    states: tuple[State, ...] = field(repr=False)
    horizon: float
    absorbed: bool
    links: tuple[Link, ...]
    # The path as Event(time, link, pre, post) tuples.
    events: EventView = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.events = EventView(len(self.times), self._events)

    def _events(self):
        links, states = self.links, self.states
        pre = self.initial
        for t, k, i in zip(self.times, self.moves, self.visits):
            post = states[i]
            yield Event(t, links[k], pre, post)
            pre = post

    def flows(self) -> np.ndarray:
        """The flow counters as an (events + 1, links) int64 array.

        Row 0 is the zero start and row e + 1 holds the counters after
        event e: column k counts the events so far along links[k].
        """
        moves = np.asarray(self.moves, dtype=np.int64)
        return _flow_counts(moves, 1, len(self.links))

    def state_at(self, t: float) -> State:
        e = bisect_right(self.times, t)
        return self.states[self.visits[e - 1]] if e else self.initial


def _flow_counts(positions: np.ndarray, moved, links: int) -> np.ndarray:
    """(events + 1, links) counters from zero: event e adds moved[e] (a 0/1
    mask, or 1 for every event) to the counter of link position positions[e]."""
    counts = np.zeros((positions.size + 1, links), dtype=np.int64)
    counts[np.arange(1, positions.size + 1), positions] = moved
    return np.cumsum(counts, axis=0, out=counts)


@dataclass
class Generator:
    states: tuple[State, ...]
    index: dict
    matrix: sp.csr_matrix  # includes the diagonal
    unif_rate: float
    _kernel_t: sp.csc_matrix | None = field(default=None, repr=False, compare=False)

    def transposed_kernel(self) -> sp.csc_matrix:
        """P^T as a CSC matrix, P = I + Q / unif_rate; requires unif_rate > 0.

        Built on first use and cached, P itself is not kept. A power step
        p P is then one column product P^T p, the csc_matvec that p @ P
        runs after transposing P, on the same arrays, so bit-equal to it.
        """
        if self._kernel_t is None:
            import scipy.sparse as sp

            m = len(self.states)
            self._kernel_t = (sp.identity(m, format="csr") + self.matrix / self.unif_rate).T
        return self._kernel_t


def build_generator(spec: NetworkSpec) -> Generator:
    """The generator as CSR arrays, assembled directly from the link arrays.

    A state's row holds one slot per link and one for the diagonal, and a
    slot is stored where its rate (on the diagonal, the exit rate) is
    positive. A move along a link adds the same vector to every state, and
    the states are in lexicographic order, so the slots of every row come
    in one column order: that of the moves' vectors, the diagonal's being
    zero. Each row's column indices are therefore sorted as they are laid
    down.
    """
    import scipy.sparse as sp

    m = len(spec.states)
    exit_rates = np.zeros(m)
    slots = []
    for link in spec.links:
        rates = spec.rate_vector(link)
        exit_rates += rates  # link by link in declared order, which fixes the rounding
        slots.append((rates > 0.0, spec.next_index(link), rates))
    slots.append((exit_rates > 0.0, np.arange(m), -exit_rates))
    moves = [spec.target((0,) * spec.n, link) for link in spec.links] + [(0,) * spec.n]
    slots = [slots[k] for k in sorted(range(len(slots)), key=moves.__getitem__)]
    stored = np.column_stack([s for s, _, _ in slots])
    indices = np.column_stack([c for _, c, _ in slots])[stored]
    data = np.column_stack([v for _, _, v in slots])[stored]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(stored.sum(axis=1), out=indptr[1:])
    return Generator(
        states=spec.states,
        index=spec.state_index,
        matrix=sp.csr_matrix((data, indices, indptr), shape=(m, m)),
        unif_rate=float(exit_rates.max()),
    )


# Uniforms drawn from the stream per call of rng.random.
_BLOCK = 512


def _uniforms(rng):
    """The stream's uniforms one at a time, drawn _BLOCK at a time."""
    while True:
        yield from rng.random(_BLOCK).tolist()


def gillespie(rates_at, advance, state: int, horizon: float, seed: int):
    """Gillespie (1977) path from `state` up to `horizon`, over numbered bins.

    rates_at(state) returns the row (total, cumulative, last): the total
    rate as the caller sums it, the running sums of the bin rates in bin
    order (formed as acc += r), and the last bin with a positive rate.
    advance(state, b) is the state after a move in bin b; states are ints.

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
    log1p = math.log1p
    t = 0.0
    while True:
        total, cumulative, last = rates_at(state)
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
        state = advance(state, b)
        times.append(t)
        bins.append(b)
        states.append(state)


def _cumulative_rows(rates: np.ndarray) -> list:
    """Kernel rows (total, cumulative, last) of an (m, bins) rate array.

    np.cumsum adds along each row in sequence, so every running sum is
    bit-equal to the loop acc += r; the total is the last running sum.
    """
    cumulative = np.cumsum(rates, axis=1)
    last = rates.shape[1] - 1 - np.argmax(rates[:, ::-1] > 0.0, axis=1)
    return list(zip(cumulative[:, -1].tolist(), cumulative.tolist(), last.tolist()))


def simulate_path(spec: NetworkSpec, init, horizon: float, seed: int) -> EventLog:
    """Gillespie path up to `horizon`, one bin per link in declared order.

    The path stops at the first event time past the horizon (that event is
    not recorded) or when the total exit rate hits zero, which sets the
    absorbed flag. Ties in link selection resolve in declared link order.
    A state's total exit rate is summed link by link in declared order.
    """
    init = tuple(int(v) for v in init)
    if init not in spec.state_index:
        raise ModelError(f"initial state {init} not in the state space")
    rows = _cumulative_rows(np.column_stack([spec.rate_vector(link) for link in spec.links]))
    next_index = [spec.next_index(link).tolist() for link in spec.links]
    times, moves, visits, absorbed = gillespie(
        rows.__getitem__, lambda i, b: next_index[b][i], spec.state_index[init], horizon, seed
    )
    return EventLog(
        initial=init,
        times=times,
        moves=moves,
        visits=visits,
        states=spec.states,
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
        return np.arange(len(gen.states))
    moves = gen.matrix.tocoo()
    src, dst = labels[moves.row], labels[moves.col]
    has_exit = np.zeros(n_comp, dtype=bool)
    has_exit[src[src != dst]] = True
    recurrent = np.flatnonzero(~has_exit)
    if recurrent.size > 1:
        classes = [
            [gen.states[i] for i in np.flatnonzero(labels == c).tolist()] for c in recurrent
        ]
        raise ReducibleChainError(classes)
    return np.flatnonzero(labels == recurrent[0])


def stationary_distribution(gen: Generator, tol: float = 1e-12) -> np.ndarray:
    """Stationary distribution with residual max|pi Q| below `tol`.

    Transient states (outside the unique recurrent class) get mass zero.
    On the recurrent class the balance equations pi Q = 0 are solved
    directly: Q^T - sigma I, with sigma = 1e-12 times the largest exit
    rate, is factorised once by sparse LU, and two solves of inverse
    iteration from the uniform vector pick out its null direction.
    When the class is the whole space, Q is gen.matrix itself; otherwise
    it is the class's rows and columns of it. The shift is subtracted from
    a copy of Q's stored diagonal entries, and the CSR arrays of the result
    are read as the CSC arrays of its transpose. The residual is then
    checked; a miss raises ConvergenceError.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    m = len(gen.states)
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
    sigma = 1e-12 * float(-data[diagonal].min())
    data[diagonal] -= sigma
    shifted = sp.csc_matrix((data, sub.indices, sub.indptr), shape=(k, k))
    lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1)
    pi = np.full(k, 1.0 / k)
    for _ in range(2):
        pi = lu.solve(pi)
        pi /= pi.sum()
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum()
    residual = float(np.abs(sub.T @ pi).max())
    if not residual < tol:  # a NaN residual fails too
        raise ConvergenceError(residual, tol)
    if k == m:
        return pi
    pi_full = np.zeros(m)
    pi_full[members] = pi
    return pi_full


def distribution_vector(gen: Generator, p0) -> np.ndarray:
    """Normalize a distribution argument.

    A tuple is a state (point mass), a mapping is a sparse distribution
    keyed by state, anything else is a dense vector over the enumeration.
    """
    m = len(gen.states)
    if isinstance(p0, tuple):
        x = tuple(int(v) for v in p0)
        if x not in gen.index:
            raise ModelError(f"state {x} not in the state space")
        vec = np.zeros(m)
        vec[gen.index[x]] = 1.0
        return vec
    if isinstance(p0, dict):
        vec = np.zeros(m)
        for state, mass in p0.items():
            x = tuple(int(v) for v in state)
            if x not in gen.index:
                raise ModelError(f"state {x} not in the state space")
            vec[gen.index[x]] = float(mass)
    else:
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
    return np.clip(vec, 0.0, None) / np.clip(vec, 0.0, None).sum()


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
    acc = w[0] * vec
    for k in range(1, depth + 1):
        vec = kernel_t @ vec
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
    _, tail = _poisson_weights(lam * max(times, default=0.0))
    dropped = np.zeros(tail.size)
    dropped[:-1] = np.cumsum(tail[:0:-1])[::-1]  # sum_{j>k} P(N > j)
    depth = _truncation_depth(rate_vec.max() / lam * dropped, tol)
    kernel_t = gen.transposed_kernel()
    rewards = np.empty(depth + 1)
    rewards[0] = vec @ rate_vec
    for k in range(1, depth + 1):
        vec = kernel_t @ vec
        rewards[k] = vec @ rate_vec
    means = []
    for t in times:
        tail = _poisson_weights(lam * t)[1][: depth + 1]
        means.append(float(tail @ rewards[: tail.size]) / lam)
    return tuple(means)


def throughput(spec: NetworkSpec, pi, link: Link) -> float:
    """Stationary rate of moves along `link`: sum_x pi(x) rate(x)."""
    if link not in spec.rates:
        raise ModelError(f"unknown link {link}")
    vec = np.asarray(pi, dtype=float)
    if vec.shape != (len(spec.states),):
        raise ValueError(
            f"distribution has length {vec.shape}, expected {len(spec.states)}"
        )
    return float(vec @ spec.rate_vector(link))


def _state_labels(states) -> list[str]:
    """Each state's coordinates joined by ';', as report cells spell it."""
    return [";".join(map(str, x)) for x in states]


def event_log_csv(log: EventLog) -> str:
    """CSV rows time,link_from,link_to,state_after; states joined by ';'."""
    prefixes = [f"{i},{j}," for i, j in log.links]
    labels = _state_labels(log.states)
    lines = ["time,link_from,link_to,state_after"]
    lines += [
        f"{t!r},{prefixes[k]}{labels[i]}" for t, k, i in zip(log.times, log.moves, log.visits)
    ]
    return "\n".join(lines) + "\n"


def distribution_csv(states, probs) -> str:
    """CSV rows state,probability; states joined by ';'."""
    rows = map("{},{!r}".format, _state_labels(states), np.asarray(probs, dtype=float).tolist())
    return "\n".join(["state,probability", *rows]) + "\n"
