"""Generator construction, simulation and distribution solvers.

The continuous-time chain lives on the finite state set of a NetworkSpec.
Its generator is concatenated from the per-link rate and next_index
arrays, keeping one labeled entry per (state, link) with a positive rate
so that flows stay attributable to links even when the matrix itself sums
parallel contributions.

Simulation: gillespie is the one Gillespie (1977) kernel, over state
indices and numbered bins: one exponential draw for the holding time,
then one uniform draw for the bin. simulate_path runs it with one bin per
link; coupling.simulate_coupled runs it on index pairs with three bins
per link.

Solvers:

  * stationary_distribution: one sparse LU factorisation of the
    recurrent-class generator, shifted off singularity, and two steps of
    inverse iteration. The chain may have transient states, but exactly
    one recurrent class.
  * transient_distribution: uniformization, p(t) = sum_k P(N = k) p0 P^k
    with N ~ Poisson(Lambda t) and P = I + Q / Lambda, truncated at the
    first depth K whose Poisson tail P(N > K) is at most tol.
  * transient_mean_flow: cumulative-reward uniformization (Reibman and
    Trivedi 1988), E[N_l(t)] = (1/Lambda) sum_k P(N > k) (p0 P^k) r_l.
    One pass over the powers p0 P^k serves a whole grid of times; the
    depth K bounds the truncation error by (max r_l / Lambda)
    sum_{k>K} P(N > k) at the largest time.

Both take their Poisson weights from _poisson_weights, the one place the
truncation policy lives.

scipy is imported inside the four functions that build or factor sparse
matrices (build_generator, Generator.uniformized_kernel, _recurrent_class
and stationary_distribution), not at module level. Importing scipy.sparse
and its csgraph and linalg parts takes longer than importing numpy and
the rest of floworder together, and at module level every process that
imports floworder would pay it, including the check, verify, couple and
simulate commands, which never build a sparse matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import Link, ModelError, NetworkSpec, State, validate_spec
from .rng import exponential, make_stream

__all__ = [
    "SolverError",
    "ReducibleChainError",
    "ConvergenceError",
    "ToleranceError",
    "Event",
    "EventLog",
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


@dataclass
class EventLog:
    """One simulated path: the jump times, links and states visited."""

    initial: State
    events: list[Event]
    horizon: float
    absorbed: bool
    links: tuple[Link, ...]

    def state_at(self, t: float) -> State:
        x = self.initial
        for ev in self.events:
            if ev.time > t:
                break
            x = ev.post
        return x


@dataclass
class Generator:
    states: tuple[State, ...]
    index: dict
    entries: tuple  # (src_index, dst_index, rate, link), rate > 0
    matrix: sp.csr_matrix  # includes the diagonal
    exit_rates: np.ndarray
    unif_rate: float
    _kernel: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    def uniformized_kernel(self) -> sp.csr_matrix:
        """I + Q / unif_rate; requires unif_rate > 0."""
        if self._kernel is None:
            import scipy.sparse as sp

            m = len(self.states)
            self._kernel = (sp.identity(m, format="csr") + self.matrix / self.unif_rate).tocsr()
        return self._kernel


def _link_arrays(spec: NetworkSpec):
    """Per-link (rates, next_index) arrays; a positive rate leaving the space raises."""
    issues = validate_spec(spec).issues
    if issues:
        (i, j), x = issues[0].link, issues[0].state
        raise ModelError(
            f"rate for link {i}->{j} is positive at state {x} "
            f"but the move leaves the state space"
        )
    return [(spec.rate_vector(link), spec.next_index(link)) for link in spec.links]


def build_generator(spec: NetworkSpec) -> Generator:
    import scipy.sparse as sp

    m = len(spec.states)
    exit_rates = np.zeros(m)
    src, dst, val, labels = [], [], [], []
    for link, (rates, next_index) in zip(spec.links, _link_arrays(spec)):
        moving = np.flatnonzero(rates > 0.0)
        src.append(moving)
        dst.append(next_index[moving])
        val.append(rates[moving])
        labels += [link] * moving.size
        exit_rates += rates  # link by link in declared order, which fixes the rounding
    src, dst, val = (np.concatenate(v) for v in (src, dst, val))
    leaving = np.flatnonzero(exit_rates > 0.0)
    rows = np.concatenate([src, leaving])
    cols = np.concatenate([dst, leaving])
    vals = np.concatenate([val, -exit_rates[leaving]])
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    return Generator(
        states=spec.states,
        index=spec.state_index,
        entries=tuple(zip(src.tolist(), dst.tolist(), val.tolist(), labels)),
        matrix=matrix,
        exit_rates=exit_rates,
        unif_rate=float(exit_rates.max()),
    )


def gillespie(rates_at, advance, state, horizon: float, seed: int):
    """Gillespie (1977) path from `state` up to `horizon`, over numbered bins.

    rates_at(state) returns (total, rates): the rate of each candidate
    move in a fixed bin order, and their total as the caller sums it.
    advance(state, b) is the state after a move in bin b. Each step draws
    the holding time exponential(total) and then one uniform U: the move
    is the first bin whose running sum exceeds U * total or, when rounding
    carries U * total past the last running sum, the last bin with a
    positive rate. The path stops at the first event past the horizon
    (not recorded) or at a state whose total rate is zero.

    Returns (events, absorbed), each event a (time, bin, state after) triple.
    """
    if not 0.0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    rng = make_stream(seed)
    events = []
    t = 0.0
    while True:
        total, rates = rates_at(state)
        if total <= 0.0:
            return events, True
        t += exponential(rng, total)
        if t > horizon:
            return events, False
        target_mass = rng.random() * total
        acc = 0.0
        for b, r in enumerate(rates):
            acc += r
            if target_mass < acc:
                break
        else:  # rounding pushed the draw past the last bin
            b = max(b for b, r in enumerate(rates) if r > 0.0)
        state = advance(state, b)
        events.append((t, b, state))


def simulate_path(spec: NetworkSpec, init, horizon: float, seed: int) -> EventLog:
    """Gillespie path up to `horizon`, one bin per link in declared order.

    The path stops at the first event time past the horizon (that event is
    not recorded) or when the total exit rate hits zero, which sets the
    absorbed flag. Ties in link selection resolve in declared link order.
    """
    init = tuple(int(v) for v in init)
    if init not in spec.state_index:
        raise ModelError(f"initial state {init} not in the state space")
    arrays = _link_arrays(spec)
    totals = np.zeros(len(spec.states))
    for rates, _ in arrays:  # in declared link order: the draws depend on every bit
        totals += rates
    moves = list(zip(totals.tolist(), np.column_stack([r for r, _ in arrays]).tolist()))
    next_index = [n.tolist() for _, n in arrays]
    start = spec.state_index[init]
    steps, absorbed = gillespie(moves.__getitem__, lambda i, b: next_index[b][i], start, horizon, seed)
    links, states = spec.links, spec.states
    pre = [start] + [i for _, _, i in steps]
    events = [Event(t, links[b], states[p], states[i]) for (t, b, i), p in zip(steps, pre)]
    return EventLog(
        initial=init, events=events, horizon=float(horizon), absorbed=absorbed, links=links
    )


def _recurrent_class(gen: Generator):
    """Indices of the unique recurrent class, or raise ReducibleChainError."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    m = len(gen.states)
    if m == 1:
        return [0]
    rows = [e[0] for e in gen.entries]
    cols = [e[1] for e in gen.entries]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m))
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    has_exit = np.zeros(n_comp, dtype=bool)
    for i, j, _, _ in gen.entries:
        if labels[i] != labels[j]:
            has_exit[labels[i]] = True
    recurrent = [c for c in range(n_comp) if not has_exit[c]]
    if len(recurrent) > 1:
        classes = [
            [gen.states[i] for i in range(m) if labels[i] == c] for c in recurrent
        ]
        raise ReducibleChainError(classes)
    c = recurrent[0]
    return [i for i in range(m) if labels[i] == c]


def stationary_distribution(gen: Generator, tol: float = 1e-12) -> np.ndarray:
    """Stationary distribution with residual max|pi Q| below `tol`.

    Transient states (outside the unique recurrent class) get mass zero.
    On the recurrent class the balance equations pi Q = 0 are solved
    directly: Q^T - sigma I, with sigma = 1e-12 times the largest exit
    rate, is factorised once by sparse LU, and two solves of inverse
    iteration from the uniform vector pick out its null direction.
    The residual is then checked; a miss raises ConvergenceError.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    m = len(gen.states)
    members = _recurrent_class(gen)
    k = len(members)
    pi_full = np.zeros(m)
    if k == 1:
        pi_full[members[0]] = 1.0
        return pi_full
    sub = gen.matrix[np.ix_(members, members)].tocsr()
    # The shift makes the factorisation nonsingular without densifying a
    # row (as a normalisation row of ones would) and without pinning the
    # mass of one state, which is badly conditioned when that state is rare.
    sigma = 1e-12 * float(-sub.diagonal().min())
    shifted = (sub.T - sigma * sp.identity(k)).tocsc()
    lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1)
    pi = np.full(k, 1.0 / k)
    for _ in range(2):
        pi = lu.solve(pi)
        pi /= pi.sum()
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum()
    residual = float(np.abs(pi @ sub).max())
    if not residual < tol:  # a NaN residual fails too
        raise ConvergenceError(residual, tol)
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


def _poisson_weights(q: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(q) probabilities P(N = k) and right tails P(N > k), k = 0..K.

    Logarithms are accumulated outward from the mode, so no weight
    underflows before it is negligible, and tails are summed from the
    right, so small tails keep their relative accuracy. K = q + 40 sqrt(q)
    + 200 puts the mass beyond K below 1e-300, which the tails treat as 0.
    """
    if q == 0.0:
        return np.ones(1), np.zeros(1)
    kmax = int(q + 40.0 * math.sqrt(q) + 200.0)
    mode = int(q)
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
    depth meets (negative or NaN) raises ToleranceError.
    """
    vec = distribution_vector(gen, p0)
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    if t == 0.0 or gen.unif_rate == 0.0:
        return vec
    w, tail = _poisson_weights(gen.unif_rate * t)
    depth = _truncation_depth(tail, tol)
    kernel = gen.uniformized_kernel()
    acc = w[0] * vec
    for k in range(1, depth + 1):
        vec = vec @ kernel
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
    top. A tol no depth meets (negative or NaN) raises ToleranceError.
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
    kernel = gen.uniformized_kernel()
    rewards = np.empty(depth + 1)
    rewards[0] = vec @ rate_vec
    for k in range(1, depth + 1):
        vec = vec @ kernel
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


def _fmt(value: float) -> str:
    return repr(float(value))


def event_log_csv(log: EventLog) -> str:
    """CSV rows time,link_from,link_to,state_after; states joined by ';'."""
    lines = ["time,link_from,link_to,state_after"]
    for ev in log.events:
        state = ";".join(str(v) for v in ev.post)
        lines.append(f"{_fmt(ev.time)},{ev.link[0]},{ev.link[1]},{state}")
    return "\n".join(lines) + "\n"


def distribution_csv(states, probs) -> str:
    lines = ["state,probability"]
    for x, p in zip(states, probs):
        lines.append(";".join(str(v) for v in x) + "," + _fmt(p))
    return "\n".join(lines) + "\n"
