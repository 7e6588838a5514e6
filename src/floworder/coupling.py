"""Marching-soldiers couplings of two population processes.

Two chains A and B over the same link family move together as much as
their rates allow: on each link with component rates a and b, the pair
takes a joint step at min(a, b), B alone at max(b - a, 0) and A alone at
max(a - b, 0). Each marginal therefore sees exactly its own rates, and
whenever one rate dominates the other, only the dominant side can step
ahead. The coupling exists in a population form, tracking (x, x'), and a
state-flow form that also carries per-link counters for both sides. Both
run on ctmc.gillespie over index pairs (i, i'), with the bins (joint,
B-only, A-only) of each link in declared link order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .ctmc import Event, EventLog, _link_arrays, gillespie
from .model import Link, ModelError, NetworkSpec, State

__all__ = [
    "marching_rates",
    "CoupledSpec",
    "build_population_coupling",
    "build_stateflow_coupling",
    "CoupledEvent",
    "PairedEventLog",
    "simulate_coupled",
    "paired_log_csv",
]

JOINT = "joint"
B_ONLY = "b_only"
A_ONLY = "a_only"
_KINDS = (JOINT, B_ONLY, A_ONLY)  # bin order within a link


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

    The coupled generator is never materialized; rates are produced on
    demand from the component rate arrays, so the reachable pair space
    stays implicit.
    """

    spec_a: NetworkSpec
    spec_b: NetworkSpec
    with_flows: bool

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

    def transition_rates(self, xa: State, xb: State):
        """Per-link triples at the pair (xa, xb): (link, joint, b_only, a_only)."""
        ia = self.spec_a.index_of(xa)
        ib = self.spec_b.index_of(xb)
        out = []
        for link in self.links:
            a = float(self.spec_a.rate_vector(link)[ia])
            b = float(self.spec_b.rate_vector(link)[ib])
            joint, b_only, a_only = marching_rates(a, b)
            out.append((link, joint, b_only, a_only))
        return out


def build_population_coupling(spec_a: NetworkSpec, spec_b: NetworkSpec) -> CoupledSpec:
    return CoupledSpec(spec_a=spec_a, spec_b=spec_b, with_flows=False)


def build_stateflow_coupling(spec_a: NetworkSpec, spec_b: NetworkSpec) -> CoupledSpec:
    return CoupledSpec(spec_a=spec_a, spec_b=spec_b, with_flows=True)


class CoupledEvent(NamedTuple):
    time: float
    link: Link
    kind: str  # "joint", "b_only" or "a_only"
    state_a: State
    state_b: State
    flows_a: tuple[int, ...] | None
    flows_b: tuple[int, ...] | None


@dataclass
class PairedEventLog:
    initial_a: State
    initial_b: State
    initial_flows_a: tuple[int, ...] | None
    initial_flows_b: tuple[int, ...] | None
    links: tuple[Link, ...]
    events: list[CoupledEvent]
    horizon: float
    absorbed: bool
    with_flows: bool

    def project(self, side: str) -> EventLog:
        """Component event log of side 'a' or 'b' (joint plus one-sided moves).

        The projection is absorbed when the coupled path is, since then
        neither side can move. A side that absorbs while the other still
        moves is not flagged, because the log holds no rates to tell.
        """
        if side not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b'")
        keep = A_ONLY if side == "a" else B_ONLY
        x = self.initial_a if side == "a" else self.initial_b
        events = []
        for ev in self.events:
            if ev.kind == JOINT or ev.kind == keep:
                post = ev.state_a if side == "a" else ev.state_b
                events.append(Event(ev.time, ev.link, x, post))
                x = post
        return EventLog(
            initial=self.initial_a if side == "a" else self.initial_b,
            events=events,
            horizon=self.horizon,
            absorbed=self.absorbed,
            links=self.links,
        )


def simulate_coupled(
    coupled: CoupledSpec,
    init_a,
    init_b,
    horizon: float,
    seed: int,
) -> PairedEventLog:
    """Simulate the coupled chain; counters (state-flow form) start at zero.

    The kernel's state is the index pair (ia, ib). Candidate events are
    ordered (joint, B-only, A-only) within each link and links keep their
    declared order, so a seed fixes the path exactly.
    """
    xa = tuple(int(v) for v in init_a)
    xb = tuple(int(v) for v in init_b)
    if xa not in coupled.spec_a.state_index:
        raise ModelError(f"initial state {xa} not in the first state space")
    if xb not in coupled.spec_b.state_index:
        raise ModelError(f"initial state {xb} not in the second state space")
    links = coupled.links
    arrays_a, arrays_b = _link_arrays(coupled.spec_a), _link_arrays(coupled.spec_b)
    rates = [(ra.tolist(), rb.tolist()) for (ra, _), (rb, _) in zip(arrays_a, arrays_b)]
    next_a = [n.tolist() for _, n in arrays_a]
    next_b = [n.tolist() for _, n in arrays_b]

    def rates_at(pair):
        ia, ib = pair
        bins = []
        total = 0.0
        for rates_a, rates_b in rates:
            a = rates_a[ia]
            b = rates_b[ib]
            # marching_rates(a, b), up to the sign of a zero rate
            joint = a if a <= b else b
            b_only = b - a if b > a else 0.0
            a_only = a - b if a > b else 0.0
            bins += (joint, b_only, a_only)
            total += joint + b_only + a_only
        return total, bins

    def advance(pair, b):
        ia, ib = pair
        k, kind = divmod(b, 3)
        if kind != 1:  # not B-only: A moves
            ia = next_a[k][ia]
        if kind != 2:  # not A-only: B moves
            ib = next_b[k][ib]
        return ia, ib

    start = (coupled.spec_a.state_index[xa], coupled.spec_b.state_index[xb])
    steps, absorbed = gillespie(rates_at, advance, start, horizon, seed)
    with_flows = coupled.with_flows
    zeros = tuple(0 for _ in links) if with_flows else None
    fa = fb = zeros
    states_a, states_b = coupled.spec_a.states, coupled.spec_b.states
    events: list[CoupledEvent] = []
    for t, b, (ia, ib) in steps:
        k, kind = divmod(b, 3)
        if with_flows:
            if kind != 1:
                fa = fa[:k] + (fa[k] + 1,) + fa[k + 1 :]
            if kind != 2:
                fb = fb[:k] + (fb[k] + 1,) + fb[k + 1 :]
        events.append(
            CoupledEvent(t, links[k], _KINDS[kind], states_a[ia], states_b[ib], fa, fb)
        )
    return PairedEventLog(
        initial_a=xa,
        initial_b=xb,
        initial_flows_a=zeros,
        initial_flows_b=zeros,
        links=links,
        events=events,
        horizon=float(horizon),
        absorbed=absorbed,
        with_flows=with_flows,
    )


def paired_log_csv(log: PairedEventLog) -> str:
    """CSV rows: time,link_from,link_to,which,stateA,stateB,flowA,flowB."""
    lines = ["time,link_from,link_to,which,stateA,stateB,flowA,flowB"]
    for ev in log.events:
        sa = ";".join(str(v) for v in ev.state_a)
        sb = ";".join(str(v) for v in ev.state_b)
        fa = ";".join(str(v) for v in ev.flows_a) if ev.flows_a is not None else ""
        fb = ";".join(str(v) for v in ev.flows_b) if ev.flows_b is not None else ""
        lines.append(
            f"{float(ev.time)!r},{ev.link[0]},{ev.link[1]},{ev.kind},{sa},{sb},{fa},{fb}"
        )
    return "\n".join(lines) + "\n"
