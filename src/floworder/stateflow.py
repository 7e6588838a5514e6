"""State-flow augmentation: populations paired with per-link event counters.

Augmenting a population process with one counter per link makes cumulative
flows part of the state: a move along link (i, j) takes (x, f) to
(x - e_i + e_j, f + e_{i,j}) at the population rate, which depends on x
only. The per-node balance x_i - (inflow count) + (outflow count) is
preserved by every such move, so it is a path invariant.

Since the counters only record, the augmented chain needs no simulator of
its own: its moves are the population moves (NetworkSpec.rate_vector and
NetworkSpec.next_index), and recover_flows rebuilds the counters of any
population path event by event.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Mapping

from .model import Link, State

__all__ = [
    "zero_flows",
    "balance_signature",
    "recover_flows",
    "FlowTrajectory",
]


def zero_flows(links) -> dict[Link, int]:
    return {tuple(link): 0 for link in links}


def balance_signature(x: State, flows: Mapping[Link, int]) -> tuple[int, ...]:
    """Per-node balance b_i = x_i - inflow_i + outflow_i.

    Constant along every state-flow path, equal to the initial population
    when counters start at zero.
    """
    b = [int(v) for v in x]
    for (i, j), count in flows.items():
        if i >= 1:
            b[i - 1] += int(count)
        if j >= 1:
            b[j - 1] -= int(count)
    return tuple(b)


class FlowTrajectory:
    """Right-continuous step functions, one counter per link."""

    def __init__(self, links, initial: Mapping[Link, int], jumps: Mapping[Link, list]):
        self.links = tuple(links)
        self.initial = {link: int(initial.get(link, 0)) for link in self.links}
        self._jumps = {link: sorted(jumps.get(link, [])) for link in self.links}

    def value(self, link: Link, t: float) -> int:
        return self.initial[link] + bisect_right(self._jumps[link], t)

    def counters_at(self, t: float) -> dict[Link, int]:
        return {link: self.value(link, t) for link in self.links}

    def final(self) -> dict[Link, int]:
        return {
            link: self.initial[link] + len(self._jumps[link]) for link in self.links
        }

    def rows(self):
        """(time, link, counter) for every jump, in time order."""
        order = {link: k for k, link in enumerate(self.links)}
        merged = []
        for link in self.links:
            running = self.initial[link]
            for t in self._jumps[link]:
                running += 1
                merged.append((t, order[link], link, running))
        merged.sort(key=lambda row: (row[0], row[1]))
        return [(t, link, count) for t, _, link, count in merged]

    def to_csv(self) -> str:
        lines = ["time,link,counter"]
        for t, link, count in self.rows():
            lines.append(f"{float(t)!r},{link[0]}->{link[1]},{count}")
        return "\n".join(lines) + "\n"


def recover_flows(log, flows0: Mapping[Link, int] | None = None) -> FlowTrajectory:
    """Rebuild cumulative per-link flows from a population event log.

    The counter of link l at time t is its start value plus the number of
    events on l with time <= t.
    """
    initial = dict(flows0) if flows0 is not None else zero_flows(log.links)
    jumps: dict[Link, list] = {link: [] for link in log.links}
    for ev in log.events:
        jumps[ev.link].append(ev.time)
    return FlowTrajectory(log.links, initial, jumps)
