"""Two-node tandem queues with finite buffers, in two blocking variants.

Both variants share buffer sizes s1, s2, an arrival rate constant beta
and per-queue service rate tables delta1, delta2 (value at occupancy k,
with delta(0) = 0).

  * The original variant blocks arrivals when queue 1 is full and blocks
    service at queue 1 when queue 2 is full; departures from queue 2 are
    never blocked. Its states fill the full box.
  * The balanced variant additionally blocks arrivals when queue 2 is
    full and blocks departures when queue 1 is full. The doubly full
    corner (s1, s2) becomes unreachable and is removed from its space.

Service tables are compiled into indicator-sum rate expressions, so both
builders return ordinary NetworkSpec models that serialize like any
other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctmc import throughput
from .model import ModelError, NetworkSpec, parse_model

__all__ = [
    "TandemParams",
    "build_original_tandem",
    "build_balanced_tandem",
    "loss_rate",
    "loss_rate_applies",
    "product_form_residual",
]


@dataclass(frozen=True)
class TandemParams:
    s1: int
    s2: int
    beta: float
    delta1: tuple[float, ...]
    delta2: tuple[float, ...]

    def __post_init__(self):
        if self.s1 < 1 or self.s2 < 1:
            raise ModelError("buffer sizes must be at least 1")
        if self.beta < 0:
            raise ModelError("beta must be nonnegative")
        object.__setattr__(self, "delta1", tuple(float(v) for v in self.delta1))
        object.__setattr__(self, "delta2", tuple(float(v) for v in self.delta2))
        for name, table, size in (
            ("delta1", self.delta1, self.s1),
            ("delta2", self.delta2, self.s2),
        ):
            if len(table) != size + 1:
                raise ModelError(f"{name} needs one value per occupancy 0..{size}")
            if table[0] != 0.0:
                raise ModelError(f"{name}(0) must be zero")
            if any(v < 0 for v in table):
                raise ModelError(f"{name} must be nonnegative")

    @staticmethod
    def linear(s1: int, s2: int, beta: float) -> "TandemParams":
        """Single-server-per-job tables delta_i(k) = k."""
        return TandemParams(
            s1=s1,
            s2=s2,
            beta=beta,
            delta1=tuple(float(k) for k in range(s1 + 1)),
            delta2=tuple(float(k) for k in range(s2 + 1)),
        )

    @property
    def delta1_increasing(self) -> bool:
        return all(a <= b for a, b in zip(self.delta1, self.delta1[1:]))

    @property
    def delta2_increasing(self) -> bool:
        return all(a <= b for a, b in zip(self.delta2, self.delta2[1:]))

    @property
    def increasing(self) -> bool:
        return self.delta1_increasing and self.delta2_increasing


def _table_expression(coord: int, prefix: str, table) -> tuple[str, dict]:
    """Indicator-sum expression for a per-occupancy rate table."""
    params = {f"{prefix}_{k}": float(table[k]) for k in range(1, len(table))}
    terms = [
        f"{prefix}_{k} * ind(x{coord} = {k})"
        for k in range(1, len(table))
        if table[k] != 0.0
    ]
    return (" + ".join(terms) if terms else "0"), params


def build_original_tandem(params: TandemParams) -> NetworkSpec:
    d1, p1 = _table_expression(1, "delta1", params.delta1)
    d2, p2 = _table_expression(2, "delta2", params.delta2)
    doc = {
        "n": 2,
        "space": {"box": [params.s1, params.s2]},
        "links": [[0, 1], [1, 2], [2, 0]],
        "params": {
            "beta": params.beta,
            "s1": params.s1,
            "s2": params.s2,
            **p1,
            **p2,
        },
        "rates": {
            "0->1": "beta * ind(x1 < s1)",
            "1->2": f"({d1}) * ind(x2 < s2)",
            "2->0": d2,
        },
    }
    return parse_model(doc)


def build_balanced_tandem(params: TandemParams) -> NetworkSpec:
    d1, p1 = _table_expression(1, "delta1", params.delta1)
    d2, p2 = _table_expression(2, "delta2", params.delta2)
    doc = {
        "n": 2,
        "space": {"box": [params.s1, params.s2], "exclude": [[params.s1, params.s2]]},
        "links": [[0, 1], [1, 2], [2, 0]],
        "params": {
            "beta": params.beta,
            "s1": params.s1,
            "s2": params.s2,
            **p1,
            **p2,
        },
        "rates": {
            "0->1": "beta * ind(x1 < s1, x2 < s2)",
            "1->2": f"({d1}) * ind(x2 < s2)",
            "2->0": f"({d2}) * ind(x1 < s1)",
        },
    }
    return parse_model(doc)


def loss_rate_applies(spec: NetworkSpec) -> bool:
    """Whether loss_rate's precondition holds: the model has a 'beta'
    parameter and a 0->1 link whose rate is beta or 0 at every state."""
    if "beta" not in spec.params or (0, 1) not in spec.links:
        return False
    arrivals = spec.rate_vector((0, 1))
    return bool(((arrivals == spec.params["beta"]) | (arrivals == 0.0)).all())


def loss_rate(spec: NetworkSpec, pi) -> float:
    """Stationary rate of rejected arrivals: beta minus accepted throughput.

    Cross-checked against beta times the stationary mass of states where
    the arrival rate is blocked to zero; the two routes must agree to
    1e-10, which holds whenever arrivals run at either beta or zero
    (loss_rate_applies).
    """
    if "beta" not in spec.params:
        raise ModelError("loss rate needs a 'beta' parameter on the model")
    beta = float(spec.params["beta"])
    accepted = throughput(spec, pi, (0, 1))
    direct = beta - accepted
    vec = np.asarray(pi, dtype=float)
    arrivals = spec.rate_vector((0, 1))
    blocked_mass = float(vec[arrivals == 0.0].sum())
    alternative = beta * blocked_mass
    if abs(direct - alternative) > 1e-10:
        raise ModelError(
            "loss-rate accounting mismatch: "
            f"{direct!r} by subtraction vs {alternative!r} by blocked mass"
        )
    return direct


def product_form_residual(spec: NetworkSpec, pi) -> float:
    """Distance of a stationary vector from the nearest separable profile.

    Extracts per-coordinate profiles g_i by probability ratios along the
    coordinate axes (all other coordinates at zero), normalizes their
    product over the state space, and reports the largest absolute
    deviation from pi. A residual at rounding level means pi factorizes.
    """
    vec = np.asarray(pi, dtype=float)
    if vec.shape != (len(spec.states),):
        raise ValueError("distribution length does not match the state space")
    if (vec <= 0.0).any():
        raise ModelError(
            "product-form residual needs strictly positive stationary mass "
            "on every state (is the chain irreducible?)"
        )
    index = spec.state_index
    n = spec.n
    profiles = []
    for axis in range(n):
        cap = max(x[axis] for x in spec.states)
        g = [1.0]
        for k in range(1, cap + 1):
            lo = tuple(k - 1 if c == axis else 0 for c in range(n))
            hi = tuple(k if c == axis else 0 for c in range(n))
            if lo not in index or hi not in index:
                raise ModelError(
                    f"state space must contain the coordinate axis through {hi}"
                )
            g.append(g[-1] * vec[index[hi]] / vec[index[lo]])
        profiles.append(g)
    product = np.array(
        [np.prod([profiles[axis][x[axis]] for axis in range(n)]) for x in spec.states]
    )
    product /= product.sum()
    return float(np.abs(vec - product).max())
