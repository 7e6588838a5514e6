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

Each service table becomes an indicator-sum rate expression, one term
per nonzero occupancy level, whose text is one join of its terms. The
builders make each expression's tree directly, so no text is parsed: the
tree is the one parse_expression would build from that text (one Table
node for two terms or more), and the text is kept as the rate's source
for serialization and model digests. Both builders return ordinary
NetworkSpec models, checked by the constructor like any other, that
serialize like any other. TandemParams makes the box array before it
reads the tables, so a box too large to allocate is refused before a
default table of s + 1 entries is made. Both variants' spaces are views
of that box (the balanced one less its last row, the corner (s1, s2)),
and a command that needs both builds them with _tandem_pair, from one
pair of table expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ctmc import throughput
from .expr import BinOp, Comparison, Coord, Indicator, Num, Param, RateExpr, Table
from .model import ModelError, NetworkSpec, _parse_space
from .model import parse_model  # unused; bench/tracing.py patches tandem.parse_model

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
    # the states (x1, x2) with x1 <= s1 and x2 <= s2, in lexicographic order
    box: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.s1 < 1 or self.s2 < 1:
            raise ModelError("buffer sizes must be at least 1")
        if not 0 <= self.beta < math.inf:
            raise ModelError(f"beta must be nonnegative and finite, not {self.beta!r}")
        # before the tables: a box _parse_space refuses is refused first
        object.__setattr__(self, "box", _parse_space({"box": [self.s1, self.s2]}, 2))
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
            if not all(0 <= v < math.inf for v in table):
                raise ModelError(f"{name} must be nonnegative and finite")

    @staticmethod
    def linear(s1: int, s2: int, beta: float) -> "TandemParams":
        """Single-server-per-job tables delta_i(k) = k."""
        return TandemParams(s1, s2, beta, range(s1 + 1), range(s2 + 1))

    @property
    def increasing(self) -> bool:
        """Whether both service tables are nondecreasing in the occupancy."""
        return all(a <= b for t in (self.delta1, self.delta2) for a, b in zip(t, t[1:]))


def _table_expression(coord: int, prefix: str, table) -> tuple[tuple[str, object], dict]:
    """Indicator-sum expression for a per-occupancy rate table of the
    1-based coordinate `coord`, as (text, tree), and its parameters.

    The text has one term per nonzero level, joined by " + ", and the tree
    is the one parse_expression builds from it: a Table for two terms or
    more, the lone term's product for one, and Num(0.0) for the text "0"
    when every entry is zero.
    """
    names = [f"{prefix}_{k}" for k in range(1, len(table))]
    params = {name: float(v) for name, v in zip(names, table[1:])}
    levels = [k for k in range(1, len(table)) if table[k] != 0.0]
    if not levels:
        return ("0", Num(0.0)), params
    text = " + ".join(f"{names[k - 1]} * ind(x{coord} = {k})" for k in levels)
    scales = tuple(Param(names[k - 1]) for k in levels)
    if len(levels) > 1:
        return (text, Table(coord - 1, scales, tuple(map(float, levels)))), params
    test = Comparison("=", Coord(coord - 1), Num(float(levels[0])))
    return (text, BinOp("*", scales[0], Indicator((test,)))), params


def _below_capacity(*coords: int) -> tuple[str, Indicator]:
    """ind(x_c < s_c, ...) over the 1-based coordinates, as (text, tree)."""
    text = ", ".join(f"x{c} < s{c}" for c in coords)
    tests = tuple(Comparison("<", Coord(c - 1), Param(f"s{c}")) for c in coords)
    return f"ind({text})", Indicator(tests)


def _product(left: tuple[str, object], right: tuple[str, object]) -> tuple[str, BinOp]:
    """left * right, as (text, tree); the caller puts a sum on the left in parentheses."""
    return f"{left[0]} * {right[0]}", BinOp("*", left[1], right[1])


def _service_tables(params: TandemParams):
    """Both service tables' _table_expression results."""
    return (
        _table_expression(1, "delta1", params.delta1),
        _table_expression(2, "delta2", params.delta2),
    )


def _tandem(params: TandemParams, tables, balanced: bool) -> NetworkSpec:
    """The tandem model of either variant, built from its rate trees: on
    the params' box, or for the balanced variant on the box less its last
    row, the corner (s1, s2)."""
    ((d1, t1), p1), ((d2, t2), p2) = tables
    beta = ("beta", Param("beta"))
    rates = {
        (0, 1): _product(beta, _below_capacity(1, 2) if balanced else _below_capacity(1)),
        (1, 2): _product((f"({d1})", t1), _below_capacity(2)),
        (2, 0): _product((f"({d2})", t2), _below_capacity(1)) if balanced else (d2, t2),
    }
    return NetworkSpec(
        n=2,
        links=tuple(rates),
        states=params.box[:-1] if balanced else params.box,
        rates={link: RateExpr(text, tree, 2) for link, (text, tree) in rates.items()},
        params={
            "beta": float(params.beta),
            "s1": float(params.s1),
            "s2": float(params.s2),
            **p1,
            **p2,
        },
    )


def _tandem_pair(params: TandemParams) -> tuple[NetworkSpec, NetworkSpec]:
    """(balanced, original), equal to the two builders' models, from one
    pair of service-table expressions."""
    tables = _service_tables(params)
    return _tandem(params, tables, balanced=True), _tandem(params, tables, balanced=False)


def build_original_tandem(params: TandemParams) -> NetworkSpec:
    return _tandem(params, _service_tables(params), balanced=False)


def build_balanced_tandem(params: TandemParams) -> NetworkSpec:
    return _tandem(params, _service_tables(params), balanced=True)


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
    1e-10 * max(1, beta), which holds whenever arrivals run at either
    beta or zero (loss_rate_applies). The bound scales with beta because
    both routes round at the scale of beta.
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
    if abs(direct - alternative) > 1e-10 * max(1.0, beta):
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
    if vec.shape != (len(spec.coords),):
        raise ValueError("distribution length does not match the state space")
    if (vec <= 0.0).any():
        raise ModelError(
            "product-form residual needs strictly positive stationary mass "
            "on every state (is the chain irreducible?)"
        )
    n = spec.n
    rows = spec.coords.tolist()
    profiles = []
    for axis in range(n):
        cap = max(x[axis] for x in rows)
        g = [1.0]
        for k in range(1, cap + 1):
            lo = spec.find(tuple(k - 1 if c == axis else 0 for c in range(n)))
            hi = tuple(k if c == axis else 0 for c in range(n))
            i = spec.find(hi)
            if lo < 0 or i < 0:
                raise ModelError(
                    f"state space must contain the coordinate axis through {hi}"
                )
            g.append(g[-1] * vec[i] / vec[lo])
        profiles.append(g)
    product = np.array(
        [np.prod([profiles[axis][x[axis]] for axis in range(n)]) for x in rows]
    )
    product /= product.sum()
    return float(np.abs(vec - product).max())
