"""Network model documents and their in-memory form.

A model describes a Markov population process on a finite set of states:
jobs move along directed links (i, j) over nodes 1..n, with node 0 standing
for the outside world. A move along (i, j) takes the state from x to
x - e_i + e_j and occurs at a state-dependent rate given by a rate
expression. Rates whose target would leave the state space must be zero;
by default that is enforced as a load error, and the `clamp` flag (a JSON
boolean) instead multiplies every rate by the in-space indicator of its
target. Capacities, state coordinates and link endpoints are integers;
a number that is not equal to its int is an error, never rounded, and so
is a JSON boolean. Parameter values are JSON numbers, never strings or
booleans. A document of any other shape is a ModelError.

Documents are JSON objects:

    {
      "n": 2,
      "space": {"box": [2, 2], "exclude": [[2, 2]]},   # or {"list": [[..], ..]}
      "links": [[0, 1], [1, 2], [2, 0]],               # optional, default linear
      "params": {"beta": 1.0, "s1": 2, "s2": 2},
      "rates": {"0->1": "beta * ind(x1 < s1)", ...},
      "clamp": false
    }

States are enumerated in lexicographic order, which fixes the index map
used by every solver and report in the package. Each link is held as two
arrays over that index: its effective rate at every state, and the index
of the state each move leads to (-1 where the move leaves the space).
Both are built once per link, when a NetworkSpec is constructed, from one
evaluation of its expression over the whole state array, and the rate
rules above are checked on them there. A spec built directly is held to
the same rules as a parsed document.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .expr import ExpressionError, RateExpr, evaluate, parse_expression

__all__ = [
    "Link",
    "State",
    "ModelError",
    "NetworkSpec",
    "linear_links",
    "is_linear_family",
    "balance_signature",
    "parse_model",
    "load_model",
    "serialize_model",
    "model_digest",
]

Link = tuple[int, int]
State = tuple[int, ...]


class ModelError(ValueError):
    """Malformed model document or invalid specification."""


def linear_links(n: int) -> tuple[Link, ...]:
    """The open linear link family 0 -> 1 -> ... -> n -> 0."""
    if n < 1:
        raise ModelError("a network needs at least one node")
    return tuple((i, i + 1) for i in range(n)) + ((n, 0),)


@dataclass(eq=True)
class NetworkSpec:
    """Immutable description of one population process, validated when built.

    Construction evaluates each link's expression once over the (m, n)
    int64 state array and keeps the link's two arrays: its effective rate
    at every state (clamp applied) and the index of the state each move
    leads to (-1 where the move leaves the space). It raises ModelError at
    the first bad state, links in declared order and states in
    enumeration order: a rate that is not finite, then a negative one,
    then (unless clamp is set) a positive rate whose move leaves the
    space. So every spec, parsed or built directly, is a valid model.
    Treat instances as frozen.
    """

    n: int
    links: tuple[Link, ...]
    states: tuple[State, ...]
    rates: dict[Link, RateExpr]
    params: dict[str, float]
    clamp: bool = False
    state_index: dict[State, int] = field(init=False, repr=False, compare=False)
    _arrays: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.state_index = index = {x: k for k, x in enumerate(self.states)}
        coords = np.array(self.states, dtype=np.int64)
        self._arrays = {}
        for i, j in self.links:
            name = f"{i}->{j}"
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # IEEE results, as in Python
                    unclamped = evaluate(self.rates[(i, j)].root, coords, self.params)
            except RecursionError:
                raise ModelError(f"rate for link {name} is nested too deeply to evaluate") from None
            moved = coords.copy()
            if i > 0:
                moved[:, i - 1] -= 1
            if j > 0:
                moved[:, j - 1] += 1
            targets = [index.get(y, -1) for y in map(tuple, moved.tolist())]
            next_index = np.array(targets, dtype=np.int64)
            bad = ~np.isfinite(unclamped) | (unclamped < 0)
            if not self.clamp:
                bad |= (unclamped > 0) & (next_index < 0)
            hits = np.flatnonzero(bad)
            if hits.size:
                k = int(hits[0])
                x, r = self.states[k], float(unclamped[k])
                if not math.isfinite(r):
                    raise ModelError(f"rate for link {name} is not finite at state {x}")
                if r < 0:
                    raise ModelError(f"rate for link {name} is negative at state {x}: {r}")
                raise ModelError(
                    f"rate for link {name} is positive at state {x} "
                    f"but the move leaves the state space; set clamp to allow this"
                )
            rates = np.where(next_index >= 0, unclamped, 0.0) if self.clamp else unclamped
            self._arrays[(i, j)] = (rates, next_index)

    def index_of(self, x: State) -> int:
        try:
            return self.state_index[tuple(x)]
        except KeyError:
            raise ModelError(f"state {tuple(x)} not in the state space") from None

    def target(self, x: State, link: Link) -> State:
        i, j = link
        y = list(x)
        if i > 0:
            y[i - 1] -= 1
        if j > 0:
            y[j - 1] += 1
        return tuple(y)

    def rate_vector(self, link: Link) -> np.ndarray:
        """Effective rates of `link` aligned with the state enumeration, clamp applied."""
        return self._arrays[link][0]

    def next_index(self, link: Link) -> np.ndarray:
        """Index of the state a move along `link` leads to; -1 if it leaves the space."""
        return self._arrays[link][1]

    def rate_table(self, link: Link) -> dict[State, float]:
        """Effective rate of `link` at every state, as a new dict read off rate_vector."""
        return dict(zip(self.states, self.rate_vector(link).tolist()))


def is_linear_family(spec: NetworkSpec) -> bool:
    return spec.links == linear_links(spec.n)


def balance_signature(x: State, flows, links) -> tuple[int, ...]:
    """Per-node balance b_i = x_i - inflow_i + outflow_i.

    flows[k] is the counter of links[k] (a tuple, or a row of a flows
    array). Every move of the state-flow chain, x to x - e_i + e_j with
    the counter of (i, j) up by one, leaves b unchanged, so b is constant
    along a path; with counters starting at zero it is the initial
    population.
    """
    b = [int(v) for v in x]
    for (i, j), count in zip(links, flows):
        if i >= 1:
            b[i - 1] += int(count)
        if j >= 1:
            b[j - 1] -= int(count)
    return tuple(b)


def _integers(raw, message: str) -> tuple[int, ...]:
    """A JSON array's entries as ints; each must equal its int (1.0 is 1,
    but 1.6, "1" and true are not integers), or ModelError(message) is raised."""
    try:
        values = tuple(int(v) for v in raw)
        if values == tuple(raw) and not any(isinstance(v, bool) for v in raw):
            return values
    except (TypeError, ValueError, OverflowError):
        pass
    raise ModelError(message)


def _array(value, what: str):
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{what} must be a JSON array, not {value!r}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ModelError(f"{what} must be a JSON object, not {value!r}")
    return value


def _parse_space(space, n: int) -> tuple[State, ...]:
    if not isinstance(space, dict):
        raise ModelError("space must be an object with 'box' or 'list'")
    keys = set(space)
    if "box" in keys:
        if not keys <= {"box", "exclude"}:
            raise ModelError(f"unknown space keys {sorted(keys - {'box', 'exclude'})}")
        message = "box needs one nonnegative capacity per node"
        caps = _integers(space["box"], message)
        if len(caps) != n or any(c < 0 for c in caps):
            raise ModelError(message)
        excluded = set()
        for raw in _array(space.get("exclude", []), "exclude"):
            x = _integers(raw, f"excluded state {raw} must have integer coordinates")
            if len(x) != n:
                raise ModelError(f"excluded state {x} has wrong dimension")
            if any(v < 0 or v > c for v, c in zip(x, caps)):
                raise ModelError(f"excluded state {x} lies outside the box")
            excluded.add(x)
        states = [
            x
            for x in itertools.product(*(range(c + 1) for c in caps))
            if x not in excluded
        ]
    elif "list" in keys:
        if keys != {"list"}:
            raise ModelError(f"unknown space keys {sorted(keys - {'list'})}")
        states = []
        seen = set()
        for raw in _array(space["list"], "list"):
            x = _integers(raw, f"state {raw} must have integer coordinates")
            if len(x) != n:
                raise ModelError(f"state {x} has wrong dimension")
            if any(v < 0 for v in x):
                raise ModelError(f"state {x} has a negative coordinate")
            if x in seen:
                raise ModelError(f"duplicate state {x}")
            seen.add(x)
            states.append(x)
    else:
        raise ModelError("space must contain 'box' or 'list'")
    if not states:
        raise ModelError("empty state space")
    return tuple(sorted(states))


def _parse_link_key(key: str) -> Link:
    parts = key.split("->")
    if len(parts) != 2:
        raise ModelError(f"rate key {key!r} must look like 'i->j'")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise ModelError(f"rate key {key!r} must use integer endpoints") from None


def parse_model(document) -> NetworkSpec:
    """Build a NetworkSpec from a JSON document (text or parsed object).

    The document's schema and expression identifiers are checked here;
    the rates themselves (finite and nonnegative at every state, and zero
    where the move leaves the state space unless the clamp flag is set)
    are checked when the NetworkSpec is built.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except ValueError as e:  # a decode error, or an integer too long to convert
            raise ModelError(f"not valid JSON: {e}") from None
    if not isinstance(document, dict):
        raise ModelError("model document must be a JSON object")

    allowed = {"n", "space", "links", "params", "rates", "clamp"}
    unknown = set(document) - allowed
    if unknown:
        raise ModelError(f"unknown document keys {sorted(unknown)}")
    for key in ("n", "space", "rates"):
        if key not in document:
            raise ModelError(f"missing document key {key!r}")

    n = document["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ModelError("n must be a positive integer")

    states = _parse_space(document["space"], n)

    if "links" in document:
        links = []
        for raw in _array(document["links"], "links"):
            link = _integers(raw, f"link {raw} must be a pair of integer nodes")
            if len(link) != 2:
                raise ModelError(f"link {raw} must be a pair of integer nodes")
            if not (0 <= link[0] <= n and 0 <= link[1] <= n):
                raise ModelError(f"link {link} uses a node outside 0..{n}")
            if link[0] == link[1]:
                raise ModelError(f"link {link} must connect distinct endpoints")
            if link in links:
                raise ModelError(f"duplicate link {link}")
            links.append(link)
        links = tuple(links)
    else:
        links = linear_links(n)

    params = {}
    for name, value in _object(document.get("params", {}), "params").items():
        if not isinstance(name, str) or not name.isidentifier():
            raise ModelError(f"parameter name {name!r} is not an identifier")
        if name in ("min", "max", "ind"):
            raise ModelError(f"parameter name {name!r} is reserved")
        if re.fullmatch(r"x[1-9]\d*", name):
            raise ModelError(f"parameter name {name!r} shadows a coordinate")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelError(f"parameter {name} must be a JSON number, not {value!r}")
        try:
            params[name] = float(value)
        except OverflowError:
            raise ModelError(f"parameter {name} is too large for a double") from None

    clamp = document.get("clamp", False)
    if not isinstance(clamp, bool):
        raise ModelError(f"clamp must be a JSON boolean, not {clamp!r}")

    raw_rates = _object(document["rates"], "rates")
    rate_links = set()
    rates: dict[Link, RateExpr] = {}
    for key, source in raw_rates.items():
        link = _parse_link_key(key)
        if link not in links:
            raise ModelError(f"rate given for undeclared link {link}")
        if link in rate_links:
            raise ModelError(f"duplicate rate for link {link}")
        rate_links.add(link)
        try:
            rates[link] = parse_expression(str(source), n, params)
        except ExpressionError as e:
            raise ModelError(f"rate for link {link[0]}->{link[1]}: {e}") from None
    missing = [l for l in links if l not in rate_links]
    if missing:
        raise ModelError(f"missing rate for link {missing[0]}")
    rates = {link: rates[link] for link in links}

    return NetworkSpec(
        n=n, links=links, states=states, rates=rates, params=params, clamp=clamp
    )


def load_model(path) -> NetworkSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ModelError(f"model file is not UTF-8 text: {e}") from None
    return parse_model(text)


def serialize_model(spec: NetworkSpec) -> dict:
    """Canonical document form; parsing it back yields an equal NetworkSpec."""
    return {
        "n": spec.n,
        "space": {"list": [list(x) for x in spec.states]},
        "links": [list(link) for link in spec.links],
        "params": {k: spec.params[k] for k in sorted(spec.params)},
        "rates": {f"{i}->{j}": spec.rates[(i, j)].source for (i, j) in spec.links},
        "clamp": spec.clamp,
    }


def model_digest(spec: NetworkSpec) -> str:
    """Stable content hash used in report headers."""
    text = json.dumps(serialize_model(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
