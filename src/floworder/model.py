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

A parsed document's states are enumerated in lexicographic order, which
fixes the index map used by every solver and report in the package. The
space is held as `coords`, one (m, n) int64 array, and only as that; each
link is held as two arrays over its rows: the effective rate at every
state, and the index of the state each move leads to (-1 where the move
leaves the space). All are built at array speed, and the rate rules
above are checked on them when a NetworkSpec is constructed:

  * _parse_space gives coords directly: a box is the rows of np.indices
    less its excluded rows, and a list is checked entry by entry, then
    sorted;
  * every state gets a mixed-radix int64 key whose order is the
    lexicographic one, so a move along link (i, j) changes a key by a
    constant, and one np.searchsorted of every link's moved keys finds
    all the next_index arrays (whole rows, as records, replace the key
    where it would overflow int64);
  * every expression is evaluated over one float copy of the columns,
    and all links are checked in one stacked pass.

A spec built directly is held to the same rules as a parsed document,
its space included, but may list its states in any order, as a sequence
of states or as an array; keys out of order are argsorted before the
search. Only rate_table reads the tuple view NetworkSpec.states, and no
dict from state to index is built: a state is looked up by
NetworkSpec.find (find_row), which compares columns, and a report, a
message or a path names a state from its row. Library entry points take
a starting state as any sequence of numbers, and _as_state holds it to
the coordinate rule above.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re

import numpy as np

from .expr import ExpressionError, RateExpr, _evaluate, parse_expression

__all__ = [
    "Link",
    "State",
    "ModelError",
    "NetworkSpec",
    "find_row",
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


class NetworkSpec:
    """Immutable description of one population process, validated when built.

    `states` is the (m, n) int64 array _parse_space returns, or a sequence
    of states in any order. Construction checks the space as a parsed
    document's is checked (every state has n integer coordinates, none
    negative, none listed twice, at least one state), with _parse_space's
    messages, state by state in the given order, and keeps it as `coords`,
    a read-only (m, n) int64 array. It finds every link's next_index by
    one key search (_move_targets), evaluates every link's expression over
    one float copy of the columns, and checks all links in one stacked
    pass. Each link keeps two arrays: its effective rate at every state
    (clamp applied) and the index of the state each move leads to (-1
    where the move leaves the space). ModelError is raised at the first
    bad state, links in declared order and states in the given order: a
    rate that is not finite, then a negative one, then (unless clamp is
    set) a positive rate whose move leaves the space; an expression too
    deep to evaluate only after the links before it. So every spec, parsed
    or built directly, is a valid model. Treat instances as frozen.

    A spec built directly may list its states in any order; its
    generator's rows are then sorted afterwards. A state is looked up by
    `find`. `states` is the states as tuples, made from `coords` when first
    read. Two specs are equal when their n, links, states in order, rates,
    params and clamp are.
    """

    def __init__(self, n: int, links, states, rates, params, clamp: bool = False):
        self.n = n
        self.links = links
        self.rates = rates
        self.params = params
        self.clamp = clamp
        self.coords = coords = _space_array(states, n)
        targets, self._order = _move_targets(coords, links)
        m = len(coords)
        columns = np.ascontiguousarray(coords.T, dtype=np.float64)
        unclamped = np.empty((len(links), m))
        too_deep = None
        with np.errstate(over="ignore", invalid="ignore"):  # IEEE results, as in Python
            for k, link in enumerate(links):
                try:
                    unclamped[k] = _evaluate(rates[link].root, columns, params)
                except RecursionError:
                    too_deep, unclamped, targets = link, unclamped[:k], targets[:k]
                    break
        bad = ~np.isfinite(unclamped) | (unclamped < 0)
        if not clamp:
            bad |= (unclamped > 0) & (targets < 0)
        hits = np.flatnonzero(bad)  # row by row: links in declared order, then states
        if hits.size:
            k, i = divmod(int(hits[0]), m)
            raise ModelError(_rate_error(links[k], _row_state(coords, i), float(unclamped[k, i])))
        if too_deep is not None:
            i, j = too_deep
            raise ModelError(f"rate for link {i}->{j} is nested too deeply to evaluate")
        effective = np.where(targets >= 0, unclamped, 0.0) if clamp else unclamped
        self._arrays = dict(zip(links, zip(effective, targets)))
        self._states = None

    @property
    def states(self) -> tuple[State, ...]:
        """The states as tuples, in the order of `coords`; made on first read."""
        if self._states is None:
            self._states = tuple(map(tuple, self.coords.tolist()))
        return self._states

    def __eq__(self, other):
        if not isinstance(other, NetworkSpec):
            return NotImplemented
        return (
            (self.n, self.links) == (other.n, other.links)
            and np.array_equal(self.coords, other.coords)
            and (self.rates, self.params, self.clamp) == (other.rates, other.params, other.clamp)
        )

    def __repr__(self) -> str:
        return (
            f"NetworkSpec(n={self.n!r}, links={self.links!r}, {len(self.coords)} states, "
            f"rates={self.rates!r}, params={self.params!r}, clamp={self.clamp!r})"
        )

    def find(self, x: State) -> int:
        """Index of state x, or -1 if it is not in the space (find_row)."""
        return find_row(self.coords, x)

    def rate_vector(self, link: Link) -> np.ndarray:
        """Effective rates of `link` aligned with the state enumeration, clamp applied."""
        return self._arrays[link][0]

    def next_index(self, link: Link) -> np.ndarray:
        """Index of the state a move along `link` leads to; -1 if it leaves the space."""
        return self._arrays[link][1]

    def rate_table(self, link: Link) -> dict[State, float]:
        """Effective rate of `link` at every state, as a new dict read off rate_vector."""
        return dict(zip(self.states, self.rate_vector(link).tolist()))


def _rate_error(link: Link, x: State, r: float) -> str:
    """The message of a bad rate r of `link` at state x."""
    name = f"{link[0]}->{link[1]}"
    if not math.isfinite(r):
        return f"rate for link {name} is not finite at state {x}"
    if r < 0:
        return f"rate for link {name} is negative at state {x}: {r}"
    return (
        f"rate for link {name} is positive at state {x} "
        f"but the move leaves the state space; set clamp to allow this"
    )


def _row_state(coords: np.ndarray, k: int) -> State:
    """Row k of a coords array as a state tuple, to name it in a report or message."""
    return tuple(coords[k].tolist())


def _check_state(x: State, n: int, seen: set) -> None:
    """Raise ModelError if state x breaks a space rule; `seen` holds the
    states before it, and x is added."""
    if len(x) != n:
        raise ModelError(f"state {x} has wrong dimension")
    if any(v < 0 for v in x):
        raise ModelError(f"state {x} has a negative coordinate")
    if x in seen:
        raise ModelError(f"duplicate state {x}")
    seen.add(x)


def _check_space(states, n: int) -> None:
    """Raise the ModelError of the first state of `states` that breaks a
    space rule, in the given order and with _parse_space's messages; a
    coordinate must equal its int, as _integers rules."""
    seen = set()
    for x in states:
        _check_state(_integers(x, f"state {list(x)} must have integer coordinates"), n, seen)


def _first_bad_state(states, n: int):
    """_check_space where a vectorised check has flagged some state."""
    _check_space(states, n)
    raise AssertionError("no state breaks a space rule")


def find_row(coords: np.ndarray, x: State) -> int:
    """Index of the first row of `coords` (an (m, n) int64 array) equal to
    state x, or -1 if there is none.

    Each column is compared with its coordinate, so no dict is built. A
    coordinate outside [0, 2**63) is no state's; it is turned away first,
    since numpy 1 compares an int64 column with a Python int in
    [2**63, 2**64) in float64, where 2**63 - 1 equals 2**63."""
    n = coords.shape[1]
    if len(x) != n or not all(0 <= v < 2**63 for v in x):
        return -1
    hits = coords[:, 0] == x[0]
    for d in range(1, n):
        hits &= coords[:, d] == x[d]
    hits = np.flatnonzero(hits)
    return int(hits[0]) if hits.size else -1


def _space_array(states, n: int) -> np.ndarray:
    """The space as a read-only (m, n) int64 array: `states` itself when it
    is one (a writable one is copied), else one np.fromiter over the
    coordinates of a sequence of states.

    A state with other than n coordinates would shift every row after it,
    and np.fromiter truncates a float, so lengths and coordinate types are
    checked first; only a space with some coordinate other than a Python
    int is checked state by state. A coordinate too large for int64 is a
    ModelError."""
    m = len(states)
    if m == 0:
        raise ModelError("empty state space")
    if isinstance(states, np.ndarray) and states.dtype == np.int64 and states.shape[1:] == (n,):
        coords = states.copy() if states.flags.writeable else states
    else:
        if set(map(len, states)) != {n}:
            _first_bad_state(states, n)
        if set(map(type, itertools.chain.from_iterable(states))) != {int}:
            _check_space(states, n)
        try:
            coords = np.fromiter(itertools.chain.from_iterable(states), np.int64, m * n)
        except OverflowError:
            raise ModelError("state coordinates must be below 2**63") from None
        coords = coords.reshape(m, n)
    coords.setflags(write=False)
    return coords


def _move_targets(coords: np.ndarray, links) -> tuple[np.ndarray, np.ndarray | None]:
    """The (len(links), m) array of next_index rows, a move's target index
    or -1, and the permutation that puts the rows in lexicographic order
    (None when they already are).

    Every row gets a key whose order is the rows' lexicographic order
    (_row_keys), and one np.searchsorted finds every link's moved keys
    among the sorted keys. Keys already increasing are the parsed case
    and need no sort; otherwise a stable argsort orders them, and two
    equal keys are a duplicate state. A negative coordinate, or a
    duplicate, raises the first bad state's ModelError."""
    if coords.min() < 0:
        _first_bad_state(coords.tolist(), coords.shape[1])
    keys, moved = _row_keys(coords, links)
    if keys.dtype.names is None and bool((keys[1:] > keys[:-1]).all()):
        order, sorted_keys = None, keys
    else:
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if (sorted_keys[1:] == sorted_keys[:-1]).any():
            _first_bad_state(coords.tolist(), coords.shape[1])
    pos = np.searchsorted(sorted_keys, moved)
    found = sorted_keys.take(pos, mode="clip") == moved  # pos = m is never a hit
    if order is not None:
        pos = order.take(pos, mode="clip")
    return np.where(found, pos, -1), order


def _row_keys(coords: np.ndarray, links) -> tuple[np.ndarray, np.ndarray]:
    """Sort keys of the rows of `coords`, and the keys of every link's
    moved rows, shape (len(links), m). A moved row that is no state's gets
    a key that no state has.

    The key is a mixed-radix int64 number with the coordinates as digits,
    most significant first, in radix max + 3: a moved coordinate lies in
    [-1, max + 1], so keys stay distinct and ordered one step out on
    either side, and a link's moved key is the key plus a constant. Where
    that radix product would overflow int64, the keys are the rows
    themselves, as records of n int64 fields, which numpy compares field
    by field.
    """
    n = coords.shape[1]
    radix = [hi + 3 for hi in coords.max(axis=0).tolist()]
    if math.prod(radix) >= 2**63:
        return _row_records(coords, links)
    weights = [1] * n
    for d in range(n - 2, -1, -1):
        weights[d] = weights[d + 1] * radix[d + 1]
    keys = coords @ np.array(weights, dtype=np.int64)
    weight = [0] + weights  # node 0, the outside, has no coordinate
    moved = np.add.outer([weight[j] - weight[i] for i, j in links], keys)
    return keys, moved


def _row_records(coords: np.ndarray, links) -> tuple[np.ndarray, np.ndarray]:
    """_row_keys where the radix key would overflow int64: each row as one
    record."""
    m, n = coords.shape
    record = np.dtype([(f"x{d}", np.int64) for d in range(n)])
    moved = np.empty((len(links), m), dtype=record)
    for k, (i, j) in enumerate(links):
        y = coords.copy()
        if i > 0:
            y[:, i - 1] -= 1  # a coordinate of 0 goes to -1, which no state has
        if j > 0:
            y[:, j - 1] += 1  # one of 2**63 - 1 wraps to a negative one
        moved[k] = y.view(record).ravel()
    return np.ascontiguousarray(coords).view(record).ravel(), moved


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


def _as_state(raw, what: str) -> State:
    """A state given to a library entry point, as a tuple of ints by
    _integers' rule: a coordinate that is not equal to its int, or is a
    boolean, raises ModelError, never rounds. `what` names the state in
    the message ("initial state", "state")."""
    return _integers(raw, f"{what} {raw} must have integer coordinates")


def _array(value, what: str):
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{what} must be a JSON array, not {value!r}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ModelError(f"{what} must be a JSON object, not {value!r}")
    return value


def _parse_space(space, n: int) -> np.ndarray:
    """A document's space as a read-only (m, n) int64 array in
    lexicographic order.

    A box is the rows of np.indices over its capacities, which come in
    lexicographic order, less its excluded rows; one whose state count
    passes the largest np.intp, or whose arrays cannot be allocated, is a
    ModelError. A list is checked entry by entry, in the order given, then
    its rows are sorted."""
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
        excluded = []
        for raw in _array(space.get("exclude", []), "exclude"):
            x = _integers(raw, f"excluded state {raw} must have integer coordinates")
            if len(x) != n:
                raise ModelError(f"excluded state {x} has wrong dimension")
            if any(v < 0 or v > c for v, c in zip(x, caps)):
                raise ModelError(f"excluded state {x} lies outside the box")
            excluded.append(x)
        shape = tuple(c + 1 for c in caps)
        count = math.prod(shape)
        try:
            if count > np.iinfo(np.intp).max:  # numpy would raise a ValueError
                raise MemoryError
            kept = np.ones(count, dtype=bool)
            if excluded:
                kept[np.ravel_multi_index(tuple(zip(*excluded)), shape)] = False
            coords = np.indices(shape, dtype=np.int64).reshape(n, -1).T[kept]
        except MemoryError:
            raise ModelError(f"box of {count} states is too large to allocate") from None
        if not len(coords):
            raise ModelError("empty state space")
    elif "list" in keys:
        if keys != {"list"}:
            raise ModelError(f"unknown space keys {sorted(keys - {'list'})}")
        states = []
        seen = set()
        for raw in _array(space["list"], "list"):
            x = _integers(raw, f"state {raw} must have integer coordinates")
            _check_state(x, n, seen)
            states.append(x)
        coords = _space_array(states, n)
        coords = coords[np.lexsort(coords.T[::-1])]
    else:
        raise ModelError("space must contain 'box' or 'list'")
    coords.setflags(write=False)
    return coords


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

    coords = _parse_space(document["space"], n)

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
        n=n, links=links, states=coords, rates=rates, params=params, clamp=clamp
    )


def load_model(path) -> NetworkSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ModelError(f"model file is not UTF-8 text: {e}") from None
    return parse_model(text)


def serialize_model(spec: NetworkSpec) -> dict:
    """Canonical document form, its states in lexicographic order; parsing
    it back yields a spec equal to one that lists the states in that order,
    which is `spec` itself for a parsed one."""
    space = {"list": _lexicographic(spec).tolist()}
    return {"n": spec.n, "space": space, **_spaceless_document(spec)}


def _lexicographic(spec: NetworkSpec) -> np.ndarray:
    """spec.coords with its rows in lexicographic order."""
    return spec.coords if spec._order is None else spec.coords[spec._order]


def _spaceless_document(spec: NetworkSpec) -> dict:
    """serialize_model's document after its "n" and "space" keys."""
    return {
        "links": [list(link) for link in spec.links],
        "params": {k: spec.params[k] for k in sorted(spec.params)},
        "rates": {f"{i}->{j}": spec.rates[(i, j)].source for (i, j) in spec.links},
        "clamp": spec.clamp,
    }


# model_digest labels and hashes a space's rows in blocks of this many
_DIGEST_ROWS = 1 << 14


def _row_labels(columns, sep: str) -> list[str]:
    """Each row's values joined by `sep`, given the rows' columns as lists
    of ints: one str per distinct value, then one join per row."""
    labels = {v: str(v) for v in set().union(*columns)}
    return list(map(sep.join, zip(*(map(labels.__getitem__, column) for column in columns))))


def model_digest(spec: NetworkSpec) -> str:
    """Stable content hash used in report headers.

    The SHA-256 of the UTF-8 bytes of
    json.dumps(serialize_model(spec), sort_keys=True, separators=(",", ":")).
    "space" sorts after every other key, so those bytes are hashed in
    three pieces: the compact JSON of the other keys without its closing
    brace, then ',"space":{"list":' and the state list, then '}}'. The
    state list's text is joined by _row_labels a block of _DIGEST_ROWS
    rows at a time, with the same "],[" between blocks as between rows,
    so no state is JSON-encoded and the text is never held whole.
    """
    head = json.dumps(
        {"n": spec.n, **_spaceless_document(spec)}, sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(head[:-1].encode("utf-8"))
    digest.update(b',"space":{"list":[[')
    coords, order = spec.coords, spec._order
    for lo in range(0, len(coords), _DIGEST_ROWS):
        rows = slice(lo, lo + _DIGEST_ROWS)
        block = coords[rows] if order is None else coords[order[rows]]
        if lo:
            digest.update(b"],[")
        digest.update("],[".join(_row_labels(block.T.tolist(), ",")).encode("ascii"))
    digest.update(b"]]}}")
    return digest.hexdigest()
