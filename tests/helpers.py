"""Shared builders and independent oracles for the test suite.

The oracles deliberately avoid the package's own solvers: stationary
vectors come from a dense null-space computation, transients from a
fixed-step Runge-Kutta integration, expected flows from Van Loan's block
matrix exponential, and distribution comparisons from a plain chi-square
statistic. Rates have a scalar tree-walking evaluator and dict rate
tables; rate texts have the match-by-match tokenizer and peek/advance
parser the package used before its one-pass tokenizer; generators and
stationary vectors have the COO build and the reindexed, identity-shifted
factorisation that came before the direct CSR assembly; the transient
solvers have the row-vector loops vec = vec @ P that came before the
cached transposed kernel; and simulated
paths have the dict-based Gillespie loops the
package used before its rates became arrays over the state index; they
return event tuples of their own, which assert_path and
assert_coupled_path compare with a log's columns. The
order checks have the triple loops over links and state pairs that they
ran before they became block masks, and the block masks over A's states
times all of B's that they ran before they became grid queries. The CSV
writers have the whole-text versions that returned one string before
they yielded chunks, and the pathwise flow-order scan has the one scan
of a log's whole flows arrays that came before its blocks. Model digests
have the hash of the whole JSON-encoded document that came before the
digest hashed its state list as joined labels. Model spaces have the
tuple enumeration _parse_space ran before it returned an array, and the
product-form residual has the per-state product it took before its
product was vectorised. Tests freeze or recompute these values and
compare the implementation against them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import re
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm, null_space
from scipy.stats import chi2

from floworder import expr, model, ordering
from floworder.coupling import A_ONLY, B_ONLY, JOINT, marching_rates
from floworder.ctmc import (
    _CSV_ROWS,
    ConvergenceError,
    Generator,
    _poisson_weights,
    _recurrent_class,
    _truncation_depth,
    build_generator,
    distribution_vector,
)
from floworder.model import ModelError, NetworkSpec, linear_links, parse_model, serialize_model
from floworder.ordering import (
    _DOMAINS,
    ClosureReport,
    ClosureWitness,
    ConditionReport,
    ConditionResult,
    TightConfiguration,
    Witness,
    _require_linear_pair,
)
from floworder.rng import make_stream

# ---------------------------------------------------------------- documents


def single_node_doc(arrival: str, service: str, cap: int, params=None, clamp=False):
    return {
        "n": 1,
        "space": {"box": [cap]},
        "params": params or {},
        "rates": {"0->1": arrival, "1->0": service},
        "clamp": clamp,
    }


def two_state_chain() -> NetworkSpec:
    """Single node holding 0 or 1 job, unit rates both ways."""
    return parse_model(single_node_doc("ind(x1 < 1)", "x1", 1))


def mm1c_chain(lam: float, mu: float, cap: int) -> NetworkSpec:
    """Constant arrivals at rate lam, single server at rate mu."""
    return parse_model(
        single_node_doc(
            "lam * ind(x1 < cap)",
            "mu * min(x1, 1)",
            cap,
            params={"lam": lam, "mu": mu, "cap": cap},
        )
    )


def target(x, link):
    """The state a move along link (i, j) leads to from x, x - e_i + e_j;
    node 0, the outside, has no coordinate."""
    i, j = link
    y = list(x)
    if i > 0:
        y[i - 1] -= 1
    if j > 0:
        y[j - 1] += 1
    return tuple(y)


def state_index(spec: NetworkSpec) -> dict:
    """Index of every state of spec, as a dict over its state tuples."""
    return {x: k for k, x in enumerate(spec.states)}


def tandem_doc_text(s1=2, s2=2, beta=1.0) -> str:
    """A plain JSON document for the unmodified tandem with unit-linear service."""
    d1 = " + ".join(f"{k} * ind(x1 = {k})" for k in range(1, s1 + 1))
    d2 = " + ".join(f"{k} * ind(x2 = {k})" for k in range(1, s2 + 1))
    return json.dumps(
        {
            "n": 2,
            "space": {"box": [s1, s2]},
            "params": {"beta": beta, "s1": s1, "s2": s2},
            "rates": {
                "0->1": "beta * ind(x1 < s1)",
                "1->2": f"({d1}) * ind(x2 < s2)",
                "2->0": d2,
            },
        }
    )


# ------------------------------------------------------------------ oracles


def reference_model_digest(spec: NetworkSpec) -> str:
    """model_digest as the SHA-256 of the whole compact, key-sorted JSON of
    serialize_model's document."""
    text = json.dumps(serialize_model(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dense_q(spec: NetworkSpec) -> np.ndarray:
    """Dense generator assembled from scalar rate tables, no ctmc module."""
    states = spec.states
    index = state_index(spec)
    m = len(states)
    q = np.zeros((m, m))
    for link in spec.links:
        table = scalar_rate_table(spec, link)
        for x in states:
            r = table[x]
            if r > 0.0:
                q[index[x], index[target(x, link)]] += r
                q[index[x], index[x]] -= r
    return q


def reference_recurrent_classes(spec: NetworkSpec) -> list[list[int]]:
    """Recurrent classes of the chain, as sorted state indices in order of
    their smallest member, from dense reachability over dense_q.

    A state is recurrent when every state it reaches reaches it back; its
    class is the set of states it reaches.
    """
    q = dense_q(spec)
    m = q.shape[0]
    reach = (q > 0.0) | np.eye(m, dtype=bool)
    for k in range(m):  # Warshall's transitive closure
        reach |= np.outer(reach[:, k], reach[k, :])
    classes = []
    for i in range(m):
        members = np.flatnonzero(reach[i]).tolist()
        if all(reach[j, i] for j in members) and members[0] == i:
            classes.append(members)
    return classes


def reference_generator(spec: NetworkSpec):
    """The generator's CSR matrix through scipy's COO path: each link's moves,
    then the diagonal, converted (and sorted) by scipy."""
    import scipy.sparse as sp

    m = len(spec.states)
    exit_rates = np.zeros(m)
    rows, cols, vals = [], [], []
    for link in spec.links:
        rates, next_index = spec.rate_vector(link), spec.next_index(link)
        moving = np.flatnonzero(rates > 0.0)
        rows.append(moving)
        cols.append(next_index[moving])
        vals.append(rates[moving])
        exit_rates += rates
    leaving = np.flatnonzero(exit_rates > 0.0)
    rows.append(leaving)
    cols.append(leaving)
    vals.append(-exit_rates[leaving])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    )


def reference_stationary(gen: Generator, tol: float = 1e-12) -> np.ndarray:
    """stationary_distribution on the recurrent class cut out with np.ix_ and
    shifted as Q^T - sigma I."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    m = len(gen.coords)
    members = _recurrent_class(gen)
    k = len(members)
    pi_full = np.zeros(m)
    if k == 1:
        pi_full[members[0]] = 1.0
        return pi_full
    sub = gen.matrix[np.ix_(members, members)].tocsr()
    rate = float(-sub.diagonal().min())
    sigma = 1e-12 * rate
    shifted = (sub.T - sigma * sp.identity(k)).tocsc()
    lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1)
    pi = np.full(k, 1.0 / k)
    for _ in range(2):
        pi = lu.solve(pi)
        pi /= pi.sum()
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum()
    residual = float(np.abs(pi @ sub).max()) / rate
    if not residual < tol:
        raise ConvergenceError(residual, tol)
    pi_full[members] = pi
    return pi_full


def nullspace_stationary(q: np.ndarray) -> np.ndarray:
    """Stationary vector via an orthonormal null-space basis of Q^T."""
    basis = null_space(q.T)
    assert basis.shape[1] == 1, "oracle expects a one-dimensional null space"
    v = basis[:, 0]
    if v.sum() < 0:
        v = -v
    assert (v > -1e-12).all()
    return np.clip(v, 0.0, None) / np.clip(v, 0.0, None).sum()


def reference_product_form_residual(spec: NetworkSpec, pi) -> float:
    """tandem.product_form_residual as it ran before its product was
    vectorised: each axis's profile first, then one np.prod per state
    over a list of its axes' profile entries."""
    vec = np.asarray(pi, dtype=float)
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
                raise ModelError(f"state space must contain the coordinate axis through {hi}")
            g.append(g[-1] * vec[i] / vec[lo])
        profiles.append(g)
    product = np.array([np.prod([profiles[axis][x[axis]] for axis in range(n)]) for x in rows])
    product /= product.sum()
    return float(np.abs(vec - product).max())


def rk4_transient(q: np.ndarray, p0: np.ndarray, t: float, h: float = 1e-4):
    """Fixed-step fourth-order Runge-Kutta on p' = p Q."""
    steps = int(round(t / h))
    assert abs(steps * h - t) < 1e-9
    p = np.array(p0, dtype=float)
    for _ in range(steps):
        k1 = p @ q
        k2 = (p + 0.5 * h * k1) @ q
        k3 = (p + 0.5 * h * k2) @ q
        k4 = (p + h * k3) @ q
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


def chi_square_pvalue(counts_a: dict, counts_b: dict) -> float:
    """Homogeneity test of two integer-valued samples given as count maps.

    Bins with pooled expected count below five are merged into their right
    neighbor before the statistic is formed.
    """
    keys = sorted(set(counts_a) | set(counts_b))
    a = np.array([counts_a.get(k, 0) for k in keys], dtype=float)
    b = np.array([counts_b.get(k, 0) for k in keys], dtype=float)
    na, nb = a.sum(), b.sum()
    merged = []
    acc_a = acc_b = 0.0
    for va, vb in zip(a, b):
        acc_a += va
        acc_b += vb
        expected = (acc_a + acc_b) * min(na, nb) / (na + nb)
        if expected >= 5.0:
            merged.append((acc_a, acc_b))
            acc_a = acc_b = 0.0
    if acc_a or acc_b:
        if merged:
            la, lb = merged[-1]
            merged[-1] = (la + acc_a, lb + acc_b)
        else:
            merged.append((acc_a, acc_b))
    stat = 0.0
    for va, vb in merged:
        pooled = (va + vb) / (na + nb)
        ea, eb = pooled * na, pooled * nb
        if ea > 0:
            stat += (va - ea) ** 2 / ea
        if eb > 0:
            stat += (vb - eb) ** 2 / eb
    df = max(len(merged) - 1, 1)
    return float(chi2.sf(stat, df))


# --------------------------------------------------- randomized instances


def dyadic(rng: np.random.Generator, hi: int = 32) -> float:
    """A random multiple of 1/8 in [0, hi/8); exactly representable."""
    return float(rng.integers(0, hi)) / 8.0


def _state_term(value: float, x) -> str:
    tests = ", ".join(f"x{i + 1} = {v}" for i, v in enumerate(x))
    return f"{value!r} * ind({tests})"


def table_to_expression(table: dict) -> str:
    terms = [_state_term(v, x) for x, v in sorted(table.items()) if v != 0.0]
    return " + ".join(terms) if terms else "0"


def random_table_instance(rng: np.random.Generator, c1: int, c2: int, p_zero: float = 0.0):
    """A 2-node spec with arbitrary dyadic rate tables (boundary respecting).

    Returns (spec, {link: {state: rate}}). The raw tables feed exactness
    oracles without a round trip through the expression evaluator. With
    p_zero > 0 each in-space rate is also zeroed with that probability,
    so absorbing states become common.
    """
    links = linear_links(2)
    states = [(i, j) for i in range(c1 + 1) for j in range(c2 + 1)]
    caps = (c1, c2)
    tables = {}
    for link in links:
        table = {}
        for x in states:
            i, j = link
            y = list(x)
            if i > 0:
                y[i - 1] -= 1
            if j > 0:
                y[j - 1] += 1
            inside = all(0 <= v <= c for v, c in zip(y, caps))
            table[x] = dyadic(rng) if inside else 0.0
            if p_zero and rng.random() < p_zero:
                table[x] = 0.0
        tables[link] = table
    doc = {
        "n": 2,
        "space": {"box": [c1, c2]},
        "rates": {
            f"{i}->{j}": table_to_expression(tables[(i, j)]) for (i, j) in links
        },
    }
    return parse_model(doc), tables


def _running_max(values):
    out = []
    best = 0.0
    for v in values:
        best = max(best, v)
        out.append(best)
    return out


def _coord_expr(coord: int, table) -> str:
    terms = [
        f"{table[k]!r} * ind(x{coord} = {k})" for k in range(len(table)) if table[k] != 0.0
    ]
    return " + ".join(terms) if terms else "0"


def random_certified_pair(rng: np.random.Generator, c1: int, c2: int):
    """Two specs on one box built so the flow conditions hold by construction.

    Rates are separable in the moved coordinate. The arrival profile of A
    is dominated above every state B could sit at with a smaller first
    coordinate, and each service profile of B dominates the running
    maximum of A's, which is exactly what the per-link implications ask
    for once the box-edge indicators are taken into account.
    """
    arr_a = [dyadic(rng) for _ in range(c1)] + [0.0]
    # condition k=0 needs rate_A at x1=u below rate_B at x1=v for all u >= v
    suffix_max = [max(arr_a[v:]) for v in range(c1)] + [0.0]
    arr_b = [m + dyadic(rng) for m in suffix_max[:-1]] + [0.0]
    svc1_a = [0.0] + [dyadic(rng) for _ in range(c1)]
    svc1_b = [0.0] + [
        m + dyadic(rng) for m in _running_max(svc1_a[1:])
    ]
    svc2_a = [0.0] + [dyadic(rng) for _ in range(c2)]
    svc2_b = [0.0] + [
        m + dyadic(rng) for m in _running_max(svc2_a[1:])
    ]

    def doc(arr, svc1, svc2):
        return {
            "n": 2,
            "space": {"box": [c1, c2]},
            "rates": {
                "0->1": _coord_expr(1, arr),
                "1->2": f"({_coord_expr(1, svc1)}) * ind(x2 < {c2})",
                "2->0": _coord_expr(2, svc2),
            },
        }

    spec_a = parse_model(doc(arr_a, svc1_a, svc2_a))
    spec_b = parse_model(doc(arr_b, svc1_b, svc2_b))
    return spec_a, spec_b


def van_loan_mean_flow(spec: NetworkSpec, p0, link, times) -> np.ndarray:
    """E[moves along `link` in (0, t]] per time, by Van Loan's block exponential.

    The top-right block of expm([[Q, r], [0, 0]] t) is the integral of
    exp(Q s) r over [0, t]; p0 weights its rows.
    """
    q = dense_q(spec)
    m = q.shape[0]
    block = np.zeros((m + 1, m + 1))
    block[:m, :m] = q
    table = scalar_rate_table(spec, link)
    block[:m, m] = [table[x] for x in spec.states]
    p0 = np.asarray(p0, dtype=float)
    return np.array([p0 @ expm(block * t)[:m, m] for t in times])


def reference_kernel(gen: Generator):
    """P = I + Q / unif_rate as the CSR matrix scipy's sum makes."""
    import scipy.sparse as sp

    m = len(gen.coords)
    return (sp.identity(m, format="csr") + gen.matrix / gen.unif_rate).tocsr()


def reference_transient_distribution(
    gen: Generator, p0, t: float, tol: float = 1e-12
) -> np.ndarray:
    """transient_distribution with its powers taken as row vector times P."""
    vec = distribution_vector(gen, p0)
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    if t == 0.0 or gen.unif_rate == 0.0:
        return vec
    w, tail = _poisson_weights(gen.unif_rate * t)
    depth = _truncation_depth(tail, tol)
    kernel = reference_kernel(gen)
    acc = w[0] * vec
    for k in range(1, depth + 1):
        vec = vec @ kernel
        acc += w[k] * vec
    np.clip(acc, 0.0, None, out=acc)
    return acc / acc.sum()


def reference_transient_mean_flow(
    spec: NetworkSpec, p0, link, times, tol: float = 1e-10
) -> tuple[float, ...]:
    """transient_mean_flow with its powers taken as row vector times P."""
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
    kernel = reference_kernel(gen)
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


def pair_rates(spec_a: NetworkSpec, spec_b: NetworkSpec, xa, xb):
    """(link, joint, b_only, a_only) per link at the state pair (xa, xb).

    Each triple is marching_rates(spec_a.rate_vector(link)[ia],
    spec_b.rate_vector(link)[ib]) with ia and ib the states' indices,
    found by scanning the state tuples.
    """
    ia, ib = spec_a.states.index(tuple(xa)), spec_b.states.index(tuple(xb))
    return [
        (link, *marching_rates(float(spec_a.rate_vector(link)[ia]), float(spec_b.rate_vector(link)[ib])))
        for link in spec_a.links
    ]


def stateflow_events(log):
    """The state-flow path along a population event log.

    One (time, link, state, flows) tuple per event, state and counters
    after the move, read off the log's columns; counters are aligned with
    log.links and counted move by move from zero, as the augmented chain
    does.
    """
    flows = (0,) * len(log.links)
    out = []
    for t, k, post in zip(log.times, log.moves, states_after(log)):
        flows = flows[:k] + (flows[k] + 1,) + flows[k + 1 :]
        out.append((t, log.links[k], post, flows))
    return out


def states_after(log, side=None):
    """The state after each event, as tuples: the coords rows at the visits
    column of a population log, or at visits(side) of a coupled one."""
    if side is None:
        rows = log.coords[np.asarray(log.visits, dtype=np.int64)]
    else:
        rows = getattr(log, f"coords_{side}")[log.visits(side)]
    return [tuple(row) for row in rows.tolist()]


# ------------------------------------------------------ scalar rate oracle


def scalar_evaluate(node, x, params) -> float:
    """Evaluate an expression node at one state by walking the tree."""
    if isinstance(node, expr.Num):
        return node.value
    if isinstance(node, expr.Coord):
        return float(x[node.index])
    if isinstance(node, expr.Param):
        return float(params[node.name])
    if isinstance(node, expr.BinOp):
        a = scalar_evaluate(node.left, x, params)
        b = scalar_evaluate(node.right, x, params)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        return a * b
    if isinstance(node, expr.Neg):
        return -scalar_evaluate(node.operand, x, params)
    if isinstance(node, expr.Extremum):
        values = [scalar_evaluate(a, x, params) for a in node.args]
        return min(values) if node.fn == "min" else max(values)
    if isinstance(node, expr.Indicator):
        for test in node.tests:
            a = scalar_evaluate(test.left, x, params)
            b = scalar_evaluate(test.right, x, params)
            if test.op == "<":
                ok = a < b
            elif test.op == "<=":
                ok = a <= b
            else:
                ok = a == b
            if not ok:
                return 0.0
        return 1.0
    if isinstance(node, expr.Table):
        # the chain scale * ind(x = level) + ..., one term at a time
        total = None
        for scale, level in zip(node.scales, node.levels):
            hit = 1.0 if float(x[node.index]) == level else 0.0
            term = scalar_evaluate(scale, x, params) * hit
            total = term if total is None else total + term
        return total
    raise TypeError(f"not an expression node: {node!r}")


_REFERENCE_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op><=|[+\-*(),<=])"
    r")"
)

_REFERENCE_COORD = re.compile(r"^x([1-9]\d*)$")


def _reference_tokenize(source: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _REFERENCE_TOKEN.match(source, pos)
        if m is None or m.end() == pos:
            rest = source[pos:].strip()
            if not rest:
                break
            raise expr.ExpressionError(f"cannot tokenize {rest!r} in {source!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _ReferenceParser:
    """Recursive descent over (kind, text) tokens through peek() and advance()."""

    def __init__(self, tokens, source, n, param_names):
        self.tokens = tokens
        self.source = source
        self.n = n
        self.param_names = param_names
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None)

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value):
        kind, text = self.advance()
        if kind != "op" or text != value:
            raise expr.ExpressionError(f"expected {value!r} in {self.source!r}")

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens):
            raise expr.ExpressionError(f"trailing input in {self.source!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.advance()
            node = expr.BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*"):
            self.advance()
            node = expr.BinOp("*", node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.advance()
            return expr.Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, text = self.advance()
        if kind == "num":
            return expr.Num(float(text))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if text in ("min", "max"):
                self.expect("(")
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) < 2:
                    raise expr.ExpressionError(f"{text} needs at least two arguments")
                return expr.Extremum(text, tuple(args))
            if text == "ind":
                self.expect("(")
                tests = [self.comparison()]
                while self.peek() == ("op", ","):
                    self.advance()
                    tests.append(self.comparison())
                self.expect(")")
                return expr.Indicator(tuple(tests))
            return self.identifier(text)
        raise expr.ExpressionError(f"unexpected token in {self.source!r}")

    def comparison(self):
        left = self.expr()
        kind, text = self.advance()
        if kind != "op" or text not in ("<", "<=", "="):
            raise expr.ExpressionError(
                f"indicator argument must be a comparison in {self.source!r}"
            )
        right = self.expr()
        return expr.Comparison(text, left, right)

    def identifier(self, text):
        m = _REFERENCE_COORD.match(text)
        if m is not None:
            k = int(m.group(1))
            if k > self.n:
                raise expr.ExpressionError(
                    f"coordinate {text} out of range for a {self.n}-node network"
                )
            return expr.Coord(k - 1)
        if text in self.param_names:
            return expr.Param(text)
        raise expr.ExpressionError(f"unknown identifier {text!r} in {self.source!r}")


def same_tree(a, b) -> bool:
    """Equal expression trees: same node types, fields and leaves.

    Walks an explicit stack, since a tree the parser accepts can be deeper
    than the recursion limit allows the generated __eq__ to go.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, tuple):
            if len(a) != len(b):
                return False
            stack.extend(zip(a, b))
        elif dataclasses.is_dataclass(a):
            stack.extend((getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
        elif a != b:
            return False
    return True


def _table_entry(node):
    """(coordinate, scale, level) of a chain term scale * ind(x_c = level)
    whose scale is a Param or a Num and whose level is a Num, else None."""
    if not (isinstance(node, expr.BinOp) and node.op == "*"):
        return None
    scale, ind = node.left, node.right
    if not isinstance(scale, (expr.Param, expr.Num)) or not isinstance(ind, expr.Indicator):
        return None
    if len(ind.tests) != 1:
        return None
    (test,) = ind.tests
    if test.op == "=" and isinstance(test.left, expr.Coord) and isinstance(test.right, expr.Num):
        return test.left.index, scale, test.right.value
    return None


def fold_tables(root):
    """The tree parse_expression makes, given the reference parser's plain
    chain tree `root`: every a + b whose a is a table term or a Table and
    whose b is a table term on the same coordinate becomes one Table,
    innermost first. Rewrites the fresh nodes of `root` in place, children
    before parents, with no recursion."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            children = value if isinstance(value, tuple) else (value,)
            stack.extend(c for c in children if dataclasses.is_dataclass(c))
    folded = {}
    for node in reversed(order):  # a node after all of its children
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if isinstance(value, tuple):
                setattr(node, f.name, tuple(folded.get(id(c), c) for c in value))
            elif id(value) in folded:
                setattr(node, f.name, folded[id(value)])
        if not (isinstance(node, expr.BinOp) and node.op == "+"):
            continue
        right = _table_entry(node.right)
        left = node.left
        if isinstance(left, expr.Table):
            left = (left.index, left.scales, left.levels)
        else:
            left = _table_entry(left)
            left = None if left is None else (left[0], (left[1],), (left[2],))
        if left is not None and right is not None and left[0] == right[0]:
            folded[id(node)] = expr.Table(left[0], left[1] + (right[1],), left[2] + (right[2],))
    return folded.get(id(root), root)


def reference_parse_expression(source: str, n: int, param_names) -> expr.RateExpr:
    """parse_expression as a match-by-match tokenizer and a peek/advance parser."""
    tokens = _reference_tokenize(source)
    if not tokens:
        raise expr.ExpressionError("empty expression")
    try:
        root = _ReferenceParser(tokens, source, n, frozenset(param_names)).parse()
    except RecursionError:
        raise expr.ExpressionError("expression nested too deeply to parse") from None
    return expr.RateExpr(source=source, root=root, n=n)


def scalar_model_error(n, links, states, rates, params, clamp=False):
    """The rate error NetworkSpec(n, links, ...) raises, found state by state, or None.

    Takes the parts a spec is built from, since a spec with a bad rate
    cannot be built. Links in declared order, states in the given order;
    at a state a rate that is not finite is reported before a negative
    one, and that before a positive rate whose move leaves the space
    (unless clamped).
    """
    space = set(states)
    for i, j in links:
        name = f"{i}->{j}"
        for x in states:
            r = scalar_evaluate(rates[(i, j)].root, x, params)
            if not math.isfinite(r):
                return f"rate for link {name} is not finite at state {x}"
            if r < 0:
                return f"rate for link {name} is negative at state {x}: {r}"
            y = list(x)
            if i > 0:
                y[i - 1] -= 1
            if j > 0:
                y[j - 1] += 1
            if not clamp and r > 0 and tuple(y) not in space:
                return (
                    f"rate for link {name} is positive at state {x} "
                    f"but the move leaves the state space; set clamp to allow this"
                )
    return None


def reference_parse_space(space, n: int) -> tuple:
    """_parse_space as the tuple enumeration it was before it returned an
    array: a box by itertools.product less its excluded states, a list
    checked entry by entry and then sorted."""
    if not isinstance(space, dict):
        raise ModelError("space must be an object with 'box' or 'list'")
    keys = set(space)
    if "box" in keys:
        if not keys <= {"box", "exclude"}:
            raise ModelError(f"unknown space keys {sorted(keys - {'box', 'exclude'})}")
        message = "box needs one nonnegative capacity per node"
        caps = model._integers(space["box"], message)
        if len(caps) != n or any(c < 0 for c in caps):
            raise ModelError(message)
        excluded = set()
        for raw in model._array(space.get("exclude", []), "exclude"):
            x = model._integers(raw, f"excluded state {raw} must have integer coordinates")
            if len(x) != n:
                raise ModelError(f"excluded state {x} has wrong dimension")
            if any(v < 0 or v > c for v, c in zip(x, caps)):
                raise ModelError(f"excluded state {x} lies outside the box")
            excluded.add(x)
        box = itertools.product(*(range(c + 1) for c in caps))
        states = tuple(itertools.filterfalse(excluded.__contains__, box))
    elif "list" in keys:
        if keys != {"list"}:
            raise ModelError(f"unknown space keys {sorted(keys - {'list'})}")
        states = []
        seen = set()
        for raw in model._array(space["list"], "list"):
            x = model._integers(raw, f"state {raw} must have integer coordinates")
            model._check_state(x, n, seen)
            states.append(x)
        states = tuple(sorted(states))
    else:
        raise ModelError("space must contain 'box' or 'list'")
    if not states:
        raise ModelError("empty state space")
    return states


def reference_next_index(spec: NetworkSpec, link) -> np.ndarray:
    """next_index of `link` by one dict lookup per state, the route
    NetworkSpec took before its key search."""
    index = state_index(spec)
    return np.array([index.get(target(x, link), -1) for x in spec.states], dtype=np.int64)


def permuted_spec(spec: NetworkSpec, order) -> NetworkSpec:
    """spec built directly with its states listed in the given order of indices."""
    return NetworkSpec(
        n=spec.n,
        links=spec.links,
        states=tuple(spec.states[k] for k in order),
        rates=spec.rates,
        params=spec.params,
        clamp=spec.clamp,
    )


def no_escaping_rate(spec: NetworkSpec) -> bool:
    """True when no link of spec has a positive rate whose move leaves the space."""
    return not any(
        ((spec.rate_vector(link) > 0) & (spec.next_index(link) < 0)).any() for link in spec.links
    )


def scalar_rate_table(spec: NetworkSpec, link) -> dict:
    """Effective rate of `link` at every state, one scalar evaluation each."""
    table = {}
    space = set(spec.states)
    for x in spec.states:
        r = scalar_evaluate(spec.rates[link].root, x, spec.params)
        if spec.clamp and target(x, link) not in space:
            r = 0.0
        table[x] = r
    return table


# ------------------------------------------------- reference simulators


class Event(NamedTuple):
    """One event of reference_simulate_path: its link and the states
    before and after it."""

    time: float
    link: tuple
    pre: tuple
    post: tuple


class CoupledEvent(NamedTuple):
    """One event of reference_simulate_coupled: both states and both
    sides' counters after it, counted from zero on log.links."""

    time: float
    link: tuple
    kind: str  # JOINT, B_ONLY or A_ONLY
    state_a: tuple
    state_b: tuple
    flows_a: tuple
    flows_b: tuple


def assert_path(log, events):
    """The columns of a population log hold exactly the reference path
    `events`: times, links, and the states before and after each event."""
    assert list(log.times) == [ev.time for ev in events]
    assert [log.links[k] for k in log.moves] == [ev.link for ev in events]
    posts = states_after(log)
    assert posts == [ev.post for ev in events]
    assert [log.initial, *posts][:-1] == [ev.pre for ev in events]


def assert_coupled_path(log, events):
    """The columns of a coupled log hold exactly the reference path
    `events`: times, links, kinds, both states and both counters."""
    positions, kinds = np.divmod(np.asarray(log.bins, dtype=np.int64), 3)
    assert list(log.times) == [ev.time for ev in events]
    assert [log.links[k] for k in positions.tolist()] == [ev.link for ev in events]
    assert [(JOINT, B_ONLY, A_ONLY)[k] for k in kinds.tolist()] == [ev.kind for ev in events]
    assert states_after(log, "a") == [ev.state_a for ev in events]
    assert states_after(log, "b") == [ev.state_b for ev in events]
    assert log.flows("a")[1:].tolist() == [list(ev.flows_a) for ev in events]
    assert log.flows("b")[1:].tolist() == [list(ev.flows_b) for ev in events]


def exponential(rng: np.random.Generator, rate: float) -> float:
    """Exp(rate) by the inverse CDF from one-at-a-time uniforms, zeros redrawn."""
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return -math.log1p(-u) / rate


def reference_simulate_path(spec: NetworkSpec, init, horizon: float, seed: int):
    """Dict-table Gillespie loop: (events, absorbed) with the package's draws."""
    links = spec.links
    tables = [scalar_rate_table(spec, link) for link in links]
    rng = make_stream(seed)
    events = []
    x = tuple(init)
    t = 0.0
    while True:
        rates = [table[x] for table in tables]
        total = 0.0
        for r in rates:
            total += r
        if total <= 0.0:
            return events, True
        t_next = t + exponential(rng, total)
        if t_next > horizon:
            return events, False
        target_mass = rng.random() * total
        chosen = -1
        acc = 0.0
        for idx, r in enumerate(rates):
            acc += r
            if target_mass < acc:
                chosen = idx
                break
        if chosen < 0:
            chosen = max(i for i, r in enumerate(rates) if r > 0.0)
        link = links[chosen]
        post = target(x, link)
        events.append(Event(t_next, link, x, post))
        x = post
        t = t_next


def reference_simulate_coupled(
    spec_a: NetworkSpec, spec_b: NetworkSpec, init_a, init_b, horizon: float, seed: int
):
    """Dict-table coupled Gillespie loop: (events, absorbed) with the package's draws."""
    links = spec_a.links
    tables_a = [scalar_rate_table(spec_a, link) for link in links]
    tables_b = [scalar_rate_table(spec_b, link) for link in links]
    fa = fb = tuple(0 for _ in links)
    xa, xb = tuple(init_a), tuple(init_b)
    rng = make_stream(seed)
    events = []
    t = 0.0
    while True:
        triples = []
        total = 0.0
        for k in range(len(links)):
            a = tables_a[k][xa]
            b = tables_b[k][xb]
            joint = a if a <= b else b
            b_only = max(b - a, 0.0)
            a_only = max(a - b, 0.0)
            triples.append((joint, b_only, a_only))
            total += joint + b_only + a_only
        if total <= 0.0:
            return events, True
        t_next = t + exponential(rng, total)
        if t_next > horizon:
            return events, False
        target_mass = rng.random() * total
        chosen_link, chosen_kind = -1, None
        acc = 0.0
        for k, (joint, b_only, a_only) in enumerate(triples):
            acc += joint
            if target_mass < acc:
                chosen_link, chosen_kind = k, JOINT
                break
            acc += b_only
            if target_mass < acc:
                chosen_link, chosen_kind = k, B_ONLY
                break
            acc += a_only
            if target_mass < acc:
                chosen_link, chosen_kind = k, A_ONLY
                break
        if chosen_link < 0:
            for k in range(len(links) - 1, -1, -1):
                joint, b_only, a_only = triples[k]
                if a_only > 0.0:
                    chosen_link, chosen_kind = k, A_ONLY
                    break
                if b_only > 0.0:
                    chosen_link, chosen_kind = k, B_ONLY
                    break
                if joint > 0.0:
                    chosen_link, chosen_kind = k, JOINT
                    break
        link = links[chosen_link]
        if chosen_kind != B_ONLY:
            xa = target(xa, link)
            fa = fa[:chosen_link] + (fa[chosen_link] + 1,) + fa[chosen_link + 1 :]
        if chosen_kind != A_ONLY:
            xb = target(xb, link)
            fb = fb[:chosen_link] + (fb[chosen_link] + 1,) + fb[chosen_link + 1 :]
        events.append(CoupledEvent(t_next, link, chosen_kind, xa, xb, fa, fb))
        t = t_next


# ------------------------------------------------------ ordering oracles


def reference_population_order(log):
    """pathwise_population_order_check as a loop over the log's events."""
    violations = []
    n = len(log.initial_a)
    for t, xa, xb in zip(log.times, states_after(log, "a"), states_after(log, "b")):
        for i in range(n):
            if xa[i] > xb[i]:
                violations.append((t, i + 1))
    return violations


def flows_array_flow_order(log):
    """pathwise_flow_order_check as one scan of the log's two whole flows arrays."""
    events, ahead = np.nonzero(log.flows("a")[1:] > log.flows("b")[1:])
    times, links = log.times, log.links
    return [(times[e], links[k]) for e, k in zip(events.tolist(), ahead.tolist())]


def reference_flow_conditions(
    spec_a: NetworkSpec, spec_b: NetworkSpec, all_witnesses: bool = False
) -> ConditionReport:
    """check_flow_conditions as a loop over every link, A state and B state."""
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    links = spec_a.links
    tables_a = [spec_a.rate_vector(link).tolist() for link in links]
    tables_b = [spec_b.rate_vector(link).tolist() for link in links]
    conditions = []
    for k in range(n + 1):
        name = f"flow-link-{k}"
        witnesses = []
        done = False
        for ia, xa in enumerate(spec_a.states):
            if done:
                break
            for ib, xb in enumerate(spec_b.states):
                if k == 0:
                    premise = xa[0] >= xb[0]
                elif k == n:
                    premise = xa[n - 1] <= xb[n - 1]
                else:
                    premise = xa[k - 1] <= xb[k - 1] and xa[k] >= xb[k]
                if premise:
                    ra = tables_a[k][ia]
                    rb = tables_b[k][ib]
                    if ra > rb:
                        witnesses.append(Witness(name, "rate", xa, xb, ra, rb))
                        if not all_witnesses:
                            done = True
                            break
        conditions.append(
            ConditionResult(condition=name, passed=not witnesses, witnesses=tuple(witnesses))
        )
    return ConditionReport(
        kind="flow",
        domains=dict(_DOMAINS),
        conditions=tuple(conditions),
        all_witnesses=all_witnesses,
    )


def reference_population_conditions(
    spec_a: NetworkSpec, spec_b: NetworkSpec, all_witnesses: bool = False
) -> ConditionReport:
    """check_population_conditions as a loop over every pair of states and node."""
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    links = spec_a.links
    tables_a = [spec_a.rate_vector(link).tolist() for link in links]
    tables_b = [spec_b.rate_vector(link).tolist() for link in links]
    witnesses_by_node: dict[int, list] = {i: [] for i in range(1, n + 1)}
    for ia, xa in enumerate(spec_a.states):
        for ib, xb in enumerate(spec_b.states):
            if any(xa[i] > xb[i] for i in range(n)):
                continue
            for node in range(1, n + 1):
                if not all_witnesses and witnesses_by_node[node]:
                    continue  # first witness already found for this node
                if xa[node - 1] != xb[node - 1]:
                    continue
                name = f"population-node-{node}"
                in_k = node - 1  # arrival link for node 1, else link (node-1, node)
                out_k = node
                ra_in = tables_a[in_k][ia]
                rb_in = tables_b[in_k][ib]
                if ra_in > rb_in:
                    witnesses_by_node[node].append(
                        Witness(name, "inflow", xa, xb, ra_in, rb_in)
                    )
                ra_out = tables_a[out_k][ia]
                rb_out = tables_b[out_k][ib]
                if ra_out < rb_out:
                    witnesses_by_node[node].append(
                        Witness(name, "outflow", xa, xb, ra_out, rb_out)
                    )
                if not all_witnesses and witnesses_by_node[node]:
                    witnesses_by_node[node] = witnesses_by_node[node][:1]
    conditions = tuple(
        ConditionResult(
            condition=f"population-node-{node}",
            passed=not witnesses_by_node[node],
            witnesses=tuple(witnesses_by_node[node]),
        )
        for node in range(1, n + 1)
    )
    return ConditionReport(
        kind="population",
        domains=dict(_DOMAINS),
        conditions=conditions,
        all_witnesses=all_witnesses,
    )


@dataclasses.dataclass
class ReferenceClosure(ClosureReport):
    """A ClosureReport plus the tight configurations whose largest gap
    exceeds gap_bound; those count against closure."""

    gap_exceeded: tuple[TightConfiguration, ...] = ()


def reference_closure(
    spec_a: NetworkSpec, spec_b: NetworkSpec, gap_bound: int | None = None
) -> ReferenceClosure:
    """verify_tight_configurations as a loop over every tight link and pair of states,
    with the gap vector rebuilt from node balance link by link.

    gap_bound defaults to the n * c of verify_tight_configurations; with a
    smaller one, a configuration whose largest gap exceeds it is listed in
    gap_exceeded instead of being checked."""
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    links = spec_a.links
    tables_a = [spec_a.rate_vector(link).tolist() for link in links]
    tables_b = [spec_b.rate_vector(link).tolist() for link in links]
    max_coord = 0
    for x in spec_a.states:
        max_coord = max(max_coord, max(x))
    for x in spec_b.states:
        max_coord = max(max_coord, max(x))
    bound = n * max_coord if gap_bound is None else int(gap_bound)
    witnesses = []
    exceeded = []
    checked = 0
    for k in range(n + 1):
        for ia, xa in enumerate(spec_a.states):
            for ib, xb in enumerate(spec_b.states):
                d = [0] * (n + 1)
                for j in range(k + 1, n + 1):
                    d[j] = d[j - 1] - (xb[j - 1] - xa[j - 1])
                for j in range(k, 0, -1):
                    d[j - 1] = d[j] + (xb[j - 1] - xa[j - 1])
                if min(d) < 0:
                    continue  # not reachable inside the order relation
                checked += 1
                config = TightConfiguration(k, xa, xb, tuple(d))
                if max(d) > bound:
                    exceeded.append(config)
                    continue
                ra = tables_a[k][ia]
                rb = tables_b[k][ib]
                if ra > rb:
                    witnesses.append(ClosureWitness(config, ra, rb))
    return ReferenceClosure(
        closed=not witnesses and not exceeded,
        witnesses=tuple(witnesses),
        checked=checked,
        gap_bound=bound,
        domains=dict(_DOMAINS),
        gap_exceeded=tuple(exceeded),
    )


# ------------------------------------------------------ block-scan oracles
#
# The order checks as they ran before they became dominance queries on a
# grid: numpy masks over blocks of A's states times all of B's, about
# ordering._BLOCK_PAIRS pairs a block (read at call time, so a test that
# patches it moves these blocks' edges too).


def _row_blocks(m_a: int, m_b: int):
    """Slices of A's state indices, each covering at most _BLOCK_PAIRS pairs
    with all of B's states (one row when B alone has more)."""
    step = max(1, ordering._BLOCK_PAIRS // m_b)
    return [slice(lo, min(lo + step, m_a)) for lo in range(0, m_a, step)]


def _hits(mask, rows: slice, first_only: bool):
    """(ia, ib) of the True entries of a block mask, in row-major order.

    ia indexes A's whole state space; with first_only at most one hit.
    """
    flat = np.flatnonzero(mask)
    if first_only:
        flat = flat[:1]
    ia, ib = np.divmod(flat, mask.shape[1])
    return ia + rows.start, ib


def blocked_flow_conditions(
    spec_a: NetworkSpec, spec_b: NetworkSpec, all_witnesses: bool = False
) -> ConditionReport:
    """check_flow_conditions as a block scan over every pair of states."""
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    xa, xb = np.asarray(spec_a.states), np.asarray(spec_b.states)
    blocks = _row_blocks(len(xa), len(xb))
    conditions = []
    for k, link in enumerate(spec_a.links):
        name = f"flow-link-{k}"
        ra, rb = spec_a.rate_vector(link), spec_b.rate_vector(link)
        witnesses = []
        for rows in blocks:
            failing = ra[rows, None] > rb
            if k > 0:
                failing &= xa[rows, k - 1, None] <= xb[:, k - 1]
            if k < n:
                failing &= xa[rows, k, None] >= xb[:, k]
            ia, ib = _hits(failing, rows, not all_witnesses)
            for i, j, rate_a, rate_b in zip(
                ia.tolist(), ib.tolist(), ra[ia].tolist(), rb[ib].tolist()
            ):
                witnesses.append(
                    Witness(name, "rate", spec_a.states[i], spec_b.states[j], rate_a, rate_b)
                )
            if witnesses and not all_witnesses:
                break
        conditions.append(
            ConditionResult(condition=name, passed=not witnesses, witnesses=tuple(witnesses))
        )
    return ConditionReport(
        kind="flow",
        domains=dict(_DOMAINS),
        conditions=tuple(conditions),
        all_witnesses=all_witnesses,
    )


def blocked_population_conditions(
    spec_a: NetworkSpec, spec_b: NetworkSpec, all_witnesses: bool = False
) -> ConditionReport:
    """check_population_conditions as a block scan over every pair of states."""
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    xa, xb = np.asarray(spec_a.states), np.asarray(spec_b.states)
    rates = [(spec_a.rate_vector(link), spec_b.rate_vector(link)) for link in spec_a.links]
    witnesses_by_node: dict[int, list] = {i: [] for i in range(1, n + 1)}
    for rows in _row_blocks(len(xa), len(xb)):
        below = np.ones((rows.stop - rows.start, len(xb)), dtype=bool)
        for i in range(n):
            below &= xa[rows, i, None] <= xb[:, i]
        for node in range(1, n + 1):
            found = witnesses_by_node[node]
            if found and not all_witnesses:
                continue  # first witness already found for this node
            name = f"population-node-{node}"
            premise = below & (xa[rows, node - 1, None] == xb[:, node - 1])
            # arrival link for node 1, else link (node-1, node); out via link node
            (ra_in, rb_in), (ra_out, rb_out) = rates[node - 1], rates[node]
            inflow = premise & (ra_in[rows, None] > rb_in)
            outflow = premise & (ra_out[rows, None] < rb_out)
            ia, ib = _hits(inflow | outflow, rows, not all_witnesses)
            for i, j in zip(ia.tolist(), ib.tolist()):
                xa_i, xb_j = spec_a.states[i], spec_b.states[j]
                if inflow[i - rows.start, j]:
                    found.append(
                        Witness(name, "inflow", xa_i, xb_j, float(ra_in[i]), float(rb_in[j]))
                    )
                if outflow[i - rows.start, j] and (all_witnesses or not found):
                    found.append(
                        Witness(name, "outflow", xa_i, xb_j, float(ra_out[i]), float(rb_out[j]))
                    )
        if not all_witnesses and all(witnesses_by_node.values()):
            break
    conditions = tuple(
        ConditionResult(
            condition=f"population-node-{node}",
            passed=not witnesses_by_node[node],
            witnesses=tuple(witnesses_by_node[node]),
        )
        for node in range(1, n + 1)
    )
    return ConditionReport(
        kind="population",
        domains=dict(_DOMAINS),
        conditions=conditions,
        all_witnesses=all_witnesses,
    )


def blocked_closure(spec_a: NetworkSpec, spec_b: NetworkSpec) -> ClosureReport:
    """verify_tight_configurations as a block scan over every pair of states,
    once per tight link, with S = P' - P of a whole block at a time."""
    _require_linear_pair(spec_a, spec_b)
    n = spec_a.n
    xa, xb = np.asarray(spec_a.states), np.asarray(spec_b.states)
    # P_j per state, one row per j, so that S_j of a block is one contiguous plane
    prefix_a = np.zeros((n + 1, len(xa)), dtype=xa.dtype)
    prefix_b = np.zeros((n + 1, len(xb)), dtype=xb.dtype)
    prefix_a[1:] = xa.cumsum(axis=1).T
    prefix_b[1:] = xb.cumsum(axis=1).T
    rates = [(spec_a.rate_vector(link), spec_b.rate_vector(link)) for link in spec_a.links]
    witnesses: list[list] = [[] for _ in range(n + 1)]
    checked = 0
    for rows in _row_blocks(len(xa), len(xb)):
        s = prefix_b[:, None, :] - prefix_a[:, rows, None]
        top = s.max(axis=0)
        for k, (ra, rb) in enumerate(rates):
            tight = s[k] == top  # realizable with d_k = 0
            checked += int(np.count_nonzero(tight))
            ia, ib = _hits(tight & (ra[rows, None] > rb), rows, False)
            for i, j in zip(ia.tolist(), ib.tolist()):
                s_ij = s[:, i - rows.start, j]
                gaps = tuple((s_ij[k] - s_ij).tolist())
                config = TightConfiguration(k, spec_a.states[i], spec_b.states[j], gaps)
                witnesses[k].append(ClosureWitness(config, float(ra[i]), float(rb[j])))
    witnesses = [w for per_link in witnesses for w in per_link]
    return ClosureReport(
        closed=not witnesses,
        witnesses=tuple(witnesses),
        checked=checked,
        gap_bound=n * int(max(xa.max(initial=0), xb.max(initial=0))),
        domains=dict(_DOMAINS),
    )


# ------------------------------------------------------- whole-text writers


# Row counts a chunked CSV writer must get right: no row, one row, exactly
# one block, and several blocks plus a remainder.
CHUNK_ROW_COUNTS = (0, 1, _CSV_ROWS, 3 * _CSV_ROWS + 17)


def chunk_row_counts(rows: int) -> list[int]:
    """Rows in each chunk a CSV writer yields: the header, whole blocks, the rest."""
    whole, rest = divmod(rows, _CSV_ROWS)
    return [1] + [_CSV_ROWS] * whole + ([rest] if rest else [])


def text_lines(chunks) -> list[str]:
    """The joined text's lines, newlines kept: equal exactly when the texts
    are, and a mismatch reports the first differing line, not a diff of
    the whole text."""
    return "".join(chunks).splitlines(keepends=True)


def _whole_text_labels(rows) -> list[str]:
    return [";".join(map(str, row)) for row in rows]


def whole_event_log_csv(log) -> str:
    """event_log_csv as the one string it returned before it yielded chunks."""
    prefixes = [f"{i},{j}," for i, j in log.links]
    labels = _whole_text_labels(log.coords.tolist())
    lines = ["time,link_from,link_to,state_after"]
    lines += [
        f"{t!r},{prefixes[k]}{labels[i]}" for t, k, i in zip(log.times, log.moves, log.visits)
    ]
    return "\n".join(lines) + "\n"


def whole_distribution_csv(states, probs) -> str:
    """distribution_csv as the one string it returned before it yielded chunks."""
    rows = map(
        "{},{!r}".format, _whole_text_labels(states), np.asarray(probs, dtype=float).tolist()
    )
    return "\n".join(["state,probability", *rows]) + "\n"


def whole_paired_log_csv(log) -> str:
    """paired_log_csv as the one string it returned before it yielded chunks,
    decoding the log's codes whole."""
    kinds_text = (JOINT, B_ONLY, A_ONLY)
    prefixes = [f"{i},{j},{kind}," for i, j in log.links for kind in kinds_text]
    labels_a = _whole_text_labels(log.coords_a.tolist())
    labels_b = _whole_text_labels(log.coords_b.tolist())
    positions, kinds = (c.tolist() for c in np.divmod(np.asarray(log.bins, dtype=np.int64), 3))
    pairs = np.asarray(log.pairs, dtype=np.int64)
    visits_a, visits_b = (c.tolist() for c in np.divmod(pairs, len(log.coords_b)))
    counts_a, counts_b = [0] * len(log.links), [0] * len(log.links)
    cells_a, cells_b = ["0"] * len(log.links), ["0"] * len(log.links)
    fa = fb = ";".join(cells_a)
    lines = ["time,link_from,link_to,which,stateA,stateB,flowA,flowB"]
    for t, b, k, kind, ia, ib in zip(log.times, log.bins, positions, kinds, visits_a, visits_b):
        if kind != 1:  # A moved
            counts_a[k] += 1
            cells_a[k] = str(counts_a[k])
            fa = ";".join(cells_a)
        if kind != 2:  # B moved
            counts_b[k] += 1
            cells_b[k] = str(counts_b[k])
            fb = ";".join(cells_b)
        lines.append(f"{t!r},{prefixes[b]}{labels_a[ia]},{labels_b[ib]},{fa},{fb}")
    return "\n".join(lines) + "\n"
