"""Independent computations that the benchmark checks floworder's reports against.

Nothing here imports floworder. The tandem rates are written out again
from their definition, the generator is assembled from them with numpy,
and every verdict is recomputed by brute force over all state pairs, so a
check fails only when a report disagrees with the method, never because
the bytes moved.

Both tandem variants share buffers s1, s2, arrival rate beta and service
tables delta1, delta2 (delta(0) = 0). The original variant blocks arrivals
at x1 = s1 and service 1 at x2 = s2. The balanced variant also blocks
arrivals at x2 = s2 and service 2 at x1 = s1, and drops the state (s1, s2).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

# Moves of the links 0->1, 1->2, 2->0, in declared order.
MOVES = np.array([[1, 0], [-1, 1], [0, -1]])
LINKS = ("0->1", "1->2", "2->0")


@dataclass(frozen=True)
class Tandem:
    s1: int
    s2: int
    beta: float
    delta1: tuple[float, ...]
    delta2: tuple[float, ...]

    @staticmethod
    def linear(s1: int, s2: int, beta: float) -> "Tandem":
        return Tandem(s1, s2, beta, tuple(map(float, range(s1 + 1))), tuple(map(float, range(s2 + 1))))


@dataclass
class Chain:
    states: np.ndarray  # (m, 2) in lexicographic order
    rates: np.ndarray  # (m, 3), one column per link
    q: sp.csr_matrix  # generator with its diagonal


def chain(t: Tandem, variant: str) -> Chain:
    x1, x2 = np.meshgrid(np.arange(t.s1 + 1), np.arange(t.s2 + 1), indexing="ij")
    xs = np.stack([x1.ravel(), x2.ravel()], axis=1)
    if variant == "balanced":
        xs = xs[:-1]  # (s1, s2) is last in lexicographic order
    d1 = np.asarray(t.delta1, dtype=float)[xs[:, 0]]
    d2 = np.asarray(t.delta2, dtype=float)[xs[:, 1]]
    room1 = xs[:, 0] < t.s1
    room2 = xs[:, 1] < t.s2
    if variant == "original":
        rates = np.stack([t.beta * room1, d1 * room2, d2], axis=1)
    elif variant == "balanced":
        rates = np.stack([t.beta * (room1 & room2), d1 * room2, d2 * room1], axis=1)
    else:
        raise ValueError(f"unknown tandem variant {variant!r}")
    m = len(xs)
    rows, cols, vals = [], [], []
    for k in range(3):
        live = rates[:, k] > 0
        src = np.nonzero(live)[0]
        dst_x = xs[src] + MOVES[k]
        rows.append(src)
        cols.append(dst_x[:, 0] * (t.s2 + 1) + dst_x[:, 1])
        vals.append(rates[src, k])
    exit_rates = rates.sum(axis=1)
    rows.append(np.arange(m))
    cols.append(np.arange(m))
    vals.append(-exit_rates)
    q = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    )
    return Chain(xs, rates, q)


def stationary(c: Chain) -> np.ndarray:
    """Direct sparse solve of pi Q = 0 with one balance row replaced by sum(pi) = 1."""
    m = len(c.states)
    a = sp.vstack([c.q.T.tocsr()[:-1], sp.csr_matrix(np.ones((1, m)))]).tocsc()
    b = np.zeros(m)
    b[-1] = 1.0
    return scipy.sparse.linalg.spsolve(a, b)


def product_form(t: Tandem, xs: np.ndarray) -> np.ndarray:
    """pi(x) proportional to beta^(x1+x2) / (prod delta1(1..x1) prod delta2(1..x2))."""
    cum1 = np.concatenate([[0.0], np.cumsum(np.log(t.delta1[1:]))])
    cum2 = np.concatenate([[0.0], np.cumsum(np.log(t.delta2[1:]))])
    logw = (xs[:, 0] + xs[:, 1]) * math.log(t.beta) - cum1[xs[:, 0]] - cum2[xs[:, 1]]
    w = np.exp(logw - logw.max())
    return w / w.sum()


def mean_flow(c: Chain, link: int, times) -> np.ndarray:
    """E[moves along `link` in (0, t]] from the empty state, by Van Loan.

    The top-right block of expm([[Q, r], [0, 0]] t) is the integral of
    exp(Q s) r over [0, t].
    """
    m = len(c.states)
    block = np.zeros((m + 1, m + 1))
    block[:m, :m] = c.q.toarray()
    block[:m, m] = c.rates[:, link]
    return np.array([scipy.linalg.expm(block * t)[0, m] for t in times])  # state (0, 0) has index 0


# ---------------------------------------------------------------- verdicts


def _pair_grids(a: Chain, b: Chain):
    """Broadcast views: A's states down the rows, B's across the columns."""
    return a.states[:, None, :], b.states[None, :, :]


def _first(mask: np.ndarray):
    flat = np.flatnonzero(mask.ravel())
    return None if flat.size == 0 else np.unravel_index(flat[0], mask.shape)


def flow_conditions(a: Chain, b: Chain) -> list[dict]:
    """Per link: passed and the first witness in (x, x') lexicographic order."""
    xa, xb = _pair_grids(a, b)
    premises = (
        xa[..., 0] >= xb[..., 0],
        (xa[..., 0] <= xb[..., 0]) & (xa[..., 1] >= xb[..., 1]),
        xa[..., 1] <= xb[..., 1],
    )
    out = []
    for k, premise in enumerate(premises):
        bad = premise & (a.rates[:, k][:, None] > b.rates[:, k][None, :])
        hit = _first(bad)
        witness = None
        if hit is not None:
            i, j = hit
            witness = ("rate", a.states[i], b.states[j], a.rates[i, k], b.rates[j, k])
        out.append({"condition": f"flow-link-{k}", "passed": hit is None, "witness": witness})
    return out


def population_conditions(a: Chain, b: Chain) -> list[dict]:
    """Per node: premise x <= x' with x_i = x'_i; inflow of A <= B, outflow of A >= B."""
    xa, xb = _pair_grids(a, b)
    below = (xa <= xb).all(axis=2)
    out = []
    for node in (1, 2):
        premise = below & (xa[..., node - 1] == xb[..., node - 1])
        k_in, k_out = node - 1, node
        bad_in = premise & (a.rates[:, k_in][:, None] > b.rates[:, k_in][None, :])
        bad_out = premise & (a.rates[:, k_out][:, None] < b.rates[:, k_out][None, :])
        hit = _first(bad_in | bad_out)
        witness = None
        if hit is not None:
            i, j = hit
            k, part = (k_in, "inflow") if bad_in[i, j] else (k_out, "outflow")
            witness = (part, a.states[i], b.states[j], a.rates[i, k], b.rates[j, k])
        out.append({"condition": f"population-node-{node}", "passed": hit is None, "witness": witness})
    return out


def closure(a: Chain, b: Chain) -> dict:
    """Tight configurations: gaps d with d_k = 0 fixed by node balance.

    x'_i - x_i = d_{i-1} - d_i, so d is a signed prefix sum of x' - x
    anchored at the tight link k; a configuration is realizable when every
    gap is nonnegative, and breaks closure when rate_A > rate_B on link k.
    """
    xa, xb = _pair_grids(a, b)
    diff = xb - xa  # (ma, mb, 2)
    bound = 2 * int(max(a.states.max(), b.states.max()))
    checked = 0
    witnesses = []
    exceeded = 0
    for k in range(3):
        # d_j - d_k = -(sum of diff over nodes k+1..j) for j > k, + (sum over j+1..k) for j < k
        d = np.zeros(diff.shape[:2] + (3,), dtype=np.int64)
        for j in range(k + 1, 3):
            d[..., j] = d[..., j - 1] - diff[..., j - 1]
        for j in range(k, 0, -1):
            d[..., j - 1] = d[..., j] + diff[..., j - 1]
        real = d.min(axis=2) >= 0
        checked += int(real.sum())
        exceeded += int((real & (d.max(axis=2) > bound)).sum())
        bad = real & (a.rates[:, k][:, None] > b.rates[:, k][None, :])
        for i, j in zip(*np.nonzero(bad)):
            witnesses.append((k, a.states[i], b.states[j], d[i, j], a.rates[i, k], b.rates[j, k]))
    return {
        "closed": not witnesses and not exceeded,
        "checked": checked,
        "gap_bound": bound,
        "exceeded": exceeded,
        "witnesses": witnesses,
    }


# ---------------------------------------------------------------- report files


def read_csv(path: str) -> list[list[str]]:
    """Data rows of a report CSV, without the '# ' header and the column row."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("# ")]
    return [ln.split(",") for ln in lines[1:] if ln]


def int_rows(cells, width: int = 2) -> np.ndarray:
    """Semicolon-joined integer cells (states, flow counters) as an array."""
    return np.array([[int(v) for v in cell.split(";")] for cell in cells], dtype=np.int64).reshape(-1, width)


def rep_files(outdir: str, prefix: str) -> list[str]:
    return sorted(
        os.path.join(outdir, f) for f in os.listdir(outdir) if f.startswith(prefix) and f.endswith(".csv")
    )
