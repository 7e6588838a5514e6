"""The two tandem workloads: one round of CLI invocations, made from a seed.

An operation is one `floworder` invocation, given as the argv a shell user
would type (without `--out`, which the runner appends). Every round of a
run repeats the same operations, so reports can be compared across rounds.

tandem-large
    One large instance per command, so that the work per state or per
    state pair dominates every layer. It keeps one invocation that fails
    today: the stiff `solve` at s1 = s2 = 50, beta = 1e4, whose power
    iteration stops at 50,000 steps on a chain too large for the dense
    fallback (2,601 states). The seed picks the simulation seeds only, so
    the work per round does not depend on it.
tandem-scan
    The service-table grid of scripts/condition_scan.py at s1 = s2 = 2,
    beta = 1, every occupancy rate in {1, 2, 3}: 81 pairs, 36 certified.
    Nine-state models, so the fixed cost of each call dominates. The seed
    picks which variant each pair is solved and simulated on, the
    simulation seeds, and the nine pairs `transient` runs on: one of the
    nine cosets of a two-dimensional subspace of the table grid, so each
    rate value appears equally often in every coordinate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from oracle import Tandem

WORKLOADS = ("tandem-large", "tandem-scan")
COMMANDS = ("check", "verify", "solve", "transient", "sweep", "couple", "simulate")


@dataclass(frozen=True)
class Op:
    command: str
    family: str | None = None  # tandem-original | tandem-balanced | tandem-pair
    tandem: Tandem | None = None
    opts: tuple[tuple[str, str], ...] = ()

    @property
    def argv(self) -> list[str]:
        argv = [self.command]
        if self.family is not None:
            argv += ["--family", self.family]
        t = self.tandem
        if t is not None:
            argv += ["--s1", str(t.s1), "--s2", str(t.s2), "--beta", repr(t.beta)]
            if t != Tandem.linear(t.s1, t.s2, t.beta):
                argv += ["--delta1", _join(t.delta1), "--delta2", _join(t.delta2)]
        for key, value in self.opts:
            argv += [f"--{key}", value]
        return argv

    def opt(self, key: str, default: str) -> str:
        return dict(self.opts).get(key, default)

    @property
    def variant(self) -> str | None:
        return None if self.family is None else self.family.removeprefix("tandem-")


def _join(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def large(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    lin = Tandem.linear
    # (check s, verify s, solve s, transient s, sweep sizes, couple s/horizon, simulate s/horizon)
    if tiny:
        sizes = (4, 3, 4, 2, "2,3", (3, "50"), (3, "300"))
    else:
        sizes = (20, 16, 30, 3, "10,20", (10, "500"), (10, "1000"))
    c, v, s, tr, sweep, (cs, ch), (ss, sh) = sizes
    return [
        Op("check", "tandem-pair", lin(c, c, float(c))),
        Op("verify", "tandem-pair", lin(v, v, float(v))),
        Op("solve", "tandem-original", lin(s, s, 1000.0)),
        # Fails today with ConvergenceError; counted as failed once per round.
        Op("solve", "tandem-original", lin(50, 50, 10000.0)),
        Op("transient", "tandem-pair", lin(tr, tr, float(tr)), (("grid", "0:4:2"),)),
        Op("sweep", opts=(("betas", "1,10"), ("sizes", sweep))),
        Op("couple", "tandem-pair", lin(cs, cs, float(cs)),
           (("reps", "2"), ("horizon", ch), ("seed", _seed(rng)))),
        Op("simulate", "tandem-original", lin(ss, ss, float(ss)),
           (("reps", "2"), ("horizon", sh), ("seed", _seed(rng)))),
    ]


def scan_tables(tiny: bool = False) -> list[Tandem]:
    values = (1.0, 2.0, 3.0)
    tables = [
        Tandem(2, 2, 1.0, (0.0,) + t1, (0.0,) + t2)
        for t1 in itertools.product(values, repeat=2)
        for t2 in itertools.product(values, repeat=2)
    ]
    return tables[::9] if tiny else tables


def _coset(t: Tandem) -> tuple[int, int]:
    a, b = (int(v) - 1 for v in t.delta1[1:])
    c, d = (int(v) - 1 for v in t.delta2[1:])
    return (a + b + c + d) % 3, (a + 2 * b + d) % 3


def scan(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    tables = scan_tables(tiny)
    variants = ["original"] * (len(tables) // 2 + 1) + ["balanced"] * (len(tables) // 2)
    rng.shuffle(variants)
    coset = (rng.randrange(3), rng.randrange(3))
    ops = []
    for t, solved in zip(tables, variants):
        other = "balanced" if solved == "original" else "original"
        ops += [
            Op("check", "tandem-pair", t),
            Op("verify", "tandem-pair", t),
            Op("solve", f"tandem-{solved}", t),
            Op("couple", "tandem-pair", t, (("horizon", "20"), ("seed", _seed(rng)))),
            Op("simulate", f"tandem-{other}", t,
               (("reps", "2"), ("horizon", "25"), ("seed", _seed(rng)))),
        ]
        if tiny or _coset(t) == coset:
            ops.append(Op("transient", "tandem-pair", t, (("grid", "0:1:1"),)))
    ops.append(Op("sweep"))
    return ops


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    if name == "tandem-large":
        return large(seed, tiny)
    if name == "tandem-scan":
        return scan(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
