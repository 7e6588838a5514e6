"""Seeded random streams for simulation.

All simulators draw from a PCG64 stream, a named, seedable, portable
64-bit generator. Exponential holding times use the inverse CDF,
-ln(1 - U) / rate (ctmc.gillespie), so a seed fully determines every
path. Replication k of base seed s draws from a seed that numpy's
SeedSequence hashes from the pair (s, k), so distinct pairs give
independent streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_stream", "replication_seed"]


def make_stream(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.Generator(np.random.PCG64(int(seed)))


def replication_seed(base: int, index: int) -> int:
    """64-bit seed of replication `index` under base seed `base`."""
    ss = np.random.SeedSequence([int(base), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])
