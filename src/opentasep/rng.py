"""Deterministic random-number streams.

Stream derivation rule: stream k of master seed s is a PCG64 generator seeded
by SeedSequence(entropy=(s, k)).  SeedSequence spreads distinct k over
statistically independent streams, so chunked or multi-threaded sampling that
assigns chunk i to stream i reproduces the single-threaded output exactly.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for stream `index` of master seed `seed`."""
    ss = np.random.SeedSequence((int(seed), int(index)))
    return np.random.Generator(np.random.PCG64(ss))
