"""Independent ground truth: the TASEP Markov generator, its exact stationary
distribution, and a continuous-time kinetic Monte Carlo simulator.

States use the same bitmask indexing as the weight tables (site 1 is the
least significant bit).  Transitions: injection at site 1 at rate alpha when
empty, extraction from site N at rate beta when occupied, and nearest-
neighbor hops (1,0) -> (0,1) at rate 1.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .core import DomainError, NumericConsistencyError, check_rates, check_size
from .rng import stream

GENERATOR_CAP = 12
STATIONARY_RESIDUAL = 1e-11


def build_generator(n: int, alpha: float, beta: float):
    """Sparse 2^N x 2^N rate matrix Q (CSR) with zero row sums."""
    import scipy.sparse as sp  # deferred: only the oracle commands load SciPy

    check_size(n, GENERATOR_CAP)
    check_rates(alpha, beta)
    size = 1 << n
    idx = np.arange(size)
    top = 1 << (n - 1)
    # (mask of states that can move, their targets, rate) per transition type
    moves = [((idx & 1) == 0, idx | 1, alpha), ((idx & top) != 0, idx ^ top, beta)]
    moves += [(((idx >> p) & 3) == 1, idx ^ (3 << p), 1.0)  # sites p+1, p+2 hold (1, 0)
              for p in range(n - 1)]
    out_rate = np.zeros(size)
    for mask, _, rate in moves:
        out_rate[mask] += rate
    rows = np.concatenate([idx[mask] for mask, _, _ in moves] + [idx])
    cols = np.concatenate([target[mask] for mask, target, _ in moves] + [idx])
    vals = np.concatenate([np.full(np.count_nonzero(mask), rate) for mask, _, rate in moves]
                          + [-out_rate])
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def solve_stationary(q) -> np.ndarray:
    """Probability vector pi with pi Q = 0 and sum(pi) = 1, for the generator
    Q that build_generator returns.

    One sparse direct solve: pin pi to 1 at the state Q leaves slowest (pi_0
    deep in the low-density phase, pi_last deep in the high-density phase),
    solve the other balance equations of pi Q = 0 for the rest, normalize.
    """
    import scipy.sparse.linalg  # deferred: only the oracle commands load SciPy

    pin = int(np.argmax(q.diagonal()))
    rest = np.arange(q.shape[0]) != pin
    pi = np.ones(q.shape[0])
    pi[rest] = scipy.sparse.linalg.spsolve(q[rest][:, rest].T.tocsc(), -q[pin, rest].toarray()[0])
    pi /= pi.sum()
    residual = float(np.max(np.abs(pi @ q)))
    if residual > STATIONARY_RESIDUAL or not (pi > 0).all():
        raise NumericConsistencyError(
            f"stationary solve failed: residual {residual:g}, min component {pi.min():g}"
        )
    return pi


def kmc_sample(
    n: int,
    alpha: float,
    beta: float,
    burn_in: float,
    n_samples: int,
    thin: float,
    seed: int,
) -> np.ndarray:
    """Continuous-time simulation; returns occupation snapshots at the
    deterministic times burn_in + k*thin, k = 0..n_samples-1.

    Racing per-event exponential clocks is realized by the equivalent total-
    rate exponential plus a categorical event draw; thinning happens in
    continuous time, so snapshot spacing does not depend on event counts.
    """
    if not (burn_in > 0.0 and thin > 0.0):
        raise DomainError("burn_in and thin must exceed 0")
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    # successors and cumulative rates of state i: off-diagonal CSR row i
    q = build_generator(n, alpha, beta)
    q.setdiag(0.0)
    q.eliminate_zeros()
    bounds = list(zip(q.indptr[:-1].tolist(), q.indptr[1:].tolist()))
    successors = [q.indices[lo:hi].tolist() for lo, hi in bounds]
    cum_rates = [list(accumulate(q.data[lo:hi].tolist())) for lo, hi in bounds]
    rng = stream(seed, 0)
    recorded = []
    state = 0
    t = 0.0
    next_record = burn_in
    while len(recorded) < n_samples:
        cum = cum_rates[state]
        t += rng.exponential(1.0 / cum[-1])
        while len(recorded) < n_samples and next_record <= t:
            recorded.append(state)
            next_record = burn_in + len(recorded) * thin
        if len(recorded) < n_samples:
            state = successors[state][bisect_right(cum, rng.uniform(0.0, cum[-1]))]
    return ((np.array(recorded)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
