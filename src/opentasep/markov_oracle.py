"""Independent ground truth: the TASEP Markov generator, its exact stationary
distribution, and a continuous-time kinetic Monte Carlo simulator.

States use the same bitmask indexing as the weight tables (site 1 is the
least significant bit).  Transitions: injection at site 1 at rate alpha when
empty, extraction from site N at rate beta when occupied, and nearest-
neighbor hops (1,0) -> (0,1) at rate 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, NumericConsistencyError, ResourceLimitError
from .exact_engine import all_height_paths
from .rng import stream
from . import textio

GENERATOR_CAP = 12
STATIONARY_RESIDUAL = 1e-11


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse 2^N x 2^N rate matrix Q with zero row sums."""

    n_sites: int
    alpha: float
    beta: float
    q: sp.csr_matrix


def build_generator(n: int, alpha: float, beta: float) -> GeneratorMatrix:
    import scipy.sparse as sp  # deferred: only the oracle commands load SciPy

    if not 1 <= n <= GENERATOR_CAP:
        raise ResourceLimitError(f"n={n} outside supported range 1..{GENERATOR_CAP}")
    for name, rate in (("alpha", alpha), ("beta", beta)):
        if not (0.0 < rate < 1.0):
            raise DomainError(f"{name} must lie in (0, 1), got {rate!r}")
    size = 1 << n
    rows, cols, vals = [], [], []
    top = 1 << (n - 1)
    for i in range(size):
        out_rate = 0.0
        if not i & 1:
            rows.append(i)
            cols.append(i | 1)
            vals.append(alpha)
            out_rate += alpha
        if i & top:
            rows.append(i)
            cols.append(i & ~top)
            vals.append(beta)
            out_rate += beta
        for p in range(n - 1):
            if (i >> p) & 3 == 1:  # sites p+1, p+2 hold (1, 0)
                rows.append(i)
                cols.append(i ^ (3 << p))
                vals.append(1.0)
                out_rate += 1.0
        rows.append(i)
        cols.append(i)
        vals.append(-out_rate)
    q = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    return GeneratorMatrix(n_sites=n, alpha=alpha, beta=beta, q=q)


def solve_stationary(gen: GeneratorMatrix) -> np.ndarray:
    """Probability vector pi with pi Q = 0 and sum(pi) = 1.

    One sparse direct solve of Q^T pi = 0 with the last balance equation
    replaced by the normalization.
    """
    import scipy.sparse as sp  # deferred: only the oracle commands load SciPy
    import scipy.sparse.linalg

    size = gen.q.shape[0]
    mat = sp.vstack([gen.q.T[:-1], np.ones((1, size))], format="csc")
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    pi = scipy.sparse.linalg.spsolve(mat, rhs)
    residual = float(np.max(np.abs(pi @ gen.q)))
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
        raise DomainError("burn_in and thin must be positive")
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    # successors and rates of state i: off-diagonal CSR row i of the generator
    q = build_generator(n, alpha, beta).q
    q.setdiag(0.0)
    q.eliminate_zeros()
    cum_rates = [np.cumsum(q.data[q.indptr[i]:q.indptr[i + 1]]) for i in range(1 << n)]
    rng = stream(seed, 0)
    out = np.empty((n_samples, n), dtype=np.uint8)
    state = 0
    t = 0.0
    k = 0
    next_record = burn_in
    while k < n_samples:
        cum = cum_rates[state]
        t += rng.exponential(1.0 / cum[-1])
        while k < n_samples and next_record <= t:
            for j in range(n):
                out[k, j] = (state >> j) & 1
            k += 1
            next_record = burn_in + k * thin
        if k < n_samples:
            event = np.searchsorted(cum, rng.uniform(0.0, cum[-1]), side="right")
            state = int(q.indices[q.indptr[state] + event])
    return out


def empirical_distribution(samples: np.ndarray) -> np.ndarray:
    """Histogram of occupation snapshots over configuration indices."""
    n = samples.shape[1]
    idx = samples.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    counts = np.bincount(idx, minlength=1 << n).astype(float)
    return counts / counts.sum()


def write_stationary_csv(pi: np.ndarray, n: int, path) -> None:
    """Emit a probability vector indexed by configuration bits."""
    header = [f"tau_{j}" for j in range(1, n + 1)] + ["probability"]
    rows = zip(np.diff(all_height_paths(n), axis=1).tolist(), pi.tolist())
    textio.write_csv(path, header, (bits + [p] for bits, p in rows))


def write_kmc_csv(samples: np.ndarray, burn_in: float, thin: float, path) -> None:
    """Emit KMC snapshots as (time, bit-string) rows."""
    rows = (
        (burn_in + k * thin, "".join(map(str, bits)))
        for k, bits in enumerate(samples.tolist())
    )
    textio.write_csv(path, ["time", "configuration"], rows)
