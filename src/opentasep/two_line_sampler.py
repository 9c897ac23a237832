"""Exact sampling from the pair ensemble at large N, plus exact endpoint
distributions of the height function.

The pair weight b^(d_N) (ab)^(-m_N) depends on the two walks only through the
difference walk d_j = s1(j) - s2(j) and its running minimum m_j.  Writing
q_j = d_j - m_j >= 0 (the gap above the running minimum), the weight
factorizes as a^(-m_N) b^(q_N), and q evolves as a walk reflected at 0 while
m decrements exactly at the reflection events.  Summing the a-factor into the
reflection therefore closes the backward recursion in q alone:

    L_0(q)     = b^q
    L_r(q)     = 2 L_{r-1}(q) + L_{r-1}(q+1) + L_{r-1}(q-1)       (q >= 1)
    L_r(0)     = (2 + a) L_{r-1}(0) + L_{r-1}(1)

where r counts remaining steps and the difference increment takes values
+1, 0, -1 with multiplicities 1, 2, 1 (the four joint increments of the two
lines).  The classical value function over (step j, difference d, running
minimum m) is recovered as V_j(d, m) = -m log a + log L_{N-j}(d - m).

Forward sampling draws the difference increment from the exact conditionals
L-ratios give, flips a fair coin for the common increment at flat steps, and
reconstructs both lines.  One sample costs O(N) after the O(N^2) table.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DomainError, ResourceLimitError
from .rng import stream
from . import textio

BUILD_CAP = 100_000
ENDPOINT_CAP = 120
TABLE_BYTES_CAP = 6 * 10 ** 9   # values plus two probability tables, ~24 N^2 bytes
CHUNK = 1 << 15

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class PartitionTable:
    """Backward table of log L_r(q) plus precomputed step conditionals.

    Row r of `log_l` holds log L_r(q) for q = 0..n-r+1 (reachable states plus
    the lookup margin); unreachable columns are -inf.  `prob_up[r, q]` and
    `prob_flat[r, q]` are the exact conditional probabilities of difference
    increment +1 and 0 with r steps remaining; the -1 probability is the
    remainder.
    """

    n_sites: int
    a: float
    b: float
    log_l: np.ndarray
    prob_up: np.ndarray
    prob_flat: np.ndarray

    @property
    def log_c(self) -> float:
        """log of the normalizing constant sum(weights)/4^N."""
        return float(self.log_l[self.n_sites, 0]) - self.n_sites * math.log(4.0)

    def value(self, j: int, d: int, m: int) -> float:
        """Log partition value V_j(d, m) over suffixes of a state with
        difference d and running minimum m after j steps."""
        n = self.n_sites
        if not 0 <= j <= n:
            raise DomainError(f"step index {j} outside 0..{n}")
        if abs(d) > j or m > min(0, d) or m < -j or d - m > j:
            raise DomainError(f"state (d={d}, m={m}) unreachable at step {j}")
        return -m * math.log(self.a) + float(self.log_l[n - j, d - m])


def _log_l_rows(n: int, a: float, b: float, log_b: float):
    """Yield rows r = 0..n of log L_r; row r is valid on q = 0..n-r+1."""
    row = np.arange(n + 2, dtype=float) * log_b
    yield row
    log_2pa = math.log(2.0 + a)
    for r in range(1, n + 1):
        width = n - r + 1  # last valid column of the new row
        prev = row
        nxt = np.full(n + 2, -np.inf)
        up = prev[2 : width + 2]
        down = prev[0:width]
        nxt[1 : width + 1] = np.logaddexp(LOG2 + prev[1 : width + 1], np.logaddexp(up, down))
        nxt[0] = np.logaddexp(log_2pa + prev[0], prev[1])
        yield nxt
        row = nxt


def build_partition_table(n: int, a: float, b: float, log_c_only: bool = False):
    """Backward DP table for the pair ensemble of size n.

    With log_c_only=True only the normalizing constant is computed with O(N)
    memory and the return value is the float log c; otherwise the full table
    needed for sampling is kept (~24 N^2 bytes).
    """
    if not 1 <= n <= BUILD_CAP:
        raise ResourceLimitError(f"n={n} outside supported range 1..{BUILD_CAP}")
    if not a > 0.0:
        raise DomainError(f"a must be positive, got {a!r}")
    if not b > 0.0:
        raise DomainError(f"b must be positive, got {b!r}")
    a, b = float(a), float(b)
    log_b = math.log(b)
    if log_c_only:
        for row in _log_l_rows(n, a, b, log_b):
            last = row
        return float(last[0]) - n * math.log(4.0)
    needed = 24 * (n + 1) * (n + 2)
    if needed > TABLE_BYTES_CAP:
        raise ResourceLimitError(
            f"full table for n={n} needs ~{needed / 1e9:.1f} GB; "
            "use log_c_only=True or a smaller n"
        )
    log_l = np.empty((n + 1, n + 2))
    for r, row in enumerate(_log_l_rows(n, a, b, log_b)):
        log_l[r] = row
    # exact step conditionals: P(+1) = L_{r-1}(q+1)/L_r(q), P(0) = 2 L_{r-1}(q)/L_r(q)
    prob_up = np.full((n + 1, n + 2), np.nan)
    prob_flat = np.full((n + 1, n + 2), np.nan)
    with np.errstate(invalid="ignore"):
        for r in range(1, n + 1):
            tot = log_l[r]
            prob_up[r, :-1] = np.exp(log_l[r - 1, 1:] - tot[:-1])
            prob_flat[r] = np.exp(LOG2 + log_l[r - 1] - tot)
    return PartitionTable(
        n_sites=n, a=a, b=b, log_l=log_l, prob_up=prob_up, prob_flat=prob_flat
    )


def _log_c_plain(n: int, a: float, b: float) -> float:
    """Plain-double variant of the backward recursion (overflow-prone at
    large n; kept as an independent cross-check of the log-domain DP)."""
    row = float(b) ** np.arange(n + 2, dtype=float)
    for r in range(1, n + 1):
        width = n - r + 1
        nxt = np.zeros(n + 2)
        nxt[1 : width + 1] = (
            2.0 * row[1 : width + 1] + row[2 : width + 2] + row[0:width]
        )
        nxt[0] = (2.0 + a) * row[0] + row[1]
        row = nxt
    return math.log(row[0]) - n * math.log(4.0)


@dataclass(frozen=True)
class SamplePaths:
    """Sampled pairs of lattice paths, one row per sample (positions 0..N)."""

    s1: np.ndarray
    s2: np.ndarray

    @property
    def count(self) -> int:
        return self.s1.shape[0]

    @property
    def n_sites(self) -> int:
        return self.s1.shape[1] - 1

    def increments(self) -> tuple[np.ndarray, np.ndarray]:
        return np.diff(self.s1, axis=1), np.diff(self.s2, axis=1)

    def write_csv(self, path) -> None:
        n = self.n_sites
        header = [f"s1_{j}" for j in range(1, n + 1)] + [f"s2_{j}" for j in range(1, n + 1)]
        d1, d2 = self.increments()
        rows = (d1[i].tolist() + d2[i].tolist() for i in range(self.count))
        textio.write_csv(path, header, rows)

    def write_binary(self, path) -> None:
        """n as little-endian int32, then per sample two ceil(n/8)-byte
        bitmaps (s1 increments then s2), bits LSB-first within each byte."""
        d1, d2 = self.increments()
        with open(path, "wb") as fh:
            fh.write(np.int32(self.n_sites).tobytes())
            packed1 = np.packbits(d1.astype(np.uint8), axis=1, bitorder="little")
            packed2 = np.packbits(d2.astype(np.uint8), axis=1, bitorder="little")
            interleaved = np.concatenate([packed1, packed2], axis=1)
            fh.write(interleaved.tobytes())


def _sample_chunk(table: PartitionTable, count: int, rng, record,
                  want_paths: bool):
    """Sample `count` pairs; optionally record (s1, d) at selected positions.

    `record` maps path position k (1..N) to an output column index.
    """
    n = table.n_sites
    q = np.zeros(count, dtype=np.int64)
    s1 = np.zeros(count, dtype=np.int64)
    s2 = np.zeros(count, dtype=np.int64)
    paths1 = paths2 = None
    if want_paths:
        paths1 = np.zeros((count, n + 1), dtype=np.int32)
        paths2 = np.zeros((count, n + 1), dtype=np.int32)
    rec_s1 = rec_d = None
    if record:
        rec_s1 = np.empty((count, len(record)), dtype=np.int64)
        rec_d = np.empty((count, len(record)), dtype=np.int64)
    for j in range(n):
        r = n - j
        u = rng.random(count)
        coin = rng.random(count) < 0.5
        p_up = table.prob_up[r, q]
        p_flat = table.prob_flat[r, q]
        up = u < p_up
        flat = ~up & (u < p_up + p_flat)
        down = ~up & ~flat
        tau = up | (flat & coin)
        xi = down | (flat & coin)
        s1 += tau
        s2 += xi
        q += up.astype(np.int64) - down.astype(np.int64)
        np.maximum(q, 0, out=q)
        if want_paths:
            paths1[:, j + 1] = s1
            paths2[:, j + 1] = s2
        if record and (j + 1) in record:
            col = record[j + 1]
            rec_s1[:, col] = s1
            rec_d[:, col] = s1 - s2
    return paths1, paths2, rec_s1, rec_d


def _run_chunks(table, count, seed, record, want_paths, threads):
    jobs = list(enumerate(range(0, count, CHUNK)))

    def run(job):
        i, start = job
        size = min(CHUNK, count - start)
        return _sample_chunk(table, size, stream(seed, i), record, want_paths)

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]
    return results


def sample_two_line(table: PartitionTable, count: int, seed: int,
                    threads: int = 1) -> SamplePaths:
    """Exact i.i.d. samples from the pair ensemble; deterministic in seed
    (chunk i uses stream (seed, i), so the output is thread-count independent)."""
    if count < 1:
        raise DomainError("count must be >= 1")
    results = _run_chunks(table, count, seed, record=None, want_paths=True,
                          threads=threads)
    s1 = np.concatenate([r[0] for r in results])
    s2 = np.concatenate([r[1] for r in results])
    return SamplePaths(s1=s1, s2=s2)


def sample_functionals(table: PartitionTable, count: int, seed: int,
                       positions: list[int], threads: int = 1):
    """Sampled (s1, s1-s2) values at the given path positions only.

    Returns two (count, len(positions)) arrays; avoids materializing full
    paths, which matters at large N.  Identical streams to sample_two_line.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    wanted = [int(k) for k in positions]
    if any(not 1 <= k <= table.n_sites for k in wanted):
        raise DomainError("record positions must lie in 1..n")
    unique = sorted(set(wanted))
    record = {k: i for i, k in enumerate(unique)}
    results = _run_chunks(table, count, seed, record=record, want_paths=False,
                          threads=threads)
    s1 = np.concatenate([r[2] for r in results])
    d = np.concatenate([r[3] for r in results])
    cols = [record[k] for k in wanted]
    return s1[:, cols], d[:, cols]


def _endpoint_log_pmf(n: int, a: float, b: float) -> np.ndarray:
    """Normalized log-pmf of s1(N) under the pair ensemble.

    Forward DP over (gap q, height k): the running-minimum factor a^(-m)
    accumulates multiplicatively at reflections, and the terminal weight
    contributes b^q.
    """
    if not 1 <= n <= ENDPOINT_CAP:
        raise ResourceLimitError(f"n={n} outside supported range 1..{ENDPOINT_CAP}")
    if not (a > 0.0 and b > 0.0):
        raise DomainError("a and b must be positive")
    log_a, log_b = math.log(a), math.log(b)
    cur = np.full((n + 2, n + 1), -np.inf)  # [q, k]
    cur[0, 0] = 0.0
    for _ in range(n):
        nxt = np.full_like(cur, -np.inf)
        # flat step (0,0): q, k unchanged
        nxt[:, :] = cur
        # flat step (1,1): k + 1
        nxt[:, 1:] = np.logaddexp(nxt[:, 1:], cur[:, :-1])
        # up step (1,0): q + 1, k + 1
        nxt[1:, 1:] = np.logaddexp(nxt[1:, 1:], cur[:-1, :-1])
        # down step (0,1): q - 1 off the boundary, weight a at the boundary
        nxt[:-1, :] = np.logaddexp(nxt[:-1, :], cur[1:, :])
        nxt[0, :] = np.logaddexp(nxt[0, :], log_a + cur[0, :])
        cur = nxt
    log_by_k = np.logaddexp.reduce(cur + log_b * np.arange(n + 2)[:, None], axis=0)
    return log_by_k - np.logaddexp.reduce(log_by_k)


def height_endpoint_distribution(n: int, a: float, b: float) -> np.ndarray:
    """Exact law of the height endpoint H(N) = s1(N) under the pair ensemble."""
    return np.exp(_endpoint_log_pmf(n, a, b))


def write_endpoint_csv(distribution: np.ndarray, path) -> None:
    """Emit an endpoint law as (k, probability) rows."""
    textio.write_csv(path, ["k", "probability"], enumerate(distribution.tolist()))
