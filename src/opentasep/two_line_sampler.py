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

Forward sampling draws each step from one uniform u, cut by the exact
conditionals the L-ratios give: with h = P(0)/2, the joint increments (0,0),
(1,0), (1,1), (0,1) take u in [0, h), [h, h + P(+1)), [h + P(+1), P(+1) + P(0))
and the rest, so the two flat increments split P(0) evenly.  One sample costs
O(N) after the O(N^2) table.  The same walk serves both entry points:
`sample_two_line` stores every step's 0/1 increments (one byte each), and
`sample_functionals` keeps running heights and records (s1, s2) only at the
requested path positions.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DomainError, check_ab, check_bytes, check_size
from .rng import stream
from . import textio

BUILD_CAP = 100_000
ENDPOINT_CAP = 120
TABLE_BYTES_CAP = 6 * 10 ** 9   # bytes of the full table (~8 N^2) and of stored paths
CHUNK = 1 << 15
CSV_BLOCK_BYTES = 1 << 20   # bytes of preformatted rows SamplePaths.write_csv holds at once

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class PartitionTable:
    """Exact step conditionals of the backward recursion, plus log L_r(0).

    prob_up and prob_flat are packed triangles: row r (r steps remaining)
    sits at `row(r)` and holds q = 0..n-r+1 (reachable states plus the lookup
    margin).  `prob_up[row(r)][q]` and `prob_flat[row(r)][q]` are the exact
    conditional probabilities of difference increment +1 and 0 (NaN at
    r = 0); -1 takes the remainder.  `log_l[r]` is log L_r(0) for r = 0..n,
    so `log_l[r] - r log 4` is log c of an r-site system with the same (a, b).
    """

    n_sites: int
    log_l: np.ndarray
    prob_up: np.ndarray
    prob_flat: np.ndarray

    def row(self, r: int) -> slice:
        """Slice of row r in the packed arrays (widths n+2, n+1, ... from 0)."""
        start = r * (2 * self.n_sites + 5 - r) // 2
        return slice(start, start + self.n_sites - r + 2)

    @property
    def log_c(self) -> float:
        """log of the normalizing constant sum(weights)/4^N."""
        return float(self.log_l[self.n_sites]) - self.n_sites * math.log(4.0)


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
    needed for sampling is built one row at a time (~8 N^2 bytes).
    """
    check_size(n, BUILD_CAP)
    check_ab(a, b)
    a, b = float(a), float(b)
    log_b = math.log(b)
    if log_c_only:
        for row in _log_l_rows(n, a, b, log_b):
            last = row
        return float(last[0]) - n * math.log(4.0)
    size = (n + 1) * (n + 4) // 2
    check_bytes(16 * size + 8 * (n + 1), TABLE_BYTES_CAP,
                f"building the full table for n={n}")
    prob_up, prob_flat = np.empty((2, size))
    log_l = np.empty(n + 1)
    table = PartitionTable(n_sites=n, log_l=log_l, prob_up=prob_up, prob_flat=prob_flat)
    prob_up[table.row(0)] = prob_flat[table.row(0)] = np.nan
    # exact step conditionals: P(+1) = L_{r-1}(q+1)/L_r(q), P(0) = 2 L_{r-1}(q)/L_r(q)
    for r, row in enumerate(_log_l_rows(n, a, b, log_b)):
        cells = table.row(r)
        cur = row[: n - r + 2]
        log_l[r] = cur[0]
        if r:
            prob_up[cells] = np.exp(prev[1:] - cur)
            prob_flat[cells] = np.exp(LOG2 + prev[:-1] - cur)
        prev = cur
    return table


@dataclass(frozen=True)
class SamplePaths:
    """Sampled pairs of lattice paths, one row per sample: the 0/1 steps of
    each line as uint8 (count, N) matrices.  The int32 heights s1, s2
    (positions 0..N) are built on access."""

    inc1: np.ndarray
    inc2: np.ndarray

    @property
    def count(self) -> int:
        return self.inc1.shape[0]

    @property
    def n_sites(self) -> int:
        return self.inc1.shape[1]

    @property
    def s1(self) -> np.ndarray:
        return _heights(self.inc1)

    @property
    def s2(self) -> np.ndarray:
        return _heights(self.inc2)

    def write_csv(self, path) -> None:
        """Increments are 0/1, so each row is 4N-1 ASCII bytes (a digit at
        every even offset, commas between); rows are built CSV_BLOCK_BYTES at
        a time in one reused uint8 matrix and handed to textio.write_csv as
        one preformatted cell each."""
        n, width = self.n_sites, 4 * self.n_sites - 1
        header = [f"s1_{j}" for j in range(1, n + 1)] + [f"s2_{j}" for j in range(1, n + 1)]
        block = max(1, CSV_BLOCK_BYTES // width)
        cells = np.full((min(block, self.count), width), ord(","), dtype=np.uint8)

        def rows():
            for start in range(0, self.count, block):
                part = cells[: min(block, self.count - start)]
                digits = part[:, ::2]
                np.add(self.inc1[start : start + block], ord("0"), out=digits[:, :n])
                np.add(self.inc2[start : start + block], ord("0"), out=digits[:, n:])
                for line in part.view(f"S{width}").ravel():
                    yield [line.decode()]

        textio.write_csv(path, header, rows())

    def write_binary(self, path) -> None:
        """n as little-endian int32, then per sample two ceil(n/8)-byte
        bitmaps (s1 increments then s2), bits LSB-first within each byte."""
        with open(path, "wb") as fh:
            fh.write(np.int32(self.n_sites).tobytes())
            packed = [np.packbits(inc, axis=1, bitorder="little")
                      for inc in (self.inc1, self.inc2)]
            fh.write(np.concatenate(packed, axis=1).tobytes())


def _heights(inc: np.ndarray) -> np.ndarray:
    """int32 heights at positions 0..N of (count, N) 0/1 increments."""
    out = np.zeros((inc.shape[0], inc.shape[1] + 1), dtype=np.int32)
    np.cumsum(inc, axis=1, dtype=np.int32, out=out[:, 1:])
    return out


def _walk(table: PartitionTable, count: int, rng):
    """Walk `count` pairs forward from gap 0, one uniform per step; yields
    each step's (inc1, inc2) bool arrays, the two lines' 0/1 increments."""
    n = table.n_sites
    q = np.zeros(count, dtype=np.intp)
    for j in range(n):
        cells = table.row(n - j)
        u = rng.random(count)
        p_up = table.prob_up[cells].take(q)
        p_flat = table.prob_flat[cells].take(q)
        h = 0.5 * p_flat
        inc1 = (u >= h) & (u < p_up + p_flat)  # (1,0) or (1,1)
        inc2 = u >= h + p_up                   # (1,1) or (0,1)
        q += inc1
        q -= inc2
        np.maximum(q, 0, out=q)
        yield inc1, inc2


def _run_chunks(count, seed, threads, width, dtype, record):
    """Two (count, width) arrays, filled chunk by chunk: record(rng, rows1,
    rows2) fills one chunk's row slices, and chunk i uses stream (seed, i),
    so the output is thread-count independent."""
    out1, out2 = np.zeros((2, count, width), dtype=dtype)

    def run(job):
        i, start = job
        rows = slice(start, min(start + CHUNK, count))
        record(stream(seed, i), out1[rows], out2[rows])

    jobs = list(enumerate(range(0, count, CHUNK)))
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, jobs))
    else:
        for job in jobs:
            run(job)
    return out1, out2


def check_paths_bytes(count: int, n_sites: int) -> None:
    """Refuse count < 1, or storing count paths of n_sites uint8 increments
    per line when they would pass TABLE_BYTES_CAP."""
    if count < 1:
        raise DomainError("count must be >= 1")
    check_bytes(2 * count * n_sites, TABLE_BYTES_CAP, f"storing {count} paths of n={n_sites}")


def sample_two_line(table: PartitionTable, count: int, seed: int,
                    threads: int = 1) -> SamplePaths:
    """Exact i.i.d. samples from the pair ensemble; deterministic in seed
    and independent of the thread count."""
    check_paths_bytes(count, table.n_sites)

    def record(rng, rows1, rows2):
        for j, (inc1, inc2) in enumerate(_walk(table, len(rows1), rng)):
            rows1[:, j] = inc1
            rows2[:, j] = inc2

    inc1, inc2 = _run_chunks(count, seed, threads, table.n_sites, np.uint8, record)
    return SamplePaths(inc1=inc1, inc2=inc2)


def check_functionals_bytes(count: int, n_positions: int) -> None:
    """Refuse count < 1, or storing count samples of int32 s1 and s1 - s2 at
    n_positions path positions when they would pass TABLE_BYTES_CAP."""
    if count < 1:
        raise DomainError("count must be >= 1")
    check_bytes(8 * count * n_positions, TABLE_BYTES_CAP,
                f"storing {count} samples at {n_positions} positions")


def sample_functionals(table: PartitionTable, count: int, seed: int,
                       positions: list[int], threads: int = 1):
    """Sampled (s1, s1-s2) values at the given path positions only.

    Positions lie in 0..n, in any order and possibly repeated; returns two
    (count, len(positions)) int32 arrays with columns in the order asked for.
    Avoids materializing full paths, which matters at large N.  Identical
    streams to sample_two_line.
    """
    wanted = [int(k) for k in positions]
    if any(not 0 <= k <= table.n_sites for k in wanted):
        raise DomainError("record positions must lie in 0..n")
    check_functionals_bytes(count, len(wanted))
    unique = sorted(set(wanted))
    col_of = {k: i for i, k in enumerate(unique)}

    def record(rng, rows1, rows2):
        s1, s2 = np.zeros((2, len(rows1)), dtype=np.int32)
        for j, (inc1, inc2) in enumerate(_walk(table, len(rows1), rng), 1):
            s1 += inc1
            s2 += inc2
            col = col_of.get(j)
            if col is not None:
                rows1[:, col] = s1
                rows2[:, col] = s2

    s1, s2 = _run_chunks(count, seed, threads, len(unique), np.int32, record)
    cols = [col_of[k] for k in wanted]
    s1 = s1[:, cols]
    return s1, s1 - s2[:, cols]


def _endpoint_log_pmf(n: int, a: float, b: float) -> np.ndarray:
    """Normalized log-pmf of s1(N) under the pair ensemble.

    Forward DP over (gap q, height k): the running-minimum factor a^(-m)
    accumulates multiplicatively at reflections, and the terminal weight
    contributes b^q.
    """
    check_size(n, ENDPOINT_CAP)
    check_ab(a, b)
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
