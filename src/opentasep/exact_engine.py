"""Exact unnormalized stationary weights of the open TASEP by three
independent routes, plus the pair-ensemble marginalization check.

Routes:
  * recursion "basic weight equations": p_1(0) = 1+a, p_1(1) = 1+b, and the
    three reduction rules (leading 0 strips a factor 1+a, trailing 1 strips
    1+b, a "10" factor splits into the two merged-site configurations);
  * matrix product <W| prod_j (tau_j D + (1-tau_j) E) |V> with bidiagonal
    D, E whose coupling entry sqrt(1-ab) turns imaginary for ab > 1;
  * brute-force pair sum f_N(tau) = sum over second walks xi of the pair
    weight b^(s1(N)-s2(N)) (ab)^(-min_j (s1(j)-s2(j))).

All three agree; the tests pin this down per configuration.

Configuration indexing: a configuration is a 0/1 tuple (tau_1, ..., tau_N)
and maps to the integer with bit j-1 equal to tau_j (tau_1 is the least
significant bit).  Its heights are the partial sums s_k = tau_1 + ... + tau_k
with s_0 = 0, so the same index identifies that height path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .core import (
    DomainError,
    NumericConsistencyError,
    check_ab,
    check_bits,
    check_size,
)
from . import textio

ENUMERATION_CAP = 16       # 2^N single-line configurations
PAIR_ENUMERATION_CAP = 12  # 4^N path pairs

# |imag| <= IMAG_REL * |real| + IMAG_ABS for every matrix-product weight
IMAG_REL = 1e-9
IMAG_ABS = 1e-12


def config_index(tau) -> int:
    return sum(bit << j for j, bit in enumerate(check_bits(tau)))


def config_bits(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> j) & 1 for j in range(n))


def all_height_paths(n: int) -> np.ndarray:
    """(2^n, n+1) array of cumulative heights for every configuration index."""
    idx = np.arange(1 << n, dtype=np.int64)
    incr = (idx[:, None] >> np.arange(n)) & 1
    out = np.zeros((1 << n, n + 1), dtype=np.int64)
    np.cumsum(incr, axis=1, out=out[:, 1:])
    return out


@dataclass(frozen=True)
class WeightTable:
    """Unnormalized stationary weights p_N over all 2^N configurations.

    `weights[i]` is the weight of the configuration with index i; exact
    (Fraction-valued) tables use an object array.
    """

    n_sites: int
    a: float | Fraction
    b: float | Fraction
    weights: np.ndarray
    z: float | Fraction

    def __getitem__(self, tau):
        tau = tuple(tau)
        if len(tau) != self.n_sites:
            raise DomainError(f"configuration has {len(tau)} sites, table has {self.n_sites}")
        return self.weights[config_index(tau)]

    def probabilities(self) -> np.ndarray:
        w = self.weights.astype(float) if self.weights.dtype == object else self.weights
        return w / float(self.z)

    def config(self, index: int) -> tuple[int, ...]:
        return config_bits(index, self.n_sites)

    def summary(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "a": float(self.a),
            "b": float(self.b),
            "z": float(self.z),
        }

    def write_csv(self, path) -> None:
        n = self.n_sites
        header = [f"tau_{j}" for j in range(1, n + 1)] + ["weight", "probability"]
        weights = self.weights.astype(float)
        rows = zip(np.diff(all_height_paths(n), axis=1).tolist(), weights.tolist(),
                   (weights / float(self.z)).tolist())
        textio.write_csv(path, header, (bits + [w, p] for bits, w, p in rows))


@dataclass(frozen=True)
class TwoLineTable:
    """Joint pair-ensemble weights g_N(s1, s2) over all 4^N path pairs.

    `joint[i, j]` is the weight of the pair whose increment bitmasks are
    (i, j); c is the normalizing constant sum(joint) / 4^N.
    """

    n_sites: int
    a: float
    b: float
    joint: np.ndarray
    c: float

    def s1_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)


def stationary_weights_recursive(n: int, a, b, exact: bool = False) -> WeightTable:
    """Bottom-up tables p_1, ..., p_N via the canonical reduction dispatch.

    Dispatch: a leading 0 strips (1+a); else a trailing 1 strips (1+b); else
    the string starts with 1 and ends with 0, so it contains "10" and the
    leftmost occurrence is split.  Consistency of the alternative reductions
    is a theorem and is tested, not assumed.

    Plain doubles are exact enough below the cap (weights are bounded by
    (1 + max(a,b))^N); `exact=True` switches to Fraction arithmetic for
    rational (a, b).
    """
    check_size(n, ENUMERATION_CAP)
    check_ab(a, b)
    if exact:
        a, b = Fraction(a), Fraction(b)
        one_a, one_b = 1 + a, 1 + b
        prev = np.array([one_a, one_b], dtype=object)
    else:
        a, b = float(a), float(b)
        one_a, one_b = 1.0 + a, 1.0 + b
        prev = np.array([one_a, one_b])
    for m in range(2, n + 1):
        cur = np.empty(1 << m, dtype=prev.dtype)
        top = 1 << (m - 1)
        for i in range(1 << m):
            if not i & 1:  # tau_1 = 0
                cur[i] = one_a * prev[i >> 1]
            elif i & top:  # tau_m = 1
                cur[i] = one_b * prev[i & ~top]
            else:
                # leftmost "10": tau_p = 1, tau_{p+1} = 0
                p = 1
                while (i >> (p - 1)) & 3 != 1:
                    p += 1
                low = i & ((1 << (p - 1)) - 1)
                rest = (i >> (p + 1)) << p
                cur[i] = prev[low | rest | (1 << (p - 1))] + prev[low | rest]
        prev = cur
    z = prev.sum()
    return WeightTable(n_sites=n, a=a, b=b, weights=prev, z=z)


def _matrices(n: int, a: float, b: float):
    """(n+1)-truncated bidiagonal matrices; exact because a length-n product
    applied to <W| never leaves the first n+1 basis states."""
    if a * b > 1.0:
        s = cmath.sqrt(1.0 - a * b)
        dtype = complex
    else:
        s = math.sqrt(1.0 - a * b)
        dtype = float
    dim = n + 1
    d = np.zeros((dim, dim), dtype=dtype)
    e = np.zeros((dim, dim), dtype=dtype)
    d[0, 0] = 1.0 + b
    e[0, 0] = 1.0 + a
    if dim > 1:
        d[0, 1] = s
        e[1, 0] = s
    for i in range(1, dim):
        d[i, i] = 1.0
        e[i, i] = 1.0
        if i + 1 < dim:
            d[i, i + 1] = 1.0
        if i >= 2:
            e[i, i - 1] = 1.0
    return d, e


def stationary_weights_matrix(n: int, a: float, b: float) -> WeightTable:
    """Matrix-product weights <W| prod (tau_j D + (1-tau_j) E) |V>.

    Uses complex arithmetic when ab > 1 and returns the real parts after
    asserting the imaginary residue is negligible.
    """
    check_size(n, ENUMERATION_CAP)
    check_ab(a, b)
    a, b = float(a), float(b)
    d, e = _matrices(n, a, b)
    vecs = np.zeros((1, n + 1), dtype=d.dtype)
    vecs[0, 0] = 1.0
    for _ in range(n):
        # new configuration index = old index + 2^j * tau_{j+1}
        vecs = np.concatenate([vecs @ e, vecs @ d])
    vals = vecs[:, 0]
    if np.iscomplexobj(vals):
        bad = np.abs(vals.imag) > IMAG_REL * np.abs(vals.real) + IMAG_ABS
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericConsistencyError(
                f"matrix-product weight has imaginary residue {vals.imag[i]:g} "
                f"against real part {vals.real[i]:g} at configuration {i}"
            )
        vals = vals.real.copy()
    if not (vals > 0).all():
        raise NumericConsistencyError("matrix-product route produced a nonpositive weight")
    return WeightTable(n_sites=n, a=a, b=b, weights=vals, z=vals.sum())


def _heights(s) -> list[int]:
    """The height path s as ints, refused unless it is nonempty, starts at 0
    and steps by 0 or 1."""
    s = tuple(s)
    if not s or s[0] != 0:
        raise DomainError(f"height path must be nonempty and start at 0, got {s!r}")
    return [0, *accumulate(check_bits(y - x for x, y in zip(s, s[1:])))]


def two_line_weight(s1, s2, a, b):
    """Pair weight b^(s1(N)-s2(N)) * (ab)^(-min_j (s1(j)-s2(j)))."""
    check_ab(a, b)
    v1 = _heights(s1)
    v2 = _heights(s2)
    if len(v1) != len(v2):
        raise DomainError(f"path lengths differ: {len(v1) - 1} vs {len(v2) - 1}")
    diff = [x - y for x, y in zip(v1, v2)]
    return b ** diff[-1] * (a * b) ** (-min(diff))


def f_n_enumerate(tau, a, b, exact: bool = False):
    """Sum of pair weights over every second walk; equals p_N(tau).

    `exact=True` sums in Fraction arithmetic: the walks are grouped by their
    (d_N, min_j d_j), on which alone the pair weight depends, and each group
    adds count * b^(d_N) (ab)^(-min d).
    """
    bits = check_bits(tau)
    n = len(bits)
    check_size(n, ENUMERATION_CAP)
    check_ab(a, b)
    s1 = np.concatenate([[0], np.cumsum(bits)])
    heights = np.ascontiguousarray(all_height_paths(n).T)
    if not exact:
        return float(np.sum(_pair_weight_row(s1, heights, float(a), float(b))))
    a, b = Fraction(a), Fraction(b)
    keys, counts = np.unique(np.stack(_end_and_min(s1, heights)), axis=1, return_counts=True)
    return sum((count * b ** d * (a * b) ** (-m)
                for (d, m), count in zip(keys.T.tolist(), counts.tolist())), Fraction(0))


def _end_and_min(s1: np.ndarray, heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """End value and minimum of the difference walk s1 - s2 for every column
    s2 of `heights`, all_height_paths transposed to C order: each path's
    minimum then runs across n+1 rows, much faster than along 2^n short rows."""
    diff = s1[:, None] - heights
    return diff[-1], diff.min(axis=0)


def _pair_weight_row(s1: np.ndarray, heights: np.ndarray, a: float, b: float) -> np.ndarray:
    """Pair weights of the height path s1 against every column of `heights`."""
    d, mins = _end_and_min(s1, heights)
    return b ** d.astype(float) * (a * b) ** (-mins.astype(float))


def tle_enumerate(n: int, a: float, b: float) -> TwoLineTable:
    """Full joint table of pair weights over all 4^N path pairs."""
    check_size(n, PAIR_ENUMERATION_CAP)
    check_ab(a, b)
    a, b = float(a), float(b)
    heights = np.ascontiguousarray(all_height_paths(n).T)
    size = 1 << n
    joint = np.empty((size, size))
    for i in range(size):
        joint[i] = _pair_weight_row(heights[:, i], heights, a, b)
    c = joint.sum() / 4.0 ** n
    return TwoLineTable(n_sites=n, a=a, b=b, joint=joint, c=c)


@dataclass(frozen=True)
class MarginalReport:
    """Outcome of comparing the top-line marginal against the recursion."""

    n_sites: int
    a: float
    b: float
    tol: float
    max_abs_error: float
    passed: bool


def verify_marginal_identity(n: int, a: float, b: float, tol: float) -> MarginalReport:
    """Compare the enumerated pair-ensemble s1-marginal with the normalized
    recursion weights; failures are reported, not raised."""
    marginal = tle_enumerate(n, a, b).s1_marginal()
    marginal /= marginal.sum()
    rec = stationary_weights_recursive(n, a, b)
    err = float(np.max(np.abs(marginal - rec.probabilities())))
    return MarginalReport(n, float(a), float(b), tol, err, err <= tol)
