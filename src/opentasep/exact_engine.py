"""Exact unnormalized stationary weights of the open TASEP by three
independent routes, plus the pair-ensemble marginalization check.

Routes:
  * recursion "basic weight equations": p_1(0) = 1+a, p_1(1) = 1+b, and the
    three reduction rules (leading 0 strips a factor 1+a, trailing 1 strips
    1+b, a "10" factor splits into the two merged-site configurations);
  * matrix product <W| prod_j (tau_j D + (1-tau_j) E) |V> with bidiagonal
    D, E coupled through the real entry E[1,0] = 1-ab;
  * brute-force pair sum f_N(tau) = sum over second walks xi of the pair
    weight b^(d_N) (ab)^(-m_N) = b^gap a^depth, where d = s1 - s2, depth =
    -min_j d_j and gap = d_N + depth.  Each pair weight is evaluated exactly
    from Fraction(a), Fraction(b) (a float is an exact binary rational), then
    kept exact if a or b is a Fraction, else rounded once, inf included.

All three agree; the tests pin this down per configuration.

Configuration indexing: a configuration is a 0/1 tuple (tau_1, ..., tau_N)
and maps to the integer with bit j-1 equal to tau_j (tau_1 is the least
significant bit).  Its heights are the partial sums s_k = tau_1 + ... + tau_k
with s_0 = 0, so the same index identifies that height path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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

    joint: np.ndarray
    c: float | Fraction

    def s1_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)


def _rounded(w: np.ndarray, a, b) -> np.ndarray:
    """Exact weights w (Fractions) as they are if a or b is a Fraction, else
    each rounded once to the nearest double: inf from 2^1024 - 2^970, the
    least rational that rounds to inf (where float() would raise)."""
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return w
    return np.where(w < 2 ** 1024 - 2 ** 970, w, np.inf).astype(float)


def stationary_weights_recursive(n: int, a, b) -> WeightTable:
    """Bottom-up tables p_1, ..., p_N via the canonical reduction dispatch.

    Dispatch: a leading 0 strips (1+a); else a trailing 1 strips (1+b); else
    the string starts with 1 and ends with 0, so it contains "10" and the
    leftmost occurrence is split.  Consistency of the alternative reductions
    is a theorem and is tested, not assumed.

    Plain doubles are exact enough below the cap (weights are bounded by
    (1 + max(a,b))^N); a Fraction a or b gives Fraction weights.
    """
    check_size(n, ENUMERATION_CAP)
    check_ab(a, b)
    prev = _rounded(np.array([1 + Fraction(a), 1 + Fraction(b)]), a, b)
    one_a, one_b = prev
    for m in range(2, n + 1):
        cur = np.empty(1 << m, dtype=prev.dtype)
        top = 1 << (m - 1)
        cur[0::2] = one_a * prev  # tau_1 = 0
        cur[top + 1::2] = one_b * prev[1::2]  # tau_1 = tau_m = 1
        # the rest start with p ones (z = 2^p) and a 0: the leftmost "10", at
        # sites p, p+1, merges into a 1 or a 0 at site p, below the sites
        # p+2..m shifted down by one (rest)
        i = np.arange(1, top, 2)
        z = (i + 1) & ~i
        rest = i // (2 * z) * z
        cur[1:top:2] = prev[rest + z - 1] + prev[rest + z // 2 - 1]
        prev = cur
    z = prev.sum()
    return WeightTable(n_sites=n, a=a, b=b, weights=prev, z=z)


def _matrices(n: int, a: float, b: float):
    """(n+1)-truncated bidiagonal matrices; exact because a length-n product
    applied to <W| never leaves the first n+1 basis states.

    The textbook coupling sqrt(1-ab) on D[0,1] and E[1,0] enters every weight
    only squared; conjugating by diag(1, s, ..., s) moves it onto
    E[1,0] = 1-ab and fixes <W| and |V>."""
    d = np.eye(n + 1) + np.eye(n + 1, k=1)
    e = np.eye(n + 1) + np.eye(n + 1, k=-1)
    d[0, 0] = 1.0 + b
    e[0, 0] = 1.0 + a
    e[1, 0] = 1.0 - a * b
    return d, e


def stationary_weights_matrix(n: int, a: float, b: float) -> WeightTable:
    """Matrix-product weights <W| prod (tau_j D + (1-tau_j) E) |V>."""
    check_size(n, ENUMERATION_CAP)
    check_ab(a, b)
    a, b = float(a), float(b)
    d, e = _matrices(n, a, b)
    vecs = np.zeros((1, n + 1))
    vecs[0, 0] = 1.0
    for _ in range(n):
        # new configuration index = old index + 2^j * tau_{j+1}
        vecs = np.concatenate([vecs @ e, vecs @ d])
    vals = vecs[:, 0].copy()  # a view would keep every column alive
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
    """Pair weight b^(s1(N)-s2(N)) * (ab)^(-min_j (s1(j)-s2(j))), exact then _rounded."""
    check_ab(a, b)
    v1 = _heights(s1)
    v2 = _heights(s2)
    if len(v1) != len(v2):
        raise DomainError(f"path lengths differ: {len(v1) - 1} vs {len(v2) - 1}")
    diff = [x - y for x, y in zip(v1, v2)]
    w = Fraction(b) ** diff[-1] * (Fraction(a) * Fraction(b)) ** -min(diff)
    return _rounded(np.array(w), a, b).item()


def f_n_enumerate(tau, a, b):
    """Sum of pair weights over every second walk; equals p_N(tau).

    A float for float a and b; a Fraction a or b gives an exact Fraction sum.
    """
    bits = check_bits(tau)
    heights, grid = _pricing(len(bits), a, b, ENUMERATION_CAP)
    row = _pair_weight_row(heights[:, config_index(bits)], heights, grid)
    return np.sum(row, keepdims=True).item()


@lru_cache(maxsize=128, typed=True)  # typed: Fraction(1, 2) == 0.5 hashes alike, prices exactly
def _weight_grid(n: int, a, b) -> np.ndarray:
    """grid[gap, depth] = b^gap a^depth, exact then _rounded: the weight of
    every pair whose difference walk has minimum -depth and ends gap above it."""
    k = np.arange(n + 1).astype(object)  # a Fraction to an ndarray power is a float
    grid = _rounded(np.asarray(Fraction(b), object) ** k[:, None]
                    * np.asarray(Fraction(a), object) ** k, a, b)
    grid.flags.writeable = False
    return grid


def _pricing(n: int, a, b, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """all_height_paths(n) transposed to C order (so each minimum runs across
    n+1 rows, not along 2^n short ones), and the weight grid of (n, a, b)."""
    check_size(n, cap)
    check_ab(a, b)
    return np.ascontiguousarray(all_height_paths(n).T), _weight_grid(n, a, b)


def _pair_weight_row(s1: np.ndarray, heights: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Pair weights of the height path s1 against every column s2 of
    `heights`, looked up in `grid` (both from _pricing)."""
    diff = s1[:, None] - heights
    depth = -diff.min(axis=0)
    return grid[diff[-1] + depth, depth]


def _pair_weight_rows(n: int, a, b):
    """The joint table's rows, one at a time, in configuration-index order."""
    heights, grid = _pricing(n, a, b, PAIR_ENUMERATION_CAP)
    return (_pair_weight_row(heights[:, i], heights, grid) for i in range(1 << n))


def f_n_enumerate_all(n: int, a, b) -> np.ndarray:
    """f_N per configuration index: the joint's row sums, bit for bit, without it."""
    return np.array([np.sum(row) for row in _pair_weight_rows(n, a, b)])


def tle_enumerate(n: int, a, b) -> TwoLineTable:
    """Full joint table of pair weights over all 4^N path pairs."""
    rows = _pair_weight_rows(n, a, b)
    joint = np.fromiter(rows, dtype=(_weight_grid(n, a, b).dtype, 1 << n), count=1 << n)
    c = joint.sum() / 4 ** n
    return TwoLineTable(joint=joint, c=c)


@dataclass(frozen=True)
class MarginalReport:
    """Outcome of comparing the top-line marginal against the recursion."""

    max_abs_error: float
    passed: bool


def verify_marginal_identity(n: int, a: float, b: float, tol: float) -> MarginalReport:
    """Compare the enumerated pair-ensemble s1-marginal with the normalized
    recursion weights; failures are reported, not raised."""
    marginal = f_n_enumerate_all(n, a, b)
    marginal /= marginal.sum()
    rec = stationary_weights_recursive(n, a, b)
    err = float(np.max(np.abs(marginal - rec.probabilities())))
    return MarginalReport(err, err <= tol)
