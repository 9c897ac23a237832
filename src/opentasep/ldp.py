"""Large-deviation rate functions for the pair ensemble, the height profile,
and the mean density, with independent variational cross-checks.

The pair rate functional is

    I(f1, f2) = int h(f1') + h(f2')  +  log(ab) min(f1 - f2)
                - log(b) (f1(1) - f2(1))  -  K(a, b),

with h the Bernoulli entropy and K(a, b) = log(rho_bar (1 - rho_bar)).
Contracting over the second line gives the height rate

    I(f) = int h(f') + inf_g J_upper(f, g) - K(a, b),
    J_upper(f, g) = int h(g') + log(ab) min(f - g) - log(b) (f(1) - g(1)),

whose closed forms differ between the shock half ab >= 1 (scalar minimum
over a crossover location y) and the fan half ab < 1 (convex envelope plus
the clamped slope profile G_*).  All integrals and minima are evaluated
exactly on piecewise-linear and step inputs by summation over breakpoint
intervals; min(f - g) is evaluated at knots, which is exact for
piecewise-linear f - g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DomainError,
    entropy_h,
    fan_region_K,
    normalization_K,
    phase_info,
    relative_entropy,
    shock_region_K,
)
from .rng import stream
from .two_line_sampler import _endpoint_log_pmf

SLOPE_TOL = 1e-9  # slopes within this of [0, 1] count as admissible


@dataclass(frozen=True)
class Profile:
    """Piecewise-linear profile on [0, 1] with f(0) = 0.

    Slopes outside [0, 1] are allowed at construction; rate evaluators
    return +inf for them.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        ks = tuple(float(x) for x in self.knots)
        vs = tuple(float(y) for y in self.values)
        if len(ks) != len(vs) or len(ks) < 2:
            raise DomainError("profile needs matching knots/values, length >= 2")
        if ks[0] != 0.0 or ks[-1] != 1.0:
            raise DomainError("profile knots must start at 0 and end at 1")
        if any(x1 <= x0 for x0, x1 in zip(ks, ks[1:])):
            raise DomainError("profile knots must be strictly increasing")
        if vs[0] != 0.0:
            raise DomainError("profile must satisfy f(0) = 0")
        object.__setattr__(self, "knots", ks)
        object.__setattr__(self, "values", vs)

    @classmethod
    def linear(cls, r: float) -> "Profile":
        return cls((0.0, 1.0), (0.0, float(r)))

    @classmethod
    def from_slopes(cls, slopes: Sequence[float]) -> "Profile":
        slopes = np.asarray(slopes, dtype=float)
        knots = np.linspace(0.0, 1.0, slopes.size + 1)
        values = np.concatenate([[0.0], np.cumsum(slopes) / slopes.size])
        return cls(tuple(knots), tuple(values))

    @property
    def slopes(self) -> np.ndarray:
        ks = np.asarray(self.knots)
        vs = np.asarray(self.values)
        return np.diff(vs) / np.diff(ks)

    @property
    def admissible(self) -> bool:
        s = self.slopes
        return bool((s >= -SLOPE_TOL).all() and (s <= 1.0 + SLOPE_TOL).all())

    def at(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.knots, self.values)

    def endpoint(self) -> float:
        return self.values[-1]


@dataclass(frozen=True)
class MonotoneStep:
    """Nondecreasing right-continuous step function on [0, 1].

    levels[i] is the value on [edges[i], edges[i+1]); x1 and x2, when set,
    bound the interval where the clamp in the fan-region optimum is inactive.
    """

    edges: tuple[float, ...]
    levels: tuple[float, ...]
    x1: float | None = None
    x2: float | None = None

    def __post_init__(self) -> None:
        es = tuple(float(x) for x in self.edges)
        ls = tuple(float(y) for y in self.levels)
        if len(es) != len(ls) + 1 or len(ls) < 1:
            raise DomainError("step function needs len(edges) = len(levels) + 1")
        if es[0] != 0.0 or es[-1] != 1.0:
            raise DomainError("step edges must span [0, 1]")
        if any(x1 <= x0 for x0, x1 in zip(es, es[1:])):
            raise DomainError("step edges must be strictly increasing")
        if any(l1 < l0 - 1e-12 for l0, l1 in zip(ls, ls[1:])):
            raise DomainError("step levels must be nondecreasing")
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "levels", ls)

    def at(self, x: float) -> float:
        """Right-continuous evaluation."""
        i = np.searchsorted(self.edges, x, side="right") - 1
        return self.levels[min(max(int(i), 0), len(self.levels) - 1)]

    def integral_profile(self) -> Profile:
        """The profile x -> int_0^x of this step function."""
        lens = np.diff(self.edges)
        vals = np.concatenate([[0.0], np.cumsum(lens * np.asarray(self.levels))])
        return Profile(self.edges, tuple(vals))


def _h_slope(s: float) -> float:
    """Entropy of a slope with tolerance for float roundoff at 0 and 1."""
    if s < -SLOPE_TOL or s > 1.0 + SLOPE_TOL:
        return math.inf
    return entropy_h(min(max(s, 0.0), 1.0))


def entropy_integral(f: Profile) -> float:
    """int_0^1 h(f'(x)) dx, exactly; +inf if any slope is inadmissible."""
    total = 0.0
    ks = f.knots
    for i, s in enumerate(f.slopes):
        h = _h_slope(float(s))
        if math.isinf(h):
            return math.inf
        total += (ks[i + 1] - ks[i]) * h
    return total


def _min_difference(f: Profile, g: Profile) -> tuple[float, float]:
    """(min over [0,1] of f-g, leftmost attaining point); exact at knots."""
    xs = np.union1d(f.knots, g.knots)
    diff = f.at(xs) - g.at(xs)
    i = int(np.argmin(diff))
    return float(diff[i]), float(xs[i])


def rate_two_line(f1: Profile, f2: Profile, a: float, b: float) -> float:
    """Rate of the pair (f1, f2); zero exactly at the law-of-large-numbers
    pair (the second line concentrates at slope a/(1+a) in the LD phase,
    1/(1+b) in the HD phase, 1/2 at the triple point)."""
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")
    h1 = entropy_integral(f1)
    h2 = entropy_integral(f2)
    if math.isinf(h1) or math.isinf(h2):
        return math.inf
    dmin, _ = _min_difference(f1, f2)
    return (
        h1
        + h2
        + math.log(a * b) * dmin
        - math.log(b) * (f1.endpoint() - f2.endpoint())
        - normalization_K(a, b)
    )


def convex_envelope(f: Profile) -> Profile:
    """Largest convex function below f: the lower convex hull of its knots."""
    pts = list(zip(f.knots, f.values))
    hull: list[tuple[float, float]] = []
    for p in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (p[0] - x0) * (y1 - y0) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return Profile(tuple(x for x, _ in hull), tuple(y for _, y in hull))


def optimal_G(fe: Profile, a: float, b: float) -> MonotoneStep:
    """Fan-region optimal slope profile: fe' clamped to [a/(1+a), 1/(1+b)].

    Requires ab <= 1 (the clamp interval is nonempty; it degenerates to a
    single point at ab = 1, giving a constant step).  Reports the bounds
    (x1, x2) of the region where the clamp is inactive, with the conventions
    x1 = 1 when fe' stays below the lower bound and x2 = 0 when fe' starts at
    or above the upper bound.
    """
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")
    if a * b > 1.0:
        raise DomainError(f"optimal_G needs ab <= 1, got ab = {a * b:g}")
    slopes = fe.slopes
    if any(s1 < s0 - SLOPE_TOL for s0, s1 in zip(slopes, slopes[1:])):
        raise DomainError("fe must be convex (nondecreasing slopes)")
    lo = a / (1.0 + a)
    hi = 1.0 / (1.0 + b)
    levels = np.clip(slopes, lo, hi)
    # x1 = inf{x : fe'(x) >= lo}, x2 = sup{x <= 1 : fe'(x) < hi}
    x1 = 1.0
    for i, s in enumerate(slopes):
        if s >= lo:
            x1 = fe.knots[i]
            break
    x2 = 0.0
    for i in range(len(slopes) - 1, -1, -1):
        if slopes[i] < hi:
            x2 = fe.knots[i + 1]
            break
    edges = [fe.knots[0]]
    kept = []
    for i, lev in enumerate(levels):
        if kept and abs(lev - kept[-1]) <= 1e-15:
            edges[-1] = fe.knots[i + 1]
            continue
        kept.append(float(lev))
        edges.append(fe.knots[i + 1])
    return MonotoneStep(tuple(edges), tuple(kept), x1=x1, x2=x2)


def J_star(f: Profile, G: MonotoneStep) -> float:
    """int f' log G + (1 - f') log(1 - G), exactly on the merged breakpoints."""
    if any(not 0.0 < lev < 1.0 for lev in G.levels):
        raise DomainError("G must stay strictly inside (0, 1)")
    xs = np.union1d(f.knots, G.edges)
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        mid = 0.5 * (x0 + x1)
        i = np.searchsorted(f.knots, mid, side="right") - 1
        slope = f.slopes[int(i)]
        lev = G.at(mid)
        total += (x1 - x0) * (slope * math.log(lev) + (1.0 - slope) * math.log1p(-lev))
    return float(total)


def J_upper(f: Profile, g: Profile, a: float, b: float) -> float:
    """int h(g') + log(ab) min(f - g) - log(b) (f(1) - g(1)), exactly."""
    hg = entropy_integral(g)
    if math.isinf(hg):
        return math.inf
    dmin, _ = _min_difference(f, g)
    return hg + math.log(a * b) * dmin - math.log(b) * (f.endpoint() - g.endpoint())


@dataclass(frozen=True)
class HeightRateReport:
    rate: float
    region: str              # "shock" (ab >= 1) or "fan"
    y_star: float | None     # shock crossover location
    x1: float | None         # fan clamp bounds
    x2: float | None


def rate_height_report(f: Profile, a: float, b: float) -> HeightRateReport:
    """Closed-form height rate with its diagnostics."""
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")
    hf = entropy_integral(f)
    if math.isinf(hf):
        region = "shock" if a * b >= 1.0 else "fan"
        return HeightRateReport(math.inf, region, None, None, None)
    if a * b >= 1.0:
        # two-integral objective; piecewise linear in the crossover y, so the
        # minimum over y is attained at a knot of f
        ks = np.asarray(f.knots)
        fs = np.asarray(f.values)
        slopes = np.clip((fs[1:] - fs[:-1]) / (ks[1:] - ks[:-1]), 0.0, 1.0)
        lens = np.diff(ks)
        h_vals = np.array([entropy_h(s) for s in slopes])
        # cumulative int_0^y h(f'), evaluated at knots
        cum_h = np.concatenate([[0.0], np.cumsum(lens * h_vals)])
        log_a, log_b = math.log(a), math.log(b)
        first = cum_h + fs * log_a - ks * math.log1p(a)
        second = (cum_h[-1] - cum_h) + ((1.0 - ks) - (fs[-1] - fs)) * log_b \
            - (1.0 - ks) * math.log1p(b)
        objective = first + second
        i = int(np.argmin(objective))
        rate = float(objective[i]) - shock_region_K(a, b)
        return HeightRateReport(rate, "shock", float(ks[i]), None, None)
    fe = convex_envelope(f)
    g_star = optimal_G(fe, a, b)
    rate = hf + J_star(fe, g_star) - fan_region_K(a, b)
    return HeightRateReport(rate, "fan", None, g_star.x1, g_star.x2)


def rate_height_closed(f: Profile, a: float, b: float) -> float:
    """Closed-form rate of the height profile f (shock or fan dispatch)."""
    return rate_height_report(f, a, b).rate


class _MeshObjective:
    """Exact evaluator of J_upper(f, g) for g piecewise linear on a uniform
    mesh, with incremental coordinate updates.

    State: slope vector s (one slope per cell), difference values
    D_t = f(X_t) - g(X_t) on the merged evaluation points X (mesh nodes plus
    the knots of f), and the endpoint g(1).
    """

    def __init__(self, f: Profile, a: float, b: float, mesh: int):
        self.f = f
        self.mesh = mesh
        self.log_ab = math.log(a * b)
        self.log_b = math.log(b)
        self.width = 1.0 / mesh
        grid = np.linspace(0.0, 1.0, mesh + 1)
        self.X = np.union1d(grid, np.asarray(f.knots))
        self.fX = f.at(self.X)
        self.f1 = f.endpoint()
        # overlap of [0, X_t] with cell i, as a (mesh, npts) matrix
        cells = np.arange(mesh)[:, None]
        self.overlap = np.clip(self.X[None, :] - cells * self.width, 0.0, self.width)

    def set_slopes(self, s: np.ndarray) -> None:
        self.s = np.asarray(s, dtype=float).copy()
        gX = self.s @ self.overlap
        self.D = self.fX - gX
        self.g1 = float(self.s.sum() * self.width)
        self.h_terms = np.array([entropy_h(min(max(v, 0.0), 1.0)) for v in self.s])

    def value(self) -> float:
        return (
            float(self.h_terms.sum() * self.width)
            + self.log_ab * float(self.D.min())
            - self.log_b * (self.f1 - self.g1)
        )

    def coordinate_best(self, i: int, candidates: np.ndarray) -> float:
        """Objective value for each candidate slope of cell i."""
        delta = self.s[i] - candidates  # D shifts by +delta * overlap
        d_cand = self.D[None, :] + delta[:, None] * self.overlap[i][None, :]
        mins = d_cand.min(axis=1)
        h_cand = np.array([entropy_h(min(max(v, 0.0), 1.0)) for v in candidates])
        h_total = (self.h_terms.sum() - self.h_terms[i] + h_cand) * self.width
        g1_cand = self.g1 + (candidates - self.s[i]) * self.width
        return h_total + self.log_ab * mins - self.log_b * (self.f1 - g1_cand)

    def update(self, i: int, new: float) -> None:
        delta = self.s[i] - new
        self.D += delta * self.overlap[i]
        self.g1 += (new - self.s[i]) * self.width
        self.h_terms[i] = entropy_h(min(max(new, 0.0), 1.0))
        self.s[i] = new


def _coordinate_descent(obj: _MeshObjective, s0: np.ndarray,
                        sweeps: int = 40, levels: int = 3, fan: int = 13) -> float:
    """Cyclic coordinate descent with per-coordinate nested grid refinement.

    The minimum-difference term is piecewise linear (and nonsmooth) in each
    slope, so the 1D subproblems are solved by direct candidate evaluation
    instead of derivative steps; min ties resolve to the leftmost attaining
    evaluation point inside _MeshObjective.
    """
    obj.set_slopes(np.clip(s0, 0.0, 1.0))
    best = obj.value()
    for _ in range(sweeps):
        for i in range(obj.mesh):
            lo, hi = 0.0, 1.0
            cur = obj.s[i]
            for _level in range(levels):
                cands = np.linspace(lo, hi, fan)
                cands = np.append(cands, cur)
                vals = obj.coordinate_best(i, cands)
                k = int(np.argmin(vals))
                cur = float(cands[k])
                span = (hi - lo) / (fan - 1)
                lo, hi = max(0.0, cur - span), min(1.0, cur + span)
            if cur != obj.s[i]:
                obj.update(i, cur)
        val = obj.value()
        improved = best - val
        best = min(best, val)
        if improved < 1e-12:
            break
    return best


@dataclass(frozen=True)
class VariationalResult:
    """Outcome of the numerical minimization of J_upper over second lines.

    candidates holds the per-strategy values; gap is their spread (a
    convergence diagnostic, small when every strategy found the optimum).
    """

    rate: float
    candidates: dict
    g_opt: Profile
    gap: float


def _structured_shock_value(f: Profile, a: float, b: float):
    """Exact minimum of J_upper over the two-piece family g_y with
    g_y(y) = a y/(1+a) and g_y(1) = g_y(y) + (1-y)/(1+b)."""
    def at(y: float) -> float:
        return J_upper(f, _structured_profile(y, a, b), a, b)

    ys = sorted(set(list(f.knots) + np.linspace(0.0, 1.0, 257).tolist()))
    vals = [at(y) for y in ys]
    i = int(np.argmin(vals))
    best_val, best_y = vals[i], ys[i]
    lo = ys[max(0, i - 1)]
    hi = ys[min(len(ys) - 1, i + 1)]
    val, y = _golden_min(at, lo, hi)
    if val < best_val:
        best_val, best_y = val, y
    return best_val, _structured_profile(best_y, a, b)


def _structured_profile(y: float, a: float, b: float) -> Profile:
    fy = a * y / (1.0 + a)
    g1 = fy + (1.0 - y) / (1.0 + b)
    if y <= 0.0:
        return Profile((0.0, 1.0), (0.0, 1.0 / (1.0 + b)))
    if y >= 1.0:
        return Profile((0.0, 1.0), (0.0, a / (1.0 + a)))
    return Profile((0.0, y, 1.0), (0.0, fy, g1))


def rate_height_variational(f: Profile, a: float, b: float,
                            mesh: int = 200, multistarts: int = 20,
                            seed: int = 20240) -> VariationalResult:
    """Numerical height rate: minimize J_upper over mesh-discretized second
    lines (warm-started, plus random multistarts); in the shock half the
    exact two-piece family is evaluated as an additional candidate.

    Returns the best candidate; the solver confirms the closed forms rather
    than assuming them beyond warm starts.
    """
    if mesh < 50:
        raise DomainError("mesh must be >= 50")
    hf = entropy_integral(f)
    if math.isinf(hf):
        return VariationalResult(math.inf, {}, Profile.linear(0.0), 0.0)
    obj = _MeshObjective(f, a, b, mesh)
    shift = hf - normalization_K(a, b)
    candidates: dict[str, float] = {}
    best_val = math.inf
    best_g: Profile | None = None

    def consider(name: str, val: float, g: Profile) -> None:
        nonlocal best_val, best_g
        candidates[name] = val + shift
        if val < best_val:
            best_val = val
            best_g = g

    grid = np.linspace(0.0, 1.0, mesh + 1)
    if a * b >= 1.0:
        struct_val, struct_g = _structured_shock_value(f, a, b)
        consider("structured", struct_val, struct_g)
        warm = np.diff(struct_g.at(grid)) * mesh
    else:
        g_star = optimal_G(convex_envelope(f), a, b).integral_profile()
        warm = np.diff(g_star.at(grid)) * mesh
    val = _coordinate_descent(obj, warm)
    consider("warm_descent", val, Profile.from_slopes(obj.s))
    rng = stream(seed, 0)
    for k in range(multistarts):
        s0 = rng.uniform(0.0, 1.0, size=mesh)
        val = _coordinate_descent(obj, s0, sweeps=25)
        if val < candidates.get("multistart_descent", math.inf) - shift:
            consider("multistart_descent", val, Profile.from_slopes(obj.s))
    rate = best_val + shift
    vals = list(candidates.values())
    gap = float(max(vals) - min(vals)) if vals else 0.0
    return VariationalResult(rate=rate, candidates=candidates,
                             g_opt=best_g if best_g is not None else Profile.linear(0.0),
                             gap=gap)


def _pav_nondecreasing(targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators for weighted isotonic means."""
    means = []
    ws = []
    counts = []
    for t, w in zip(targets, weights):
        means.append(t)
        ws.append(w)
        counts.append(1)
        while len(means) >= 2 and means[-2] >= means[-1]:
            m2, w2, c2 = means.pop(), ws.pop(), counts.pop()
            m1, w1, c1 = means.pop(), ws.pop(), counts.pop()
            means.append((m1 * w1 + m2 * w2) / (w1 + w2))
            ws.append(w1 + w2)
            counts.append(c1 + c2)
    out = np.empty(targets.size)
    pos = 0
    for m, c in zip(means, counts):
        out[pos : pos + c] = m
        pos += c
    return out


def sup_over_G(f: Profile, a: float, b: float, mesh: int = 200) -> float:
    """Maximize int f' log G + (1-f') log(1-G) over nondecreasing step G on
    the mesh with values in [a/(1+a), 1/(1+b)] (requires ab <= 1).

    Cellwise the objective is a concave Bernoulli log-likelihood, so the
    isotonic maximizer is pool-adjacent-violators on the cell slopes followed
    by clamping to the value interval.
    """
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")
    if a * b > 1.0:
        raise DomainError(f"sup_over_G needs ab <= 1, got ab = {a * b:g}")
    if mesh < 2:
        raise DomainError("mesh must be >= 2")
    edges = np.union1d(np.linspace(0.0, 1.0, mesh + 1), np.asarray(f.knots))
    fvals = f.at(edges)
    lens = np.diff(edges)
    incs = np.diff(fvals)
    slopes = incs / lens
    iso = _pav_nondecreasing(slopes, lens)
    lo = a / (1.0 + a)
    hi = 1.0 / (1.0 + b)
    g = np.clip(iso, lo, hi)
    val = float(np.sum(incs * np.log(g) + (lens - incs) * np.log1p(-g)))
    return val


def rate_density(r: float, a: float, b: float) -> float:
    """Closed-form rate of the mean density; +inf outside [0, 1].

    Fan half (ab <= 1): boundary-matched relative entropies with a product-
    Bernoulli middle branch.  Shock half (ab > 1): the middle branch is linear
    in r and vanishes identically on the coexistence line a = b > 1.
    """
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")
    if r < 0.0 or r > 1.0:
        return math.inf
    ra = a / (1.0 + a)      # fan: lower branch boundary
    rb = 1.0 / (1.0 + b)    # fan: upper branch boundary
    if a * b <= 1.0:
        k = fan_region_K(a, b)
        if r < ra:
            val = relative_entropy(r, 1.0 / (1.0 + a)) + math.log(a / (1.0 + a) ** 2)
        elif r > rb:
            val = relative_entropy(r, b / (1.0 + b)) + math.log(b / (1.0 + b) ** 2)
        else:
            val = 2.0 * relative_entropy(r, 0.5) + math.log(0.25)
        return val - k
    k = shock_region_K(a, b)
    if r <= rb:
        val = relative_entropy(r, 1.0 / (1.0 + a)) + math.log(a / (1.0 + a) ** 2)
    elif r >= ra:
        val = relative_entropy(r, b / (1.0 + b)) + math.log(b / (1.0 + b) ** 2)
    else:
        val = r * math.log(a / b) + math.log(b / ((1.0 + a) * (1.0 + b)))
    return val - k


def _golden_min(fn, lo: float, hi: float, iters: int = 80):
    """Golden-section minimum of a scalar function on [lo, hi]."""
    if hi <= lo:
        return fn(lo), lo
    invphi = 0.381966011250105
    x1 = lo + invphi * (hi - lo)
    x2 = hi - invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = lo + invphi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = hi - invphi * (hi - lo)
            f2 = fn(x2)
    xs = [lo, x1, x2, hi]
    vals = [fn(x) for x in xs]
    i = int(np.argmin(vals))
    return vals[i], xs[i]


def _grid_then_golden(fn, lo: float, hi: float, grid: int = 257):
    xs = np.linspace(lo, hi, grid)
    vals = np.array([fn(x) for x in xs])
    i = int(np.argmin(vals))
    left = xs[max(0, i - 1)]
    right = xs[min(grid - 1, i + 1)]
    val, x = _golden_min(fn, left, right)
    if vals[i] < val:
        return float(vals[i]), float(xs[i])
    return float(val), float(x)


def _fan_density_objective(r: float, a: float, b: float) -> float:
    """h(r) + min over the second-line endpoint m of the coupled term."""
    log_a, log_b = math.log(a), math.log(b)

    def upper(m):  # m >= r branch
        return entropy_h(m) + (r - m) * log_a

    def lower(m):  # m <= r branch
        return entropy_h(m) + (m - r) * log_b

    v1, _ = _golden_min(upper, r, 1.0)
    v2, _ = _golden_min(lower, 0.0, r)
    return entropy_h(r) + min(v1, v2)


def fan_K_variational(a: float, b: float) -> float:
    """Normalization recovered variationally on ab <= 1: the infimum over r
    of the scalar-reduced density objective."""
    val, _ = _grid_then_golden(lambda r: _fan_density_objective(r, a, b), 0.0, 1.0)
    return val


def shock_K_variational(a: float, b: float) -> float:
    """Normalization recovered variationally on ab >= 1: free minimization
    over the crossover y and the two-piece endpoint values (F, G)."""
    log_a, log_b = math.log(a), math.log(b)

    def value_at(y: float) -> float:
        const = -y * math.log1p(a) + (1.0 - y) * (log_b - math.log1p(b))
        if y > 0.0:
            first, _ = _golden_min(lambda t: entropy_h(t) + t * log_a, 0.0, 1.0)
            first *= y
        else:
            first = 0.0
        if y < 1.0:
            second, _ = _golden_min(lambda t: entropy_h(t) - t * log_b, 0.0, 1.0)
            second *= 1.0 - y
        else:
            second = 0.0
        return const + first + second

    val, _ = _grid_then_golden(value_at, 0.0, 1.0, grid=65)
    return val


def rate_density_variational(r: float, a: float, b: float) -> float:
    """Mean-density rate by scalar variational reduction over linear
    profiles; matches rate_density to high accuracy."""
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")
    if r < 0.0 or r > 1.0:
        raise DomainError("r must lie in [0, 1]")
    if a * b <= 1.0:
        return _fan_density_objective(r, a, b) - fan_K_variational(a, b)
    log_a, log_b = math.log(a), math.log(b)

    def branch_a(t):  # slope on [0, y]
        return entropy_h(t) + t * log_a - math.log1p(a)

    def branch_b(t):  # slope on [y, 1]
        return entropy_h(t) + (1.0 - t) * log_b - math.log1p(b)

    def value_at(y: float) -> float:
        if y <= 0.0:
            return branch_b(r)
        if y >= 1.0:
            return branch_a(r)
        lo = max(0.0, (r - (1.0 - y)) / y)
        hi = min(1.0, r / y)
        if lo > hi:
            return math.inf

        def inner(ra_):
            rb_ = (r - y * ra_) / (1.0 - y)
            return y * branch_a(ra_) + (1.0 - y) * branch_b(rb_)

        val, _ = _golden_min(inner, lo, hi)
        return val

    val, _ = _grid_then_golden(value_at, 0.0, 1.0)
    return val - shock_K_variational(a, b)


@dataclass(frozen=True)
class FiniteNCheck:
    """Finite-size sanity of the density rate: empirical_rate is
    -(1/n) log P(H(n) = round(rn)) from the exact endpoint law; gap is
    empirical_rate - closed_rate (signed)."""

    n: int
    r: float
    empirical_rate: float
    closed_rate: float
    gap: float


def finite_n_ldp_check(n: int, a: float, b: float, r: float) -> FiniteNCheck:
    if r < 0.0 or r > 1.0:
        raise DomainError("r must lie in [0, 1]")
    log_pmf = _endpoint_log_pmf(n, a, b)
    k = int(round(r * n))
    empirical = -float(log_pmf[k]) / n
    closed = rate_density(r, a, b)
    return FiniteNCheck(n=n, r=r, empirical_rate=empirical,
                        closed_rate=closed, gap=empirical - closed)
