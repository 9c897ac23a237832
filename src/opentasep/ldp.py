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

rate_height_variational checks the closed forms independently: it minimizes
J_upper exactly over g piecewise linear on a mesh X (a uniform grid joined
with the knots of f, so the mesh minimum is the continuum one).  A cell of
width w and slope s adds w (h(s) - c s), minimized at s = sigmoid(c) with
value -w softplus(c).  With D = f - g on X, the shock half swaps
log(ab) min_t D_t = min_t log(ab) D_t, after which the cells separate for
each t.  The fan half maximizes over probability vectors mu on X the
concave dual -sum_i w_i softplus(z_i) - lam mu.f(X) - log(b) f(1), where
lam = -log(ab), z_i = -lam M_i - log b and M_i is the mu-mass at points
>= X_{i+1}; its gradient is lam (g_mu(X) - f(X)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    ResourceLimitError,
    entropy_h,
    fan_region_K,
    normalization_K,
    phase_info,
    relative_entropy,
    shock_region_K,
)
from .two_line_sampler import _endpoint_log_pmf

SLOPE_TOL = 1e-9  # slopes within this of [0, 1] count as admissible
MESH_CAP = 10**6  # largest mesh of rate_height_variational (~10 arrays of mesh doubles)


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


@dataclass(frozen=True)
class VariationalResult:
    """Mesh minimum of J_upper: the rate at the minimizing second line g_opt,
    and gap = primal - dual, so the mesh minimum lies in [rate - gap, rate]
    up to rounding."""

    rate: float
    g_opt: Profile
    gap: float


def _sigmoid(z):
    return np.exp(-np.logaddexp(0.0, -z))


def _mesh_primal(z, w, fX, log_ab, log_b) -> tuple[float, np.ndarray]:
    """J_upper and g on the mesh for cell slopes sigmoid(z); h(sigmoid(z)) is
    written sigmoid(z) z - softplus(z), which has no log 0."""
    s = _sigmoid(z)
    gX = np.concatenate([[0.0], np.cumsum(w * s)])
    value = (w @ (s * z - np.logaddexp(0.0, z)) + log_ab * (fX - gX).min()
             - log_b * (fX[-1] - gX[-1]))
    return float(value), gX


def _shock_mesh_solve(X, w, fX, log_ab, log_b) -> tuple[np.ndarray, float]:
    """Logits of the minimizer, and the minimum, for log ab >= 0: for each
    point X_t, cells left of it take c = log a and cells right of it -log b."""
    log_a = log_ab - log_b
    per_point = (log_ab * fX - X * np.logaddexp(0.0, log_a)
                 - (1.0 - X) * np.logaddexp(0.0, -log_b) - log_b * fX[-1])
    t = int(np.argmin(per_point))
    return np.where(np.arange(w.size) < t, log_a, -log_b), float(per_point[t])


_FW_ITERATIONS = 2000   # pairwise Frank-Wolfe cap; the gap is reported either way
_FW_TOL = 1e-10         # duality gap at which the fan solve stops


def _fan_mesh_solve(X, w, fX, log_ab, log_b) -> tuple[np.ndarray, float]:
    """Logits of the Lagrangian minimizer, and the dual value, for log ab < 0.
    Pairwise Frank-Wolfe (Lacoste-Julien & Jaggi 2015) moves mu-mass from the
    support point of largest D to the point of smallest D, with an exact line
    search by bisection on the monotone directional derivative; its gap
    lam (mu.D - min D) is primal - dual."""
    lam = -log_ab
    mu = np.zeros(X.size)
    mu[int(np.argmin(fX - X * _sigmoid(-log_b)))] = 1.0
    for iteration in range(_FW_ITERATIONS + 1):
        z = -lam * np.cumsum(mu[::-1])[::-1][1:] - log_b
        D = fX - np.concatenate([[0.0], np.cumsum(w * _sigmoid(z))])
        j = int(np.argmin(D))
        if lam * (mu @ D - D[j]) <= _FW_TOL or iteration == _FW_ITERATIONS:
            break
        support = np.flatnonzero(mu)
        k = int(support[np.argmax(D[support])])
        # moving mass gamma from k to j adds -lam sign gamma to z on the cells
        # between them; lam * slope(gamma) is the dual's directional derivative
        sign, lo, hi = (1.0, k, j) if j > k else (-1.0, j, k)

        def slope(gamma: float) -> float:
            return sign * (w[lo:hi] @ _sigmoid(z[lo:hi] - lam * sign * gamma)) - fX[j] + fX[k]

        gamma = mu[k]
        if slope(gamma) < 0.0:
            left, right = 0.0, gamma
            for _ in range(60):
                mid = 0.5 * (left + right)
                left, right = (mid, right) if slope(mid) >= 0.0 else (left, mid)
            gamma = left
        mu[j] += gamma
        mu[k] -= gamma
    return z, float(-(w @ np.logaddexp(0.0, z)) - lam * (mu @ fX) - log_b * fX[-1])


def rate_height_variational(f: Profile, a: float, b: float,
                            mesh: int = 200) -> VariationalResult:
    """Numerical height rate: the exact minimum of J_upper over second lines
    piecewise linear on linspace(0, 1, mesh + 1) joined with the knots of f,
    with its duality gap.  It uses no convex envelope, G_* or y_*, so it
    checks the closed forms independently."""
    if mesh < 50:
        raise DomainError("mesh must be >= 50")
    if mesh > MESH_CAP:
        raise ResourceLimitError(f"mesh={mesh} above the cap {MESH_CAP}")
    hf = entropy_integral(f)
    if math.isinf(hf):
        return VariationalResult(math.inf, Profile.linear(0.0), 0.0)
    X = np.union1d(np.linspace(0.0, 1.0, mesh + 1), f.knots)
    w, fX = np.diff(X), f.at(X)
    log_ab, log_b = math.log(a * b), math.log(b)
    solve = _shock_mesh_solve if log_ab >= 0.0 else _fan_mesh_solve
    z, dual = solve(X, w, fX, log_ab, log_b)
    primal, gX = _mesh_primal(z, w, fX, log_ab, log_b)
    return VariationalResult(primal + hf - normalization_K(a, b),
                             Profile(tuple(X), tuple(gX)), primal - dual)


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
