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

Everything here computes on tuples and lists of Python floats with math,
bisect and itertools, so importing ldp loads no NumPy.  Profile.at returns
what np.interp returns, bit for bit, and the mesh is np.union1d(np.linspace(0,
1, mesh + 1), knots) element for element, so the closed forms give the same
floats as an array implementation would; the solver's sums run in their own
order.  The mean-density rates (rate_density, rate_density_variational and
the variational K) are scalar and live in core; they are re-exported here.
Only finite_n_ldp_check loads NumPy, through the sampler it calls.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, pairwise
from numbers import Real
from operator import lt, mul, sub, truediv

from .core import (  # the density rates are core's, re-exported here
    DomainError,
    ResourceLimitError,
    _softplus,
    check_ab,
    entropy_h,
    fan_K_variational,
    fan_region_K,
    normalization_K,
    rate_density,
    rate_density_variational,
    shock_K_variational,
    shock_region_K,
)

SLOPE_TOL = 1e-9  # slopes within this of [0, 1] count as admissible
# largest mesh of rate_height_variational: about ten lists of mesh + 1 Python
# floats, ~32 B per cell per list (an 8 B pointer and a 24 B float object)
MESH_CAP = 10**6


def _diff(xs) -> list[float]:
    return [x1 - x0 for x0, x1 in pairwise(xs)]


def _argmin(xs) -> int:
    """Index of the first minimum, as np.argmin."""
    return min(range(len(xs)), key=xs.__getitem__)


def _union(xs, ys) -> list[float]:
    """The sorted distinct points of xs and ys, as np.union1d."""
    return sorted({*xs, *ys})


def _mesh(knots, mesh: int) -> list[float]:
    """np.union1d(np.linspace(0, 1, mesh + 1), knots), element for element:
    linspace's points are i * (1 / mesh), with the last one set to 1."""
    step = 1.0 / mesh
    grid = [i * step for i in range(mesh)] + [1.0]
    extra = [k for k in knots if grid[bisect_left(grid, k)] != k]
    return sorted(grid + extra)  # two sorted runs, merged in linear time


@dataclass(frozen=True)
class Profile:
    """Piecewise-linear profile on [0, 1] with f(0) = 0.

    Slopes outside [0, 1] are allowed at construction; rate evaluators
    return +inf for them.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        ks = tuple(map(float, self.knots))
        vs = tuple(map(float, self.values))
        if len(ks) != len(vs) or len(ks) < 2:
            raise DomainError("profile needs matching knots/values, length >= 2")
        if not all(map(math.isfinite, ks + vs)):
            raise DomainError("profile knots and values must be finite")
        if ks[0] != 0.0 or ks[-1] != 1.0:
            raise DomainError("profile knots must start at 0 and end at 1")
        if not all(map(lt, ks, ks[1:])):
            raise DomainError("profile knots must be strictly increasing")
        if vs[0] != 0.0:
            raise DomainError("profile must satisfy f(0) = 0")
        object.__setattr__(self, "knots", ks)
        object.__setattr__(self, "values", vs)

    @classmethod
    def linear(cls, r: float) -> "Profile":
        return cls((0.0, 1.0), (0.0, float(r)))

    @cached_property
    def slopes(self) -> tuple[float, ...]:
        return tuple(map(truediv, _diff(self.values), _diff(self.knots)))

    @property
    def admissible(self) -> bool:
        return all(-SLOPE_TOL <= s <= 1.0 + SLOPE_TOL for s in self.slopes)

    def at(self, x):
        """f(x) as np.interp computes it, bit for bit; a sequence of points
        gives a list."""
        ks, vs, slopes = self.knots, self.values, self.slopes
        last = len(ks) - 1

        def one(t):
            j = bisect_right(ks, t) - 1
            if j < 0:
                return vs[0]
            if j == last or ks[j] == t:
                return vs[j]
            return slopes[j] * (t - ks[j]) + vs[j]

        return one(x) if isinstance(x, Real) else list(map(one, x))

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
        i = bisect_right(self.edges, x) - 1
        return self.levels[min(max(i, 0), len(self.levels) - 1)]

    def integral_profile(self) -> Profile:
        """The profile x -> int_0^x of this step function."""
        areas = map(mul, _diff(self.edges), self.levels)
        return Profile(self.edges, (0.0, *accumulate(areas)))


def _h_slope(s: float) -> float:
    """Entropy of a slope with tolerance for float roundoff at 0 and 1."""
    if s < -SLOPE_TOL or s > 1.0 + SLOPE_TOL:
        return math.inf
    return entropy_h(min(max(s, 0.0), 1.0))


def entropy_integral(f: Profile) -> float:
    """int_0^1 h(f'(x)) dx, exactly; +inf if any slope is inadmissible."""
    total = 0.0
    for width, s in zip(_diff(f.knots), f.slopes):
        h = _h_slope(s)
        if math.isinf(h):
            return math.inf
        total += width * h
    return total


def _min_difference(f: Profile, g: Profile) -> tuple[float, float]:
    """(min over [0,1] of f-g, leftmost attaining point); exact at knots."""
    xs = _union(f.knots, g.knots)
    diff = list(map(sub, f.at(xs), g.at(xs)))
    i = _argmin(diff)
    return diff[i], xs[i]


def rate_two_line(f1: Profile, f2: Profile, a: float, b: float) -> float:
    """Rate of the pair (f1, f2); zero exactly at the law-of-large-numbers
    pair (the second line concentrates at slope a/(1+a) in the LD phase,
    1/(1+b) in the HD phase, 1/2 at the triple point)."""
    check_ab(a, b)
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
    check_ab(a, b)
    if a * b > 1.0:
        raise DomainError(f"optimal_G needs ab <= 1, got ab = {a * b:g}")
    slopes = fe.slopes
    if any(s1 < s0 - SLOPE_TOL for s0, s1 in zip(slopes, slopes[1:])):
        raise DomainError("fe must be convex (nondecreasing slopes)")
    lo = a / (1.0 + a)
    hi = 1.0 / (1.0 + b)
    levels = [min(max(s, lo), hi) for s in slopes]
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
        kept.append(lev)
        edges.append(fe.knots[i + 1])
    return MonotoneStep(tuple(edges), tuple(kept), x1=x1, x2=x2)


def J_star(f: Profile, G: MonotoneStep) -> float:
    """int f' log G + (1 - f') log(1 - G), exactly on the merged breakpoints."""
    if any(not 0.0 < lev < 1.0 for lev in G.levels):
        raise DomainError("G must stay strictly inside (0, 1)")
    total = 0.0
    for x0, x1 in pairwise(_union(f.knots, G.edges)):
        mid = 0.5 * (x0 + x1)
        slope = f.slopes[bisect_right(f.knots, mid) - 1]
        lev = G.at(mid)
        total += (x1 - x0) * (slope * math.log(lev) + (1.0 - slope) * math.log1p(-lev))
    return total


def J_upper(f: Profile, g: Profile, a: float, b: float) -> float:
    """int h(g') + log(ab) min(f - g) - log(b) (f(1) - g(1)), exactly."""
    check_ab(a, b)
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
    check_ab(a, b)
    hf = entropy_integral(f)
    if math.isinf(hf):
        region = "shock" if a * b >= 1.0 else "fan"
        return HeightRateReport(math.inf, region, None, None, None)
    if a * b >= 1.0:
        # two-integral objective; piecewise linear in the crossover y, so the
        # minimum over y is attained at a knot of f
        ks, fs = f.knots, f.values
        h_vals = [entropy_h(min(max(s, 0.0), 1.0)) for s in f.slopes]
        # cumulative int_0^y h(f'), evaluated at knots
        cum_h = [0.0, *accumulate(map(mul, _diff(ks), h_vals))]
        log_a, log_b = math.log(a), math.log(b)
        log1p_a, log1p_b = math.log1p(a), math.log1p(b)
        objective = [
            (c + y * log_a - x * log1p_a)
            + ((cum_h[-1] - c) + ((1.0 - x) - (fs[-1] - y)) * log_b - (1.0 - x) * log1p_b)
            for x, y, c in zip(ks, fs, cum_h)
        ]
        i = _argmin(objective)
        rate = objective[i] - shock_region_K(a, b)
        return HeightRateReport(rate, "shock", ks[i], None, None)
    fe = convex_envelope(f)
    g_star = optimal_G(fe, a, b)
    rate = hf + J_star(fe, g_star) - fan_region_K(a, b)
    return HeightRateReport(rate, "fan", None, g_star.x1, g_star.x2)


@dataclass(frozen=True)
class VariationalResult:
    """Mesh minimum of J_upper: the rate at the minimizing second line g_opt,
    and gap = primal - dual, so the mesh minimum lies in [rate - gap, rate]
    up to rounding."""

    rate: float
    g_opt: Profile
    gap: float


def _sigmoid(z: float) -> float:
    return math.exp(-_softplus(-z))


def _per_cell(fn, z) -> list[float]:
    """fn(z_i) for each cell, calling fn once per distinct logit: the solvers'
    z is constant between the mass points of mu."""
    values = {v: fn(v) for v in set(z)}
    return list(map(values.__getitem__, z))


def _cell_entropy(z: float) -> float:
    """h(sigmoid(z)) written sigmoid(z) z - softplus(z), which has no log 0."""
    return _sigmoid(z) * z - _softplus(z)


def _mesh_primal(z, w, fX, log_ab, log_b) -> tuple[float, list[float]]:
    """J_upper and g on the mesh for cell slopes sigmoid(z)."""
    gX = [0.0, *accumulate(map(mul, w, _per_cell(_sigmoid, z)))]
    value = (sum(map(mul, w, _per_cell(_cell_entropy, z)))
             + log_ab * min(map(sub, fX, gX)) - log_b * (fX[-1] - gX[-1]))
    return value, gX


def _shock_mesh_solve(X, w, fX, log_ab, log_b) -> tuple[list[float], float]:
    """Logits of the minimizer, and the minimum, for log ab >= 0: for each
    point X_t, cells left of it take c = log a and cells right of it -log b."""
    log_a = log_ab - log_b
    soft_a, soft_b, end = _softplus(log_a), _softplus(-log_b), log_b * fX[-1]
    per_point = [log_ab * y - x * soft_a - (1.0 - x) * soft_b - end
                 for x, y in zip(X, fX)]
    t = _argmin(per_point)
    return [log_a] * t + [-log_b] * (len(w) - t), per_point[t]


_FW_ITERATIONS = 2000   # pairwise Frank-Wolfe cap; the gap is reported either way
_FW_TOL = 1e-10         # duality gap at which the fan solve stops


def _fan_mesh_solve(X, w, fX, log_ab, log_b) -> tuple[list[float], float]:
    """Logits of the Lagrangian minimizer, and the dual value, for log ab < 0.
    Pairwise Frank-Wolfe (Lacoste-Julien & Jaggi 2015) moves mu-mass from the
    support point of largest D to the point of smallest D, with an exact line
    search by bisection on the monotone directional derivative; its gap
    lam (mu.D - min D) is primal - dual."""
    lam = -log_ab
    mu = [0.0] * len(X)
    s0 = _sigmoid(-log_b)
    mu[_argmin([y - x * s0 for x, y in zip(X, fX)])] = 1.0
    for iteration in range(_FW_ITERATIONS + 1):
        # z_i = -lam M_i - log b, with M_i the mu-mass at points >= X_{i+1}
        tail_mass = list(accumulate(reversed(mu)))
        z = [-lam * m - log_b for m in tail_mass[-2::-1]]
        D = list(map(sub, fX, accumulate(map(mul, w, _per_cell(_sigmoid, z)), initial=0.0)))
        j = _argmin(D)
        support = [i for i, m in enumerate(mu) if m]
        gap = lam * (sum(mu[i] * D[i] for i in support) - D[j])
        if gap <= _FW_TOL or iteration == _FW_ITERATIONS:
            break
        k = max(support, key=D.__getitem__)
        # moving mass gamma from k to j adds -lam sign gamma to z on the cells
        # between them; lam * slope(gamma) is the dual's directional derivative
        sign, lo, hi = (1.0, k, j) if j > k else (-1.0, j, k)
        widths: dict[float, float] = {}  # total width of the cells at each z
        for v, width in zip(z[lo:hi], w[lo:hi]):
            widths[v] = widths.get(v, 0.0) + width

        def slope(gamma: float) -> float:
            shift = lam * sign * gamma
            return (sign * sum(width * _sigmoid(v - shift) for v, width in widths.items())
                    - fX[j] + fX[k])

        gamma = mu[k]
        if slope(gamma) < 0.0:
            left, right = 0.0, gamma
            for _ in range(60):
                mid = 0.5 * (left + right)
                left, right = (mid, right) if slope(mid) >= 0.0 else (left, mid)
            gamma = left
        mu[j] += gamma
        mu[k] -= gamma
    mu_f = sum(mu[i] * fX[i] for i in support)
    return z, -sum(map(mul, w, _per_cell(_softplus, z))) - lam * mu_f - log_b * fX[-1]


def rate_height_variational(f: Profile, a: float, b: float,
                            mesh: int = 200) -> VariationalResult:
    """Numerical height rate: the exact minimum of J_upper over second lines
    piecewise linear on linspace(0, 1, mesh + 1) joined with the knots of f,
    with its duality gap.  It uses no convex envelope, G_* or y_*, so it
    checks the closed forms independently."""
    check_ab(a, b)
    if mesh < 50:
        raise DomainError("mesh must be >= 50")
    if mesh > MESH_CAP:
        raise ResourceLimitError(f"mesh={mesh} above the cap {MESH_CAP}")
    hf = entropy_integral(f)
    if math.isinf(hf):
        return VariationalResult(math.inf, Profile.linear(0.0), 0.0)
    X = _mesh(f.knots, mesh)
    w, fX = _diff(X), f.at(X)
    log_ab, log_b = math.log(a * b), math.log(b)
    solve = _shock_mesh_solve if log_ab >= 0.0 else _fan_mesh_solve
    z, dual = solve(X, w, fX, log_ab, log_b)
    primal, gX = _mesh_primal(z, w, fX, log_ab, log_b)
    return VariationalResult(primal + hf - normalization_K(a, b),
                             Profile(tuple(X), tuple(gX)), primal - dual)


def _pav_nondecreasing(targets: list[float], weights: list[float]) -> list[float]:
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
    return [m for m, c in zip(means, counts) for _ in range(c)]


def sup_over_G(f: Profile, a: float, b: float, mesh: int = 200) -> float:
    """Maximize int f' log G + (1-f') log(1-G) over nondecreasing step G on
    the mesh with values in [a/(1+a), 1/(1+b)] (requires ab <= 1).

    Cellwise the objective is a concave Bernoulli log-likelihood, so the
    isotonic maximizer is pool-adjacent-violators on the cell slopes followed
    by clamping to the value interval.
    """
    check_ab(a, b)
    if a * b > 1.0:
        raise DomainError(f"sup_over_G needs ab <= 1, got ab = {a * b:g}")
    if mesh < 2:
        raise DomainError("mesh must be >= 2")
    edges = _mesh(f.knots, mesh)
    lens, incs = _diff(edges), _diff(f.at(edges))
    iso = _pav_nondecreasing(list(map(truediv, incs, lens)), lens)
    lo = a / (1.0 + a)
    hi = 1.0 / (1.0 + b)
    return sum(d * math.log(g) + (width - d) * math.log1p(-g)
               for d, width, g in zip(incs, lens, (min(max(v, lo), hi) for v in iso)))


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
    from .two_line_sampler import _endpoint_log_pmf  # only this check needs the sampler

    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0, 1], got {r!r}")
    log_pmf = _endpoint_log_pmf(n, a, b)
    k = int(round(r * n))
    empirical = -float(log_pmf[k]) / n
    closed = rate_density(r, a, b)
    return FiniteNCheck(n=n, r=r, empirical_rate=empirical,
                        closed_rate=closed, gap=empirical - closed)
