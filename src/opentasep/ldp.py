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
each t.  The fan half dualizes min_t D_t with a probability vector on X;
the cell logit z_i is then log(ab) times the mass at points >= X_{i+1},
minus log b, so z is nondecreasing in [log a, -log b] and the concave dual
is sum_i [df_i (z_i + log b) - w_i softplus(z_i)] - log(b) f(1), with df_i
the rise of f over cell i.  As the df_i sum to f(1), that is sum_i [df_i z_i
- w_i softplus(z_i)]: with G = sigmoid(z), the literature's sup over
nondecreasing G in [a/(1+a), 1/(1+b)] of int f' log G + (1 - f') log(1 - G)
(sup_over_G), and pool-adjacent-violators on the cell slopes, clamped in
logit, solves it exactly.  optimal_G, MonotoneStep and J_star hold G by that
clamped logit too, G = sigmoid(level), and every path takes (log a, log b),
so no ab, a/(1+a) or 1/(1+b) can round.

Everything here computes on tuples and lists of Python floats with math,
bisect and itertools, so importing ldp loads no NumPy.  Profile.at returns
what np.interp returns, bit for bit, and the mesh is np.union1d(np.linspace(0,
1, MESH_CELLS + 1), knots) element for element, so the closed forms give the
same floats as an array implementation would; the solver's sums run in their
own order.  The mean-density rates (rate_density, rate_density_variational
and the variational K) are scalar and live in core; they are re-exported here.
Only finite_n_ldp_check loads NumPy, through the sampler it calls.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, pairwise
from numbers import Real
from operator import lt, mul, sub, truediv

from .core import (  # the density rates are core's, re-exported here
    DomainError,
    _softplus,
    check_ab,
    entropy_h,
    fan_K_variational,
    normalization_K,
    rate_density,
    rate_density_variational,
    shock_K_variational,
)

SLOPE_TOL = 1e-9  # slopes within this of [0, 1] count as admissible
MESH_CELLS = 200  # uniform cells of the variational mesh, before the knots join


def _diff(xs) -> list[float]:
    return [x1 - x0 for x0, x1 in pairwise(xs)]


def _argmin(xs) -> int:
    """Index of the first minimum, as np.argmin."""
    return min(range(len(xs)), key=xs.__getitem__)


def _union(xs, ys) -> list[float]:
    """The sorted distinct points of xs and ys, as np.union1d."""
    return sorted({*xs, *ys})


def _mesh(knots) -> list[float]:
    """np.union1d(np.linspace(0, 1, MESH_CELLS + 1), knots), element for
    element: linspace's points are i * (1 / MESH_CELLS), the last one set to 1."""
    step = 1.0 / MESH_CELLS
    return _union([i * step for i in range(MESH_CELLS)] + [1.0], knots)


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
    """Nondecreasing right-continuous step function G on [0, 1], held by its
    logit: levels[i] is logit G on [edges[i], edges[i+1]), G = sigmoid(level).
    x1 and x2, when set, bound the interval where the clamp in the fan-region
    optimum is inactive.
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
        if not all(map(math.isfinite, ls)):
            raise DomainError("step levels must be finite logits")
        if any(l1 < l0 - 1e-12 for l0, l1 in zip(ls, ls[1:])):
            raise DomainError("step levels must be nondecreasing")
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "levels", ls)

    def at(self, x: float) -> float:
        """Right-continuous evaluation."""
        i = bisect_right(self.edges, x) - 1
        return self.levels[min(max(i, 0), len(self.levels) - 1)]

    def integral_profile(self) -> Profile:
        """The profile x -> int_0^x G, with G = sigmoid(level)."""
        areas = map(mul, _diff(self.edges), map(_sigmoid, self.levels))
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


def _min_difference(f: Profile, g: Profile) -> float:
    """min over [0,1] of f - g; exact at knots."""
    xs = _union(f.knots, g.knots)
    return min(map(sub, f.at(xs), g.at(xs)))


def rate_two_line(f1: Profile, f2: Profile, a: float, b: float) -> float:
    """Rate of the pair (f1, f2); zero exactly at the law-of-large-numbers
    pair (the second line concentrates at slope a/(1+a) in the LD phase,
    1/(1+b) in the HD phase, 1/2 at the triple point)."""
    return entropy_integral(f1) + J_upper(f1, f2, a, b) - normalization_K(a, b)


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


def _sigmoid(z: float) -> float:
    return math.exp(-_softplus(-z))


def _clamped_logit(p: float, log_a: float, log_b: float) -> float:
    """logit p clamped to [log a, -log b]; p <= 0 and p >= 1 take the ends."""
    if not 0.0 < p < 1.0:
        return log_a if p <= 0.0 else -log_b
    return min(max(math.log(p) - math.log1p(-p), log_a), -log_b)


def optimal_G(fe: Profile, a: float, b: float) -> MonotoneStep:
    """Fan-region optimal slope profile: fe' clamped to [a/(1+a), 1/(1+b)],
    held by its clamped logit, G = sigmoid(level).

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
    log_a, log_b = math.log(a), math.log(b)
    levels = [_clamped_logit(s, log_a, log_b) for s in slopes]
    lo, hi = a / (1.0 + a), 1.0 / (1.0 + b)
    # x1 = inf{x : fe'(x) >= lo}, x2 = sup{x <= 1 : fe'(x) < hi}
    x1 = next((x for x, s in zip(fe.knots, slopes) if s >= lo), 1.0)
    x2 = next((x for x, s in zip(fe.knots[:0:-1], slopes[::-1]) if s < hi), 0.0)
    edges = [fe.knots[0]]
    kept = []
    for i, lev in enumerate(levels):
        if kept and lev == kept[-1]:
            edges[-1] = fe.knots[i + 1]
            continue
        kept.append(lev)
        edges.append(fe.knots[i + 1])
    return MonotoneStep(tuple(edges), tuple(kept), x1=x1, x2=x2)


def J_star(f: Profile, G: MonotoneStep) -> float:
    """int f' log G + (1 - f') log(1 - G), exactly on the merged breakpoints:
    a cell of slope s where G = sigmoid(z) adds its width times s z - softplus(z)."""
    total = 0.0
    for x0, x1 in pairwise(_union(f.knots, G.edges)):
        mid = 0.5 * (x0 + x1)
        slope = f.slopes[bisect_right(f.knots, mid) - 1]
        z = G.at(mid)
        total += (x1 - x0) * (slope * z - _softplus(z))
    return total


def J_upper(f: Profile, g: Profile, a: float, b: float) -> float:
    """int h(g') + log(ab) min(f - g) - log(b) (f(1) - g(1)), exactly."""
    check_ab(a, b)
    hg = entropy_integral(g)
    if math.isinf(hg):
        return math.inf
    dmin = _min_difference(f, g)
    log_b = math.log(b)
    return hg + (math.log(a) + log_b) * dmin - log_b * (f.endpoint() - g.endpoint())


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
        h_vals = [_h_slope(s) for s in f.slopes]
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
        rate = objective[i] - normalization_K(a, b)
        return HeightRateReport(rate, "shock", ks[i], None, None)
    fe = convex_envelope(f)
    g_star = optimal_G(fe, a, b)
    rate = hf + J_star(fe, g_star) - normalization_K(a, b)
    return HeightRateReport(rate, "fan", None, g_star.x1, g_star.x2)


@dataclass(frozen=True)
class VariationalResult:
    """Mesh minimum of J_upper: the rate at the minimizing second line g_opt,
    and gap = primal - dual, so the mesh minimum lies in [rate - gap, rate]
    up to rounding."""

    rate: float
    g_opt: Profile
    gap: float


def _cell_entropy(z: float) -> float:
    """h(sigmoid(z)) written sigmoid(z) z - softplus(z), which has no log 0."""
    return _sigmoid(z) * z - _softplus(z)


def _running_sums(xs) -> list[float]:
    """0 and the running sums of xs, compensated (Neumaier): _mesh_primal
    multiplies their differences by log a and log b, up to ~700 in size."""
    out, s, c = [0.0], 0.0, 0.0
    for x in xs:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
        out.append(s + c)
    return out


def _mesh_primal(z, w, fX, log_a, log_b) -> tuple[float, list[float]]:
    """J_upper and g on the mesh for cell slopes sigmoid(z)."""
    gX = _running_sums(map(mul, w, map(_sigmoid, z)))
    value = (sum(map(mul, w, map(_cell_entropy, z)))
             + (log_a + log_b) * min(map(sub, fX, gX)) - log_b * (fX[-1] - gX[-1]))
    return value, gX


def _shock_mesh_solve(X, w, fX, log_a, log_b) -> tuple[list[float], float]:
    """Logits of the minimizer, and the minimum, for ab >= 1: for each
    point X_t, cells left of it take c = log a and cells right of it -log b."""
    log_ab = log_a + log_b
    soft_a, soft_b, end = _softplus(log_a), _softplus(-log_b), log_b * fX[-1]
    per_point = [log_ab * y - x * soft_a - (1.0 - x) * soft_b - end
                 for x, y in zip(X, fX)]
    t = _argmin(per_point)
    return [log_a] * t + [-log_b] * (len(w) - t), per_point[t]


def _fan_mesh_solve(X, w, fX, log_a, log_b) -> tuple[list[float], float]:
    """Logits of the Lagrangian minimizer, and the dual value, for ab <= 1.
    The dual sum_i [df_i z_i - w_i softplus(z_i)], with df_i the rise of f
    over cell i, is a Bernoulli log-likelihood in z over nondecreasing z in
    [log a, -log b].  So sigmoid(z) is the weighted pool-adjacent-violators
    fit of the cell slopes of f, clamped in logit."""
    df = _diff(fX)
    z = [_clamped_logit(p, log_a, log_b)
         for p in _pav_nondecreasing(list(map(truediv, df, w)), w)]
    return z, sum(d * zi - wi * _softplus(zi) for d, wi, zi in zip(df, w, z))


def rate_height_variational(f: Profile, a: float, b: float) -> VariationalResult:
    """Numerical height rate: the exact minimum of J_upper over second lines
    piecewise linear on linspace(0, 1, MESH_CELLS + 1) joined with the knots
    of f, with its duality gap.  It uses no convex envelope, G_* or y_*, so
    it checks the closed forms independently."""
    check_ab(a, b)
    hf = entropy_integral(f)
    if math.isinf(hf):
        return VariationalResult(math.inf, Profile.linear(0.0), 0.0)
    X = _mesh(f.knots)
    w, fX = _diff(X), f.at(X)
    log_a, log_b = math.log(a), math.log(b)
    solve = _shock_mesh_solve if a * b >= 1.0 else _fan_mesh_solve
    z, dual = solve(X, w, fX, log_a, log_b)
    primal, gX = _mesh_primal(z, w, fX, log_a, log_b)
    return VariationalResult(primal + hf - normalization_K(a, b),
                             Profile(tuple(X), tuple(gX)), primal - dual)


def _pav_nondecreasing(targets: list[float], weights: list[float]) -> list[float]:
    """Pool-adjacent-violators for weighted isotonic means."""
    blocks = []  # (mean, weight, cells) of each pooled run of targets
    for t, w in zip(targets, weights):
        blocks.append((t, w, 1))
        while len(blocks) >= 2 and blocks[-2][0] >= blocks[-1][0]:
            (m2, w2, c2), (m1, w1, c1) = blocks.pop(), blocks.pop()
            blocks.append(((m1 * w1 + m2 * w2) / (w1 + w2), w1 + w2, c1 + c2))
    return [m for m, _, c in blocks for _ in range(c)]


def sup_over_G(f: Profile, a: float, b: float) -> float:
    """Maximize int f' log G + (1-f') log(1-G) over nondecreasing step G on
    the variational mesh with values in [a/(1+a), 1/(1+b)] (requires ab <= 1).

    In the logit z of G the objective is the fan half's dual of the mesh
    minimum of J_upper, so it is _fan_mesh_solve's dual value.
    """
    check_ab(a, b)
    if a * b > 1.0:
        raise DomainError(f"sup_over_G needs ab <= 1, got ab = {a * b:g}")
    X = _mesh(f.knots)
    return _fan_mesh_solve(X, _diff(X), f.at(X), math.log(a), math.log(b))[1]


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
