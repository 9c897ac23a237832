"""Boundary parameterization, input-domain checks, phase diagram, entropy
primitives, and the mean-density rate function of the open-boundary TASEP.

The boundary is parameterized by a, b > 0, the only pair BoundaryParams
stores and the one every module works in.  The injection/extraction rates

    alpha = 1/(1 + a),    beta = 1/(1 + b)

are derived from it; only the Markov oracle uses them.  A configuration is
a 0/1 tuple (tau_1, ..., tau_N), which check_bits vets; its height function
is the partial sums H(k) = tau_1 + ... + tau_k, a path started at 0 with
increments in {0, 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

LOG4 = math.log(4.0)

# Maximum |log a| (or |log b|) accepted when building parameters from the
# scaling window; beyond this exp() is useless anyway.
_MAX_LOG_PARAM = 500.0


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ResourceLimitError(RuntimeError):
    """A requested size exceeds an enumeration or memory cap."""


class NumericConsistencyError(ArithmeticError):
    """An internal numerical self-check failed."""


def check_size(n: int, cap: int) -> None:
    """Refuse a system size outside 1..cap."""
    if not 1 <= n <= cap:
        raise ResourceLimitError(f"n={n} outside supported range 1..{cap}")


def check_bytes(nbytes: int, cap: int, what: str) -> None:
    """Refuse `what` (a phrase like "storing 10 paths") when the nbytes it
    allocates exceed cap, before any of it is attempted."""
    if nbytes > cap:
        raise ResourceLimitError(
            f"{what} needs ~{nbytes / 1e9:.1f} GB, over the {cap / 1e9:g} GB cap")


def check_ab(a: float, b: float) -> None:
    """Refuse (a, b) unless both are positive and finite; NaN never passes."""
    for name, val in (("a", a), ("b", b)):
        if not 0.0 < val < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {val!r}")


def check_rates(alpha: float, beta: float) -> None:
    """Refuse boundary rates outside (0, 1); NaN never passes."""
    for name, rate in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < rate < 1.0:
            raise DomainError(f"{name} must lie in (0, 1), got {rate!r}")


def check_uv(u: float, v: float) -> None:
    """Refuse non-finite scaling-window parameters (u, v); NaN never passes."""
    for name, val in (("u", u), ("v", v)):
        if not -math.inf < val < math.inf:
            raise DomainError(f"{name} must be finite, got {val!r}")


def check_bits(bits: Iterable[int]) -> tuple[int, ...]:
    """The configuration as a tuple of ints, refused unless every entry is 0
    or 1; NaN never passes."""
    bits = tuple(bits)
    if not all(bit in (0, 1) for bit in bits):
        raise DomainError(f"configuration entries must be 0 or 1, got {bits!r}")
    return tuple(map(int, bits))


@dataclass(frozen=True)
class BoundaryParams:
    """The boundary parameters (a, b), both positive and finite.

    The rates alpha = 1/(1+a) and beta = 1/(1+b) are derived; at extreme
    (a, b) they round to 1, which only the Markov oracle refuses.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        check_ab(self.a, self.b)

    @property
    def alpha(self) -> float:
        return 1.0 / (1.0 + self.a)

    @property
    def beta(self) -> float:
        return 1.0 / (1.0 + self.b)


def params_from_rates(alpha: float, beta: float) -> BoundaryParams:
    """Build parameters from the boundary rates: a = (1-alpha)/alpha,
    b = (1-beta)/beta."""
    check_rates(alpha, beta)
    return BoundaryParams((1.0 - alpha) / alpha, (1.0 - beta) / beta)


def params_from_ab(a: float, b: float) -> BoundaryParams:
    """Build parameters from (a, b) directly."""
    return BoundaryParams(a, b)


def params_from_scaling(u: float, v: float, n: int) -> BoundaryParams:
    """Parameters of the size-n system in the triple-point scaling window,
    a = exp(-u/sqrt(n)) and b = exp(-v/sqrt(n))."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    check_uv(u, v)
    root = math.sqrt(n)
    for name, val in (("u", u), ("v", v)):
        if abs(val / root) > _MAX_LOG_PARAM:
            raise DomainError(f"|{name}|/sqrt(n) too large: {abs(val) / root:g}")
    return BoundaryParams(math.exp(-u / root), math.exp(-v / root))


@dataclass(frozen=True)
class PhaseInfo:
    """Phase-diagram classification of a parameter point (a, b).

    region is one of "MC", "LD", "HD".  fan means ab < 1, shock means ab > 1.
    On the coexistence line a = b > 1 the density is not self-averaging; we
    report the LD branch value 1/(1+a) and set coexistence=True (the K and
    rate formulas are symmetric under the branch choice there).
    """

    region: str
    rho_bar: float
    fan: bool
    shock: bool
    coexistence: bool


def phase_info(a: float, b: float) -> PhaseInfo:
    """Classify (a, b) and return the limiting particle density rho_bar."""
    check_ab(a, b)
    if a > 1.0 and a >= b:
        region, rho = "LD", 1.0 / (1.0 + a)
    elif b > 1.0:
        region, rho = "HD", b / (1.0 + b)
    else:
        region, rho = "MC", 0.5
    return PhaseInfo(
        region=region,
        rho_bar=rho,
        fan=a * b < 1.0,
        shock=a * b > 1.0,
        coexistence=(a == b and a > 1.0),
    )


def _log_k(m: float) -> float:
    """log(m/(1+m)^2), written so that it neither overflows nor cancels."""
    return math.log(m) - 2.0 * math.log1p(m)


def normalization_K(a: float, b: float) -> float:
    """Additive normalization K(a, b) = log(rho_bar (1 - rho_bar)) on both
    halves, that is log(m/(1+m)^2) at m = max(a, b, 1): m = a in LD, b in HD
    and 1 in MC."""
    check_ab(a, b)
    return _log_k(max(a, b, 1.0))


def log_c_growth_rate(a: float, b: float) -> float:
    """Limit of log(c_N)/N for the two-line normalizing constant c_N.

    Equals -(K(a, b) + log 4) = -log(4 rho_bar (1 - rho_bar)); zero exactly at
    the triple point a = b = 1 where the pair weight is identically 1.
    """
    return -(normalization_K(a, b) + LOG4)


def entropy_h(x: float) -> float:
    """x log x + (1-x) log(1-x) on [0, 1] (with 0 log 0 = 0), +inf outside."""
    if not 0.0 <= x <= 1.0:
        return math.inf
    out = 0.0
    if x > 0.0:
        out += x * math.log(x)
    if x < 1.0:
        out += (1.0 - x) * math.log(1.0 - x)
    return out


def relative_entropy(x: float, y: float) -> float:
    """Bernoulli relative entropy h(x|y) = x log(x/y) + (1-x) log((1-x)/(1-y)).

    Defined for x in [0, 1] (+inf outside) and y in (0, 1); the 0 log 0 = 0
    convention applies at the endpoints of x.
    """
    if not (0.0 < y < 1.0):
        raise DomainError(f"reference probability y must lie in (0, 1), got {y!r}")
    if not 0.0 <= x <= 1.0:
        return math.inf
    out = 0.0
    if x > 0.0:
        out += x * math.log(x / y)
    if x < 1.0:
        out += (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    return out


def _softplus(x: float) -> float:
    """log(1 + e^x), written so that it neither overflows nor cancels."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _single_piece(r: float, a: float, b: float) -> tuple[float, float]:
    """(phi_a(r), phi_b(r)): the density objective of one low-density piece,
    phi_a(t) = h(t) + t log a - log(1+a), and of one high-density piece,
    phi_b(t) = h(t) + (1-t) log b - log(1+b)."""
    h = entropy_h(r)
    return h + r * math.log(a) - math.log1p(a), h + (1.0 - r) * math.log(b) - math.log1p(b)


def rate_density(r: float, a: float, b: float) -> float:
    """Closed-form rate of the mean density; +inf outside [0, 1].

    Fan half (ab <= 1): phi_a below a/(1+a), phi_b above 1/(1+b) and the
    product-Bernoulli branch 2 h(r) between.  Shock half (ab > 1): the middle
    branch is linear in r and vanishes identically on the coexistence line
    a = b > 1.  No branch uses a reference probability 1/(1+a) or b/(1+b),
    which rounds to 1 at extreme (a, b).
    """
    check_ab(a, b)
    if not 0.0 <= r <= 1.0:
        return math.inf
    ra = a / (1.0 + a)      # fan: lower branch boundary
    rb = 1.0 / (1.0 + b)    # fan: upper branch boundary
    phi_a, phi_b = _single_piece(r, a, b)
    k = normalization_K(a, b)
    if a * b <= 1.0:
        if r < ra:
            return phi_a - k
        if r > rb:
            return phi_b - k
        return 2.0 * entropy_h(r) - k
    if r <= rb:
        return phi_a - k
    if r >= ra:
        return phi_b - k
    return r * (math.log(a) - math.log(b)) + math.log(b) - math.log1p(a) - math.log1p(b) - k


def _fan_density_objective(r: float, a: float, b: float) -> float:
    """h(r) + min over the second-line endpoint m of the coupled term:
    h(m) + (r - m) log a on [r, 1] or h(m) + (m - r) log b on [0, r].  Both
    are convex in m, stationary at a/(1+a) and 1/(1+b), so each minimizer is
    its stationary point clamped to its interval."""
    m_up = max(a / (1.0 + a), r)
    m_lo = min(1.0 / (1.0 + b), r)
    return entropy_h(r) + min(entropy_h(m_up) + (r - m_up) * math.log(a),
                              entropy_h(m_lo) + (m_lo - r) * math.log(b))


def fan_K_variational(a: float, b: float) -> float:
    """Normalization recovered variationally on ab <= 1: the minimum over r
    of the density objective.  On each triangle m >= r and m <= r the joint
    objective in (r, m) is convex, so its minimum is a stationary point of
    some face: r = 1/(1+a) or b/(1+b) (interior, or the edge m = 1 or m = 0),
    r = 1/2 (diagonal m = r), or r = 0 or 1 (edges and corners)."""
    check_ab(a, b)
    candidates = (0.0, 1.0, 0.5, 1.0 / (1.0 + a), b / (1.0 + b))
    return min(_fan_density_objective(r, a, b) for r in candidates)


def shock_K_variational(a: float, b: float) -> float:
    """Normalization recovered variationally on ab >= 1: free minimization
    over the crossover y and the two-piece endpoint values (F, G).  For fixed
    y the objective is y (min_t[h(t) + t log a] - log(1+a)) + (1-y)
    (min_t[h(t) - t log b] + log b - log(1+b)), affine in y, so the minimum
    over y sits at y = 0 or y = 1; min_t h(t) + c t = -softplus(-c)."""
    check_ab(a, b)
    log_a, log_b = math.log(a), math.log(b)
    return min(-math.log1p(a) - _softplus(-log_a),
               log_b - math.log1p(b) - _softplus(log_b))


def rate_density_variational(r: float, a: float, b: float) -> float:
    """Mean-density rate by scalar variational reduction over linear
    profiles, solved from its optimality conditions without the closed-form
    branches.

    Fan half: the density objective minus fan_K_variational.  Shock half: the
    minimum over the crossover y and the slope r_a on [0, y] of
    y phi_a(r_a) + (1-y) phi_b(r_b), with y r_a + (1-y) r_b = r, is the
    convex envelope of min(phi_a, phi_b) at r (phi_a, phi_b as in
    _single_piece).  By conjugate duality (Rockafellar, Convex Analysis,
    1970, sec. 16) that is the concave maximum over lam of
    lam r - max(phi_a*(lam), phi_b*(lam)), where
    phi_a*(lam) = softplus(lam - log a) + log(1+a) and
    phi_b*(lam) = softplus(lam + log b) - log b + log(1+b).  The maximum sits
    where one conjugate alone is stationary, lam = logit r + log a or
    logit r - log b, or where the two cross, which is only at log(a/b); every
    dual value is a lower bound, so the largest of the three is exact.  At
    r = 0 or 1 the envelope is min(phi_a(r), phi_b(r)).
    """
    check_ab(a, b)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0, 1], got {r!r}")
    if a * b <= 1.0:
        return _fan_density_objective(r, a, b) - fan_K_variational(a, b)
    if r in (0.0, 1.0):
        envelope = min(_single_piece(r, a, b))
    else:
        log_a, log_b = math.log(a), math.log(b)
        logit = math.log(r) - math.log1p(-r)
        envelope = max(
            lam * r - max(_softplus(lam - log_a) + math.log1p(a),
                          _softplus(lam + log_b) - log_b + math.log1p(b))
            for lam in (logit + log_a, logit - log_b, log_a - log_b)
        )
    return envelope - shock_K_variational(a, b)
