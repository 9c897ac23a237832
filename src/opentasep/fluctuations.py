"""Scaling-window fluctuation experiment near the triple point.

The stationary height process at boundary parameters a = exp(-u/sqrt(N)),
b = exp(-v/sqrt(N)) is sampled through the pair ensemble and scaled as
W1(x) = (2 s1(floor(xN)) - floor(xN)) / sqrt(N).  The candidate limit is
B + X with independent components: B a Brownian motion of variance 1/2 and X
a variance-1/2 Brownian path reweighted by

    exp((u + v) min_{[0,1]} omega  -  v omega(1)) / kappa(u, v).

X is simulated by importance reweighting of variance-1/2 Brownian paths, with
self-normalized systematic resampling to produce unweighted paths for the
B + X sum.  simulate_limit_exact draws each path at the mesh points and the
exact minimum of its Brownian bridge across each mesh interval, so the tilt
sees the continuum minimum.  simulate_limit_process, the grid reference,
walks discretized paths and replaces the continuum minimum by the grid
minimum; refinement stability is part of the acceptance checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, check_bytes, check_mesh, check_uv, params_from_scaling
from .rng import stream
from .two_line_sampler import (
    TABLE_BYTES_CAP,
    build_partition_table,
    check_functionals_bytes,
    sample_functionals,
)

DEFAULT_MESH = (0.25, 0.5, 0.75, 1.0)
_BLOCK = 4096
ESS_WARN_FRACTION = 0.01


@dataclass(frozen=True)
class ScalingConfig:
    """One scaling-window experiment: boundary parameters (u, v), system size
    n, and the mesh of evaluation points (sorted, within [0,1], ending at 1)."""

    u: float
    v: float
    n: int
    mesh: tuple[float, ...] = DEFAULT_MESH

    def __post_init__(self) -> None:
        check_uv(self.u, self.v)
        if self.n < 1:
            raise DomainError("n must be >= 1")
        object.__setattr__(self, "mesh", check_mesh(self.mesh))

    def positions(self) -> list[int]:
        return [math.floor(x * self.n) for x in self.mesh]


@dataclass(frozen=True)
class ScaledSample:
    """Scaled processes at the mesh points, one row per sample."""

    w1: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray


def sample_scaled_processes(cfg: ScalingConfig, count: int, seed: int,
                            threads: int = 1) -> ScaledSample:
    p = params_from_scaling(cfg.u, cfg.v, cfg.n)
    positions = cfg.positions()
    check_functionals_bytes(count, len(positions))  # before the table is built
    # no local holds the table, so it is freed before the scaling below
    s1, d = sample_functionals(build_partition_table(cfg.n, p.a, p.b), count, seed,
                               positions, threads=threads)
    root = math.sqrt(cfg.n)
    ks = np.array(positions, dtype=float)
    w1 = (2.0 * s1 - ks) / root
    w_minus = d / root
    w_plus = w1 - w_minus
    return ScaledSample(w1=w1, w_plus=w_plus, w_minus=w_minus)


@dataclass(frozen=True)
class LimitEnsemble:
    """Weighted Brownian paths approximating the tilted component.

    omega_mesh holds the reference paths at the mesh points; weights are the
    raw (unnormalized) tilts, so kappa_hat is their plain mean.  ess is the
    effective sample size (sum w)^2 / sum w^2; degenerate flags ess below 1%
    of the sample count.  n_steps is the grid the paths were walked on, or 0
    for an exact ensemble (simulate_limit_exact).
    """

    u: float
    v: float
    n_steps: int
    mesh: tuple[float, ...]
    omega_mesh: np.ndarray
    weights: np.ndarray
    kappa_hat: float
    ess: float
    degenerate: bool

    @property
    def count(self) -> int:
        return self.weights.size

    def resample_x(self, count: int, seed: int) -> np.ndarray:
        """Unweighted tilted paths at the mesh points, via systematic
        resampling of the self-normalized weights."""
        rng = stream(seed, 0)
        w = self.weights / self.weights.sum()
        cum = np.cumsum(w)
        cum[-1] = 1.0
        marks = (np.arange(count) + rng.uniform()) / count
        idx = np.searchsorted(cum, marks, side="right")
        return self.omega_mesh[idx]

    def sample_b_plus_x(self, count: int, seed: int) -> np.ndarray:
        """Samples of B + X at the mesh points (B an independent Brownian
        motion of variance 1/2)."""
        x = self.resample_x(count, seed)
        rng = stream(seed, 1)
        gaps = np.diff(np.concatenate([[0.0], np.asarray(self.mesh)]))
        incr = rng.normal(0.0, 1.0, size=(count, gaps.size)) * np.sqrt(gaps / 2.0)
        return x + np.cumsum(incr, axis=1)


def check_limit_request(u: float, v: float, count: int, mesh: tuple[float, ...],
                        n_steps: int = 0) -> tuple[float, ...]:
    """Refuse a limit ensemble outside its domain or over the memory cap,
    before any work; returns the checked mesh.  n_steps is the grid of
    simulate_limit_process, whose working block holds min(4096, count) paths
    of n_steps points, or 0 for simulate_limit_exact, whose block holds a few
    arrays of that many paths at the mesh points."""
    check_uv(u, v)
    if count < 1:
        raise DomainError("count must be >= 1")
    mesh = check_mesh(mesh)
    block_cells = n_steps or 4 * len(mesh)
    check_bytes(8 * count * (len(mesh) + 1) + 8 * min(_BLOCK, count) * block_cells,
                TABLE_BYTES_CAP,  # omega_mesh and weights, plus one working block
                f"simulating {count} limit paths")
    return mesh


def _weighted_ensemble(u: float, v: float, n_steps: int, mesh: tuple[float, ...],
                       omega_mesh: np.ndarray, path_min: np.ndarray) -> LimitEnsemble:
    """The ensemble of paths omega_mesh (last column omega(1)) with minima
    path_min, each weighted by its raw tilt exp((u+v) * min - v * omega(1)).
    A tilt out of floating-point range (a weight or the ESS overflows, or
    every weight underflows to 0) leaves the ESS non-finite and is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp((u + v) * path_min - v * omega_mesh[:, -1])
        ess = float(weights.sum() ** 2 / np.square(weights).sum())
    if not math.isfinite(ess):
        raise DomainError(f"the limit tilt at (u, v) = ({u!r}, {v!r}) is out of "
                          "floating-point range for the weights or their ESS")
    return LimitEnsemble(
        u=u, v=v, n_steps=n_steps, mesh=mesh, omega_mesh=omega_mesh,
        weights=weights, kappa_hat=float(weights.mean()), ess=ess,
        degenerate=ess < ESS_WARN_FRACTION * weights.size,
    )


def simulate_limit_exact(u: float, v: float, count: int, seed: int,
                         mesh: tuple[float, ...] = DEFAULT_MESH) -> LimitEnsemble:
    """Importance-sample the tilted Brownian component exactly at the mesh.

    Block i of up to 4096 paths draws from stream (seed, i): Gaussian
    increments of variance dt/2 across each mesh interval of length dt, then
    one standard exponential E per interval.  Given its values x and y at the
    interval's ends, the path's minimum over the interval is that of a
    Brownian bridge, (x + y - sqrt((y - x)^2 + dt E)) / 2 (Glasserman 2004,
    section 6.4), so the raw weight exp((u+v) * min - v * omega(1)) uses the
    continuum minimum.  The ensemble's n_steps is 0: there is no grid.
    """
    mesh = check_limit_request(u, v, count, mesh)
    dt = np.diff(mesh, prepend=0.0)
    omega_mesh = np.empty((count, len(mesh)))
    path_min = np.empty(count)
    for block_idx, start in enumerate(range(0, count, _BLOCK)):
        rng = stream(seed, block_idx)
        omega = omega_mesh[start : start + _BLOCK]
        incr = rng.standard_normal(omega.shape) * np.sqrt(dt / 2.0)
        np.cumsum(incr, axis=1, out=omega)
        spread = np.square(incr) + dt * rng.standard_exponential(omega.shape)
        left = omega - incr  # the path at each interval's left end
        lows = (left + omega - np.sqrt(spread)) / 2.0
        path_min[start : start + _BLOCK] = np.minimum(lows.min(axis=1), 0.0)
    return _weighted_ensemble(u, v, 0, mesh, omega_mesh, path_min)


def simulate_limit_process(u: float, v: float, n_steps: int, count: int,
                           seed: int,
                           mesh: tuple[float, ...] = DEFAULT_MESH) -> LimitEnsemble:
    """Importance-sample the tilted Brownian component on an n_steps grid.

    Reference paths are variance-1/2 Brownian (Gaussian increments of
    variance 1/(2 n_steps)); the raw weight of a path is
    exp((u+v) * grid-min - v * endpoint).
    """
    if n_steps < 100:
        raise DomainError("n_steps must be >= 100")
    mesh = check_limit_request(u, v, count, mesh, n_steps)
    cols = [int(round(x * n_steps)) for x in mesh]
    sigma = math.sqrt(1.0 / (2.0 * n_steps))
    omega_mesh = np.empty((count, len(mesh)))
    grid_min = np.empty(count)
    buf = np.empty((min(_BLOCK, count), n_steps))
    done = 0
    block_idx = 0
    while done < count:
        size = min(_BLOCK, count - done)
        paths = buf[:size]
        stream(seed, block_idx).standard_normal(out=paths)
        paths *= sigma  # the values rng.normal(0.0, sigma) draws
        np.cumsum(paths, axis=1, out=paths)
        # the grid includes omega(0) = 0
        grid_min[done : done + size] = np.minimum(paths.min(axis=1), 0.0)
        for i, c in enumerate(cols):
            omega_mesh[done : done + size, i] = 0.0 if c == 0 else paths[:, c - 1]
        done += size
        block_idx += 1
    return _weighted_ensemble(u, v, n_steps, mesh, omega_mesh, grid_min)


@dataclass(frozen=True)
class DistanceReport:
    ks: float
    w1: float


def compare_distributions(sample_a, sample_b, weights_b=None) -> DistanceReport:
    """Kolmogorov-Smirnov and Wasserstein-1 distances between the empirical
    law of sample_a and the (optionally weighted) empirical law of sample_b."""
    xa = np.sort(np.asarray(sample_a, dtype=float).ravel())
    xb = np.asarray(sample_b, dtype=float).ravel()
    if xa.size == 0 or xb.size == 0:
        raise DomainError("samples must be nonempty")
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise DomainError("samples must be finite")
    wb = np.ones(xb.size) if weights_b is None else np.asarray(weights_b, dtype=float).ravel()
    with np.errstate(over="ignore"):
        total = wb.sum()
    # NaN fails wb >= 0; an infinite weight or an overflowed sum fails total < inf
    if wb.size != xb.size or not ((wb >= 0).all() and 0.0 < total < math.inf):
        raise DomainError("weights_b must be finite, nonnegative, not all zero, "
                          "with a finite sum, and match sample_b")
    wb = wb / total
    order = np.argsort(xb, kind="stable")
    xb = xb[order]
    wb = wb[order]
    grid = np.concatenate([xa, xb])
    grid.sort(kind="stable")
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.concatenate([[0.0], np.cumsum(wb)])[np.searchsorted(xb, grid, side="right")]
    gap = np.abs(fa - fb)
    ks = float(gap.max())
    w1 = float(np.sum(gap[:-1] * np.diff(grid)))
    return DistanceReport(ks=ks, w1=w1)
