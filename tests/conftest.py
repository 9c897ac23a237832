"""Shared fixtures, the acceptance-summary reporter and the sampler references.

The sampler references are the two halves of a sampler check at a tolerance
finer than its draws can resolve: `sampler_path_law` is the exact law the
sampler draws from, to be bounded against a target at the stated tolerance,
and `iid_tv_reference` is where the empirical TV of its seeded draws must fall
if they are i.i.d. from the target.
"""

import functools
import math
import time
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import opentasep as ot
from opentasep import fluctuations
from opentasep.rng import stream

# (criterion label, passed, detail, elapsed seconds), filled by test_acceptance
ACCEPTANCE_LOG: list[tuple[str, bool, str, float]] = []

# stream seed and replicate count of the multinomial spread in iid_tv_reference
REFERENCE_SEED = 20240305
REFERENCE_REPS = 400


def record_criterion(label: str, passed: bool, detail: str, t0: float) -> None:
    ACCEPTANCE_LOG.append((label, passed, detail, time.time() - t0))


def sampler_path_law(table) -> np.ndarray:
    """Exact law of one `sample_two_line` draw from a `PartitionTable`.

    Entry [i, j] is the probability of the pair whose s1 and s2 increment
    bitmasks are (i, j), indexed like `TwoLineTable.joint`.  Each step
    multiplies the table's conditional for the difference increment with r
    steps remaining and gap q: `prob_up[row(r)][q]` for (1, 0), half of
    `prob_flat[row(r)][q]` for each flat increment, (1, 1) and (0, 0), and
    the remainder for (0, 1); q then moves by the increment, reflected at 0.
    """
    n = table.n_sites
    size = 1 << n
    s1_bits = np.repeat(np.arange(size), size)
    s2_bits = np.tile(np.arange(size), size)
    law = np.ones(size * size)
    q = np.zeros(size * size, dtype=np.int64)
    for j in range(n):
        r = n - j
        tau = (s1_bits >> j) & 1
        xi = (s2_bits >> j) & 1
        p_up = table.prob_up[table.row(r)][q]
        p_flat = table.prob_flat[table.row(r)][q]
        step = tau - xi
        law *= np.where(step == 1, p_up,
                        np.where(step == 0, 0.5 * p_flat, 1.0 - (p_up + p_flat)))
        q = np.maximum(q + step, 0)
    return law.reshape(size, size)


class TVReference(NamedTuple):
    """Empirical TV of i.i.d. draws from a law: its exact mean and the
    standard deviation of seeded multinomial replicates."""

    mean: float
    sd: float

    def band(self, width: float) -> tuple[float, float]:
        return self.mean - width * self.sd, self.mean + width * self.sd


def binomial_mean_abs_dev(m: int, p: float) -> float:
    """E|X - m p| for X ~ Binomial(m, p), by de Moivre's closed form
    2 nu C(m, nu) p^nu (1-p)^(m-nu+1) with nu = floor(m p) + 1."""
    nu = math.floor(m * p) + 1
    if p <= 0.0 or nu > m:
        return 0.0
    log_term = (math.log(2 * nu) + math.lgamma(m + 1) - math.lgamma(nu + 1)
                - math.lgamma(m - nu + 1) + nu * math.log(p)
                + (m - nu + 1) * math.log1p(-p))
    return math.exp(log_term)


def iid_tv_reference(probs, draws: int) -> TVReference:
    """Reference for the empirical TV of `draws` i.i.d. draws from `probs`.

    The mean is exact: the TV is sum |X_k - draws p_k| / (2 draws) with
    binomial X_k, whose mean absolute deviations de Moivre gives in closed
    form.  The standard deviation comes from REFERENCE_REPS multinomial
    replicates on stream REFERENCE_SEED of `opentasep.rng`, drawn from `probs`
    itself, so it does not depend on any sampler under test.
    """
    probs = np.asarray(probs, dtype=float).ravel()
    mean = sum(binomial_mean_abs_dev(draws, float(p)) for p in probs) / (2 * draws)
    counts = stream(REFERENCE_SEED).multinomial(draws, probs, size=REFERENCE_REPS)
    tvs = 0.5 * np.abs(counts / draws - probs).sum(axis=1)
    return TVReference(mean=mean, sd=float(tvs.std(ddof=1)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed, detail, elapsed in ACCEPTANCE_LOG:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"[{status}] {label} ({elapsed:.1f}s) {detail}"
        )


@pytest.fixture(scope="session")
def standard_grid():
    return [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (1.0, 3.0), (3.0, 3.0)]


@pytest.fixture(scope="session")
def triple_point_runs():
    """The N = 2048 triple-point ensembles, computed once per session:
    `scaled(u, v)` is 1e5 scaled samples at seed 7, `limit(u, v, n_steps)` is
    2e5 limit paths at seed 101.  C6 and `TestFullProcessMatch` share the
    (1, 1) and (-1, -1) draws.  The scaled draws run on two threads; the
    sampler's output does not depend on the thread count.  The paths do not
    depend on (u, v), so each grid is walked once and only the tilt weights
    are computed per (u, v); the result equals `simulate_limit_process`'s."""

    @functools.cache
    def scaled(u, v):
        return ot.sample_scaled_processes(u, v, 2048, 10**5, seed=7, threads=2)

    @functools.cache
    def walk(n_steps):
        return fluctuations._grid_walk(n_steps, 2 * 10**5, 101)

    @functools.cache
    def limit(u, v, n_steps):
        return fluctuations._weighted_ensemble(u, v, n_steps, *walk(n_steps))

    return SimpleNamespace(scaled=scaled, limit=limit)
