import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx

from opentasep import (
    DomainError,
    ResourceLimitError,
    compare_distributions,
    params_from_scaling,
    sample_scaled_processes,
    simulate_limit_exact,
    simulate_limit_process,
)
from opentasep import fluctuations
from opentasep.rng import stream

# C6's (u, v) points and kappa(u, v) there, to five decimals
C6_KAPPA = {(1.0, 1.0): 0.35935, (1.0, -0.5): 0.86334, (-1.0, 0.3): 1.69819,
            (-1.0, -1.0): 3.49273}


def exact_kappa(u, v):
    """kappa(u, v) = E exp((u+v) M - v E) for variance-1/2 Brownian motion on
    [0, 1] with minimum M and endpoint E.  By the reflection principle,
    (M, E) has density 2 z / (s^3 sqrt(2 pi)) exp(-z^2 / (2 s^2)) at
    z = E - 2M >= |E| (s^2 = 1/2), so with k = (u+v)/2
    kappa = int exp((k - v) e) I(|e|) de / (s^3 sqrt(2 pi)), where
    I(a) = int_a^inf z exp(-z^2 / (2 s^2) - k z) dz is written with the
    scaled erfcx so that no factor overflows."""
    s2 = 0.5
    s = math.sqrt(s2)
    k = (u + v) / 2.0

    def integrand(e):
        a = abs(e)
        t = (a + s2 * k) / (s * math.sqrt(2.0))
        inner = s2 * (1.0 - k * s * math.sqrt(math.pi / 2.0) * erfcx(t))
        return math.exp((k - v) * e - a * a / (2.0 * s2) - a * k) * inner

    total = sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13)[0]
                for lo, hi in ((-math.inf, 0.0), (0.0, math.inf)))
    return total / (s ** 3 * math.sqrt(2.0 * math.pi))


class TestScalingConfig:
    def test_positions(self, monkeypatch):
        # n = 10 records columns at floor(x n) for x in (0.25, 0.5, 0.75, 1)
        seen = []
        real = fluctuations.sample_functionals

        def spy(table, count, seed, positions, threads=1):
            seen.append(positions)
            return real(table, count, seed, positions, threads=threads)

        monkeypatch.setattr(fluctuations, "sample_functionals", spy)
        sample_scaled_processes(0.0, 0.0, 10, 5, seed=1)
        assert seen == [[2, 5, 7, 10]]

    @pytest.mark.parametrize("u,v", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)])
    def test_non_finite_inputs_rejected(self, u, v):
        with pytest.raises(DomainError):
            sample_scaled_processes(u, v, 16, 10, seed=1)
        with pytest.raises(DomainError):
            simulate_limit_process(u, v, 100, 10, seed=1)
        with pytest.raises(DomainError):
            simulate_limit_exact(u, v, 10, seed=1)


class TestScaledSampling:
    def test_exact_binomial_variance(self):
        # (2 H(N) - N)/sqrt(N) has variance exactly 1 for every N at u=v=0
        w1 = sample_scaled_processes(0.0, 0.0, 64, 100_000, seed=11).w1
        end = w1[:, -1]
        var = end.var(ddof=1)
        m4 = np.mean((end - end.mean()) ** 4)
        se = math.sqrt((m4 - var**2) / end.size)
        assert abs(var - 1.0) <= 3.0 * se
        assert abs(end.mean()) <= 3.0 / math.sqrt(end.size)

    def test_mean_monotone_in_u(self):
        # larger u means a smaller, i.e. faster, injection parameter a, hence
        # more particles: the endpoint mean increases with u
        means = []
        for u in (-2.0, 0.0, 2.0):
            w1 = sample_scaled_processes(u, 0.0, 400, 20_000, seed=3).w1
            means.append(float(w1[:, -1].mean()))
        assert means[0] < means[1] < means[2]

    def test_decomposition_at_triple_point(self):
        # W+ and W- are asymptotically independent with variance 1/2 each
        s = sample_scaled_processes(0.0, 0.0, 1024, 100_000, seed=17)
        wp = s.w_plus[:, -1]
        wm = s.w_minus[:, -1]
        corr = np.corrcoef(wp, wm)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(wp.size)
        assert abs(wp.var(ddof=1) - 0.5) <= 0.05 * 0.5
        assert abs(wm.var(ddof=1) - 0.5) <= 0.05 * 0.5

    def test_w1_is_w_plus_plus_w_minus(self):
        s = sample_scaled_processes(1.0, -0.5, 128, 2000, seed=5)
        assert np.allclose(s.w1, s.w_plus + s.w_minus, atol=1e-12)

    def test_position_zero_columns(self):
        # at n = 3 the first mesh point has floor(xN) = 0: its columns are
        # zero, and the others hold the sampler's draws at positions 1..3
        # (70,000 samples span 3 chunks)
        s = sample_scaled_processes(-1.0, 0.3, 3, 70_000, seed=9, threads=2)
        p = params_from_scaling(-1.0, 0.3, 3)
        s1, d = fluctuations.sample_functionals(
            fluctuations.build_partition_table(3, p.a, p.b), 70_000, 9, [1, 2, 3])
        root = math.sqrt(3)
        assert (s.w1[:, 0] == 0.0).all() and (s.w_minus[:, 0] == 0.0).all()
        assert np.array_equal(s.w1[:, 1:], (2.0 * s1 - np.array([1.0, 2.0, 3.0])) / root)
        assert np.array_equal(s.w_minus[:, 1:], d / root)


class TestLimitSimulation:
    def test_unit_weights_at_origin(self):
        ens = simulate_limit_process(0.0, 0.0, 256, 50_000, seed=2)
        assert np.allclose(ens.weights, 1.0)
        assert ens.kappa_hat == 1.0
        assert ens.ess == pytest.approx(50_000.0, rel=1e-12)
        assert not ens.degenerate

    def test_b_plus_x_variance_at_origin(self):
        # at u=v=0, X is plain variance-1/2 Brownian, so B+X has variance 1
        ens = simulate_limit_process(0.0, 0.0, 256, 100_000, seed=2)
        bx = ens.sample_b_plus_x(100_000, seed=3)
        end = bx[:, -1]
        assert abs(end.var(ddof=1) - 1.0) <= 0.02
        assert abs(end.mean()) <= 0.02

    def test_kappa_stable_under_refinement(self):
        kappas = {}
        for n_steps in (512, 1024):
            ens = simulate_limit_process(2.0, 1.0, n_steps, 200_000, seed=9)
            kappas[n_steps] = ens.kappa_hat
        rel = abs(kappas[512] - kappas[1024]) / kappas[1024]
        assert rel <= 0.02
        assert kappas[1024] > 0.0

    def test_min_steps_enforced(self):
        with pytest.raises(DomainError):
            simulate_limit_process(0.0, 0.0, 50, 100, seed=1)

    @pytest.mark.parametrize("n_steps,count", [(1024, 10**10), (10**9, 10)])
    def test_size_cap(self, monkeypatch, n_steps, count):
        # the output and one block of paths over TABLE_BYTES_CAP are refused
        # before any draw
        def no_draws(*args):
            raise AssertionError("drew past the size cap")

        monkeypatch.setattr(fluctuations, "stream", no_draws)
        with pytest.raises(ResourceLimitError):
            simulate_limit_process(0.0, 0.0, n_steps, count, seed=1)

    def test_resampling_preserves_weighted_mean(self):
        ens = simulate_limit_process(1.0, 1.0, 256, 100_000, seed=4)
        x = ens.resample_x(100_000, seed=5)
        target = float(np.sum(ens.weights * ens.omega_mesh[:, -1]) / ens.weights.sum())
        assert abs(x[:, -1].mean() - target) <= 0.01

    def test_determinism(self):
        e1 = simulate_limit_process(1.0, -0.5, 128, 10_000, seed=7)
        e2 = simulate_limit_process(1.0, -0.5, 128, 10_000, seed=7)
        assert np.array_equal(e1.weights, e2.weights)
        assert np.array_equal(e1.omega_mesh, e2.omega_mesh)

    def test_block_memory(self):
        # three blocks of paths reuse one block-sized buffer
        tracemalloc.start()
        try:
            simulate_limit_process(-1.0, 0.3, 1024, 3 * 4096, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 4096 * 1024 * 8


class TestExactLimit:
    def test_exact_kappa_at_origin(self):
        assert abs(exact_kappa(0.0, 0.0) - 1.0) <= 1e-10

    @pytest.mark.parametrize("u,v", list(C6_KAPPA))
    def test_kappa_hat_matches_exact_law(self, u, v):
        kappa = exact_kappa(u, v)
        assert kappa == pytest.approx(C6_KAPPA[u, v], abs=5e-6)
        ens = simulate_limit_exact(u, v, 200_000, seed=101)
        se = ens.weights.std(ddof=1) / math.sqrt(ens.count)
        assert abs(ens.kappa_hat - kappa) <= 4.0 * se
        assert ens.n_steps == 0 and not ens.degenerate

    @pytest.mark.parametrize("u,v", [(1.0, 1.0), (-1.0, -1.0)])
    def test_grid_kappa_approaches_exact(self, u, v, triple_point_runs):
        # the grid minimum biases kappa_hat by about sqrt(dt); C6's 2e5-path
        # ensembles at 1024 and 2048 steps show the bias shrinking
        kappa = exact_kappa(u, v)
        errors = [abs(triple_point_runs.limit(u, v, n_steps).kappa_hat - kappa)
                  for n_steps in (1024, 2048)]
        assert errors[1] < errors[0]


class TestDistances:
    def test_identical_samples(self):
        x = np.array([0.0, 1.0, 2.0, 5.0])
        rep = compare_distributions(x, x)
        assert rep.ks == 0.0 and rep.w1 == 0.0

    def test_unit_translation(self):
        rng = stream(1, 0)
        x = rng.normal(size=20_000)
        rep = compare_distributions(x, x + 1.0)
        assert rep.w1 == pytest.approx(1.0, abs=1e-9)
        assert rep.ks <= 1.0

    def test_subsample_calibration(self):
        rng = stream(2, 0)
        x = rng.normal(size=10**6)
        rep = compare_distributions(x, x[::2])
        assert rep.ks <= 0.01

    def test_weighted_side(self):
        # point masses: A = {0, 1} uniform, B = {0, 1} with weights (1/4, 3/4)
        rep = compare_distributions([0.0, 1.0], [0.0, 1.0], weights_b=[1.0, 3.0])
        assert rep.ks == pytest.approx(0.25)
        assert rep.w1 == pytest.approx(0.25)

    def test_unweighted_is_unit_weights(self):
        rng = stream(4, 0)
        a, b = rng.normal(size=300), rng.normal(size=200)
        assert compare_distributions(a, b) == compare_distributions(a, b, np.ones(len(b)))

    def test_weighted_equals_replicated(self):
        rng = stream(3, 0)
        vals = rng.normal(size=500)
        reps = rng.integers(1, 5, size=500)
        replicated = np.repeat(vals, reps)
        r1 = compare_distributions(rng.normal(size=1000), vals, weights_b=reps)
        r2 = compare_distributions(rng.normal(size=1000), replicated)
        # same weighted ECDF either way, compared against a fresh sample;
        # the two A-samples differ, so only check the B-side machinery
        r3 = compare_distributions(replicated, vals, weights_b=reps)
        assert r3.ks == pytest.approx(0.0, abs=1e-12)
        assert r3.w1 == pytest.approx(0.0, abs=1e-12)
        assert r1.ks >= 0 and r2.ks >= 0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            compare_distributions([], [1.0])

    @pytest.mark.parametrize("sample_a,sample_b,weights_b", [
        ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0], None),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0], None),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, math.nan, 1.0]),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, math.inf, 1.0]),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, -1.0, 1.0]),
        ([1.0, 2.0], [1.0, 2.0], [1e308, 1e308]),
    ], ids=["nan-a", "inf-b", "nan-weight", "inf-weight", "zero-weights",
            "negative-weight", "overflowing-sum"])
    def test_non_finite_rejected(self, sample_a, sample_b, weights_b):
        with pytest.raises(DomainError):
            compare_distributions(sample_a, sample_b, weights_b)


class TestWminusMatch:
    def test_scaled_difference_matches_limit_small(self):
        # desk-scale version of the full acceptance run
        u, v = 1.0, -0.5
        scaled = sample_scaled_processes(u, v, 256, 30_000, seed=7)
        ens = simulate_limit_process(u, v, 512, 60_000, seed=8)
        rep = compare_distributions(scaled.w_minus[:, -1],
                                    ens.omega_mesh[:, -1], ens.weights)
        assert rep.w1 <= 0.08


class TestFullProcessMatch:
    @pytest.mark.parametrize("u,v", [(1.0, 1.0), (-1.0, -1.0)])
    def test_w1_endpoint_matches_b_plus_x(self, u, v, triple_point_runs):
        # law of the scaled height endpoint against the simulated limit sum,
        # covering both signs of u + v; N = 2048 with 1e5 samples at seed 7
        # and 2e5 limit paths of 1024 steps at seed 101, shared with C6
        scaled = triple_point_runs.scaled(u, v)
        ens = triple_point_runs.limit(u, v, 1024)
        bx = ens.sample_b_plus_x(10**5, seed=55)
        rep = compare_distributions(scaled.w1[:, -1], bx[:, -1])
        assert rep.w1 <= 0.05
