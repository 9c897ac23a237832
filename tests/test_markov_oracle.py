import numpy as np
import pytest

from opentasep import (
    DomainError,
    ResourceLimitError,
    build_generator,
    kmc_sample,
    params_from_ab,
    solve_stationary,
    stationary_weights_recursive,
)
from opentasep.two_line_sampler import height_endpoint_distribution


def empirical_distribution(samples: np.ndarray) -> np.ndarray:
    """Histogram of occupation snapshots over configuration indices."""
    n = samples.shape[1]
    idx = samples.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    counts = np.bincount(idx, minlength=1 << n).astype(float)
    return counts / counts.sum()


class TestGenerator:
    def test_single_site_matrix(self):
        g = build_generator(1, 1 / 3, 1 / 2)
        expected = np.array([[-1 / 3, 1 / 3], [1 / 2, -1 / 2]])
        assert np.allclose(g.toarray(), expected)

    def test_row_sums_zero(self):
        g = build_generator(4, 0.3, 0.7)
        sums = np.asarray(g.sum(axis=1)).ravel()
        assert np.max(np.abs(sums)) <= 1e-12

    def test_off_diagonals_nonnegative(self):
        g = build_generator(5, 0.3, 0.7)
        q = g.toarray()
        off = q - np.diag(np.diag(q))
        assert (off >= 0).all()

    def test_hop_count_state_10(self):
        # state (tau_1, tau_2) = (1, 0): only the bulk hop leaves it
        g = build_generator(2, 0.3, 0.7)
        q = g.toarray()
        state = 0b01  # tau_1 = 1, tau_2 = 0
        off = [(j, q[state, j]) for j in range(4) if j != state and q[state, j] != 0]
        assert len(off) == 1
        assert off[0] == (0b10, 1.0)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            build_generator(13, 0.5, 0.5)
        with pytest.raises(DomainError):
            build_generator(3, 0.0, 0.5)


class TestStationarySolve:
    def test_two_state_balance(self):
        pi = solve_stationary(build_generator(1, 1 / 3, 1 / 2))
        assert pi[1] == pytest.approx(2 / 5, rel=1e-12)

    def test_uniform_at_triple_point(self):
        pi = solve_stationary(build_generator(2, 0.5, 0.5))
        assert np.allclose(pi, 0.25, atol=1e-13)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (1.0, 3.0), (3.0, 3.0)])
    def test_matches_recursion(self, a, b):
        p = params_from_ab(a, b)
        for n in range(1, 9):
            pi = solve_stationary(build_generator(n, p.alpha, p.beta))
            rec = stationary_weights_recursive(n, a, b)
            assert np.max(np.abs(pi - rec.probabilities())) <= 1e-10

    @pytest.mark.parametrize("a,b,n_min", [(1e20, 1.0, 2), (1e10, 1e-5, 4)])
    def test_deep_phase_pin(self, a, b, n_min):
        # pi_last is ~1e-20 or less here, too small to pin: rounding swamps
        # it, and the solve reads a negative component or NaN
        p = params_from_ab(a, b)
        for n in range(n_min, 13):
            pi = solve_stationary(build_generator(n, p.alpha, p.beta))
            rec = stationary_weights_recursive(n, a, b)
            assert np.max(np.abs(pi - rec.probabilities())) <= 1e-12, n

    def test_power_iteration_path(self):
        # a small residual alone does not bound the error: the removed power-
        # iteration solver met it at N = 11, 12 with errors up to 2e-10
        p = params_from_ab(2.0, 1.0)
        gen = build_generator(11, p.alpha, p.beta)
        pi = solve_stationary(gen)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(pi @ gen)) <= 1e-11
        for a, b in [(2.0, 1.0), (1.0, 3.0), (3.0, 3.0)]:
            p = params_from_ab(a, b)
            for n in (11, 12):
                pi = solve_stationary(build_generator(n, p.alpha, p.beta))
                rec = stationary_weights_recursive(n, a, b)
                assert np.max(np.abs(pi - rec.probabilities())) <= 1e-12


class TestKmc:
    def test_symmetric_single_site(self):
        s = kmc_sample(1, 0.4, 0.4, burn_in=5.0, n_samples=100_000, thin=1.0, seed=5)
        frac = s.mean()
        # binomial band is conservative for correlated draws; thin=1.0 at
        # total rate <= 0.8 decorrelates well
        assert abs(frac - 0.5) <= 3.0 * np.sqrt(0.25 / 20_000)

    def test_determinism(self):
        s1 = kmc_sample(2, 0.3, 0.6, burn_in=1.0, n_samples=500, thin=0.5, seed=9)
        s2 = kmc_sample(2, 0.3, 0.6, burn_in=1.0, n_samples=500, thin=0.5, seed=9)
        assert np.array_equal(s1, s2)
        s3 = kmc_sample(2, 0.3, 0.6, burn_in=1.0, n_samples=500, thin=0.5, seed=10)
        assert not np.array_equal(s1, s3)

    def test_empirical_distribution_close(self):
        s = kmc_sample(3, 1 / 3, 1 / 2, burn_in=20.0, n_samples=10**6, thin=0.5, seed=6)
        emp = empirical_distribution(s)
        pi = solve_stationary(build_generator(3, 1 / 3, 1 / 2))
        assert 0.5 * np.abs(emp - pi).sum() <= 0.01

    def test_mean_density_matches_endpoint_dp(self):
        p = params_from_ab(2.0, 1.0)
        s = kmc_sample(10, p.alpha, p.beta, burn_in=50.0, n_samples=200_000,
                       thin=1.0, seed=7)
        dens = s.mean(axis=1)
        exact = float(np.arange(11) @ height_endpoint_distribution(10, 2.0, 1.0)) / 10
        n_batches = 200
        batches = dens[: len(dens) // n_batches * n_batches].reshape(n_batches, -1)
        se = batches.mean(axis=1).std(ddof=1) / np.sqrt(n_batches)
        assert abs(dens.mean() - exact) <= 3.0 * se

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            kmc_sample(2, 0.5, 0.5, burn_in=0.0, n_samples=10, thin=1.0, seed=1)
        with pytest.raises(DomainError):
            kmc_sample(2, 0.5, 0.5, burn_in=1.0, n_samples=10, thin=-1.0, seed=1)

    def test_shares_generator_cap(self):
        with pytest.raises(ResourceLimitError):
            kmc_sample(13, 0.5, 0.5, burn_in=1.0, n_samples=10, thin=1.0, seed=1)
        with pytest.raises(DomainError):
            kmc_sample(2, 1.5, 0.5, burn_in=1.0, n_samples=10, thin=1.0, seed=1)
