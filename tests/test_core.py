import dataclasses
import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import opentasep
from opentasep import (
    BoundaryParams,
    DomainError,
    ResourceLimitError,
    entropy_h,
    f_n_enumerate,
    normalization_K,
    params_from_ab,
    params_from_rates,
    params_from_scaling,
    phase_info,
    relative_entropy,
    stationary_weights_recursive,
    two_line_weight,
)
from opentasep.core import check_bits


class TestParams:
    def test_symmetric_point(self):
        p = params_from_rates(0.5, 0.5)
        assert p.a == 1.0 and p.b == 1.0

    def test_direct_evaluation(self):
        p = params_from_rates(1 / 3, 1 / 2)
        assert p.a == pytest.approx(2.0, rel=1e-15)
        assert p.b == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.2)])
    def test_boundary_rates_rejected(self, alpha, beta):
        with pytest.raises(DomainError):
            params_from_rates(alpha, beta)

    def test_error_names_offending_parameter(self):
        with pytest.raises(DomainError, match="alpha"):
            params_from_rates(0.0, 0.5)
        with pytest.raises(DomainError, match="beta"):
            params_from_rates(0.5, 0.0)

    def test_scaling_trivial(self):
        p = params_from_scaling(0.0, 0.0, 100)
        assert p.a == 1.0 and p.b == 1.0

    def test_scaling_direct(self):
        p = params_from_scaling(1.0, -0.5, 100)
        assert p.a == pytest.approx(math.exp(-0.1), rel=1e-15)
        assert p.b == pytest.approx(math.exp(0.05), rel=1e-15)
        p = params_from_scaling(-1.0, 0.3, 400)
        assert p.a == pytest.approx(math.exp(0.05), rel=1e-15)
        assert p.b == pytest.approx(math.exp(-0.015), rel=1e-15)

    def test_scaling_overflow_rejected(self):
        with pytest.raises(DomainError):
            params_from_scaling(501.0, 0.0, 1)

    def test_round_trip(self):
        for alpha in (0.1, 0.37, 0.5, 0.93):
            for beta in (0.22, 0.5, 0.81):
                p = params_from_rates(alpha, beta)
                assert abs(p.alpha - alpha) <= 2 * math.ulp(alpha)
                assert abs(p.beta - beta) <= 2 * math.ulp(beta)

    def test_params_from_ab(self):
        p = params_from_ab(2.0, 1.0)
        assert p.alpha == pytest.approx(1 / 3) and p.beta == 0.5

    def test_stores_only_ab(self):
        # alpha = 1/(1+1e-17) rounds to 1, yet (a, b) is a valid point
        p = BoundaryParams(1e-17, 1.0)
        assert [f.name for f in dataclasses.fields(p)] == ["a", "b"]
        assert (p.a, p.b, p.alpha, p.beta) == (1e-17, 1.0, 1.0, 0.5)
        for a in (0.0, math.nan):
            with pytest.raises(DomainError):
                BoundaryParams(a, 1.0)


class TestPhase:
    def test_triple_point(self):
        info = phase_info(1.0, 1.0)
        assert info.region == "MC" and info.rho_bar == 0.5
        assert not info.fan and not info.shock and not info.coexistence

    def test_low_density(self):
        info = phase_info(2.0, 1.0)
        assert info.region == "LD"
        assert info.rho_bar == pytest.approx(1 / 3, abs=1e-15)

    def test_high_density(self):
        info = phase_info(1.0, 3.0)
        assert info.region == "HD"
        assert info.rho_bar == pytest.approx(3 / 4, abs=1e-15)

    def test_coexistence_flag(self):
        info = phase_info(3.0, 3.0)
        assert info.coexistence and info.shock
        assert info.rho_bar == pytest.approx(1 / 4, abs=1e-15)
        assert not phase_info(3.0, 2.0).coexistence
        assert not phase_info(0.5, 0.5).coexistence

    def test_continuity_across_mc_boundaries(self):
        # both formulas give 1/2 on the boundary segments a=1 (b<=1), b=1 (a<=1)
        for b in np.linspace(0.05, 1.0, 13):
            assert phase_info(1.0, float(b)).rho_bar == 0.5
            lim = 1.0 / (1.0 + 1.0)
            assert lim == 0.5
        for a in np.linspace(0.05, 1.0, 13):
            assert phase_info(float(a), 1.0).rho_bar == 0.5

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            phase_info(0.0, 1.0)
        with pytest.raises(DomainError):
            phase_info(1.0, -2.0)


class TestNormalization:
    def test_known_values(self):
        assert normalization_K(0.5, 0.5) == pytest.approx(-2 * math.log(2), rel=1e-15)
        assert normalization_K(2.0, 1.0) == pytest.approx(math.log(2 / 9), rel=1e-15)
        assert normalization_K(1.0, 1.0) == pytest.approx(-2 * math.log(2), rel=1e-15)

    def test_closed_forms_on_grid(self):
        # log(rho_bar (1 - rho_bar)) with rho_bar from the phase diagram, on a
        # 50x50 log-grid spanning both halves
        grid = np.exp(np.linspace(math.log(0.1), math.log(10.0), 50))
        for a in grid:
            for b in grid:
                rho = phase_info(float(a), float(b)).rho_bar
                k = normalization_K(float(a), float(b))
                assert abs(k - math.log(rho * (1.0 - rho))) <= 1e-12

    @pytest.mark.parametrize("a,b", [(1e10, 1e12), (1e-12, 1e10), (1e200, 1.0), (1.0, 1e200)])
    def test_region_forms_at_extreme_parameters(self, a, b):
        # 1 - rho_bar near 0 and (1 + m)^2 beyond the double range, m = max(a, b)
        m = max(a, b)
        k = normalization_K(a, b)
        assert math.isfinite(k)
        assert abs(k - (math.log(m) - 2.0 * math.log1p(m))) <= 1e-15 * abs(k)

    def test_finite_where_rho_bar_rounds_to_one(self):
        assert math.isfinite(normalization_K(1e-30, 1e20))


class TestConfigurationDomain:
    def test_check_bits_returns_ints(self):
        bits = check_bits([np.int64(1), 0.0, True])
        assert bits == (1, 0, 1)
        assert all(type(bit) is int for bit in bits)
        assert check_bits(()) == ()

    @pytest.mark.parametrize("bit", [0.5, 2, -1, math.nan, math.inf])
    def test_check_bits_refuses(self, bit):
        with pytest.raises(DomainError):
            check_bits((0, bit, 1))

    @pytest.mark.parametrize("tau", [(2, 0), (1,), (0, 0.5), (1, 0, 1)])
    def test_weight_table_refuses(self, tau):
        table = stationary_weights_recursive(2, 2, 1)
        with pytest.raises(DomainError):
            table[tau]

    @pytest.mark.parametrize("tau", [(0, 2), (0.5, 1)])
    def test_pair_sum_refuses(self, tau):
        with pytest.raises(DomainError):
            f_n_enumerate(tau, 2, 1)

    def test_pair_sum_empty_is_a_size_error(self):
        with pytest.raises(ResourceLimitError):
            f_n_enumerate((), 2, 1)

    @pytest.mark.parametrize("s1,s2", [((0, 2, 2), (0, 0, 0)), ((1, 2), (0, 1)),
                                       ((0, 1, 0), (0, 0, 0)), ((), ())])
    def test_pair_weight_refuses(self, s1, s2):
        with pytest.raises(DomainError):
            two_line_weight(s1, s2, 2, 1)


class TestEntropy:
    def test_values(self):
        assert entropy_h(0.5) == pytest.approx(-math.log(2), rel=1e-15)
        assert entropy_h(1.0) == 0.0
        assert entropy_h(0.0) == 0.0
        assert entropy_h(1.1) == math.inf
        assert entropy_h(-0.2) == math.inf

    def test_relative_entropy_value(self):
        assert relative_entropy(0.6, 0.5) == pytest.approx(0.020135513550688863, rel=1e-12)

    def test_relative_entropy_domain(self):
        with pytest.raises(DomainError):
            relative_entropy(0.5, 0.0)
        with pytest.raises(DomainError):
            relative_entropy(0.5, 1.0)
        assert relative_entropy(1.5, 0.5) == math.inf

    def test_nonnegativity_grid(self):
        xs = np.linspace(0.0, 1.0, 21)
        ys = np.linspace(0.05, 0.95, 19)
        for x in xs:
            for y in ys:
                val = relative_entropy(float(x), float(y))
                assert val >= -1e-15  # float roundoff near x = y
                if abs(x - y) > 1e-12:
                    assert val > 0.0
                else:
                    assert val == pytest.approx(0.0, abs=1e-15)


# every name the package namespace exports, by the submodule that defines or
# re-exports it
PUBLIC_NAMES = {
    "core": ("BoundaryParams", "DomainError", "NumericConsistencyError", "PhaseInfo",
             "ResourceLimitError", "entropy_h",
             "log_c_growth_rate", "normalization_K", "params_from_ab", "params_from_rates",
             "params_from_scaling", "phase_info", "relative_entropy"),
    "exact_engine": ("TwoLineTable", "WeightTable", "f_n_enumerate",
                     "stationary_weights_matrix", "stationary_weights_recursive",
                     "tle_enumerate", "two_line_weight", "verify_marginal_identity"),
    "fluctuations": ("LimitEnsemble", "compare_distributions",
                     "sample_scaled_processes", "simulate_limit_exact",
                     "simulate_limit_process"),
    "ldp": ("Profile", "MonotoneStep", "J_star", "J_upper", "convex_envelope",
            "fan_K_variational", "finite_n_ldp_check", "optimal_G", "rate_density",
            "rate_density_variational", "rate_height_report",
            "rate_height_variational", "rate_two_line", "shock_K_variational",
            "sup_over_G"),
    "markov_oracle": ("build_generator", "kmc_sample", "solve_stationary"),
    "two_line_sampler": ("PartitionTable", "SamplePaths", "build_partition_table",
                         "height_endpoint_distribution", "sample_functionals",
                         "sample_two_line"),
}


class TestNamespace:
    @pytest.mark.parametrize("module", list(PUBLIC_NAMES))
    def test_names_resolve_to_submodule_objects(self, module):
        sub = importlib.import_module(f"opentasep.{module}")
        listed = dir(opentasep)
        for name in PUBLIC_NAMES[module]:
            assert getattr(opentasep, name) is getattr(sub, name), name
            assert name in listed, name

    def test_all_lists_exactly_the_public_names(self):
        assert set(opentasep.__all__) == {n for names in PUBLIC_NAMES.values() for n in names}
        for name in opentasep.__all__:
            getattr(opentasep, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            opentasep.no_such_name
        assert not hasattr(opentasep, "no_such_name")

    def test_submodules_import_from_package(self):
        from opentasep import ldp

        assert ldp is importlib.import_module("opentasep.ldp")

    def test_submodules_resolve_as_attributes(self):
        # in a fresh process no submodule is loaded yet, so `opentasep.ldp`
        # goes through the package's __getattr__
        src = os.path.dirname(os.path.dirname(opentasep.__file__))
        code = ("import opentasep; "
                "print(opentasep.ldp.Profile is opentasep.Profile, "
                "opentasep.fluctuations.MESH[-1], "
                "{'rng', 'textio', 'ldp'} <= set(dir(opentasep)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["True", "1.0", "True"]
