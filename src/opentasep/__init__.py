"""Stationary measure of the open-boundary TASEP through its two-line
ensemble: exact weights, exact sampling, fluctuation scaling experiments,
and large-deviation rate functions.

The public names below resolve on first access (PEP 562), so importing the
package, or one light submodule such as core, loads no NumPy or SciPy.
"""

import importlib

_EXPORTS = {
    "core": (
        "BoundaryParams", "DomainError", "NumericConsistencyError", "PhaseInfo",
        "ResourceLimitError", "VerificationError", "entropy_h", "fan_K_variational",
        "fan_region_K", "log_c_growth_rate", "normalization_K", "params_from_ab",
        "params_from_rates", "params_from_scaling", "phase_info", "rate_density",
        "rate_density_variational", "relative_entropy", "shock_K_variational",
        "shock_region_K",
    ),
    "exact_engine": (
        "TwoLineTable", "WeightTable", "f_n_enumerate", "stationary_weights_matrix",
        "stationary_weights_recursive", "tle_enumerate", "two_line_weight",
        "verify_marginal_identity",
    ),
    "fluctuations": (
        "LimitEnsemble", "ScalingConfig", "compare_distributions", "sample_scaled_processes",
        "simulate_limit_exact", "simulate_limit_process",
    ),
    "ldp": (
        "Profile", "MonotoneStep", "J_star", "J_upper", "convex_envelope",
        "finite_n_ldp_check", "optimal_G", "rate_height_report", "rate_height_variational",
        "rate_two_line", "sup_over_G",
    ),
    "markov_oracle": ("build_generator", "kmc_sample", "solve_stationary"),
    "two_line_sampler": (
        "PartitionTable", "SamplePaths", "build_partition_table",
        "height_endpoint_distribution", "sample_functionals", "sample_two_line",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "rng", "textio")
__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SOURCE.keys() | set(_SUBMODULES))
