"""Stationary measure of the open-boundary TASEP through its two-line
ensemble: exact weights, exact sampling, fluctuation scaling experiments,
and large-deviation rate functions."""

from .core import (
    BoundaryParams,
    DomainError,
    LatticePath,
    NumericConsistencyError,
    Occupation,
    PhaseInfo,
    ResourceLimitError,
    VerificationError,
    entropy_h,
    fan_region_K,
    height_from_occupation,
    log_c_growth_rate,
    normalization_K,
    occupation_from_height,
    params_from_ab,
    params_from_rates,
    params_from_scaling,
    phase_info,
    relative_entropy,
    shock_region_K,
)
from .exact_engine import (
    TwoLineTable,
    WeightTable,
    f_n_enumerate,
    stationary_weights_matrix,
    stationary_weights_recursive,
    tle_enumerate,
    two_line_weight,
    verify_marginal_identity,
)
from .fluctuations import (
    LimitEnsemble,
    ScalingConfig,
    compare_distributions,
    sample_scaled_height,
    sample_scaled_processes,
    simulate_limit_exact,
    simulate_limit_process,
)
from .ldp import (
    Profile,
    MonotoneStep,
    J_star,
    J_upper,
    convex_envelope,
    fan_K_variational,
    finite_n_ldp_check,
    optimal_G,
    rate_density,
    rate_density_variational,
    rate_height_closed,
    rate_height_report,
    rate_height_variational,
    rate_two_line,
    shock_K_variational,
    sup_over_G,
)
from .markov_oracle import build_generator, kmc_sample, solve_stationary
from .two_line_sampler import (
    PartitionTable,
    SamplePaths,
    build_partition_table,
    height_endpoint_distribution,
    sample_functionals,
    sample_two_line,
)

__version__ = "0.1.0"
