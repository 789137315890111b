"""Certified reduced-basis solver with round-off-aware error estimators."""

from .estimators import (
    E2Data,
    E3Data,
    EstimatorBuildError,
    build_e2_data,
    build_e3_data,
    estimator_e1,
    estimator_e1_block,
    estimator_e2,
    estimator_e2_dd,
    estimator_e3,
    evaluate,
    log_uniform_sampler,
    q_coefficients,
    true_error,
    x_dimension,
    x_matrix,
    x_vector,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    SweepRecord,
    compute_sweep,
    flatness_stats,
    load_artifact,
    load_config,
    measure_floors,
    run_offline,
    run_sweep,
    sweep_grid,
    training_grid,
)
from .fem import (
    TruthSystem,
    analytic_derivative,
    analytic_solution,
    assemble,
    check_parameters,
    h1_error_vs_analytic,
    h1_inner,
    h1_norm,
    riesz_representative,
    solve_tridiagonal,
    solve_truth,
)
from .precision import TWO_PROD_PATH, dd_add, dd_mul, dd_sqrt, dd_sum, two_prod, two_sum
from .reduced import (
    DependentSnapshotError,
    ReducedModel,
    ReducedSolution,
    add_snapshot,
    greedy_build,
    solve_reduced,
    solve_reduced_block,
)

__version__ = "0.1.0"
