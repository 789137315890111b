"""Certified reduced-basis solver with round-off-aware error estimators."""

from .estimators import (
    E2Data,
    E3Data,
    EstimatorBuildError,
    build_e3_data,
    evaluate,
    log_uniform_sampler,
    q_coefficients,
    x_dimension,
    x_matrix,
    z_block,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    SweepRecord,
    compute_sweep,
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
    assemble,
    check_parameters,
    riesz_representative,
    solve_truth,
)
from . import precision  # loaded for rbcert.precision.TWO_PROD_PATH, read by the benchmark
from .reduced import (
    DependentSnapshotError,
    ReducedModel,
    add_snapshot,
    greedy_build,
)

__version__ = "0.1.0"
