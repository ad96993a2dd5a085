"""gridtopo: power-grid topology estimation from nodal voltage samples."""

__version__ = "0.1.0"

from .exceptions import GridTopoError
from .grid import (
    BUILTIN_GRIDS,
    Grid,
    Line,
    builtin_grid,
    conductance,
    girth,
    grid_hash,
    load_grid,
    make_grid,
    reduced_laplacian,
    susceptance,
)
from .powerflow import (
    ConcentrationMatrix,
    InjectionStats,
    VarLabel,
    dc_concentration,
    dc_phase_covariance,
    lc_concentration,
    lc_voltage_covariance,
    whitened_system,
)
from .sampling import SampleSet, derive_trial_seed, generate_voltage_samples
from .estimation import (
    EstimatedConcentration,
    GlassoConfig,
    empirical_covariance,
    estimate_concentration,
    graphical_lasso,
    invert_covariance,
    select_lambda,
)
from .learning import (
    LearnedTopology,
    SufficiencyReport,
    build_graphical_model,
    check_sufficiency,
    edge_errors,
    learn_by_counting,
    learn_by_thresholding,
    learn_parameters,
)
from .experiments import ExperimentSpec, run_experiment, write_results_csv

__all__ = [name for name in dir() if not name.startswith("_")]
