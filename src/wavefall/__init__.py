"""Quantum wave packets falling in a uniform linear potential.

The package evolves one-dimensional packets under H = p^2/2m + m g x three
independent ways (a factored exact propagator, a split-step spectral solver,
and a dense-matrix oracle), computes the classical two-time actions whose
difference shows up as the interference phase, and runs a matter-wave
interferometry protocol that measures that phase directly.  A verification
suite cross-checks all of the routes against each other.
"""

from .action import (
    ActionValue,
    bvp_trajectory,
    classical_action,
    delta_action,
    ehrenfest_mean,
    shifted_free_action,
    spread_bound,
)
from .analytic import (
    AccelSchedule,
    apply_global_phase,
    apply_linear_phase,
    evolve_exact,
    evolve_piecewise,
    free_evolve,
    shift_packet,
)
from .checks import CHECK_NAMES, CheckResult, run_all_checks
from .config import (
    DEFAULT_SEED,
    EvolveSettings,
    InitialState,
    InterfereSettings,
    RunConfig,
    VerifySettings,
    default_config,
    load_config,
    parse_config,
)
from .core import (
    Grid,
    Moments,
    MomentumPacket,
    PhysicalParams,
    Trajectory,
    WavePacket,
    l2_distance,
    make_gaussian,
    moments,
    overlap,
    to_momentum,
    to_position,
)
from .errors import (
    BadQuadrature,
    BadSigma,
    ConfigError,
    DegenerateInterval,
    GridMismatch,
    GridOverflow,
    NegativeTime,
    NonFiniteState,
    NotHermitian,
    NotUnitary,
    PhaseAliasing,
    SchemeMismatch,
    SuperluminalPath,
    TooLarge,
    WavefallError,
)
from .interferometry import (
    BranchSchedules,
    Colocated,
    InterferenceRecord,
    branch_states,
    fringe_scan,
    gaussian_visibility,
    predicted_phase,
    run_protocol,
    unwrap_phases,
)
from .oracle import (
    DenseOperator,
    commutator_element,
    dense_hamiltonian,
    dense_propagator,
    fourier_matrix,
    heisenberg_position,
    matrix_element,
    momentum_operator,
    position_operator,
)
from .relativistic import (
    LimitReport,
    LimitRow,
    RelActionResult,
    free_fall_trajectory,
    nr_limit_check,
    proper_time,
    rel_action,
    static_proper_time,
)
from .splitstep import ConvergenceRow, SolverConfig, convergence_report, evolve_split_step

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "PhysicalParams",
    "Grid",
    "WavePacket",
    "MomentumPacket",
    "Moments",
    "Trajectory",
    "make_gaussian",
    "to_momentum",
    "to_position",
    "moments",
    "overlap",
    "l2_distance",
    # analytic propagation
    "evolve_exact",
    "evolve_piecewise",
    "free_evolve",
    "shift_packet",
    "apply_linear_phase",
    "apply_global_phase",
    "AccelSchedule",
    # split-step
    "SolverConfig",
    "ConvergenceRow",
    "evolve_split_step",
    "convergence_report",
    # dense oracle
    "DenseOperator",
    "fourier_matrix",
    "position_operator",
    "momentum_operator",
    "dense_hamiltonian",
    "dense_propagator",
    "heisenberg_position",
    "matrix_element",
    "commutator_element",
    # actions
    "ActionValue",
    "classical_action",
    "shifted_free_action",
    "delta_action",
    "bvp_trajectory",
    "ehrenfest_mean",
    "spread_bound",
    # relativistic
    "RelActionResult",
    "LimitRow",
    "LimitReport",
    "free_fall_trajectory",
    "proper_time",
    "rel_action",
    "nr_limit_check",
    "static_proper_time",
    # interferometry
    "Colocated",
    "BranchSchedules",
    "InterferenceRecord",
    "predicted_phase",
    "gaussian_visibility",
    "branch_states",
    "run_protocol",
    "unwrap_phases",
    "fringe_scan",
    # config
    "RunConfig",
    "InitialState",
    "EvolveSettings",
    "InterfereSettings",
    "VerifySettings",
    "DEFAULT_SEED",
    "parse_config",
    "load_config",
    "default_config",
    # checks
    "CheckResult",
    "CHECK_NAMES",
    "run_all_checks",
    # errors
    "WavefallError",
    "GridOverflow",
    "NonFiniteState",
    "BadSigma",
    "GridMismatch",
    "NegativeTime",
    "DegenerateInterval",
    "TooLarge",
    "NotHermitian",
    "NotUnitary",
    "SuperluminalPath",
    "BadQuadrature",
    "PhaseAliasing",
    "SchemeMismatch",
    "ConfigError",
]
