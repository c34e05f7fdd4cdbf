"""mzweak: joint weak measurements of path and polarization at desk scale.

Simulates a single photon crossing a Mach-Zehnder interferometer with weak
von Neumann couplers on both arms: exact 4-dim state calculus and weak
values (:mod:`mzweak.quantum`), closed-form Gaussian pointer dynamics
(:mod:`mzweak.pointer`), seeded photon-counting Monte Carlo
(:mod:`mzweak.detection`), and the bootstrap analysis chain that turns scan
counts into weak values with statistical and systematic errors
(:mod:`mzweak.analysis`). The :mod:`mzweak.cli` front end ties the pieces
into reproducible, config-driven runs.
"""

from .errors import (
    ConfigError,
    DegenerateProfile,
    EmptyState,
    MissingReference,
    NonConvergence,
    NotAnEigenvalue,
    OrthogonalPostSelection,
    SimulationError,
    UnreadableInput,
    VanishingPostSelection,
    ZeroDenominator,
    ZeroScale,
)
from .quantum import (
    BASIS_LABELS,
    OutcomeDistribution,
    PrePostPair,
    SystemOperator,
    SystemState,
    abl_conditional,
    hwp_jones,
    identity_operator,
    inner,
    joint_disturbing_distribution,
    observable,
    pair,
    post_state,
    pre_state,
    qubit_pointer_excitation,
    single_mode_qubit_response,
    weak_value,
)
from .pointer import (
    Branch,
    BranchState,
    CouplerSpec,
    DEFAULT_SIGMA_UM,
    apply_coupler,
    centroid_exact,
    diagonal_coupler_composite,
    evolve,
    evolve_and_postselect,
    first_order_shift,
    marginal_intensity,
    mode_overlap,
)
from .detection import (
    DriftModel,
    G2Counts,
    ScanConfig,
    ScanRecord,
    SourceModel,
    expected_rate,
    g2_statistic,
    simulate_drift_run,
    simulate_heralded_counts,
    simulate_scan,
)
from .analysis import (
    CenterDistribution,
    FitResult,
    WeakValueEstimate,
    bootstrap_centers,
    export_results,
    fit_gaussian,
    systematic_band,
    weak_value_estimate,
)
from .config import ExperimentConfig

__version__ = "0.1.0"
