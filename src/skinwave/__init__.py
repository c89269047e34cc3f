"""Wave-packet dynamics in non-Hermitian lattices with open boundaries."""

from .errors import (
    ConfigError,
    DefectiveMatrix,
    DegenerateDensity,
    DimensionMismatch,
    ExceptionalParameter,
    InsufficientData,
    InvalidGrid,
    InvalidParameter,
    NumericalOverflow,
    SkinwaveError,
    UnknownPreset,
    WidthUnavailable,
)
from .evolve import (
    EvolutionResult,
    SpectralDecomposition,
    WaveState,
    decompose,
    decompose_model,
    evolve_series,
    matrix_exp,
    propagate_expm,
    propagate_spectral,
)
from .model import (
    BoundarySSH,
    ContinuousHN,
    DiscreteHN,
    Geometry,
    HamiltonianMatrix,
    ModelSpec,
    NonHermitianSSH,
    bloch_dispersion,
    build_gradient_forward,
    build_hamiltonian,
    build_laplacian,
    group_velocity,
    hermitian_dispersion,
)
from .oracle import (
    GeneralOracleParams,
    HNOracleParams,
    general_peak,
    general_velocities,
    hn_density,
    hn_peak,
    hn_width_series,
    measured_width_series,
    norm_amplification,
    sigma_sq_t,
)
from .similarity import (
    chain_similarity,
    hermiticity_residual,
    skin_factor,
    skin_factor_per_unit_length,
)
from .wavepacket import (
    AnalysisOptions,
    GaussianParams,
    LinearFit,
    ReflectionOutcome,
    TrajectorySeries,
    classify_reflection,
    density,
    extract_trajectory,
    gaussian_state,
    measure_frames,
    top_two_peaks,
)

__version__ = "0.1.0"
