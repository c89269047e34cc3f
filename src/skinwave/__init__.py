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
    band_curvature,
    build_hamiltonian,
    group_velocity,
)
from .oracle import (
    GeneralOracleParams,
    general_peak,
    general_velocities,
    width_series,
)
from .similarity import (
    chain_similarity,
    skin_factor,
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
