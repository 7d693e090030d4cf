"""Biorthogonal fidelity and exceptional-point toolkit for PT-symmetric
lattice models: dense and Krylov biorthogonal eigensolvers, the catalogue
of non-Hermitian fidelity definitions with their susceptibilities, the
two-leg SSH ladder in closed form, sparse exact diagonalization of the
staggered-gain XXZ ring, and a sweep driver with EP detection."""

from ._version import VERSION as __version__
from .biortho import (
    BiorthogonalEigensystem,
    PTClassification,
    SparseComplexSymmetricMatrix,
    biorthogonal_eig,
    classify_pt,
    dense_full_spectrum,
    dense_ground_pair,
    gauge_factor,
    ground_state_index,
    metric_operator,
    pt_partner_state,
)
from .errors import (
    AmbiguousPairingError,
    AtExceptionalMomentumError,
    BasisCapExceededError,
    ConfigError,
    DefectiveMatrixError,
    DegenerateDenominatorError,
    DimensionMismatchError,
    DimTooLargeError,
    GridCrossesEPError,
    InsufficientSizesError,
    NoConvergenceError,
    NotBrokenError,
    NoTransitionError,
    OddLError,
    PartnerMismatchError,
    PtfidelityError,
    UnpairableSpectrumError,
)
from .fidelity import (
    FidelityRecord,
    OneHalfResult,
    PerturbationDirection,
    bisect_ep,
    chi_finite_difference,
    chi_perturbative,
    chi_real_part,
    chi_rr_perturbative,
    fidelity_variant,
    metricized_fidelity,
    one_half_ep_test,
    second_order_energy,
)
from .lanczos import LanczosResult, complex_symmetric_lanczos
from .ssh import (
    BandPoint,
    BerryPhase,
    BlochStates,
    EPGeometry,
    ManyBodyFidelity,
    OpenBoundaryResult,
    SshParams,
    band_discriminant,
    band_point,
    bloch_dv1,
    bloch_matrix,
    chi_k_metricized,
    chi_k_rr,
    chi_total,
    complex_berry_phase,
    ep_momenta,
    many_body_fidelity,
    open_boundary_spectrum,
    positive_divergence_curve,
    single_particle_states,
)
from .sweep import (
    Axis,
    SweepConfig,
    SweepResult,
    emit,
    parse_config,
    run_sweep,
)
from .xxz import (
    M0Basis,
    PeakExtrapolation,
    XxzGroundState,
    XxzParams,
    build_hamiltonian,
    build_m0_basis,
    fidelity_scan,
    full_sector_spectrum,
    ground_state,
    peak_and_extrapolate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
