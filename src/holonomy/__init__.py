"""Geometric phases and angle shifts for driven quantum, classical, and
quantum-classical hybrid systems, computed from holonomy one-forms and
cross-validated by time-domain propagation."""

__version__ = "0.1.0"

from .errors import (
    ConfigInvalid,
    EllipticViolation,
    EnergyMismatch,
    GapTooSmall,
    HermiticityViolation,
    HolonomyError,
    LengthMismatch,
    ModeCollapse,
    NonAdiabatic,
    NonFinite,
    NotClosed,
    NotNormalized,
    NotUnitary,
    OmegaImaginary,
    OverlapTooSmall,
    PoleProximity,
    ResidualTooLarge,
    TooFewSamples,
    TooManySteps,
    WeakCouplingViolated,
)
from .manifold import (
    DEFAULT_SAMPLES,
    LoopSpec,
    QuadratureResult,
    StandardLoopParams,
    circle_loop,
    closed_line_integral,
    combined_parameter_loop,
    periodic_integral,
    standard_parameter_loops,
    subsystem_parameter_loop,
)
from .quantum_geometry import (
    ActionAngle,
    EigenFrame,
    HamiltonianFamily,
    StokesVector,
    action_angle_transform,
    berry_and_hannay,
    classicalize,
    eigenframe_along_loop,
    finite_difference_connection,
    pauli_matrices,
    reconstruct,
    spin_hannay_closed_form,
    stokes_vector,
    theta_averaged_one_form,
)
from .models import (
    SpinOscillatorHybrid,
    cone_loop,
    spin_hamiltonian_family,
    spin_oscillator_loop,
)
from .hybrid_pipeline import (
    BRANCH_COMMON,
    BRANCH_SUBSYSTEM,
    HybridPhaseReport,
    LinearOneForm,
    PhaseSet,
    bo_full_quantum_phase,
    bo_full_quantum_phase_parts,
    coupled_gho_one_form,
    elliptic_bound,
    full_quantum_phase,
    gamma_n0_closed_form,
    phases_from_one_form,
    single_gho_phase,
    spin_oscillator_one_form,
    standard_loop_report,
)
from .dynamics_oracle import (
    ClassicalTrajectory,
    QuantumPropagation,
    action_angle_to_qp,
    extract_geometric_phase,
    extract_hannay_angle,
    propagate_classical,
    propagate_quantum,
    recommended_steps_per_sample,
)
