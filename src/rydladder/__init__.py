"""Rydberg-ladder simulators, effective spin-1 chains, and parameter matching."""

from .basis import (
    RungConstraint,
    RydbergBasis,
    Spin1Basis,
    StateDictionary,
    enumerate_rydberg,
    project_to_spin1,
)
from .effective import (
    BoundaryCondition,
    EffectiveCoefficients,
    MatchingError,
    ResonanceError,
    TargetCouplings,
    coeffs_in_plane,
    coeffs_prism,
    coeffs_three_leg,
    coeffs_two_leg,
    match_forward,
    match_inverse,
    rung_rabi_j,
    target_coefficients,
)
from .geometry import (
    DEFAULT_C6,
    TWO_PI,
    AtomArray,
    GeometryError,
    LadderKind,
    LadderSpec,
    blockade_radius,
    build_ladder,
    ladder_couplings,
    pairwise_couplings,
)
from .hamiltonians import (
    FlipOperator,
    SparseOperator,
    charge_kernel,
    effective_spin1_hamiltonian,
    rydberg_hamiltonian,
    sqed_charge_hamiltonian,
)
from .observables import (
    OrderParameters,
    Phase,
    SiteProfile,
    classify_phase,
    order_parameters,
    renyi_entropy,
    site_profiles,
    site_tables,
    susceptibility_peak,
)
from .solvers import (
    ConvergenceError,
    SolverError,
    SpectrumResult,
    dense_eigs,
    ground_state,
    krylov_evolve,
    sector_eigenstates,
)

__version__ = "0.1.0"
