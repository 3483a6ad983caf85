"""Multipole analysis of quantum polarization states.

Decomposes shell density matrices into irreducible multipoles, computes the
hierarchy of degrees of polarization, classifies K-th-order unpolarized
states ("hidden polarization"), evaluates Husimi Q functions, reconstructs
multipoles from directional Stokes moments, and searches for extremal
unpolarized states.
"""

from .angmom import (
    EulerAngles,
    HalfInt,
    half,
    rotation_matrix,
    wigner_D,
    wigner_small_d,
)
from .states import (
    Direction,
    PolarizationState,
    SpinSector,
    ValidationReport,
    assemble,
    coherent_amplitudes,
    diag_sector,
    fock_sector,
    maximally_mixed,
    pure_sector,
    purity,
    random_direction,
    random_sector,
    rotate,
    su2_coherent,
    validate,
)
from .multipole import (
    MultipoleSpectrum,
    analyze,
    coherent_cumulative_max,
    cumulative,
    degree,
    state_multipoles,
    strengths,
    unpolarization_order,
)
from .stokes import (
    IllConditionedError,
    StokesTriple,
    directional_moment,
    isotropy_order,
    moments_to_multipoles,
    sample_moments,
    stokes_matrices,
    tomography_directions,
)
from .husimi import QGrid, export_qgrid, q_function, q_values
from .search import (
    InfeasibleError,
    SearchProblem,
    SearchResult,
    max_purity_unpolarized,
    pure_anticoherent_search,
    scan_three_photon_family,
    scan_two_photon_family,
)
from .stateio import SchemaError, load_state, save_state, state_from_dict, state_to_dict

__version__ = "0.1.0"
