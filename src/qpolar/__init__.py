"""Multipole analysis of quantum polarization states.

Decomposes shell density matrices into irreducible multipoles, computes the
hierarchy of degrees of polarization, classifies K-th-order unpolarized
states ("hidden polarization"), evaluates Husimi Q functions, reconstructs
multipoles from directional Stokes moments, and searches for extremal
unpolarized states.

Each submodule is imported on the first use of a name it exports here, or of
the submodule itself (PEP 562), so `import qpolar` loads none of them.
"""

import importlib

# each submodule and the names the package exports from it
_EXPORTS = {
    "angmom": ("EulerAngles", "HalfInt", "half", "rotation_matrix", "wigner_D", "wigner_small_d"),
    "states": ("Direction", "PolarizationState", "SpinSector", "ValidationReport", "assemble", "coherent_amplitudes",
               "diag_sector", "fock_sector", "maximally_mixed", "pure_sector", "purity", "random_direction",
               "random_sector", "rotate", "su2_coherent", "validate"),
    "multipole": ("MultipoleSpectrum", "analyze", "coherent_cumulative_max", "cumulative", "degree",
                  "state_multipoles", "strengths", "unpolarization_order"),
    "stokes": ("IllConditionedError", "StokesTriple", "directional_moment", "isotropy_order", "moments_to_multipoles",
               "sample_moments", "stokes_matrices", "tomography_directions"),
    "husimi": ("QGrid", "export_qgrid", "q_function", "q_values"),
    "search": ("InfeasibleError", "SearchProblem", "SearchResult", "max_purity_unpolarized",
               "pure_anticoherent_search", "scan_three_photon_family", "scan_two_photon_family"),
    "stateio": ("SchemaError", "load_state", "save_state", "state_from_dict", "state_to_dict"),
    "catalog": (),
    "cli": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
