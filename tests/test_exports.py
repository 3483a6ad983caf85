"""Every exported name resolves: each module's __all__ and the package's lazily imported names."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import qpolar

# every module but the entry points declares its exports
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(qpolar.__path__) if m.name not in ("__main__", "cli")
)

# the names `qpolar` exports, by the module each is read from
PACKAGE = {
    "angmom": ["EulerAngles", "HalfInt", "half", "rotation_matrix", "wigner_D", "wigner_small_d"],
    "states": ["Direction", "PolarizationState", "SpinSector", "ValidationReport", "assemble", "coherent_amplitudes",
               "diag_sector", "fock_sector", "maximally_mixed", "pure_sector", "purity", "random_direction",
               "random_sector", "rotate", "su2_coherent", "validate"],
    "multipole": ["MultipoleSpectrum", "analyze", "coherent_cumulative_max", "cumulative", "degree",
                  "state_multipoles", "strengths", "unpolarization_order"],
    "stokes": ["IllConditionedError", "StokesTriple", "directional_moment", "isotropy_order", "moments_to_multipoles",
               "sample_moments", "stokes_matrices", "tomography_directions"],
    "husimi": ["QGrid", "export_qgrid", "q_function", "q_values"],
    "search": ["InfeasibleError", "SearchProblem", "SearchResult", "max_purity_unpolarized",
               "pure_anticoherent_search", "scan_three_photon_family", "scan_two_photon_family"],
    "stateio": ["SchemaError", "load_state", "save_state", "state_from_dict", "state_to_dict"],
}
PACKAGE_NAMES = [(module, name) for module, names in PACKAGE.items() for name in names]


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"qpolar.{module}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_exports_the_same_names():
    assert len(PACKAGE_NAMES) == 54
    assert sorted(qpolar.__all__) == sorted(name for _, name in PACKAGE_NAMES)
    assert qpolar.__version__ == "0.1.0"


def test_package_imports_resolve():
    found = [f"{module}.{name}" for module, name in PACKAGE_NAMES
             if getattr(qpolar, name) is not getattr(importlib.import_module(f"qpolar.{module}"), name)]
    assert found == []


def test_dir_lists_every_export_and_submodule():
    assert sorted(set(qpolar.__all__) - set(dir(qpolar))) == []
    assert {"search", "stokes", "cli"} <= set(dir(qpolar))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from qpolar import *", namespace)
    assert sorted(set(qpolar.__all__) - set(namespace)) == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'qpolar' has no attribute 'no_such_name'$"):
        qpolar.no_such_name
    assert not hasattr(qpolar, "__main__")  # only the listed submodules resolve: this one would run the CLI


def test_a_bare_import_resolves_a_submodule():
    res = subprocess.run(
        [sys.executable, "-c", "import qpolar; print(qpolar.search.SearchProblem.__qualname__)"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "SearchProblem\n"
