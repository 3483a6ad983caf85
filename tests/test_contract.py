"""One input contract: every count, size, order, seed and tolerance is refused by name.

A counting argument must be an integer that is not a bool, inside its range;
a tolerance must be a positive, finite real number that is not a bool.  The
sweep feeds one catalogue of bad values to every such parameter of the
public API and expects a ValueError whose message starts with the
argument's name, and no warning; a fractional or bool order, tolerance or
seed, and a preset two_s of 2.5, -1 or 10**6, were once coerced or
accepted.  The coverage check walks each module's `__all__`: a parameter
annotated as an int or a float is either swept here or exempt with a reason.
"""

import importlib
import inspect
import math
import re
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

from qpolar.catalog import preset_state
from qpolar.cli import main
from qpolar.husimi import q_function
from qpolar.multipole import (
    analyze,
    coherent_cumulative_max,
    cumulative,
    degree,
    state_multipoles,
    tensor_matrix,
    unpolarization_order,
)
from qpolar.search import SearchProblem, anticoherence_gradient, anticoherence_objective, pure_anticoherent_search
from qpolar.stateio import MAX_TWO_S, state_from_dict
from qpolar.states import Direction, coherent_amplitudes, maximally_mixed, random_sector, validate
from qpolar.stokes import (
    directional_moment,
    isotropy_order,
    moments_to_multipoles,
    read_moments,
    sample_moments,
    tomography_directions,
    write_moments,
)
from test_exports import MODULES

# the catalogue of bad values; a probe lists those its rule allows
BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0": 0, "-1": -1, "2.5": 2.5, "True": True, "'3'": "3"}

SECTOR = maximally_mixed(1)  # 2S = 2
SPECTRUM = state_multipoles(SECTOR)
SAMPLES = sample_moments(SECTOR, tomography_directions(5), 2)
PSI = np.array([1.0, 0.5, 0.25], dtype=complex)


class Probe(NamedTuple):
    where: str                  # module.callable, as `__all__` exports it
    param: str                  # the parameter, as the signature names it
    name: str                   # how the refusal names it
    call: Callable              # call(value) passes value to that parameter, all else valid
    allowed: tuple = ()         # catalogue keys the rule accepts
    past: tuple = ()            # values just past the range that are bad too


def _tol(where, call):
    return Probe(where, "tol", "tol", call, allowed=("2.5",))


SWEEP = [
    Probe("multipole.tensor_matrix", "K", "K", lambda v: tensor_matrix(1, v, 0), ("0",), (3,)),
    Probe("multipole.tensor_matrix", "q", "q", lambda v: tensor_matrix(1, 1, v), ("0", "-1"), (2, -2)),
    Probe("multipole.cumulative", "K", "K", lambda v: cumulative(SPECTRUM, v), past=(3,)),
    Probe("multipole.coherent_cumulative_max", "K", "K", lambda v: coherent_cumulative_max(1, v), past=(3,)),
    Probe("multipole.degree", "K", "K", lambda v: degree(SPECTRUM, v), past=(3,)),
    _tol("multipole.state_multipoles", lambda v: state_multipoles(SECTOR, tol=v)),
    _tol("multipole.unpolarization_order", lambda v: unpolarization_order(SPECTRUM, v)),
    _tol("multipole.analyze", lambda v: analyze(SECTOR, tol=v)),
    _tol("states.validate", lambda v: validate(SECTOR, v)),
    Probe("states.random_sector", "rank", "rank", lambda v: random_sector(1, np.random.default_rng(0), v), past=(4,)),
    Probe("husimi.q_function", "grid", "grid size n_theta", lambda v: q_function(SECTOR, (v, 4))),
    Probe("husimi.q_function", "grid", "grid size n_phi", lambda v: q_function(SECTOR, (4, v))),
    Probe("stokes.directional_moment", "ell", "ell", lambda v: directional_moment(SECTOR, Direction(0.3, 0.2), v)),
    Probe("stokes.tomography_directions", "n", "n", tomography_directions),
    Probe("stokes.isotropy_order", "max_ell", "max_ell", lambda v: isotropy_order(SECTOR, v)),
    _tol("stokes.isotropy_order", lambda v: isotropy_order(SECTOR, 1, tol=v)),
    Probe("stokes.isotropy_order", "n_directions", "n_directions", lambda v: isotropy_order(SECTOR, 1, n_directions=v),
          past=(2,)),
    Probe("stokes.sample_moments", "max_ell", "max_ell", lambda v: sample_moments(SECTOR, [Direction(0.3, 0.2)], v)),
    Probe("stokes.moments_to_multipoles", "k_max", "k_max", lambda v: moments_to_multipoles(SAMPLES, 1, v), past=(3,)),
    Probe("search.SearchProblem", "order", "order", lambda v: SearchProblem(1, v), past=(3,)),
    Probe("search.SearchProblem", "restarts", "restarts", lambda v: SearchProblem(1, 1, restarts=v)),
    Probe("search.SearchProblem", "seed", "seed", lambda v: SearchProblem(1, 1, seed=v), allowed=("0",)),
    Probe("search.pure_anticoherent_search", "order", "order", lambda v: pure_anticoherent_search(1, v, 1), past=(3,)),
    Probe("search.pure_anticoherent_search", "restarts", "restarts", lambda v: pure_anticoherent_search(1, 1, v)),
    Probe("search.pure_anticoherent_search", "seed", "seed", lambda v: pure_anticoherent_search(1, 1, 1, seed=v),
          allowed=("0",)),
    Probe("search.anticoherence_objective", "order", "order", lambda v: anticoherence_objective(PSI, 1, v), past=(3,)),
    Probe("search.anticoherence_gradient", "order", "order", lambda v: anticoherence_gradient(np.ones(6), 1, v),
          past=(3,)),
    # keyword and file fields that no signature annotates
    Probe("catalog.preset_state", "two_s", "two_s", lambda v: preset_state("eq15-coherent", two_s=v), ("0",),
          (MAX_TWO_S + 1, 10**6)),
    Probe("stateio.state_from_dict", "two_S", "two_S",
          lambda v: state_from_dict({"sectors": [{"two_S": v, "weight": 1.0, "form": "diag", "data": [1.0]}]}),
          ("0",), (MAX_TWO_S + 1,)),
]

# numeric parameters that count or bound nothing, or that the library does not take from a caller
EXEMPT = {
    "angmom.HalfInt": "twice a quantum number: any integer, checked by HalfInt itself",
    "angmom.wigner_small_d": "beta is an angle, refused when non-finite",
    "angmom.EulerAngles": "angles, refused when non-finite",
    "catalog.two_photon_pure_unpolarized": "alpha and beta are state parameters, not counts",
    "catalog.two_photon_diag_unpolarized": "lam is a state parameter, range-checked by the builder",
    "catalog.three_photon_first_order_eigs": "lam3 and lam4 are family coordinates, not counts",
    "states.Direction": "theta and phi are angles, range-checked by Direction",
    "stokes.MomentSample": "a record; moments_to_multipoles checks each sample's order and names it",
    **dict.fromkeys(
        ["multipole.MultipoleSpectrum", "multipole.ShellReport", "multipole.PolarizationReport",
         "search.RestartRecord", "search.SearchResult", "search.TwoPhotonRow", "search.ThreePhotonRow",
         "states.ValidationReport", "stokes.ReconstructionResult"],
        "a result the library builds from checked inputs",
    ),
}


def _cases():
    for probe in SWEEP:
        bad = [(k, v) for k, v in BAD.items() if k not in probe.allowed] + [(repr(v), v) for v in probe.past]
        for key, value in bad:
            yield pytest.param(probe, value, id=f"{probe.where}-{probe.name}-{key}")


@pytest.mark.parametrize("probe, value", _cases())
def test_bad_value_is_refused_by_name(probe, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as exc:
            probe.call(value)
    assert str(exc.value).startswith(f"{probe.name} must be "), str(exc.value)
    assert caught == []


@pytest.mark.parametrize("probe", [p for p in SWEEP if p.allowed], ids=lambda p: f"{p.where}-{p.name}")
def test_catalogue_values_the_rule_allows_are_accepted(probe):
    for key in probe.allowed:
        probe.call(BAD[key])


def _numeric_params():
    """(module.callable, parameter) for every parameter of an exported callable annotated as an int or a float."""
    for module in MODULES:
        mod = importlib.import_module(f"qpolar.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
                continue
            for param in inspect.signature(obj).parameters.values():
                if re.search(r"\b(int|float)\b", str(param.annotation)):
                    yield f"{module}.{name}", param.name


def test_every_numeric_parameter_is_swept_or_exempt():
    swept = {(p.where, p.param) for p in SWEEP}
    found = set(_numeric_params())
    assert sorted(k for k in found if k not in swept and k[0] not in EXEMPT) == []
    # no stale entry: each exemption names a callable with such a parameter
    assert sorted(set(EXEMPT) - {where for where, _ in found}) == []
    exported = {f"{m}.{n}" for m in MODULES for n in importlib.import_module(f"qpolar.{m}").__all__}
    assert sorted({p.where for p in SWEEP} - exported) == ["stokes.tomography_directions"]


@pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (0.3, math.inf), (np.array([0.1, math.nan]), 0.2)])
def test_coherent_amplitudes_refuse_non_finite_angles(theta, phi):
    with pytest.raises(ValueError, match="theta and phi must be finite"):
        coherent_amplitudes(1, theta, phi)


class TestMomentSamples:
    @pytest.mark.parametrize(
        "bad, message",
        [(((0.1, 0.2), 1, 0.5), "has direction (0.1, 0.2), not a Direction"),
         ((Direction(0.1, 0.2), 1), "is not a (Direction, order, value) triple"),
         ((Direction(0.1, 0.2), 1, 0.5, 0.0), "is not a (Direction, order, value) triple"),
         (0.5, "is not a (Direction, order, value) triple")],
        ids=["tuple-direction", "two-entries", "four-entries", "number"],
    )
    def test_malformed_sample_is_named_by_index(self, bad, message):
        samples = [(s.direction, s.ell, s.value) for s in SAMPLES]
        samples[3] = bad
        with pytest.raises(ValueError, match=re.escape(f"moment sample 3 {message}")):
            moments_to_multipoles(samples, 1, 2)
        with pytest.raises(ValueError, match=re.escape(f"moment sample 0 {message}")):
            moments_to_multipoles([bad] * 3, 1, 2)

    @pytest.mark.parametrize(
        "row",
        ["0.1,0.2,2.7,0.5", "0.1,x,2,0.5", "0.1,0.2,2,y", "4.0,0.2,2,0.5", "0.1,7.0,2,0.5", "0.1,0.2,2",
         "0.1,0.2,2,0.5,1"],
        ids=["fractional-order", "bad-phi", "bad-value", "theta-range", "phi-range", "three-fields", "five-fields"],
    )
    def test_unparsable_moments_row_is_named_with_its_line(self, tmp_path, capsys, row):
        path = tmp_path / "m.csv"
        write_moments(SAMPLES[:2], path)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"malformed moments row: {row!r} (line 4: ")):
            read_moments(path)
        capsys.readouterr()
        assert main(["reconstruct", str(path), "--two-s", "2", "--order", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed moments row: {row!r} (line 4: ")


class TestCli:
    @pytest.mark.parametrize(
        "argv, name",
        [(["analyze", "{state}", "--tol", "nan"], "tol"), (["analyze", "{state}", "--tol", "0"], "tol"),
         (["analyze", "{state}", "--tol", "inf"], "tol"), (["qfunc", "{state}", "--grid", "0x8", "--out", "{out}"],
                                                           "grid size n_theta"),
         (["reconstruct", "{moments}", "--two-s", "2", "--order", "0"], "k_max"),
         (["reconstruct", "{moments}", "--two-s", "-1", "--order", "1"], "--two-s"),
         (["search", "--two-s", "2", "--order", "0"], "order"),
         (["search", "--two-s", "2", "--order", "1", "--restarts", "0"], "restarts"),
         (["search", "--two-s", "2", "--order", "1", "--seed", "-1", "--class", "pure"], "seed"),
         (["scan", "--family", "two-photon", "--points", "0"], "--points"),
         (["make-state", "eq15-coherent", "--two-s", str(MAX_TWO_S + 1), "--out", "{out}"], "--two-s")],
        ids=["tol-nan", "tol-zero", "tol-inf", "grid", "order-k-max", "reconstruct-two-s", "search-order", "restarts",
             "seed", "points", "make-state-two-s"],
    )
    def test_bad_count_or_tolerance_exits_2(self, tmp_path, capsys, argv, name):
        files = {"state": tmp_path / "s.json", "moments": tmp_path / "m.csv", "out": tmp_path / "out"}
        assert main(["make-state", "eq15-coherent", "--out", str(files["state"])]) == 0
        write_moments(SAMPLES, files["moments"])
        capsys.readouterr()
        assert main([a.format(**files) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} must be "), captured.err
        assert captured.out == ""
        assert not files["out"].exists()
