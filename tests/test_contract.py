"""One input contract: every count, size, order, seed, tolerance, spin, real number and file number is refused by name.

A counting argument must be an integer that is not a bool, inside its range;
a tolerance must be a positive, finite real number that is not a bool; a
spin must be an integer or half-integer with 2S in [0, MAX_TWO_S]; a real
(or complex) number must be a finite number that is not a bool, and an array
of them a list of the right length whose bad entry is named by index.  The
sweeps feed one catalogue of bad values to every such parameter of the
public API and expect a ValueError whose message starts with the
argument's name, and no warning; a fractional or bool order, tolerance or
seed, a preset two_s of 2.5, -1 or 10**6, a spin of 2S = 201, and a bool or
numeric string among eigenvalues, amplitudes, angles, weights or scan points,
were once coerced or accepted.  The coverage check walks each module's
`__all__`: a parameter annotated as an int, a float, a complex or an ndarray,
or named S, j or spin or as one of `REAL_NAMES`, is either swept here or
exempt with a reason.  State-file payloads and preset arguments follow the
same rule: a number is a number, never a string, bool or null, and a preset
refuses a key it does not read.  An object of the wrong type where a shell, a
state, a spectrum, a search problem, a random generator or a list of
directions or moment samples is wanted (an array, None, a bare Direction, a
PolarizationState for one shell) is refused by name too, with its own
coverage check.  Every public object is read-only, copies and pickles
included: the class sweep sets, deletes and writes into each one, and no
module but `angmom` holds a second way to set an attribute.
"""

import ast
import copy
import importlib
import inspect
import json
import math
import os
import pathlib
import pickle
import re
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

from qpolar.angmom import EulerAngles, HalfInt, rotation_matrix, wigner_D, wigner_small_d
from qpolar.catalog import (
    PRESETS,
    preset_state,
    three_photon_first_order_eigs,
    two_photon_diag_unpolarized,
    two_photon_pure_unpolarized,
)
from qpolar.cli import main
from qpolar.husimi import export_qgrid, q_function, q_values
from qpolar.multipole import (
    analyze,
    coherent_cumulative_max,
    cumulative,
    degree,
    state_multipoles,
    strengths,
    tensor_matrix,
    unpolarization_order,
)
from qpolar.search import (
    SearchProblem,
    anticoherence_gradient,
    anticoherence_objective,
    max_purity_unpolarized,
    pure_anticoherent_search,
    scan_three_photon_family,
    scan_two_photon_family,
)
from qpolar.stateio import MAX_TWO_S, SchemaError, save_state, state_from_dict, state_to_dict
from qpolar.states import (
    Direction,
    PolarizationState,
    SpinSector,
    assemble,
    coherent_amplitudes,
    diag_sector,
    fock_sector,
    maximally_mixed,
    pure_sector,
    purity,
    random_angles,
    random_direction,
    random_sector,
    rotate,
    su2_coherent,
    validate,
)
from qpolar.stokes import (
    directional_moment,
    isotropy_order,
    moments_to_multipoles,
    read_moments,
    sample_moments,
    stokes_matrices,
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
    return Probe(where, "tol", "tol", call, allowed=("2.5",), past=(10**400,))


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
    # the first orders past angmom.MAX_ENTRIES: powers [3, 666667] at 2S = 2, or moments [2001 directions, 1000]
    Probe("stokes.directional_moment", "ell", "ell", lambda v: directional_moment(SECTOR, Direction(0.3, 0.2), v),
          past=(666666,)),
    Probe("stokes.tomography_directions", "n", "n", tomography_directions),
    Probe("stokes.isotropy_order", "max_ell", "max_ell", lambda v: isotropy_order(SECTOR, v), past=(1000,)),
    _tol("stokes.isotropy_order", lambda v: isotropy_order(SECTOR, 1, tol=v)),
    Probe("stokes.isotropy_order", "n_directions", "n_directions", lambda v: isotropy_order(SECTOR, 1, n_directions=v),
          past=(2,)),
    Probe("stokes.sample_moments", "max_ell", "max_ell", lambda v: sample_moments(SECTOR, [Direction(0.3, 0.2)], v),
          past=(666666,)),
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
    "stokes.MomentSample": "a record; moments_to_multipoles checks each sample's order and value and names it",
    "stokes.write_moments": "writes the samples it is given; read_moments and moments_to_multipoles check them",
    "husimi.export_qgrid": "grid is a QGrid that q_function built",
    **dict.fromkeys(
        ["husimi.QGrid", "multipole.MultipoleSpectrum", "multipole.ShellReport", "multipole.PolarizationReport",
         "search.FamilyScan", "search.RestartRecord", "search.SearchResult", "search.TwoPhotonRow",
         "search.ThreePhotonRow", "states.ValidationReport", "stokes.ReconstructionResult", "stokes.StokesTriple"],
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


# the catalogue of values that are no finite number; a real parameter refuses every one
BAD_REALS = {"nan": math.nan, "inf": math.inf, "True": True, "np.True_": np.True_, "'0.3'": "0.3", "None": None,
             "[0.3]": [0.3], "10**400": 10**400}

# unannotated parameters that take real or complex numbers, alone or in lists
REAL_NAMES = ("theta", "phi", "rho", "eigenvalues", "amplitudes", "entries", "lams", "grid", "samples", "psi", "x")


MOMENT_ROWS = [(s.direction, s.ell, s.value) for s in SAMPLES]

# each call puts the value at the named entry of the parameter, with every other argument valid
REAL_SWEEP = [
    Probe("angmom.wigner_small_d", "beta", "beta", lambda v: wigner_small_d(1, v)),
    Probe("angmom.EulerAngles", "alpha", "alpha", lambda v: EulerAngles(v, 0.2, 0.3)),
    Probe("angmom.EulerAngles", "beta", "beta", lambda v: EulerAngles(0.1, v, 0.3)),
    Probe("angmom.EulerAngles", "gamma", "gamma", lambda v: EulerAngles(0.1, 0.2, v)),
    Probe("states.Direction", "theta", "theta", lambda v: Direction(v, 0.2)),
    Probe("states.Direction", "phi", "phi", lambda v: Direction(0.3, v)),
    Probe("states.Direction.from_vector", "v", "v[0]", lambda v: Direction.from_vector([v, 0.0, 1.0])),
    Probe("states.SpinSector", "rho", "rho[1][2]",
          lambda v: SpinSector(1, [[1 / 3, 0.0, 0.0], [0.0, 1 / 3, v], [0.0, 0.0, 1 / 3]])),
    Probe("states.coherent_amplitudes", "theta", "theta", lambda v: coherent_amplitudes(1, v, 0.2)),
    Probe("states.coherent_amplitudes", "phi", "phi", lambda v: coherent_amplitudes(1, 0.3, v)),
    Probe("states.diag_sector", "eigenvalues", "eigenvalues[1]", lambda v: diag_sector(1, [0.5, v, 0.25])),
    Probe("states.pure_sector", "amplitudes", "amplitudes[2]", lambda v: pure_sector(1, [1.0, 0.5, v])),
    Probe("states.PolarizationState", "entries", "entries[1][0]",
          lambda v: PolarizationState([(0.5, SECTOR), (v, maximally_mixed(0.5))])),
    Probe("states.assemble", "entries", "entries[0][0]", lambda v: assemble([(v, SECTOR)])),
    Probe("stokes.moments_to_multipoles", "samples", "sample values[3]",
          lambda v: moments_to_multipoles(MOMENT_ROWS[:3] + [MOMENT_ROWS[3][:2] + (v,)] + MOMENT_ROWS[4:], 1, 2)),
    Probe("search.anticoherence_objective", "psi", "psi[1]", lambda v: anticoherence_objective([1.0, v, 0.25], 1, 1)),
    Probe("search.anticoherence_gradient", "x", "x[4]", lambda v: anticoherence_gradient([1.0] * 4 + [v, 1.0], 1, 1)),
    Probe("search.scan_two_photon_family", "lams", "lams[1]", lambda v: scan_two_photon_family([0.25, v])),
    Probe("search.scan_three_photon_family", "grid", "grid[1][1]",
          lambda v: scan_three_photon_family("first-order", [(0.25, 0.25), (0.5, v)])),
    Probe("search.scan_three_photon_family", "grid", "grid[1]",
          lambda v: scan_three_photon_family("second-order", [0.25, v])),
    Probe("catalog.two_photon_pure_unpolarized", "alpha", "alpha", lambda v: two_photon_pure_unpolarized(v, 0.5)),
    Probe("catalog.two_photon_pure_unpolarized", "beta", "beta", lambda v: two_photon_pure_unpolarized(0.1, v)),
    Probe("catalog.two_photon_diag_unpolarized", "lam", "lam", two_photon_diag_unpolarized),
    Probe("catalog.three_photon_first_order_eigs", "lam3", "lam3", lambda v: three_photon_first_order_eigs(v, 0.2)),
    Probe("catalog.three_photon_first_order_eigs", "lam4", "lam4", lambda v: three_photon_first_order_eigs(0.3, v)),
    # keyword arguments that no signature names; state-file numbers are swept by TestPayloadNumbers
    *[Probe("catalog.preset_state", "args", key, lambda v, n=name, k=key: preset_state(n, **{k: v}))
      for name, key in [("eq15-coherent", "theta"), ("eq15-coherent", "phi"), ("eq23-pson", "alpha"),
                        ("eq23-pson", "beta"), ("eq24-diag2", "lam"), ("eq29-diag32nd", "lam")]],
]


@pytest.mark.parametrize("value", BAD_REALS.values(), ids=BAD_REALS)
@pytest.mark.parametrize("probe", REAL_SWEEP, ids=lambda p: f"{p.where}-{p.name}")
def test_value_that_is_no_finite_number_is_refused_by_name(probe, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as exc:
            probe.call(value)
    assert str(exc.value) == f"{probe.name} must be a finite number, got {value!r}"
    assert caught == []


def _numeric_params():
    """(module.callable, parameter) for every parameter of an exported callable that takes numbers.

    That is, annotated as an int, a float, a complex or an ndarray, or named as one of `REAL_NAMES`.
    """
    for module in MODULES:
        mod = importlib.import_module(f"qpolar.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.name in REAL_NAMES or re.search(r"\b(int|float|complex|ndarray)\b", str(param.annotation)):
                    yield f"{module}.{name}", param.name


def test_every_numeric_parameter_is_swept_or_exempt():
    swept = {(p.where, p.param) for p in SWEEP + REAL_SWEEP}
    found = set(_numeric_params())
    assert sorted(k for k in found if k not in swept and k[0] not in EXEMPT) == []
    # no stale entry: each exemption names a callable with such a parameter
    assert sorted(set(EXEMPT) - {where for where, _ in found}) == []
    exported = {f"{m}.{n}" for m in MODULES for n in importlib.import_module(f"qpolar.{m}").__all__}
    assert sorted({p.where for p in SWEEP + REAL_SWEEP} - exported) == ["states.Direction.from_vector",
                                                                        "stokes.tomography_directions"]
    # the real parameters that neither an annotation nor a name finds are the ones swept by hand
    assert sorted({(p.where, p.param) for p in REAL_SWEEP} - found) == [
        ("catalog.preset_state", "args"), ("states.Direction.from_vector", "v")]


@pytest.mark.parametrize(
    "theta, phi, message",
    [(math.nan, 0.0, "theta must be a finite number, got nan"), (0.3, math.inf, "phi must be a finite number, got inf"),
     (np.array([0.1, math.nan]), 0.2, "theta[1] must be a finite number, got np.float64(nan)")],
    ids=["nan-0.0", "0.3-inf", "theta2-0.2"],
)
def test_coherent_amplitudes_refuse_non_finite_angles(theta, phi, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        coherent_amplitudes(1, theta, phi)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: Direction("0.3", 0.2), "theta must be a finite number, got '0.3'"),
     (lambda: Direction(0.3, True), "phi must be a finite number, got True"),
     (lambda: EulerAngles("0.1", 0.0, 0.0), "alpha must be a finite number, got '0.1'"),
     (lambda: EulerAngles(0.1, None, 0.0), "beta must be a finite number, got None"),
     (lambda: EulerAngles(0.1, 0.0, [0.0]), "gamma must be a finite number, got [0.0]"),
     (lambda: fock_sector(1, 0.25), "m must be an integer or half-integer, got 0.25"),
     (lambda: fock_sector(1, "x"), "m must be an integer or half-integer, got 'x'"),
     (lambda: sample_moments(SECTOR, [Direction(0.3, 0.2), (0.3, 0.2)], 1),
      "directions[1] must be of type Direction, got (0.3, 0.2)"),
     (lambda: directional_moment(SECTOR, (0.3, 0.2), 1), "direction must be of type Direction, got (0.3, 0.2)"),
     (lambda: q_values(SECTOR, [(0.3, 0.2)]), "directions[0] must be of type Direction, got (0.3, 0.2)"),
     (lambda: su2_coherent(1, (0.3, 0.2)), "direction must be of type Direction, got (0.3, 0.2)"),
     (lambda: rotate(SECTOR, (0.1, 0.2, 0.3)), "angles must be of type EulerAngles, got (0.1, 0.2, 0.3)"),
     (lambda: wigner_D(1, [0.1, 0.2, 0.3]), "angles must be of type EulerAngles, got [0.1, 0.2, 0.3]"),
     (lambda: rotation_matrix(Direction(0.3, 0.2)),
      "angles must be of type EulerAngles, got Direction(theta=0.3, phi=0.2)")],
    ids=["direction-theta", "direction-phi", "euler-alpha", "euler-beta", "euler-gamma", "fock-m-quarter",
         "fock-m-string", "sample-directions", "moment-direction", "q-directions",
         "coherent-direction", "rotate-angles", "wigner-D-angles", "rotation-matrix-angles"],
)
def test_angle_or_projection_that_is_no_number_is_refused_by_name(call, message):
    # these once raised numpy's or math's TypeError or AttributeError, or named no argument
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestMomentSamples:
    @pytest.mark.parametrize(
        "bad, message",
        [(((0.1, 0.2), 1, 0.5), "moment sample {i} has direction (0.1, 0.2), not a Direction"),
         ((Direction(0.1, 0.2), 1), "moment sample {i} is not a (Direction, order, value) triple"),
         ((Direction(0.1, 0.2), 1, 0.5, 0.0), "moment sample {i} is not a (Direction, order, value) triple"),
         (0.5, "moment sample {i} is not a (Direction, order, value) triple"),
         ((Direction(0.1, 0.2), 1, "x"), "sample values[{i}] must be a finite number, got 'x'"),
         ((Direction(0.1, 0.2), 1, [0.5]), "sample values[{i}] must be a finite number, got [0.5]"),
         ((Direction(0.1, 0.2), 1, "0.0"), "sample values[{i}] must be a finite number, got '0.0'"),
         ((Direction(0.1, 0.2), 1, True), "sample values[{i}] must be a finite number, got True"),
         ((Direction(0.1, 0.2), 1, np.True_), "sample values[{i}] must be a finite number, got np.True_"),
         ((Direction(0.1, 0.2), 1, -10**400), f"sample values[{{i}}] must be a finite number, got {-10**400}")],
        ids=["tuple-direction", "two-entries", "four-entries", "number", "string-value", "list-value",
             "numeric-string-value", "bool-value", "numpy-bool-value", "int-past-float-range"],
    )
    def test_malformed_sample_is_named_by_index(self, bad, message):
        samples = [(s.direction, s.ell, s.value) for s in SAMPLES]
        samples[3] = bad
        with pytest.raises(ValueError, match=re.escape(message.format(i=3))):
            moments_to_multipoles(samples, 1, 2)
        with pytest.raises(ValueError, match=re.escape(message.format(i=0))):
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


# the catalogue of bad spins: 2S negative, fractional, non-finite, no number, or one past MAX_TWO_S
BAD_SPINS = {"-1": -1, "-0.5": -0.5, "0.25": 0.25, "nan": math.nan, "inf": math.inf, "True": True, "'1'": "1",
             "HalfInt(-2)": HalfInt(-2), "MAX_TWO_S/2+1/2": MAX_TWO_S / 2 + 0.5}

# where, the parameter, and a call passing the spin to it with every other argument valid at S = 1
SPIN_SWEEP = [
    ("angmom.wigner_small_d", "j", lambda v: wigner_small_d(v, 0.3)),
    ("angmom.wigner_D", "j", lambda v: wigner_D(v, EulerAngles(0.1, 0.2, 0.3))),
    ("states.SpinSector", "spin", lambda v: SpinSector(v, np.eye(3) / 3)),
    ("states.fock_sector", "S", lambda v: fock_sector(v, 0)),
    ("states.coherent_amplitudes", "S", lambda v: coherent_amplitudes(v, 0.3, 0.2)),
    ("states.su2_coherent", "S", lambda v: su2_coherent(v, Direction(0.3, 0.2))),
    ("states.diag_sector", "S", lambda v: diag_sector(v, [0.5, 0.25, 0.25])),
    ("states.pure_sector", "S", lambda v: pure_sector(v, PSI)),
    ("states.maximally_mixed", "S", maximally_mixed),
    ("states.random_sector", "S", lambda v: random_sector(v, np.random.default_rng(0))),
    ("stokes.stokes_matrices", "S", stokes_matrices),
    ("stokes.moments_to_multipoles", "S", lambda v: moments_to_multipoles(SAMPLES, v, 2)),
    ("multipole.tensor_matrix", "S", lambda v: tensor_matrix(v, 0, 0)),
    ("multipole.coherent_cumulative_max", "S", lambda v: coherent_cumulative_max(v, 1)),
    ("search.SearchProblem", "spin", lambda v: SearchProblem(v, 1)),
    ("search.pure_anticoherent_search", "S", lambda v: pure_anticoherent_search(v, 1, 1)),
    ("search.anticoherence_objective", "S", lambda v: anticoherence_objective(PSI, v, 1)),
    ("search.anticoherence_gradient", "S", lambda v: anticoherence_gradient(np.ones(6), v, 1)),
]

# callables with a spin parameter that take it from the library, not from a caller
SPIN_EXEMPT = dict.fromkeys(
    ["husimi.QGrid", "multipole.MultipoleSpectrum", "stokes.StokesTriple", "stokes.ReconstructionResult"],
    "a result the library builds from a checked spin",
)


@pytest.mark.parametrize("where, param, call", SPIN_SWEEP, ids=[w for w, _, _ in SPIN_SWEEP])
@pytest.mark.parametrize("value", BAD_SPINS.values(), ids=BAD_SPINS)
def test_bad_spin_is_refused_by_name(where, param, call, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as exc:
            call(value)
    want = f"{param} must be an integer or half-integer with 2S in [0, MAX_TWO_S] = [0, {MAX_TWO_S}], got {value!r}"
    assert str(exc.value) == want
    assert caught == []


@pytest.mark.parametrize("value", [1, 1.0, np.float64(1.0), HalfInt(2)], ids=["1", "1.0", "float64", "HalfInt(2)"])
@pytest.mark.parametrize("where, param, call", SPIN_SWEEP, ids=[w for w, _, _ in SPIN_SWEEP])
def test_spin_forms_of_one_shell_are_accepted(where, param, call, value):
    call(value)


def test_spin_range_ends_are_accepted():
    assert maximally_mixed(0).spin.twice == 0
    assert stokes_matrices(MAX_TWO_S / 2).sz.shape == (MAX_TWO_S + 1,) * 2
    assert SearchProblem(HalfInt(MAX_TWO_S), 1).spin == MAX_TWO_S / 2


def test_every_spin_parameter_is_swept_or_exempt():
    found = set()
    for module in MODULES:
        mod = importlib.import_module(f"qpolar.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
                found |= {(f"{module}.{name}", p) for p in inspect.signature(obj).parameters if p in ("S", "j", "spin")}
    swept = {(where, param) for where, param, _ in SPIN_SWEEP}
    assert sorted(k for k in found - swept if k[0] not in SPIN_EXEMPT) == []
    assert sorted(set(SPIN_EXEMPT) - {where for where, _ in found}) == []
    assert sorted(swept - found) == []


class TestPayloadNumbers:
    """Each form's numbers, and the weight, refuse a string, a bool, null, a nested list and a wrong length."""

    VALID = {
        "matrix": {"two_S": 0, "weight": 1.0, "form": "matrix", "data": [[[1.0, 0.0]]]},
        "diag": {"two_S": 1, "weight": 1.0, "form": "diag", "data": [0.5, 0.5]},
        "pure": {"two_S": 1, "weight": 1.0, "form": "pure", "data": [[1.0, 0.0], [0.0, 0.0]]},
        "fock": {"two_S": 1, "weight": 1.0, "form": "fock", "data": {"two_m": 1}},
        "coherent": {"two_S": 1, "weight": 1.0, "form": "coherent", "data": {"theta": 0.3, "phi": 0.2}},
    }
    # (form, the payload, the name the refusal starts with)
    BAD = [
        ("matrix", [[["1", 0.0]]], "matrix data[0][0][0] must be a finite number"),
        ("matrix", [[[True, 0]]], "matrix data[0][0][0] must be a finite number"),
        ("matrix", [[[1.0, None]]], "matrix data[0][0][1] must be a finite number"),
        ("matrix", [[[[1.0], 0.0]]], "matrix data[0][0][0] must be a finite number"),
        ("matrix", [[[1.0, 0.0], [0.0, 0.0]]], "matrix data[0] must be a list of 1 entries"),
        ("matrix", [[1.0]], "matrix data[0][0] must be a list of 2 entries"),
        ("matrix", [], "matrix data must be a list of 1 entries"),
        ("diag", ["0.5", "0.5"], "diag data[0] must be a finite number"),
        ("diag", [0.5, False], "diag data[1] must be a finite number"),
        ("diag", [None, 0.5], "diag data[0] must be a finite number"),
        ("diag", [[0.5], 0.5], "diag data[0] must be a finite number"),
        ("diag", [1.0], "diag data must be a list of 2 entries"),
        ("pure", [["1", 0.0], [0.0, 0.0]], "pure data[0][0] must be a finite number"),
        ("pure", [[1.0, 0.0], [0.0, True]], "pure data[1][1] must be a finite number"),
        ("pure", [None, [0.0, 0.0]], "pure data[0] must be a list of 2 entries"),
        ("pure", [[1.0, [0.0]], [0.0, 0.0]], "pure data[0][1] must be a finite number"),
        ("pure", [[1.0, 0.0, 0.0], [0.0, 0.0]], "pure data[0] must be a list of 2 entries"),
        ("pure", [[1.0, 0.0]], "pure data must be a list of 2 entries"),
        ("fock", {"two_m": "1"}, "fock two_m must be an integer in [-2S, 2S] = [-1, 1]"),
        ("fock", {"two_m": True}, "fock two_m must be an integer in [-2S, 2S] = [-1, 1]"),
        ("fock", {"two_m": None}, "fock two_m must be an integer in [-2S, 2S] = [-1, 1]"),
        ("fock", {"two_m": [1]}, "fock two_m must be an integer in [-2S, 2S] = [-1, 1]"),
        ("fock", {"two_m": 1.0}, "fock two_m must be an integer in [-2S, 2S] = [-1, 1]"),
        ("coherent", {"theta": "0.3", "phi": 0.2}, "coherent theta must be a finite number"),
        ("coherent", {"theta": 0.3, "phi": True}, "coherent phi must be a finite number"),
        ("coherent", {"theta": None, "phi": 0.2}, "coherent theta must be a finite number"),
        ("coherent", {"theta": [0.3], "phi": 0.2}, "coherent theta must be a finite number"),
        ("coherent", {"theta": 0.3}, "coherent data must be {'theta': number, 'phi': number}"),
    ]

    @staticmethod
    def _refused(tmp_path, capsys, sector, message):
        with pytest.raises(SchemaError) as exc:
            state_from_dict({"sectors": [sector]})
        assert str(exc.value).startswith(message), str(exc.value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sectors": [sector]}))
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.out == ""

    @pytest.mark.parametrize("form, data, message", BAD, ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(BAD)])
    def test_bad_payload_is_refused_by_form_and_entry(self, tmp_path, capsys, form, data, message):
        state_from_dict({"sectors": [self.VALID[form]]})  # the payload is the only fault
        self._refused(tmp_path, capsys, {**self.VALID[form], "data": data}, message)

    def test_numbers_that_only_the_entry_by_entry_read_takes_give_the_same_state(self):
        # an ndarray row is a list of numbers, but not one the whole-list check flattens, so it passes it on
        slow = {**self.VALID["pure"], "data": [np.array([1.0, 0.0]), [0.0, 0.0]]}
        want = state_from_dict({"sectors": [self.VALID["pure"]]}).entries[0][1].rho
        assert state_from_dict({"sectors": [slow]}).entries[0][1].rho.tobytes() == want.tobytes()

    def test_integers_past_the_float_range_are_named_even_when_their_sum_is_finite(self):
        with pytest.raises(SchemaError, match=r"^diag data\[0\] must be a finite number, got 1000"):
            state_from_dict({"sectors": [{**self.VALID["diag"], "data": [10**400, -(10**400)]}]})

    @pytest.mark.parametrize("weight", ["1", True, None, [1.0]], ids=["string", "bool", "null", "list"])
    def test_bad_weight_is_refused_by_name(self, tmp_path, capsys, weight):
        self._refused(tmp_path, capsys, {**self.VALID["diag"], "weight": weight}, "weight must be a finite number")


PRESET_KEYS = ("two_s", "theta", "phi", "alpha", "beta", "lam")  # every key `qpolar make-state` passes


class TestPresetArguments:
    @pytest.mark.parametrize("name, key", [(n, k) for n in sorted(PRESETS) for k in PRESET_KEYS
                                           if k not in PRESETS[n][2]])
    def test_a_key_the_preset_does_not_read_is_refused(self, name, key):
        with pytest.raises(ValueError, match=f"^{key} is not read by preset {name!r}"):
            preset_state(name, **{key: 0.25 if key != "two_s" else 3})

    def test_the_first_unread_key_is_named(self):
        with pytest.raises(ValueError, match="^theta is not read by preset 'eq27-3p', which takes no arguments$"):
            preset_state("eq27-3p", theta=0.1, lam=3.0)
        with pytest.raises(ValueError, match="^two_s is not read by preset 'eq23-pson', which takes alpha, beta$"):
            preset_state("eq23-pson", two_s=7)

    @pytest.mark.parametrize(
        "name, args, two_s",
        [("eq15-coherent", {"theta": 0.5, "phi": 1.0, "two_s": 4}, 4), ("eq23-pson", {"alpha": 0.3, "beta": 1.0}, 2),
         ("eq24-diag2", {"lam": 0.1}, 2), ("eq29-diag32nd", {"lam": 0.25}, 3)],
    )
    def test_the_keys_a_preset_reads_are_accepted(self, name, args, two_s):
        state = state_from_dict(preset_state(name, **args))
        assert state.entries[0][1].spin.twice == two_s

    def test_cli_refuses_an_unread_key_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        capsys.readouterr()
        assert main(["make-state", "eq23-pson", "--two-s", "7", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: two_s is not read by preset 'eq23-pson'")
        assert not out.exists()


# the catalogue of objects that are no single shell; a sector parameter refuses every one, and a
# parameter that takes a sector or a PolarizationState, named obj, refuses all but the state
WRONG_OBJECTS = {"ndarray": np.eye(3) / 3, "None": None, "Direction": Direction(0.3, 0.2),
                 "PolarizationState": PolarizationState([(1.0, SECTOR)])}
DIRECTIONS = [Direction(0.3, 0.2)]
STATE_OK = ("PolarizationState",)

# (module.callable, parameter, call(value) with all else valid, the catalogue keys it accepts)
OBJECT_SWEEP = [
    ("multipole.state_multipoles", "sector", state_multipoles, ()),
    ("multipole.analyze", "obj", analyze, STATE_OK),
    ("states.validate", "sector", validate, ()),
    ("states.rotate", "sector", lambda v: rotate(v, EulerAngles(0.1, 0.2, 0.3)), ()),
    ("states.purity", "obj", purity, STATE_OK),
    ("husimi.q_function", "sector", lambda v: q_function(v, (4, 4)), ()),
    ("husimi.q_values", "sector", lambda v: q_values(v, DIRECTIONS), ()),
    ("husimi.q_values", "directions", lambda v: q_values(SECTOR, v), ()),
    ("stokes.directional_moment", "obj", lambda v: directional_moment(v, DIRECTIONS[0], 1), STATE_OK),
    ("stokes.isotropy_order", "sector", lambda v: isotropy_order(v, 1), ()),
    ("stokes.sample_moments", "sector", lambda v: sample_moments(v, DIRECTIONS, 1), ()),
    ("stokes.sample_moments", "directions", lambda v: sample_moments(SECTOR, v, 1), ()),
    ("stateio.state_to_dict", "obj", state_to_dict, STATE_OK),
    ("stateio.save_state", "obj", lambda v: save_state(v, os.devnull), STATE_OK),
    ("multipole.strengths", "spectrum", strengths, ()),
    ("multipole.cumulative", "spectrum", lambda v: cumulative(v, 1), ()),
    ("multipole.degree", "spectrum", lambda v: degree(v, 1), ()),
    ("multipole.unpolarization_order", "spectrum", unpolarization_order, ()),
    ("search.max_purity_unpolarized", "problem", max_purity_unpolarized, ()),
    ("states.random_sector", "rng", lambda v: random_sector(1, v), ()),
    ("states.random_direction", "rng", random_direction, ()),
    ("states.random_angles", "rng", random_angles, ()),
    ("stokes.write_moments", "samples", lambda v: write_moments(v, os.devnull), ()),
    ("stokes.moments_to_multipoles", "samples", lambda v: moments_to_multipoles(v, 1, 2), ()),
]
OBJECT_EXEMPT = {
    "stateio.state_from_dict": "obj is a parsed JSON document, checked by the schema",
    "multipole.ShellReport": "a result the library builds from the spectrum it made",
    "search.SearchResult": "a result the library builds from the problem it solved",
}
# the type a single-object parameter names, and the entry type a list parameter names
OBJECT_TYPES = {"sector": "SpinSector", "obj": "SpinSector or PolarizationState", "spectrum": "MultipoleSpectrum",
                "problem": "SearchProblem", "rng": "Generator"}
ENTRY_TYPES = {"directions": "Direction", "samples": "MomentSample"}


@pytest.mark.parametrize("where, param, call, allowed", OBJECT_SWEEP, ids=[f"{w}-{p}" for w, p, _, _ in OBJECT_SWEEP])
@pytest.mark.parametrize("key", WRONG_OBJECTS)
def test_object_of_the_wrong_type_is_refused_by_name(where, param, call, allowed, key):
    # these once raised AttributeError or "'Direction' object is not iterable", naming no argument
    value = WRONG_OBJECTS[key]
    if key in allowed:
        call(value)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as exc:
            call(value)
    if param in OBJECT_TYPES:
        assert str(exc.value) == f"{param} must be of type {OBJECT_TYPES[param]}, got {value!r}"
    else:  # a list parameter names its first entry of the wrong type, or itself when it is no list
        entry = ENTRY_TYPES[param]
        assert re.match(rf"^{param}(\[0\] must be of type {entry}| must be a list of {entry} entries), got ",
                        str(exc.value)), str(exc.value)
    assert caught == []


def test_directions_that_are_no_list_are_refused_by_name():
    with pytest.raises(ValueError, match=r"^directions must be a list of Direction entries, got Direction\(theta=0.3"):
        sample_moments(SECTOR, Direction(0.3, 0.2), 1)
    with pytest.raises(ValueError, match="^directions must be a list of Direction entries, got None$"):
        q_values(SECTOR, None)


def test_moment_samples_that_are_no_list_are_refused_before_they_are_read():
    # an int raised a bare TypeError ("'int' object is not iterable"), naming no argument; the object
    # sweep covers None, a Direction, an array and a state
    for bad in (5, iter(SAMPLES)):
        message = f"samples must be a list of MomentSample entries, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            moments_to_multipoles(bad, 1, 2)
    as_list, as_tuple = moments_to_multipoles(SAMPLES, 1, 2), moments_to_multipoles(tuple(SAMPLES), 1, 2)
    assert as_tuple.coefficients.tobytes() == as_list.coefficients.tobytes()


def test_every_object_parameter_is_swept_or_exempt():
    found = set()
    for module in MODULES:
        mod = importlib.import_module(f"qpolar.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
                found |= {(f"{module}.{name}", p) for p in inspect.signature(obj).parameters
                          if p in {*OBJECT_TYPES, *ENTRY_TYPES}}
    swept = {(where, param) for where, param, _, _ in OBJECT_SWEEP}
    assert sorted(k for k in found - swept if k[0] not in OBJECT_EXEMPT) == []
    assert sorted(swept - found) == []
    assert sorted(set(OBJECT_EXEMPT) - {where for where, _ in found}) == []


def test_moments_are_checked_before_the_file_is_opened(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="^samples\\[1\\] must be of type MomentSample, got 5$"):
        write_moments([SAMPLES[0], 5], path)
    assert not path.exists()


@pytest.mark.parametrize("grid", [5, (4,), (4, 8, 2), "64x128", None, np.array(64), (n for n in (4, 8))],
                         ids=["int", "one", "three", "string", "None", "0-d-array", "generator"])
def test_q_grid_that_is_no_pair_is_refused_by_name(grid):
    # an int once raised "cannot unpack non-iterable int object", a pair of the wrong length an unpacking error
    with pytest.raises(ValueError, match=f"^grid must be a list of 2 entries, got {re.escape(repr(grid))}$"):
        q_function(SECTOR, grid)


def test_q_grid_pairs_of_every_list_type_are_accepted():
    for grid in ((4, 8), [4, 8], np.array([4, 8]), range(4, 9, 4)):
        q = q_function(SECTOR, grid)
        assert (q.n_theta, q.n_phi) == (4, 8)


def test_export_refuses_a_grid_that_is_no_qgrid_before_opening_the_file(tmp_path):
    path = tmp_path / "q.csv"
    with pytest.raises(ValueError, match="^grid must be of type QGrid, got \\(4, 8\\)$"):
        export_qgrid((4, 8), path)
    assert not path.exists()


def test_vector_whose_norm_overflows_is_refused_by_name():
    # its norm overflowed to inf, with a RuntimeWarning, and theta came out pi/2 where it is 0.9553
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^v must have a finite, nonzero norm, got inf$"):
            Direction.from_vector([1.5e308, 1.5e308, 1.5e308])
        # finite norms whose squares overflow are read, where they were refused as inf
        for big in (1e200, 1e300):
            assert Direction.from_vector([big] * 3).theta == pytest.approx(math.acos(1 / math.sqrt(3)))
    assert caught == []
    assert Direction.from_vector([1e150, 1e150, 1e150]).theta == pytest.approx(math.acos(1 / math.sqrt(3)))


@pytest.mark.parametrize("K, q, name", [(2.5, 0, "K"), (True, 0, "K"), ("1", 0, "K"), (1, 0.5, "q"), (1, False, "q"),
                                        (np.float64(1.0), 0, "K")])
def test_component_refuses_a_rank_or_index_that_is_no_integer(K, q, name):
    spec = state_multipoles(maximally_mixed(1))
    with pytest.raises(ValueError, match=f"^{name} must be an integer in "):
        spec.component(K, q)
    assert spec.component(np.int64(2), -1) == spec.component(2, -1)
    with pytest.raises(KeyError):
        spec.component(1, 2)


def _two_shells():
    return PolarizationState([(0.5, SECTOR), (0.5, maximally_mixed(0.5))])


# one instance of every class that a module exports, built the way the library builds it
CLASS_CASES = {
    "angmom.HalfInt": lambda: HalfInt(3),
    "angmom.EulerAngles": lambda: EulerAngles(0.1, 0.2, 0.3),
    "states.Direction": lambda: Direction(0.3, 0.2),
    "states.ValidationReport": lambda: validate(SECTOR),
    "states.SpinSector": lambda: random_sector(1, np.random.default_rng(26)),
    "states.PolarizationState": _two_shells,
    "multipole.MultipoleSpectrum": lambda: state_multipoles(random_sector(1, np.random.default_rng(26))),
    "multipole.ShellReport": lambda: analyze(SECTOR).shells[0],
    "multipole.PolarizationReport": lambda: analyze(_two_shells()),
    "stokes.StokesTriple": lambda: stokes_matrices(1),
    "stokes.MomentSample": lambda: SAMPLES[0],
    "stokes.ReconstructionResult": lambda: moments_to_multipoles(SAMPLES, 1, 2),
    "husimi.QGrid": lambda: q_function(SECTOR, (4, 8)),
    "search.SearchProblem": lambda: SearchProblem(1, 1),
    "search.RestartRecord": lambda: max_purity_unpolarized(SearchProblem(1, 1, "diagonal")).history[0],
    "search.SearchResult": lambda: max_purity_unpolarized(SearchProblem(1, 1, "diagonal")),
    "search.FamilyScan": lambda: scan_two_photon_family([0.1, 0.25]),
    "search.TwoPhotonRow": lambda: next(iter(scan_two_photon_family([0.1]))),
    "search.ThreePhotonRow": lambda: next(iter(scan_three_photon_family("second-order", [0.25]))),
}
CLASS_EXEMPT = dict.fromkeys(["stokes.IllConditionedError", "search.InfeasibleError", "stateio.SchemaError"],
                             "an exception: raised, never kept")
# the classes whose instances hold an ndarray, so that the sweep writes into at least one
HOLD_ARRAYS = {"states.SpinSector", "states.PolarizationState", "multipole.MultipoleSpectrum", "multipole.ShellReport",
               "multipole.PolarizationReport", "stokes.StokesTriple", "stokes.ReconstructionResult", "husimi.QGrid",
               "search.SearchResult", "search.FamilyScan"}
ROUND_TRIPS = {"built": lambda o: o, "copy": copy.copy, "deepcopy": copy.deepcopy,
               "pickle": lambda o: pickle.loads(pickle.dumps(o))}


def _stored(obj) -> dict:
    """The attributes an object stores: its slots, its __dict__ and its tuple fields."""
    names = [n for c in type(obj).__mro__ for n in getattr(c, "__slots__", ())]
    names += [*getattr(obj, "__dict__", {}), *getattr(obj, "_fields", ())]
    return {n: getattr(obj, n) for n in names}


def _arrays(value, path: str):
    """(path, array) for every ndarray in value, reached through tuples and the attributes of qpolar objects."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif type(value) is tuple:
        for i, item in enumerate(value):
            yield from _arrays(item, f"{path}[{i}]")
    elif type(value).__module__.startswith("qpolar."):
        for name, item in _stored(value).items():
            yield from _arrays(item, f"{path}.{name}")


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("where", CLASS_CASES)
def test_every_public_object_is_read_only_and_stays_so_when_copied(where, trip):
    # a HalfInt, a copied or unpickled sector's rho, and the strengths, A_K, P_K and Q values were writable
    obj = ROUND_TRIPS[trip](CLASS_CASES[where]())
    assert f"{type(obj).__module__}.{type(obj).__name__}" == f"qpolar.{where}"
    for name, value in [*_stored(obj).items(), ("added", 0)]:
        # one message for every class: a frozen dataclass once raised "cannot assign to field 'theta'"
        message = f"^{re.escape(f'a {type(obj).__name__} is read-only: cannot set {name!r}')}$"
        with pytest.raises(AttributeError, match=message):
            setattr(obj, name, value)
        with pytest.raises(AttributeError, match=message):
            delattr(obj, name)
    arrays = dict(_arrays(obj, where))
    assert bool(arrays) == (where in HOLD_ARRAYS)
    for path, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
        assert not array.flags.writeable, path


def test_every_exported_class_is_swept_or_exempt():
    exported = {f"{m}.{n}" for m in MODULES for n, obj in vars(importlib.import_module(f"qpolar.{m}")).items()
                if n in importlib.import_module(f"qpolar.{m}").__all__ and isinstance(obj, type)}
    assert sorted(exported - set(CLASS_CASES) - set(CLASS_EXEMPT)) == []
    assert sorted((set(CLASS_CASES) | set(CLASS_EXEMPT)) - exported) == []


def test_a_set_half_int_or_spectrum_array_is_refused():
    sector = maximally_mixed(1)
    with pytest.raises(AttributeError, match="'twice'"):
        sector.spin.twice = 4
    spectrum = state_multipoles(sector)
    with pytest.raises(ValueError):
        spectrum.cumulative_all[0] = 1.0
    assert unpolarization_order(spectrum) == spectrum.unpol_order == 2


def test_only_angmom_sets_attributes_behind_the_read_only_rule():
    # one rule: a module other than angmom that defines __setattr__ or calls object.__setattr__ holds a second one
    found = []
    for path in sorted(pathlib.Path(importlib.import_module("qpolar").__file__).parent.glob("*.py")):
        if path.stem == "angmom":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in ("__setattr__", "__delattr__"):
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
            elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.append(f"{path.name}:{node.lineno} calls object.__setattr__")
    assert found == []
