"""Preset vocabulary: every numeric parameter is refused unless finite, and a lam outside its family."""

import math
import re
import warnings

import pytest

from qpolar.catalog import preset_state, two_photon_diag_unpolarized


@pytest.mark.parametrize(
    "name, key, value",
    [("eq29-diag32nd", "lam", math.nan), ("eq23-pson", "beta", math.nan), ("eq23-pson", "alpha", math.inf)],
    ids=["lam-nan", "beta-nan", "alpha-inf"],
)
def test_non_finite_parameter_is_refused(name, key, value):
    # unchecked, these give NaN eigenvalues, NaN amplitudes and numpy's 'invalid value' RuntimeWarning in exp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{key} must be a finite number, got {value!r}$"):
            preset_state(name, **{key: value})



@pytest.mark.parametrize(
    "call, message",
    [(lambda: two_photon_diag_unpolarized(0.6), "lam = 0.6 outside [0, 1/2]"),
     (lambda: preset_state("eq24-diag2", lam=-0.1), "lam = -0.1 outside [0, 1/2]"),
     (lambda: preset_state("eq29-diag32nd", lam=0.1), "lam = 0.1 outside [1/6, 1/3]")],
    ids=["two-photon-diag", "eq24-diag2", "eq29-diag32nd"],
)
def test_lam_outside_its_family_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
