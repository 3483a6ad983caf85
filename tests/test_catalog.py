"""Preset vocabulary: every numeric parameter is refused unless finite."""

import math
import warnings

import pytest

from qpolar.catalog import preset_state


@pytest.mark.parametrize(
    "name, key, value",
    [("eq29-diag32nd", "lam", math.nan), ("eq23-pson", "beta", math.nan), ("eq23-pson", "alpha", math.inf)],
    ids=["lam-nan", "beta-nan", "alpha-inf"],
)
def test_non_finite_parameter_is_refused(name, key, value):
    # unchecked, these give NaN eigenvalues, NaN amplitudes and numpy's 'invalid value' RuntimeWarning in exp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value!r}$"):
            preset_state(name, **{key: value})
