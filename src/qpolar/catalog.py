"""Named benchmark states and the CLI preset vocabulary.

The constructors build the small family of states used throughout the test
suite and demos: spin coherent states, the pure and diagonal unpolarized
families on the one-, two-, and three-photon shells, and the two
maximal-purity diagonal states.
"""

from __future__ import annotations

import math

import numpy as np

from .angmom import _check_reals, _check_two_s
from .states import Direction, SpinSector, diag_sector, pure_sector

__all__ = [
    "two_photon_pure_unpolarized",
    "two_photon_diag_unpolarized",
    "three_photon_pole_superposition",
    "three_photon_first_order_eigs",
    "max_purity_first_order_diag",
    "max_purity_second_order_diag",
    "PRESETS",
    "preset_state",
]


def two_photon_pure_unpolarized(alpha: float = 0.0, beta: float = math.pi / 2) -> SpinSector:
    """Pure S=1 state with zero dipole: the rotated |1,0> family.

    Amplitudes (e^{i a} sin b / sqrt2, cos b, -e^{-i a} sin b / sqrt2); every
    member has W_1 = 0 and W_2 = 2/3, saturating the second-order degree.
    """
    return pure_sector(1, _pson_amplitudes(_check_reals("alpha", alpha), _check_reals("beta", beta)))


def _pson_amplitudes(alpha: float, beta: float) -> list[complex]:
    s = math.sin(beta) / math.sqrt(2.0)
    return [complex(np.exp(1j * alpha) * s), complex(math.cos(beta)), complex(-np.exp(-1j * alpha) * s)]


def two_photon_diag_unpolarized(lam: float) -> SpinSector:
    """diag(lam, 1-2lam, lam) on the S=1 shell, lam in [0, 1/2]."""
    if not 0.0 <= (lam := _check_reals("lam", lam)) <= 0.5:
        raise ValueError(f"lam = {lam} outside [0, 1/2]")
    return diag_sector(1, [lam, 1.0 - 2.0 * lam, lam])


_POLE_AMPLITUDES = [1.0 / math.sqrt(2.0), 0.0, 0.0, 1.0 / math.sqrt(2.0)]


def three_photon_pole_superposition() -> SpinSector:
    """(|3/2,3/2> + |3/2,-3/2>)/sqrt2: first-order unpolarized but not second."""
    return pure_sector(1.5, _POLE_AMPLITUDES)


def three_photon_first_order_eigs(lam3: float, lam4: float) -> list[float]:
    """Eigenvalues of the zero-dipole diagonal S=3/2 family, m descending; lam3 and lam4 may be arrays."""
    lam3, lam4 = _check_reals("lam3", lam3, None), _check_reals("lam4", lam4, None)
    return [lam3 + 2.0 * lam4 - 0.5, -2.0 * lam3 - 3.0 * lam4 + 1.5, lam3, lam4]


_FIRST_ORDER_MAX = [0.0, 0.75, 0.0, 0.25]
_SECOND_ORDER_MAX = [1 / 3, 0.0, 0.5, 1 / 6]


def max_purity_first_order_diag() -> SpinSector:
    """diag(0, 3/4, 0, 1/4): purity 5/8, the diagonal first-order-unpolarized maximum."""
    return diag_sector(1.5, _FIRST_ORDER_MAX)


def max_purity_second_order_diag() -> SpinSector:
    """diag(1/3, 0, 1/2, 1/6): purity 7/18, the axially symmetric second-order maximum."""
    return diag_sector(1.5, _SECOND_ORDER_MAX)


def _preset_coherent(args) -> dict:
    theta = args.get("theta", math.pi / 3)
    phi = args.get("phi", math.pi / 6)
    two_s = _check_two_s("two_s", args.get("two_s", 3))
    Direction(theta, phi)  # validate early
    return {"two_S": two_s, "weight": 1.0, "form": "coherent",
            "data": {"theta": float(theta), "phi": float(phi)}}


def _preset_diag32nd(args) -> dict:
    lam4 = args.get("lam", 0.2)
    eigs = [0.5 - lam4, 3.0 * lam4 - 0.5, 1.0 - 3.0 * lam4, lam4]
    if any(e < 0 for e in eigs):
        raise ValueError(f"lam = {lam4} outside [1/6, 1/3]")
    return _diag_entry(3, eigs)


def _diag_entry(two_s: int, eigenvalues) -> dict:
    """The state-file entry of the diagonal state with these eigenvalues in the |S,m> basis."""
    return {"two_S": two_s, "weight": 1.0, "form": "diag", "data": [float(x) for x in eigenvalues]}


def _pure_entry(two_s: int, amplitudes) -> dict:
    """The state-file entry of the pure state with these amplitudes in the |S,m> basis."""
    return {"two_S": two_s, "weight": 1.0, "form": "pure", "data": [[z.real, z.imag] for z in map(complex, amplitudes)]}


# preset name -> (make(args) -> sector entry, description, the keys of args that make reads)
PRESETS = {
    "eq15-coherent": (_preset_coherent, "spin coherent state along (theta, phi)", ("theta", "phi", "two_s")),
    "eq23-pson": (lambda args: _pure_entry(2, _pson_amplitudes(args.get("alpha", 0.0), args.get("beta", math.pi / 2))),
                  "pure two-photon dipole-free state (rotated |1,0>)", ("alpha", "beta")),
    "eq27-3p": (lambda args: _pure_entry(3, _POLE_AMPLITUDES), "equal superposition of the two S=3/2 pole states", ()),
    "eq24-diag2": (lambda args: _diag_entry(2, np.diag(two_photon_diag_unpolarized(args.get("lam", 0.25)).rho).real),
                   "two-photon diag(lam, 1-2lam, lam)", ("lam",)),
    "eq29-diag32nd": (_preset_diag32nd, "three-photon second-order diagonal family", ("lam",)),
    "fig4-left": (lambda args: _diag_entry(3, _FIRST_ORDER_MAX), "diag(0, 3/4, 0, 1/4), purity 5/8", ()),
    "fig4-right": (lambda args: _diag_entry(3, _SECOND_ORDER_MAX), "diag(1/3, 0, 1/2, 1/6), purity 7/18", ()),
}


def preset_state(name: str, **args) -> dict:
    """State-file dict for a named preset; KeyError for an unknown name, ValueError for a bad or unread argument."""
    make, _, keys = PRESETS[name]
    for key, value in args.items():
        if key not in keys:
            raise ValueError(f"{key} is not read by preset {name!r}, which takes {', '.join(keys) or 'no arguments'}")
        if key != "two_s":
            args[key] = _check_reals(key, value)
    return {"sectors": [make(args)]}
