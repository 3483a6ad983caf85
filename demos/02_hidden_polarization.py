"""Hidden polarization: unpolarized at low order, structured above
==================================================================

A state is K-th-order unpolarized when every multipole up to rank K
vanishes; equivalently, every directional moment <(n.S)^l> with l <= K is
the same number for all directions n.  Such a state can still carry plenty
of polarization structure in higher moments -- that is hidden polarization.

Two classifiers must agree: the multipole order (algebraic) and the
isotropy order read off directional moments (operational).  This script
shows both on the same states, including a multi-shell thermal-like state
that is unpolarized to every order.
"""

import numpy as np

from qpolar import (
    Direction,
    analyze,
    assemble,
    directional_moment,
    isotropy_order,
    maximally_mixed,
    state_multipoles,
    unpolarization_order,
)
from qpolar.catalog import (
    max_purity_first_order_diag,
    max_purity_second_order_diag,
    three_photon_pole_superposition,
)
from qpolar.stokes import tomography_directions

probes = [Direction(0.0, 0.0), Direction(np.pi / 2, 0.0), Direction(1.1, 2.5)]


def classify(name, sec):
    spec = state_multipoles(sec)
    iso = isotropy_order(sec, sec.spin.twice)
    print(f"\n{name}")
    print(f"  multipole order = {spec.unpol_order}, moment-isotropy order = {iso}")
    assert spec.unpol_order == iso
    for ell in range(1, sec.spin.twice + 1):
        vals = [directional_moment(sec, d, ell) for d in probes]
        tag = "isotropic" if max(vals) - min(vals) < 1e-10 else "direction-dependent"
        print(f"  <(n.S)^{ell}> along z, x, (1.1,2.5): "
              + ", ".join(f"{v:+.4f}" for v in vals) + f"  [{tag}]")


# The pole superposition: first-order unpolarized, but the second moment
# betrays it -- hidden polarization at K = 2.
classify("equal pole superposition (|3/2,3/2> + |3/2,-3/2>)/sqrt(2)",
         three_photon_pole_superposition())

# diag(0, 3/4, 0, 1/4): the dipole vanishes but the quadrupole does not
# (W_2 = 1/16), so this is first-order unpolarized only.
classify("diag(0, 3/4, 0, 1/4)", max_purity_first_order_diag())

# diag(1/3, 0, 1/2, 1/6): dipole AND quadrupole vanish; only the octupole
# remains, and the purity 7/18 is the largest an axially symmetric
# three-photon state can keep at second order.
classify("diag(1/3, 0, 1/2, 1/6)", max_purity_second_order_diag())

# Fully unpolarized reference.
classify("maximally mixed", maximally_mixed(1.5))

# A thermal-like multi-shell state: geometric photon-number weights over
# maximally mixed shells.  Every shell is invariant under all rotations,
# so the full polarization sector is unpolarized to every order.
p = 0.45
weights = np.array([(1 - p) * p**n for n in range(5)])
weights /= weights.sum()
thermal = assemble([(w, maximally_mixed(n / 2)) for n, w in enumerate(weights)])
report = analyze(thermal)
print("\nthermal-like state over 5 shells:")
print(f"  aggregate A_K = {np.round(report.aggregate_cumulative, 14)}")
print(f"  aggregate order = {report.aggregate_order} (the highest rank any shell supports)")

# Sanity check on a dense direction set: every moment of the thermal state
# is flat over the sphere.
dirs = tomography_directions(60)
spread = max(
    max(directional_moment(thermal, d, ell) for d in dirs)
    - min(directional_moment(thermal, d, ell) for d in dirs)
    for ell in (1, 2, 3)
)
print(f"  max moment spread over 60 directions, l <= 3: {spread:.2e}")
