"""Extremal unpolarized states: exact bounds and numerical searches
===================================================================

How pure can a state be while staying unpolarized to a given order?  For
diagonal (axially symmetric) states the answer is exact: the feasible
eigenvalue sets are polytopes and Tr rho^2 peaks at a vertex.  For general
mixed states a purity ascent over rank-(K+1) factors explores further, and
for pure states a Levenberg-Marquardt search on A_K looks for anticoherent
states.

Reproduced here:
  * two-photon family: degree-vs-purity curve, pure members reach P_2 = 1
  * three-photon diagonal first-order bound 5/8 = 0.625
  * three-photon axially symmetric second-order bound 7/18 = 0.3888...
  * the general (non-axial) class beats 7/18, reaching purity 1/2
  * anticoherent states exist for S = 1, 3/2 at order 1 (not for S = 1/2)
"""

import numpy as np

from qpolar import state_multipoles
from qpolar.search import (
    SearchProblem,
    max_purity_unpolarized,
    pure_anticoherent_search,
    scan_three_photon_family,
    scan_two_photon_family,
)

# --- two-photon family: P_2 = sqrt((3P - 1)/2) ---------------------------
rows = scan_two_photon_family(np.linspace(0, 0.5, 11))
print("two-photon diag(lam, 1-2lam, lam):")
print("  lam     purity   P_2")
for r in rows:
    print(f"  {r.lam:.3f}   {r.purity:.4f}   {r.p2:.4f}")
print("  the pure endpoints (lam = 0) reach P_2 = 1; lam = 1/3 is fully mixed")

# --- three-photon diagonal bounds ----------------------------------------
res1 = max_purity_unpolarized(SearchProblem(1.5, 1, constraint_class="diagonal-in-z-basis"))
print(f"\nfirst-order unpolarized diagonal maximum: purity = {res1.objective:.6f} (= 5/8)")
print(f"  eigenvalues: {np.round(np.diag(res1.state.rho).real, 6)}")

res2 = max_purity_unpolarized(SearchProblem(1.5, 2, constraint_class="axially-symmetric"))
print(f"second-order unpolarized axially symmetric maximum: purity = {res2.objective:.6f} (= 7/18)")
print(f"  eigenvalues: {np.round(np.diag(res2.state.rho).real, 6)}")

# The whole second-order diagonal family, with its two mirror-image optima:
rows2 = scan_three_photon_family("second-order", np.linspace(1 / 6, 1 / 3, 7))
print("  second-order family (lam4 from 1/6 to 1/3): purity =",
      [round(r.purity, 4) for r in rows2])

# --- the general class is strictly richer --------------------------------
res3 = max_purity_unpolarized(SearchProblem(1.5, 2, constraint_class="general", restarts=16))
spec = state_multipoles(res3.state)
print(f"\ngeneral-class second-order search: purity = {res3.objective:.9f}")
print(f"  eigenvalues: {np.round(np.sort(np.linalg.eigvalsh(res3.state.rho))[::-1], 6)}")
print(f"  W = {np.round(spec.strengths, 9)} -> order {spec.unpol_order}")
print("  an equal mixture of two orthogonal pure states with no dipole or")
print("  quadrupole: the axial bound 7/18 is not the general-class optimum")
print("  (empirical maximum; no optimality claim)")

# --- pure anticoherent searches ------------------------------------------
print("\npure anticoherent searches (minimize A_K over pure states):")
for twice_s, order in [(1, 1), (2, 1), (3, 1), (2, 2), (4, 2)]:
    res = pure_anticoherent_search(twice_s / 2, order, restarts=24, seed=0)
    verdict = "anticoherent state found" if res.is_anticoherent else "no zero: reported minimum"
    print(f"  S = {twice_s/2:<4} order {order}: min A_{order} = {res.objective:.3e}  ({verdict})")
print("  every pure spin-1/2 state is coherent, so its A_1 floor is 1/2;")
print("  at S = 1 the quadrupole cannot vanish for pure states, while at")
print("  S = 2 both dipole and quadrupole vanish simultaneously")
