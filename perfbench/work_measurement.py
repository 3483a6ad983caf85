"""`measurement` workload: Husimi Q grids and Stokes-moment tomography.

`husimi` and `stokes` do the work here and the solvers are not used.  The
moments fed to `moments_to_multipoles` are computed by the benchmark from
its own spin matrices along `stokes.tomography_directions`.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from qpolar import husimi, multipole, states, stokes

Q_SPINS = (3, 10, 25, 40)
Q_KINDS = ("ginibre", "pure")
Q_GRID = (64, 128)
Q_SAMPLED_NODES = 6
TOMOGRAPHY = ((3, 3), (4, 4), (10, 6), (25, 6))   # (2S, K)


def _state(kind: str, two_s: int, rng) -> np.ndarray:
    if kind == "ginibre":
        return ref.ginibre(two_s, rng)
    v = ref.haar_pure(two_s, rng)
    return np.outer(v, v.conj())


class Measurement:
    name = "measurement"
    spins = tuple(sorted({t for t, _ in TOMOGRAPHY}))

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 202])

    def prepare(self) -> None:
        rng = self.rng
        self.q_cases = []
        for two_s in Q_SPINS:
            for kind in Q_KINDS:
                rho = _state(kind, two_s, rng)
                nodes = [(int(rng.integers(Q_GRID[0])), int(rng.integers(Q_GRID[1])))
                         for _ in range(Q_SAMPLED_NODES)]
                self.q_cases.append((f"{kind}-2S{two_s}", two_s, rho, states.SpinSector(two_s / 2, rho), nodes))
        self.tomo_cases = []
        for two_s, k in TOMOGRAPHY:
            rho = ref.ginibre(two_s, rng)
            samples = []
            for d in stokes.tomography_directions(3 * (2 * k + 1)):
                values = ref.moments(rho, two_s, ref.unit_vector(d.theta, d.phi), k)
                samples.extend((d, ell + 1, float(v)) for ell, v in enumerate(values))
            self.tomo_cases.append((f"2S{two_s}_K{k}", two_s, k, rho, samples))

    def warm(self) -> None:
        """Reference components of the tomography states, from the multipole analysis."""
        self.references = [
            multipole.state_multipoles(states.SpinSector(two_s / 2, rho)).components
            for _, two_s, _, rho, _ in self.tomo_cases
        ]

    def run_round(self, rec) -> None:
        for label, two_s, rho, sector, nodes in self.q_cases:
            rec.attempt(
                "qgrid", label, two_s,
                lambda s=sector, t=two_s: rec.call("husimi", husimi.q_function, s, Q_GRID, two_s=t),
                lambda g, label=label, t=two_s, rho=rho, nodes=nodes: ref.check_q_grid(
                    f"Q {label}", t, rho, g.values, g.thetas, g.phis, g.theta_weights, nodes),
            )
        for (label, two_s, k, rho, samples), want in zip(self.tomo_cases, self.references):
            rec.attempt(
                "reconstruct", label, two_s,
                lambda s=samples, t=two_s, k=k: rec.call(
                    "stokes", stokes.moments_to_multipoles, s, t / 2, k, two_s=t),
                lambda res, label=label, t=two_s, k=k, rho=rho, want=want: _check_reconstruction(
                    label, t, k, rho, res, want),
            )


def _check_reconstruction(label: str, two_s: int, k: int, rho, result, want) -> None:
    ref.check_components(f"reconstruction {label}", result.components, want)
    if k == two_s:
        ref.check_parseval(f"reconstruction {label}", result.strengths, rho, 1e-9)
