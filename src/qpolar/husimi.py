"""SU(2) Husimi Q function, Q(theta, phi) = <theta,phi| rho |theta,phi>.

Evaluated on a Gauss-Legendre (in cos theta) x uniform (in phi) product
grid.  Q is band-limited to degree 2S, so the default 64 x 128 grid
integrates it exactly with a wide margin; the normalization
(2S+1)/(4pi) * integral(Q) = 1 doubles as a self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angmom import HalfInt, half
from .states import Direction, SpinSector, coherent_amplitudes

__all__ = ["QGrid", "q_function", "q_values", "export_qgrid", "read_qgrid"]


@dataclass(frozen=True)
class QGrid:
    """Sampled Q function with quadrature weights (node weight = w_theta * 2pi/n_phi)."""

    spin: HalfInt
    thetas: np.ndarray          # (n_theta,)
    phis: np.ndarray            # (n_phi,)
    theta_weights: np.ndarray   # (n_theta,) Gauss-Legendre weights in cos(theta)
    values: np.ndarray          # (n_theta, n_phi)
    coarse_warning: bool        # true when n_theta < 2S+1 (normalization not guaranteed)

    @property
    def n_theta(self) -> int:
        return len(self.thetas)

    @property
    def n_phi(self) -> int:
        return len(self.phis)

    def integral(self) -> float:
        """Quadrature value of the solid-angle integral of Q."""
        return float(np.sum(self.theta_weights[:, None] * (2.0 * math.pi / self.n_phi) * self.values))

    def normalization(self) -> float:
        """(2S+1)/(4pi) times the integral; 1 for any valid state on a fine grid."""
        d = half(self.spin).twice + 1
        return d / (4.0 * math.pi) * self.integral()

    def nodes(self):
        """Iterate (Direction, weight, value) theta-major, phi-minor."""
        wphi = 2.0 * math.pi / self.n_phi
        for i, th in enumerate(self.thetas):
            wt = self.theta_weights[i] * wphi
            for j, ph in enumerate(self.phis):
                yield Direction(float(th), float(ph)), float(wt), float(self.values[i, j])


def _q(rho: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """<n|rho|n> for coherent amplitudes with any leading axes."""
    # Re <a|b> with b = rho a, as one real dot over the interleaved (re, im) parts
    return np.einsum("...k,...k->...", amps.view(float), (amps @ rho.T).view(float))


def q_values(sector: SpinSector, directions) -> np.ndarray:
    """Q at an arbitrary list of directions."""
    thetas = np.array([d.theta for d in directions])
    phis = np.array([d.phi for d in directions])
    return _q(sector.rho, coherent_amplitudes(sector.spin, thetas, phis))


def q_function(sector: SpinSector, grid=(64, 128)) -> QGrid:
    """Q on a Gauss-Legendre x uniform product grid; grid = (n_theta, n_phi)."""
    n_theta, n_phi = int(grid[0]), int(grid[1])
    if n_theta < 1 or n_phi < 1:
        raise ValueError("grid sizes must be positive")
    x, w = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(x[::-1])  # ascending theta
    weights = w[::-1]
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    values = _q(sector.rho, coherent_amplitudes(sector.spin, thetas[:, None], phis[None, :]))
    coarse = n_theta < sector.spin.twice + 1
    return QGrid(sector.spin, thetas, phis, weights, values, coarse)


def export_qgrid(grid: QGrid, path) -> None:
    """Write CSV rows theta,phi,weight,Q in theta-major order (bit-stable)."""
    with open(path, "w") as fh:
        fh.write("theta,phi,weight,Q\n")
        for direction, weight, value in grid.nodes():
            fh.write(f"{direction.theta!r},{direction.phi!r},{weight!r},{value!r}\n")


def read_qgrid(path) -> list[tuple[float, float, float, float]]:
    """Read back rows written by export_qgrid."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("theta"):
                continue
            a, b, c, d = line.split(",")
            rows.append((float(a), float(b), float(c), float(d)))
    return rows
