"""SU(2) Husimi Q function, Q(theta, phi) = <theta,phi| rho |theta,phi>.

Evaluated on a Gauss-Legendre (in cos theta) x uniform (in phi) product
grid.  Q is band-limited to degree 2S, so the default 64 x 128 grid
integrates it exactly with a wide margin; the normalization
(2S+1)/(4pi) * integral(Q) = 1 doubles as a self-check.  In phi, Q is a
Fourier series with frequencies |q| <= 2S, so each theta costs 2S+1
coefficients and the grid is one real product with a cos/sin table.  The
coefficients at every theta are one gather of rho and one stacked product
with a table of the products d_i d_j; a grid keeps its columns d_i, and its table when
it holds at most angmom.MAX_ENTRIES / 8 entries, and no call builds more than MAX_ENTRIES at once.
"""

from __future__ import annotations

import math

import numpy as np

from .angmom import (_LISTS, MAX_ENTRIES, HalfInt, _cache, _check_each, _check_int, _check_type, _d_column, _Frozen,
                     _read_only)
from .states import Direction, SpinSector, _points

__all__ = ["QGrid", "q_function", "q_values", "export_qgrid"]


@_read_only
class QGrid(_Frozen):
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
        return (self.spin.twice + 1) / (4.0 * math.pi) * self.integral()

    def nodes(self):
        """Iterate (Direction, weight, value) theta-major, phi-minor."""
        wphi = 2.0 * math.pi / self.n_phi
        for i, th in enumerate(self.thetas):
            wt = self.theta_weights[i] * wphi
            for j, ph in enumerate(self.phis):
                yield Direction(float(th), float(ph)), float(wt), float(self.values[i, j])


def _pair_table(col: np.ndarray) -> np.ndarray:
    """T[k, i, theta] = d_i d_{(i+k) mod d}, k = 0..d//2, from col[i, theta] = d_i(theta).

    Row k holds the pairs of two diagonals, k at i < d - k and d - k past it, so no entry is padding.
    """
    d = len(col)
    window = np.lib.stride_tricks.sliding_window_view(np.concatenate([col, col]), d, axis=0)  # [k, theta, i]
    return np.multiply(col, window[:d // 2 + 1].transpose(0, 2, 1), order="C")


@_cache(8)
def _pair_index(d: int) -> np.ndarray:
    """Read-only index [k, (re, im) of diagonal k, (re, im) of diagonal d - k, i] into the real parts, the imaginary
    parts and a 0.0 after them of a d x d matrix H: the entry H[i+q, i] that row k of `_pair_table` pairs at i."""
    k, i = np.ogrid[:d // 2 + 1, :d]
    j = (i + k) % d
    flat = np.maximum(i, j) * d + np.minimum(i, j)
    low = i < d - k  # diagonal k; past it, diagonal d - k
    return np.stack([np.where(rows, flat + part, 2 * d * d) for rows in (low, ~low) for part in (0, d * d)], axis=1)


def _fourier(rho: np.ndarray, col: np.ndarray, pairs: np.ndarray | None = None) -> np.ndarray:
    """Rows [2q + (re, im), theta] of w_q F_q, q = 0..2S: Q = sum_q w_q Re[F_q exp(-i q phi)].

    F_q = sum_i d_i d_{i+q} H[i+q, i], with col[i, theta] = d_i = d^S_{m_i,S}(theta) and H = (rho + rho^dagger)/2
    the part of rho that Re <n|rho|n> sees; w_0 = 1, and w_q = 2 pairs q with -q.  Every q comes from
    one gather of H and one stacked product with `pairs`, the `_pair_table` of `col`, or, without
    it, with tables built over blocks of thetas that hold at most MAX_ENTRIES entries each.
    """
    d = len(rho)
    h = rho + rho.conj().T  # 2H, which carries w_q for q > 0
    parts = np.concatenate([h.real.ravel(), h.imag.ravel(), [0.0]])[_pair_index(d)]
    if pairs is None:  # blocks of whole 8-theta tiles, which BLAS sums as in one product; one empty block for none
        step = max(1, MAX_ENTRIES // (d * (d // 2 + 1)) // 8 * 8)
        f = np.concatenate([parts @ _pair_table(col[:, k:k + step]) for k in range(0, col.shape[1] or 1, step)], axis=2)
    else:
        f = parts @ pairs
    # [q, (re, im), theta]; at even d, row d/2 holds diagonal d/2 twice, and its second copy is dropped
    f = np.concatenate([f[:, :2], f[1:d - d // 2, 2:][::-1]])
    f[0] /= 2.0
    return f.reshape(2 * d, -1)


def _phases(t: int, phis: np.ndarray) -> np.ndarray:
    """Rows [2q + (cos, sin), phi] of cos(q phi) and sin(q phi), q = 0..2S, to match `_fourier`."""
    qphi = np.multiply.outer(np.arange(t + 1), phis)
    return np.stack([np.cos(qphi), np.sin(qphi)], axis=1).reshape(2 * t + 2, -1)


@_cache(8)
def _grid_axes(t: int, n_theta: int, n_phi: int) -> tuple:
    """Read-only Gauss-Legendre thetas (ascending) and weights, uniform phis, their phases, pair table and d-columns.

    The table is kept only when it holds at most MAX_ENTRIES / 8 entries, so the 8 entries of this cache
    hold at most MAX_ENTRIES in tables; past that it is None and `_fourier` builds it from the columns.
    """
    x, w = np.polynomial.legendre.leggauss(n_theta)
    thetas, phis = np.arccos(x[::-1]), np.arange(n_phi) * (2.0 * math.pi / n_phi)
    col = _d_column(t, 0, thetas).T.copy()
    pairs = _pair_table(col) if (t + 1) * (t // 2 + 1) * n_theta <= MAX_ENTRIES // 8 else None
    return thetas, w[::-1].copy(), phis, _phases(t, phis), pairs, col


def q_values(sector: SpinSector, directions) -> np.ndarray:
    """Q at an arbitrary list of directions."""
    sector = _check_type("sector", sector, SpinSector)
    thetas, phis = _points(_check_each("directions", directions, Direction)).T
    t = sector.spin.twice
    return np.einsum("kn,kn->n", _fourier(sector.rho, _d_column(t, 0, thetas).T.copy()), _phases(t, phis))


def q_function(sector: SpinSector, grid: tuple[int, int] = (64, 128)) -> QGrid:
    """Q on a Gauss-Legendre x uniform product grid; grid = (n_theta, n_phi)."""
    sector = _check_type("sector", sector, SpinSector)
    if not (type(grid) in _LISTS or isinstance(grid, np.ndarray) and grid.ndim) or len(grid) != 2:
        raise ValueError(f"grid must be a list of 2 entries, got {grid!r}")
    n_theta, n_phi = grid
    n_theta, n_phi = _check_int("grid size n_theta", n_theta, 1), _check_int("grid size n_phi", n_phi, 1)
    thetas, weights, phis, table, pairs, col = _grid_axes(sector.spin.twice, n_theta, n_phi)
    values = _fourier(sector.rho, col, pairs).T @ table
    coarse = n_theta < sector.spin.twice + 1
    return QGrid(sector.spin, thetas, phis, weights, values, coarse)


def export_qgrid(grid: QGrid, path) -> None:
    """Write CSV rows theta,phi,weight,Q in theta-major order (bit-stable)."""
    grid = _check_type("grid", grid, QGrid)
    phis = [repr(p) for p in grid.phis.tolist()]
    weights = grid.theta_weights * (2.0 * math.pi / grid.n_phi)
    with open(path, "w") as fh:
        fh.write("theta,phi,weight,Q\n")
        for theta, weight, row in zip(grid.thetas.tolist(), weights.tolist(), grid.values.tolist()):
            head, mid = f"{theta!r},", f",{weight!r},"
            fh.write("".join(f"{head}{p}{mid}{v!r}\n" for p, v in zip(phis, row)))

