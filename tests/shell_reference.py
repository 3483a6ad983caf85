"""Test-side shell operations the library does not need.

The magnetic quantum numbers of a shell, the matrix of n.S, the Stokes variance, the
multipole-free projection and the Q grid summed one Fourier coefficient at a time.
"""

import math

import numpy as np

from qpolar.angmom import HalfInt, _d_column, half
from qpolar.husimi import _phases
from qpolar.multipole import components, tensor_matrix
from qpolar.stokes import stokes_matrices


def m_range(j) -> list[HalfInt]:
    """Magnetic quantum numbers m = j, j-1, ..., -j, descending as the library indexes a shell."""
    tj = half(j).twice
    return [HalfInt(tm) for tm in range(tj, -tj - 1, -2)]


def spin_along(S, direction) -> np.ndarray:
    """Matrix of n.S for the unit vector n of `direction`."""
    ops = stokes_matrices(S)
    n = direction.unit_vector
    return n[0] * ops.sx + n[1] * ops.sy + n[2] * ops.sz


def total_variance(sector) -> float:
    """sum_i <S_i^2> - <S_i>^2 of one shell, read off the Stokes matrices; at least S."""
    ops = stokes_matrices(sector.spin)
    return sum(
        np.trace(sector.rho @ s @ s).real - np.trace(sector.rho @ s).real ** 2
        for s in (ops.sx, ops.sy, ops.sz)
    )


def project_multipole_free(rho, S, order: int) -> np.ndarray:
    """Orthogonal projection onto {rho: Tr rho = 1, rho_Kq = 0 for 1 <= K <= order}."""
    S = half(S)
    rho = np.asarray(rho, dtype=complex)
    c = components(rho, S, order)
    c[0, order] -= 1.0 / math.sqrt(S.twice + 1)  # leave the monopole of I/d, so Tr = 1
    return rho - sum(c[K, order + q] * tensor_matrix(S, K, q) for K in range(order + 1) for q in range(-K, K + 1))


def q_grid_by_diagonals(rho, thetas, phis) -> np.ndarray:
    """Q on the product of `thetas` and `phis` from one small product per diagonal q of H = (rho + rho^dagger)/2.

    F_q = sum_i d_i d_{i+q} H[i+q, i] at each theta, q = 0..2S, with d_i = d^S_{m_i,S}(theta), summed
    against cos(q phi) and sin(q phi); the per-q loop `q_function` ran before its stacked product.
    """
    d = len(rho)
    col = _d_column(d - 1, 0, thetas).T.copy()  # [i, theta]
    h = rho + rho.conj().T  # 2H, which carries the weight 2 of q > 0
    parts = np.stack([h.real, h.imag])
    f = np.stack([np.diagonal(parts, -q, 1, 2) @ (col[:d - q] * col[q:]) for q in range(d)])
    f[0] /= 2.0
    return f.reshape(2 * d, -1).T @ _phases(d - 1, phis)
