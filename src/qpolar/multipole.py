"""Irreducible tensor multipoles of shell density matrices.

The rank-K tensors T_Kq on a spin-S shell are built from Clebsch-Gordan
coefficients, each an exact rational square root rounded once,

    T_Kq[m', m] = sqrt((2K+1)/(2S+1)) <S m, K q | S m'>,

so they form an orthonormal (Hilbert-Schmidt) operator basis.  A state's
multipole components rho_Kq = Tr[rho T_Kq^dagger] carry all polarization
information: the rank strengths W_K = sum_q |rho_Kq|^2 are rotation
invariants, their cumulative sums A_K (monopole excluded) measure the
information up to order K, and the degrees P_K normalize A_K by the spin
coherent-state value, which is the attainable maximum.  A state is
K-th-order unpolarized when A_K vanishes.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .angmom import HalfInt, _cache, _check_int, _check_spin, _check_tol, _check_type, _Frozen, _is_int, _read_only
from .states import DEFAULT_ORDER_TOL, SpinSector, as_shells, purity

__all__ = [
    "tensor_matrix",
    "MultipoleSpectrum",
    "state_multipoles",
    "strengths",
    "cumulative",
    "coherent_cumulative_max",
    "degree",
    "unpolarization_order",
    "ShellReport",
    "PolarizationReport",
    "analyze",
    "DEFAULT_ORDER_TOL",
]


@_cache(None)
def _basis_diagonal(twice: int, q: int) -> np.ndarray:
    """The q-th diagonals of T_Kq, K = q..2S, for q >= 0: row K - q holds T_Kq[i, i + q], read-only.

    They are the eigenvectors x of the adjoint Casimir X -> sum_i [S_i, [S_i, X]]
    restricted to that diagonal: a tridiagonal operator with diagonal D_i / 2,
    off-diagonal -sqrt(P_i) / 4 (entry i has m' = S - i) and eigenvalue K(K+1).
    With the eigenvalue fixed, the eigen-equation is a three-term recurrence
    (Schulten & Gordon, J. Math. Phys. 16, 1961 (1975)) for
    w_i = x_i sqrt(P_1 ... P_i), which stays in exact integers.  Then
    x_i^2 = w_i^2 R_i / sum_k w_k^2 R_k with R_i = P_{i+1} ... P_{n-1}, so each
    squared Clebsch-Gordan coefficient is one exact ratio of integers, rounded
    once.  A caller that reads only the q = 0 block builds it alone.
    """
    t = twice
    d = t + 1
    n = d - q  # entry i of the diagonal is T_Kq[i, q + i]
    c4 = lambda x: t * (t + 2) - x * (x + 2)  # 4 [S(S+1) - k(k+1)] at x = 2k
    D = [t * (t + 2) - (t - 2 * i) * (t - 2 * i - 2 * q) for i in range(n)]
    P = [c4(t - 2 * i) * c4(t - 2 * i - 2 * q) for i in range(n)]
    R = [1] * n
    for i in range(n - 2, -1, -1):
        R[i] = R[i + 1] * P[i + 1]
    out = np.empty((n, n))
    for K in range(q, d):
        L = 2 * K * (K + 1)
        # w_0 = (-1)^q, the Condon-Shortley sign; zip below drops w_1 when n = 1
        w = [(-1) ** q, 2 * (D[0] - L) * (-1) ** q]
        for i in range(1, n - 1):
            w.append(2 * (D[i] - L) * w[i] - P[i] * w[i - 1])
        sq = [x * x * r for x, r in zip(w, R)]
        den = (2 * K + 1) * sum(sq)
        scale = math.sqrt((2 * K + 1) / d)
        # sqrt((2K+1)/d) times the CG coefficient, whose square is s*d/den
        out[K - q] = [scale * (((x > 0) - (x < 0)) * math.sqrt(s * d / den)) for x, s in zip(w, sq)]
    return out


@_cache(None)
def _basis(twice: int) -> tuple[np.ndarray, np.ndarray]:
    """The T_Kq of one shell as diagonal blocks, with their flat gather indices.

    T_Kq is nonzero on its q-th diagonal only, so the basis is stored as one
    real array C[2S + q, K, col] = T_Kq[col - q, col], zero where the entry
    falls outside the matrix or |q| > K.  idx[2S + q, col] is the flat index
    of entry (col - q, col), or one past the matrix where there is none.
    The blocks q >= 0 come from `_basis_diagonal`, and T_K,-q = (-1)^q T_Kq^T.
    """
    t = twice
    d = t + 1
    C = np.zeros((2 * d - 1, d, d))
    for q in range(d):
        C[t + q, q:, q:] = _basis_diagonal(t, q)
        C[t - q, :, :d - q] = (-1) ** q * C[t + q, :, q:]
    rows = np.arange(d) - np.arange(-t, d)[:, None]
    return C, np.where((rows >= 0) & (rows < d), rows * d + np.arange(d), d * d)


def components(X: np.ndarray, S: HalfInt, k_max: int) -> np.ndarray:
    """Tr[X T_Kq^dagger] for K <= k_max as an array [..., K, k_max + q].

    X may carry leading batch axes; entries with |q| > K are zero.
    """
    C, idx = _basis(S.twice)
    qs = slice(S.twice - k_max, S.twice + k_max + 1)
    # entries outside the matrix clip to its last one, where the coefficient is zero
    diags = X.reshape(X.shape[:-2] + (-1,)).take(idx[qs], axis=-1, mode="clip")  # [..., q, col]
    # the real block against the (re, im) pairs of each entry: no complex copy of the block
    parts = diags.view(float).reshape(diags.shape + (-1,))  # [..., q, col, re/im]
    return (C[qs, :k_max + 1] @ parts).view(diags.dtype)[..., 0].swapaxes(-1, -2)


def tensor_matrix(S, K: int, q: int) -> np.ndarray:
    """Dense matrix of T_Kq: its q-th diagonal, read from the basis, with T_K,-q = (-1)^q T_Kq^T."""
    S = _check_spin("S", S)
    K = _check_int("K", K, 0, S.twice, span="[0, 2S]")
    q = _check_int("q", q, -K, K, span="[-K, K]")
    diagonal = _basis_diagonal(S.twice, abs(q))[K - abs(q)]  # T_K|q|[i, i + |q|]
    return np.diag(diagonal if q >= 0 else (-1) ** q * diagonal, q)


@cached_property
def _components(result) -> dict[tuple[int, int], complex]:
    """A result's `components`: {(K, q): coefficients[K, k_max + q]} for |q| <= K, as complex, made on first read."""
    rows = result.coefficients.tolist()
    return {(K, q): row[len(row) // 2 + q] for K, row in enumerate(rows) for q in range(-K, K + 1)}


@_read_only
class MultipoleSpectrum(_Frozen):
    """Multipole decomposition of one shell: components, strengths, and degrees.

    `coefficients[K, 2S + q]` is rho_Kq (zero where |q| > K), read-only, and `components` its dict.
    `strengths[K]` is W_K for K = 0..2S; `cumulative_all[K-1]` is A_K and
    `degrees_all[K-1]` is P_K for K = 1..2S.  `unpol_order` is the largest K
    with A_K <= tol (0 if the dipole already survives, 2S if fully
    unpolarized).
    """

    spin: HalfInt
    coefficients: np.ndarray
    strengths: np.ndarray
    cumulative_all: np.ndarray
    degrees_all: np.ndarray
    unpol_order: int
    tol: float

    components = _components

    def component(self, K: int, q: int) -> complex:
        """rho_Kq; a K or q that is no integer is a ValueError, an integer pair outside |q| <= K <= 2S a KeyError."""
        if not (_is_int(K) and _is_int(q)):
            _check_int("K", K, 0, self.spin.twice, span="[0, 2S]")
            _check_int("q", q, -self.spin.twice, self.spin.twice, span="[-2S, 2S]")
        return self.components[K, q]

    @property
    def max_rank(self) -> int:
        return self.spin.twice


def _leading_within(values: np.ndarray, tol: float) -> int:
    """How many leading values are at most tol; a NaN ends the count."""
    return int(np.append(values <= tol, False).argmin())


def state_multipoles(sector: SpinSector, *, tol: float = DEFAULT_ORDER_TOL) -> MultipoleSpectrum:
    """Full multipole spectrum rho_Kq = Tr[rho T_Kq^dagger] of one shell."""
    sector = _check_type("sector", sector, SpinSector)
    _check_tol(tol)
    S = sector.spin
    t = S.twice
    c = components(sector.rho, S, t)
    W, A, P = _strengths_cumulative_degrees(c, t)
    return MultipoleSpectrum(S, c, W, A, P, _leading_within(A, tol), tol)


def strengths(spectrum: MultipoleSpectrum) -> np.ndarray:
    """Multipole strengths W_K, K = 0..2S."""
    return _check_type("spectrum", spectrum, MultipoleSpectrum).strengths.copy()


def cumulative(spectrum: MultipoleSpectrum, K: int) -> float:
    """Cumulative distribution A_K = W_1 + ... + W_K (monopole excluded)."""
    spectrum = _check_type("spectrum", spectrum, MultipoleSpectrum)
    K = _check_int("K", K, 1, spectrum.spin.twice, span="[1, 2S]")
    return float(spectrum.cumulative_all[K - 1])


def coherent_cumulative_max(S, K: int) -> float:
    """A_K of a spin coherent state: 2S/(2S+1) - [(2S)!]^2 / [(2S-K-1)!(2S+K+1)!].

    This is the largest A_K attainable on the shell.  At K = 2S the second
    term vanishes (its Gamma-function form hits 1/Gamma(0) = 0) and the value
    is 2S/(2S+1).
    """
    S = _check_spin("S", S)
    K = _check_int("K", K, 1, S.twice, span="[1, 2S]")
    return float(_coherent_maxima(S.twice)[K - 1])


@_cache(None)
def _coherent_maxima(t: int) -> np.ndarray:
    """Coherent-state A_K for K = 1..2S, each one exact ratio of integers rounded once."""
    f = math.factorial
    return np.array([
        (t * f(t - K - 1) * f(t + K + 1) - (t + 1) * f(t) ** 2) / ((t + 1) * f(t - K - 1) * f(t + K + 1))
        if K < t else t / (t + 1)
        for K in range(1, t + 1)
    ])


def _strengths_cumulative_degrees(c: np.ndarray, t: int):
    """W_K, A_K and P_K of components c[..., K, k_max + q] on the shell with 2S = t."""
    W = np.sum(c.real ** 2 + c.imag ** 2, axis=-1)
    A = np.cumsum(W[..., 1:], axis=-1)
    return W, A, np.sqrt(np.maximum(A, 0.0) / _coherent_maxima(t)[:A.shape[-1]])


def degree(spectrum: MultipoleSpectrum, K: int) -> float:
    """Degree of polarization of order K, P_K = sqrt(A_K / A_K,coherent)."""
    spectrum = _check_type("spectrum", spectrum, MultipoleSpectrum)
    K = _check_int("K", K, 1, spectrum.spin.twice, span="[1, 2S]")
    return float(spectrum.degrees_all[K - 1])


def unpolarization_order(spectrum: MultipoleSpectrum, tol: float = DEFAULT_ORDER_TOL) -> int:
    """Largest K with A_K <= tol; 0 if the dipole survives, 2S if fully unpolarized."""
    spectrum = _check_type("spectrum", spectrum, MultipoleSpectrum)
    _check_tol(tol)
    return _leading_within(spectrum.cumulative_all, tol)


@_read_only
class ShellReport:
    """Per-shell slice of a polarization analysis."""

    weight: float
    spectrum: MultipoleSpectrum
    purity: float


@_read_only
class PolarizationReport(_Frozen):
    """Shell-wise multipole analysis plus P_S-weighted aggregates.

    The per-shell spectra are the primary result.  `aggregate_cumulative[K-1]`
    is the convention-level aggregate A-bar_K = sum_S P_S A_K^(S) (with A_K
    saturating at A_2S on shells of lower spin), and `aggregate_order` is the
    largest K with A-bar_K <= tol.
    """

    shells: tuple[ShellReport, ...]
    aggregate_cumulative: np.ndarray
    aggregate_order: int
    block_purity: float
    tol: float


def analyze(obj, *, tol: float = DEFAULT_ORDER_TOL) -> PolarizationReport:
    """Analyze a SpinSector or PolarizationState shell-wise."""
    shells = as_shells(obj)
    reports = tuple(
        ShellReport(w, state_multipoles(sec, tol=tol), sec.purity())
        for w, sec in shells
    )
    k_top = max(sec.spin.twice for _, sec in shells)
    agg = np.zeros(k_top)
    for rep in reports:
        cum = rep.spectrum.cumulative_all
        if len(cum):  # a 2S = 0 shell has no A_K; A_K saturates at A_2S above its top rank
            agg += rep.weight * cum[np.minimum(np.arange(k_top), len(cum) - 1)]
    return PolarizationReport(reports, agg, _leading_within(agg, tol), purity(obj), tol)
