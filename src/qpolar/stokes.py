"""Stokes operators on a shell, directional moments, and moment-based tomography.

On the spin-S shell the Stokes vector acts as the standard angular-momentum
triple (Sz diagonal with entries m, ladder action for S+/S-).  Directional
moments <(n.S)^l> probe the multipoles of rank <= l, so isotropy of all
moments up to order K is equivalent to K-th-order unpolarization, and
moments measured along enough directions determine the multipole components
up to a chosen rank by linear least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angmom import HalfInt, _d_column, _spin_arrays, half
from .multipole import _basis_diagonal, _strengths_cumulative_degrees
from .states import Direction, SpinSector, as_shells

__all__ = [
    "StokesTriple",
    "stokes_matrices",
    "spin_along",
    "directional_moment",
    "total_variance",
    "isotropy_order",
    "MomentSample",
    "sample_moments",
    "ReconstructionResult",
    "moments_to_multipoles",
    "IllConditionedError",
    "read_moments",
    "write_moments",
]


class IllConditionedError(ValueError):
    """Moment-to-multipole system is rank deficient for the given directions."""


@dataclass(frozen=True)
class StokesTriple:
    """The three Stokes (spin) matrices on one shell, basis |S,m> descending."""

    spin: HalfInt
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    @property
    def vector(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.sx, self.sy, self.sz)


def stokes_matrices(S) -> StokesTriple:
    """Stokes operator matrices (Sx, Sy, Sz) on the spin-S shell."""
    S = half(S)
    if S.twice < 0:
        raise ValueError("spin must be non-negative")
    sx, sy, sz = _spin_arrays(S.twice)
    return StokesTriple(S, sx, sy, sz)


def spin_along(S, direction: Direction) -> np.ndarray:
    """Matrix of n . S for the unit vector n of `direction`."""
    ops = stokes_matrices(S)
    n = direction.unit_vector
    return n[0] * ops.sx + n[1] * ops.sy + n[2] * ops.sz


def directional_moment(obj, direction: Direction, ell: int) -> float:
    """Moment <(n.S)^ell>; shell results are weighted by P_S for multi-shell states."""
    if not isinstance(ell, (int, np.integer)) or ell < 1:
        raise ValueError(f"moment order must be a positive integer, got {ell}")
    return float(sum(w * _moments_up_to(sec, direction, int(ell))[-1] for w, sec in as_shells(obj)))


def _moments_up_to(sector: SpinSector, direction: Direction, max_ell: int) -> np.ndarray:
    sn = spin_along(sector.spin, direction)
    out = np.empty(max_ell)
    acc = sector.rho
    for ell in range(1, max_ell + 1):
        acc = acc @ sn
        out[ell - 1] = float(np.trace(acc).real)
    return out


def total_variance(obj) -> float:
    """Total Stokes variance, sum_i (<S_i^2> - <S_i>^2); >= S on a fixed shell."""
    shells = as_shells(obj)
    sq = 0.0
    mean = np.zeros(3)
    for w, sec in shells:
        ops = stokes_matrices(sec.spin)
        for i, s in enumerate(ops.vector):
            sq += w * float(np.trace(sec.rho @ s @ s).real)
            mean[i] += w * float(np.trace(sec.rho @ s).real)
    return sq - float(np.dot(mean, mean))


def tomography_directions(n: int) -> list[Direction]:
    """Well-spread deterministic directions for minimal moment tomography.

    The plain spiral is too symmetric for exactly-determined systems (points
    paired across the equator share one azimuth for their vector sums, which
    makes small sets rank deficient); a quadratic azimuth offset breaks the
    arithmetic progression while keeping the set deterministic.
    """
    if n < 1:
        raise ValueError("need at least one direction")
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        out.append(Direction(math.acos(z), (i * golden + 0.05 * i * i) % (2.0 * math.pi)))
    return out


def isotropy_order(
    sector: SpinSector,
    max_ell: int,
    tol: float = 1e-8,
    n_directions: int = 50,
) -> int:
    """Largest l* <= max_ell with <(n.S)^l> direction-independent for all l <= l*.

    Counts orders the same way as the multipole classifier: a state with
    <n.S> identically zero is isotropic at l = 1 and scores at least 1.
    Directions are a deterministic spiral so the verdict is reproducible.
    Pass a SpinSector; multi-shell states should be classified shell by
    shell, where isotropy and vanishing multipoles are equivalent.
    """
    if not isinstance(sector, SpinSector):
        raise TypeError("isotropy_order classifies one shell at a time")
    if max_ell < 1:
        raise ValueError("max_ell must be >= 1")
    if n_directions < 2 * max_ell + 1:
        raise ValueError(
            f"need at least 2*max_ell+1 = {2 * max_ell + 1} directions, got {n_directions}"
        )
    table = np.stack([_moments_up_to(sector, d, max_ell) for d in tomography_directions(n_directions)])
    order = 0
    for ell in range(1, max_ell + 1):
        col = table[:, ell - 1]
        if col.max() - col.min() > tol:
            break
        order = ell
    return order


@dataclass(frozen=True)
class MomentSample:
    """One measured directional moment <(n.S)^ell>."""

    direction: Direction
    ell: int
    value: float


def sample_moments(sector: SpinSector, directions, max_ell: int) -> list[MomentSample]:
    """Forward-compute noiseless moments l = 1..max_ell along each direction."""
    out = []
    for d in directions:
        vals = _moments_up_to(sector, d, max_ell)
        out.extend(MomentSample(d, ell, float(vals[ell - 1])) for ell in range(1, max_ell + 1))
    return out


@dataclass(frozen=True)
class ReconstructionResult:
    """Multipoles recovered from directional moments by least squares."""

    spin: HalfInt
    k_max: int
    components: dict[tuple[int, int], complex]
    strengths: np.ndarray       # W_K for K = 0..k_max (monopole value fixed by trace)
    cumulative: np.ndarray      # A_K for K = 1..k_max
    degrees: np.ndarray         # P_K for K = 1..k_max
    condition_number: float
    residual: float
    n_samples: int


def _real_unknowns(k_max: int) -> np.ndarray:
    # rows K, q, part: q = 0 is real; q > 0 contributes (re, im); q < 0 follows by hermiticity
    return np.array([
        (K, q, part)
        for K in range(1, k_max + 1)
        for q in range(K + 1)
        for part in ((0,) if q == 0 else (0, 1))
    ]).T


def _design_rows(samples, S: HalfInt, k_max: int):
    """Rows of the moment map over `_real_unknowns`, and each sample's monopole Tr[(n.S)^l]/(2S+1).

    (n.S)^l = R Sz^l R^dagger with R = D(phi, theta, 0), so by rotation covariance
    Tr[T_Kq (n.S)^l] = z[K, l] exp(i q phi) d^K_{q0}(theta), with z[K, l] = Tr[T_K0 Sz^l].
    """
    theta, phi = np.array([(s.direction.theta, s.direction.phi) for s in samples]).T
    ell = np.array([s.ell for s in samples])
    powers = (np.arange(S.twice, -S.twice - 1, -2) / 2.0)[:, None] ** np.arange(k_max + 1)  # m^l, [m, l]
    z = _basis_diagonal(S.twice, 0)[:k_max + 1] @ powers  # the q = 0 block against Sz^l
    t = np.zeros((len(samples), k_max + 1, k_max + 1), dtype=complex)  # [sample, K, q >= 0]
    for K in range(1, k_max + 1):
        q = np.arange(K + 1)
        t[:, K, q] = z[K, ell, None] * _d_column(2 * K, K, theta)[:, K::-1] * np.exp(1j * q * phi[:, None])
    ks, qs, parts = _real_unknowns(k_max)
    t = t[:, ks, qs]
    rows = np.where(qs == 0, t.real, np.where(parts == 0, 2.0 * t.real, -2.0 * t.imag))
    return rows, powers.mean(axis=0)[ell]


def moments_to_multipoles(samples, S, k_max: int) -> ReconstructionResult:
    """Solve the linear moment map for the multipole components up to rank k_max.

    Each sample (direction n, order l, value <(n.S)^l>) is linear in the
    rho_Kq with K <= l, because (n.S)^l expands over tensors of rank <= l.
    Needs moments up to l = k_max on at least 2*k_max+1 distinct directions,
    and none above: their ranks above k_max would alias into the fit, so
    they raise ValueError, as does a non-finite value (naming its sample).
    Raises IllConditionedError when the assembled system is rank deficient
    (smallest singular value below 1e-10 of the largest).
    """
    S = half(S)
    if not 1 <= k_max <= S.twice:
        raise ValueError(f"k_max must lie in [1, 2S] = [1, {S.twice}], got {k_max}")
    samples = [
        s if isinstance(s, MomentSample) else MomentSample(s[0], int(s[1]), float(s[2]))
        for s in samples
    ]
    if not samples:
        raise ValueError("no moment samples given")
    values = np.array([s.value for s in samples])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"moment sample {bad[0]} has a non-finite value: {samples[bad[0]]}")
    ells = [s.ell for s in samples]
    if min(ells) < 1:
        raise ValueError("moment order must be >= 1")
    if max(ells) > k_max:
        raise ValueError(f"moments of order up to l = {max(ells)} carry ranks above k_max = {k_max}; "
                         f"reconstruct with k_max >= {max(ells)} or drop them")
    dirs = {(round(s.direction.theta, 12), round(s.direction.phi, 12)) for s in samples}
    if len(dirs) < 2 * k_max + 1:
        raise IllConditionedError(
            f"{len(dirs)} distinct directions cannot span rank {k_max}; "
            f"need at least {2 * k_max + 1}"
        )
    d = S.twice + 1
    a, monopole = _design_rows(samples, S, k_max)
    b = values - monopole
    sol, res, rank, sing = np.linalg.lstsq(a, b, rcond=None)
    if sing[0] == 0 or sing[-1] < 1e-10 * sing[0]:
        raise IllConditionedError(
            "direction set is rank deficient: singular values span "
            f"[{sing[-1]:.3e}, {sing[0]:.3e}] over {len(dirs)} directions"
        )
    cond = float(sing[0] / sing[-1])
    residual = float(np.linalg.norm(a @ sol - b))
    ks, qs, parts = _real_unknowns(k_max)

    c = np.zeros((k_max + 1, 2 * k_max + 1), dtype=complex)
    c[0, k_max] = 1.0 / math.sqrt(d)
    np.add.at(c, (ks, k_max + qs), np.where(parts == 0, sol, 1j * sol))
    # hermiticity: rho_K,-q = (-1)^q rho_Kq^*
    c[:, :k_max] = (c[:, k_max + 1:].conj() * (-1.0) ** np.arange(1, k_max + 1))[:, ::-1]
    comps = {(K, q): complex(c[K, k_max + q]) for K in range(k_max + 1) for q in range(-K, K + 1)}
    W, A, P = _strengths_cumulative_degrees(c, S.twice)
    return ReconstructionResult(S, k_max, comps, W, A, P, cond, residual, len(samples))


def write_moments(samples, path) -> None:
    """Write moment samples as CSV rows theta,phi,ell,value."""
    with open(path, "w") as fh:
        fh.write("theta,phi,ell,value\n")
        for s in samples:
            fh.write(f"{s.direction.theta!r},{s.direction.phi!r},{s.ell},{s.value!r}\n")


def read_moments(path) -> list[MomentSample]:
    """Read moment samples from CSV (theta,phi,ell,value; header optional)."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("theta"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"malformed moments row: {line!r}")
            theta, phi, ell, value = float(parts[0]), float(parts[1]), int(parts[2]), float(parts[3])
            out.append(MomentSample(Direction(theta, phi), ell, value))
    return out
