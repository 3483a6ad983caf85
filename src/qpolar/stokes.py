"""Stokes operators on a shell, directional moments, and moment-based tomography.

Every moment routine reads one linear model: with s = max(S, 1),
<(n.S/s)^l> = sum_{K <= min(l, 2S)} z[K, l] rho_K0(n), where z[K, l] = Tr[T_K0 (Sz/s)^l]
and rho_K0(n) = sum_q exp(i q phi) d^K_q0(theta) rho_Kq (K = 0 is the monopole).
So isotropy of all moments up to order K is K-th-order unpolarization, and
moments along enough directions determine the multipoles up to a chosen rank
by least squares on the same rows.  A raw moment (scaled times s^l) past the float range is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angmom import HalfInt, _spin_arrays, half
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


def _axial_factors(directions, k: int):
    """Yield K and exp(i q phi) d^K_q0(theta), q = 0..K, as [direction, q] for K = 0..k.

    d^K_q0, the m = 0 column of d^K, by the Legendre recurrence in K: no spin-K matrix is formed.
    """
    theta, phi = np.array([(d.theta, d.phi) for d in directions], dtype=float).reshape(-1, 2).T
    cos, sin = np.cos(theta)[:, None], np.sin(theta)
    phase = np.exp(1j * phi[:, None] * np.arange(k + 1))
    rank, q2 = np.arange(k + 1.0)[:, None], np.arange(k + 1.0) ** 2
    den = np.sqrt(np.maximum(rank ** 2 - q2, 1.0))  # the coefficients at q >= K meet zeros of d^(K-1), d^(K-2)
    a, b = (2 * rank - 1) / den, np.sqrt(np.maximum((rank - 1) ** 2 - q2, 0.0)) / den
    prev, col = np.zeros((len(theta), k + 1)), np.zeros((len(theta), k + 1))  # d^(K-2), d^(K-1); 0 at q >= K
    col[:, 0] = 1.0
    for K in range(k + 1):
        if K:
            prev, col = col, a[K] * cos * col - b[K] * prev
            col[:, K] = -math.sqrt(1 - 0.5 / K) * sin * prev[:, K - 1]
        yield K, col[:, :K + 1] * phase[:, :K + 1]


def _z_table(t: int, k: int, max_ell: int) -> np.ndarray:
    """z[K, l] = Tr[T_K0 (Sz/s)^l], exactly 0 for K > l, at K <= k, l <= max_ell, 2S = t, s = max(S, 1)."""
    powers = (np.arange(t, -t - 1, -2) / max(t, 2))[:, None] ** np.arange(max_ell + 1)  # (m/s)^l, [m, l]
    return np.triu(_basis_diagonal(t, 0)[:k + 1] @ powers)


def _scaled_moments(sector: SpinSector, directions, max_ell: int) -> np.ndarray:
    """<(n.S/s)^l> for l = 1..max_ell along each direction, as [direction, l - 1]."""
    t, k = sector.spin.twice, min(max_ell, sector.spin.twice)
    c = np.zeros((k + 1, k + 1), dtype=complex)  # rho_Kq as [K, q]
    for q in range(k + 1):  # from the diagonals q <= k alone; the 2 adds each q < 0 conjugate
        c[q:, q] = (2 - (q == 0)) * (_basis_diagonal(t, q)[:k + 1 - q] @ np.diagonal(sector.rho, q))
    axial = np.column_stack([(f @ c[K, :K + 1]).real for K, f in _axial_factors(directions, k)])  # rho_K0(n)
    return axial @ _z_table(t, k, max_ell)[:, 1:]


def directional_moment(obj, direction: Direction, ell: int) -> float:
    """Moment <(n.S)^ell>; shell results are weighted by P_S for multi-shell states."""
    if not isinstance(ell, (int, np.integer)) or ell < 1:
        raise ValueError(f"moment order must be a positive integer, got {ell}")
    return float(sum(w * sample_moments(sec, [direction], int(ell))[-1].value for w, sec in as_shells(obj)))


def total_variance(obj) -> float:
    """Total Stokes variance, sum_i (<S_i^2> - <S_i>^2) = S(S+1) - |<S>|^2 per shell; >= S on one shell."""
    axes = [Direction(math.pi / 2, 0.0), Direction(math.pi / 2, math.pi / 2), Direction(0.0, 0.0)]
    shells = as_shells(obj)
    mean = sum(w * np.array([m.value for m in sample_moments(sec, axes, 1)]) for w, sec in shells)
    return sum(w * float(sec.spin) * (float(sec.spin) + 1) for w, sec in shells) - float(mean @ mean)


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

    Order l is isotropic when <(n.S/s)^l>, s = max(S, 1), spreads by at most tol
    (positive and finite) across the directions.  Counts orders like the
    multipole classifier: <n.S> identically zero scores at least 1.
    Directions are a deterministic spiral so the verdict is reproducible.
    Pass a SpinSector; multi-shell states should be classified shell by
    shell, where isotropy and vanishing multipoles are equivalent.
    """
    if not isinstance(sector, SpinSector):
        raise TypeError("isotropy_order classifies one shell at a time")
    if max_ell < 1:
        raise ValueError("max_ell must be >= 1")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if n_directions < 2 * max_ell + 1:
        raise ValueError(f"need at least 2*max_ell+1 = {2 * max_ell + 1} directions, got {n_directions}")
    spread = np.ptp(_scaled_moments(sector, tomography_directions(n_directions), max_ell), axis=0)
    return int(np.append(spread <= tol, False).argmin())  # the orders before the first anisotropic one


@dataclass(frozen=True)
class MomentSample:
    """One measured directional moment <(n.S)^ell>."""

    direction: Direction
    ell: int
    value: float


def sample_moments(sector: SpinSector, directions, max_ell: int) -> list[MomentSample]:
    """Forward-compute noiseless moments l = 1..max_ell >= 1 along each direction."""
    if max_ell < 1:
        raise ValueError(f"max_ell must be >= 1, got {max_ell}")
    s = max(float(sector.spin), 1.0)
    if max_ell * math.log(s) >= math.log(np.finfo(float).max):
        raise ValueError(f"raw moments of order l = {max_ell} at spin {sector.spin} are past the float range")
    directions = list(directions)
    vals = (_scaled_moments(sector, directions, max_ell) * s ** np.arange(1.0, max_ell + 1)).tolist()
    return [MomentSample(d, ell, v) for d, row in zip(directions, vals) for ell, v in enumerate(row, 1)]


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
    """Rows of `_scaled_moments`'s model over `_real_unknowns`, and each sample's monopole part."""
    ell = np.array([s.ell for s in samples])
    z = _z_table(S.twice, k_max, int(ell.max()))
    t = np.zeros((len(samples), k_max + 1, k_max + 1), dtype=complex)  # [sample, K, q >= 0]
    for K, f in _axial_factors([s.direction for s in samples], k_max):
        t[:, K, :K + 1] = z[K, ell, None] * f
    ks, qs, parts = _real_unknowns(k_max)
    rows = t[:, ks, qs]
    rows = np.where(qs == 0, rows.real, np.where(parts == 0, 2.0 * rows.real, -2.0 * rows.imag))
    return rows, z[0, ell] / math.sqrt(S.twice + 1)


def moments_to_multipoles(samples, S, k_max: int) -> ReconstructionResult:
    """Solve the linear moment map for the multipole components up to rank k_max.

    Each sample (direction n, order l, value <(n.S)^l>) is linear in the
    rho_Kq with K <= l, because (n.S)^l expands over tensors of rank <= l.
    Each equation is divided by s^l, s = max(S, 1); the rank test,
    `condition_number` and `residual` are those of that system.  Needs
    moments up to l = k_max on at least 2*k_max+1 distinct directions, and
    none above: their ranks above k_max would alias into the fit, so they
    raise ValueError, as does a non-finite value (naming its sample).
    Raises IllConditionedError when the scaled system is rank deficient
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
    a, monopole = _design_rows(samples, S, k_max)
    root = max(float(S), 1.0) ** (np.array(ells) / 2.0)  # s^l in two factors, each inside the float range
    b = values / root / root - monopole
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
    c[0, k_max] = 1.0 / math.sqrt(S.twice + 1)
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
