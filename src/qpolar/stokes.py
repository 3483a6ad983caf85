"""Stokes operators on a shell, directional moments, and moment-based tomography.

Every moment routine reads one linear model: with s = max(S, 1),
<(n.S/s)^l> = sum_{K <= min(l, 2S)} z[K, l] rho_K0(n), where z[K, l] = Tr[T_K0 (Sz/s)^l]
and rho_K0(n) = sum_q exp(i q phi) d^K_q0(theta) rho_Kq (K = 0 is the monopole).
So isotropy of all moments up to order K is K-th-order unpolarization, and
moments along enough directions determine the multipoles up to a chosen rank
by least squares on the same rows.  A raw moment (scaled times s^l) past the float range is refused, and so
is an order whose moments [direction, l] or powers [m, l] would hold more than angmom.MAX_ENTRIES entries.
The rows of a fit depend only on its layout, so `_layout` builds them once per layout and caches them
read-only.  Its key is the spin, k_max, the bits of the directions' angles and the orders, never the
measured values, and it holds at most 8 designs.
"""

from __future__ import annotations

import math

import numpy as np

from .angmom import (MAX_ENTRIES, HalfInt, IllConditionedError, _cache, _check_each, _check_int, _check_reals,
                     _check_spin, _check_tol, _check_type, _Frozen, _is_int, _read_only, _spin_arrays)
from .multipole import _basis_diagonal, _components, _leading_within, _strengths_cumulative_degrees
from .states import Direction, SpinSector, _points, as_shells

__all__ = [
    "StokesTriple",
    "stokes_matrices",
    "directional_moment",
    "isotropy_order",
    "MomentSample",
    "sample_moments",
    "ReconstructionResult",
    "moments_to_multipoles",
    "IllConditionedError",
    "read_moments",
    "write_moments",
]


@_read_only
class StokesTriple(_Frozen):
    """The three Stokes (spin) matrices on one shell, basis |S,m> descending."""

    spin: HalfInt
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def stokes_matrices(S) -> StokesTriple:
    """Stokes operator matrices (Sx, Sy, Sz) on the spin-S shell."""
    S = _check_spin("S", S)
    sx, sy, sz = _spin_arrays(S.twice)
    return StokesTriple(S, sx, sy, sz)


def _axial_factors(points: np.ndarray, k: int):
    """Yield K and exp(i q phi) d^K_q0(theta), q = 0..K, as [point, q] for K = 0..k at points [n, 2] of (theta, phi).

    d^K_q0, the m = 0 column of d^K, by the Legendre recurrence in K: no spin-K matrix is formed.
    """
    theta, phi = points.T
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
    axial = np.column_stack([(f @ c[K, :K + 1]).real for K, f in _axial_factors(_points(directions), k)])  # rho_K0(n)
    return axial @ _z_table(t, k, max_ell)[:, 1:]


def _check_orders(name: str, t: int, n: int, max_ell: int) -> None:
    """Refuse `max_ell`, as `name`, if the moments [n, max_ell] or powers [t + 1, max_ell + 1] pass MAX_ENTRIES."""
    if max(n * max_ell, (t + 1) * (max_ell + 1)) > MAX_ENTRIES:
        raise ValueError(f"{name} must be small enough that the moments [{n}, {max_ell}] and powers [{t + 1}, "
                         f"{max_ell + 1}] hold at most MAX_ENTRIES = {MAX_ENTRIES} entries each, got {max_ell}")


def _raw_moments(name: str, sector: SpinSector, directions: list, max_ell: int) -> np.ndarray:
    """<(n.S)^l>, l = 1..max_ell, as [direction, l - 1]; refused past the float range or the budget before any work."""
    s = max(float(sector.spin), 1.0)
    if max_ell * math.log(s) >= math.log(np.finfo(float).max):
        raise ValueError(f"raw moments of order l = {max_ell} at spin {sector.spin} are past the float range")
    _check_orders(name, sector.spin.twice, len(directions), max_ell)
    return _scaled_moments(sector, directions, max_ell) * s ** np.arange(1.0, max_ell + 1)


def directional_moment(obj, direction: Direction, ell: int) -> float:
    """Moment <(n.S)^ell>; shell results are weighted by P_S for multi-shell states."""
    ell = _check_int("ell", ell, 1)
    direction = _check_type("direction", direction, Direction)
    return float(sum(w * _raw_moments("ell", sec, [direction], ell)[0, -1] for w, sec in as_shells(obj)))


def tomography_directions(n: int) -> list[Direction]:
    """Well-spread deterministic directions for minimal moment tomography.

    The plain spiral is too symmetric for exactly-determined systems (points
    paired across the equator share one azimuth for their vector sums, which
    makes small sets rank deficient); a quadratic azimuth offset breaks the
    arithmetic progression while keeping the set deterministic.
    """
    n = _check_int("n", n, 1)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        out.append(Direction(math.acos(z), (i * golden + 0.05 * i * i) % (2.0 * math.pi)))
    return out


def isotropy_order(sector: SpinSector, max_ell: int, tol: float = 1e-8, n_directions: int | None = None) -> int:
    """Largest l* <= max_ell with <(n.S)^l> direction-independent for all l <= l*.

    Order l is isotropic when <(n.S/s)^l>, s = max(S, 1), spreads by at most tol
    (positive and finite) across the directions.  Counts orders like the
    multipole classifier: <n.S> identically zero scores at least 1.
    The n_directions (default max(50, 2*max_ell+1)) form a deterministic spiral, so the verdict is reproducible.
    Their moments [n_directions, max_ell] hold at most angmom.MAX_ENTRIES: by default, max_ell <= 999.
    Pass a SpinSector; multi-shell states should be classified shell by
    shell, where isotropy and vanishing multipoles are equivalent.
    """
    sector = _check_type("sector", sector, SpinSector)
    max_ell = _check_int("max_ell", max_ell, 1)
    _check_tol(tol)
    n_directions = (max(50, 2 * max_ell + 1) if n_directions is None
                    else _check_int("n_directions", n_directions, 2 * max_ell + 1, span="2*max_ell+1"))
    _check_orders("max_ell", sector.spin.twice, n_directions, max_ell)
    spread = np.ptp(_scaled_moments(sector, tomography_directions(n_directions), max_ell), axis=0)
    return _leading_within(spread, tol)  # the orders before the first anisotropic one


@_read_only
class MomentSample:
    """One measured directional moment <(n.S)^ell>."""

    direction: Direction
    ell: int
    value: float


def sample_moments(sector: SpinSector, directions, max_ell: int) -> list[MomentSample]:
    """Forward-compute noiseless moments l = 1..max_ell >= 1 along each direction."""
    sector = _check_type("sector", sector, SpinSector)
    max_ell = _check_int("max_ell", max_ell, 1)
    directions = _check_each("directions", directions, Direction)
    if not directions:
        raise ValueError("sample_moments needs at least one direction")
    vals = _raw_moments("max_ell", sector, directions, max_ell).tolist()
    return [MomentSample(d, ell, v) for d, row in zip(directions, vals) for ell, v in enumerate(row, 1)]


@_read_only
class ReconstructionResult(_Frozen):
    """Multipoles recovered from directional moments by least squares, kept as in MultipoleSpectrum."""

    spin: HalfInt
    k_max: int
    coefficients: np.ndarray
    strengths: np.ndarray       # W_K for K = 0..k_max (monopole value fixed by trace)
    cumulative: np.ndarray      # A_K for K = 1..k_max
    degrees: np.ndarray         # P_K for K = 1..k_max
    condition_number: float
    residual: float
    n_samples: int

    components = _components


def _real_unknowns(k_max: int) -> np.ndarray:
    # rows K, q, part: q = 0 is real; q > 0 contributes (re, im); q < 0 follows by hermiticity
    return np.array([
        (K, q, part)
        for K in range(1, k_max + 1)
        for q in range(K + 1)
        for part in ((0,) if q == 0 else (0, 1))
    ]).T


def _design_rows(points: np.ndarray, ell: np.ndarray, t: int, k_max: int):
    """Rows of `_scaled_moments`'s model over `_real_unknowns` for orders ell at points [n, 2] of (theta, phi),
    and their monopoles."""
    z = _z_table(t, k_max, int(ell.max()))
    rows = np.zeros((len(ell), k_max + 1, k_max + 1), dtype=complex)  # [sample, K, q >= 0]
    for K, f in _axial_factors(points, k_max):
        rows[:, K, :K + 1] = z[K, ell, None] * f
    ks, qs, parts = _real_unknowns(k_max)
    rows = rows[:, ks, qs]
    rows = np.where(qs == 0, rows.real, np.where(parts == 0, 2.0 * rows.real, -2.0 * rows.imag))
    return rows, z[0, ell] / math.sqrt(t + 1)


@_cache(8)
def _layout(t: int, k_max: int, points: bytes, orders: bytes) -> tuple:
    """What `moments_to_multipoles` needs of one layout, built once and read-only: the design rows, their
    monopoles, `_real_unknowns` and the count of distinct directions (rounded to 12 digits).

    The layout is the float (theta, phi) bytes and the np.intp order bytes of the samples: -0.0 and 0.0
    are apart, so each entry holds exactly the rows its own samples give.
    """
    points = np.frombuffer(points).reshape(-1, 2)
    rows, monopole = _design_rows(points, np.frombuffer(orders, dtype=np.intp), t, k_max)
    distinct = len({(round(theta, 12), round(phi, 12)) for theta, phi in points.tolist()})
    return rows, monopole, _real_unknowns(k_max), distinct


def moments_to_multipoles(samples, S, k_max: int) -> ReconstructionResult:
    """Solve the linear moment map for the multipole components up to rank k_max.

    Each sample (direction n, order l, value <(n.S)^l>) is linear in the
    rho_Kq with K <= l, because (n.S)^l expands over tensors of rank <= l.
    Each equation is divided by s^l, s = max(S, 1); the rank test,
    `condition_number` and `residual` are those of that system.  Needs
    moments up to l = k_max on at least 2*k_max+1 distinct directions, and
    none above: their ranks above k_max would alias into the fit, so they
    raise ValueError, as do `samples` that are no list or tuple, a sample that is no (Direction,
    order, value) triple, a value that is no finite number and an order that is no integer, each named.
    Raises IllConditionedError when the scaled system is rank deficient
    (smallest singular value below 1e-10 of the largest).
    """
    S = _check_spin("S", S)
    k_max = _check_int("k_max", k_max, 1, S.twice, span="[1, 2S]")
    if not isinstance(samples, (list, tuple)):
        raise ValueError(f"samples must be a list of MomentSample entries, got {samples!r}")
    rows = [(s.direction, s.ell, s.value) if isinstance(s, MomentSample) else s for s in samples]
    if not rows:
        raise ValueError("no moment samples given")
    try:
        directions, ells, raw = zip(*rows, strict=True)
    except (TypeError, ValueError):  # some sample is no triple: name the first
        i = next(i for i, s in enumerate(rows) if not (hasattr(s, "__len__") and len(s) == 3))
        raise ValueError(f"moment sample {i} is not a (Direction, order, value) triple: {rows[i]!r}") from None
    values = _check_reals("sample values", raw, (len(raw),))
    # one pass over the set of their types; the samples are walked only to name the first bad one
    if not (all(issubclass(t, Direction) for t in set(map(type, directions)))
            and all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, ells)))
            and min(ells) >= 1):
        i = next(i for i, (d, ell) in enumerate(zip(directions, ells))
                 if not (isinstance(d, Direction) and _is_int(ell) and ell >= 1))
        what = (f"order {ells[i]!r}, not an integer >= 1" if isinstance(directions[i], Direction)
                else f"direction {directions[i]!r}, not a Direction")
        raise ValueError(f"moment sample {i} has {what}: {MomentSample(directions[i], ells[i], raw[i])}")
    if max(ells) > k_max:
        raise ValueError(f"moments of order up to l = {max(ells)} carry ranks above k_max = {k_max}; "
                         f"reconstruct with k_max >= {max(ells)} or drop them")
    ell = np.array(ells, dtype=np.intp)
    a, monopole, (ks, qs, parts), distinct = _layout(S.twice, k_max, _points(directions).tobytes(), ell.tobytes())
    if distinct < 2 * k_max + 1:
        raise IllConditionedError(
            f"{distinct} distinct directions cannot span rank {k_max}; "
            f"need at least {2 * k_max + 1}"
        )
    root = max(float(S), 1.0) ** (ell / 2.0)  # s^l in two factors, each inside the float range
    b = values / root / root - monopole
    sol, res, rank, sing = np.linalg.lstsq(a, b, rcond=None)
    if sing[0] == 0 or sing[-1] < 1e-10 * sing[0]:
        raise IllConditionedError(
            "direction set is rank deficient: singular values span "
            f"[{sing[-1]:.3e}, {sing[0]:.3e}] over {distinct} directions"
        )
    cond = float(sing[0] / sing[-1])
    residual = float(np.linalg.norm(a @ sol - b))

    c = np.zeros((k_max + 1, 2 * k_max + 1), dtype=complex)
    c[0, k_max] = 1.0 / math.sqrt(S.twice + 1)
    np.add.at(c, (ks, k_max + qs), np.where(parts == 0, sol, 1j * sol))
    # hermiticity: rho_K,-q = (-1)^q rho_Kq^*
    c[:, :k_max] = (c[:, k_max + 1:].conj() * (-1.0) ** np.arange(1, k_max + 1))[:, ::-1]
    W, A, P = _strengths_cumulative_degrees(c, S.twice)
    return ReconstructionResult(S, k_max, c, W, A, P, cond, residual, len(ell))


def write_moments(samples, path) -> None:
    """Write moment samples as CSV rows theta,phi,ell,value."""
    samples = _check_each("samples", samples, MomentSample)
    with open(path, "w") as fh:
        fh.write("theta,phi,ell,value\n")
        for s in samples:
            fh.write(f"{float(s.direction.theta)!r},{float(s.direction.phi)!r},{s.ell},{float(s.value)!r}\n")


def read_moments(path) -> list[MomentSample]:
    """Read moment samples from CSV (theta,phi,ell,value; header optional)."""
    out = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("theta"):
                continue
            try:
                theta, phi, ell, value = line.split(",")
                out.append(MomentSample(Direction(float(theta), float(phi)), int(ell), float(value)))
            except ValueError as exc:  # a wrong field count, a field that does not parse, an angle out of range
                raise ValueError(f"malformed moments row: {line!r} (line {number}: {exc})") from None
    return out
