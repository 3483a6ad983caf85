"""Polarization-sector density matrices on fixed photon-number shells.

A shell with photon number N = 2S is the (2S+1)-dimensional spin-S space
spanned by |S, m> (m descending).  :class:`SpinSector` wraps one validated
density matrix on such a shell; :class:`PolarizationState` is the
block-diagonal combination over shells with photon-number weights P_S, the
only part of a two-mode state visible to polarization measurements.
"""

from __future__ import annotations

import math

import numpy as np

from .angmom import (EulerAngles, _check_int, _check_norm, _check_reals, _check_spin, _check_tol, _check_type,
                     _d_column, _Frozen, _read_only, half, wigner_D)

__all__ = [
    "DEFAULT_TOL",
    "Direction",
    "ValidationReport",
    "SpinSector",
    "PolarizationState",
    "validate",
    "fock_sector",
    "coherent_amplitudes",
    "su2_coherent",
    "diag_sector",
    "pure_sector",
    "maximally_mixed",
    "rotate",
    "purity",
    "assemble",
    "random_sector",
    "random_direction",
    "random_angles",
]

DEFAULT_TOL = 1e-9
DEFAULT_ORDER_TOL = 1e-10  # the A_K <= tol of multipole's unpolarization order

# the constraint classes of an extremal-state search and the names it accepts for them; these and DEFAULT_ORDER_TOL
# are defined here, not in search and multipole, so that the CLI parser loads neither
CONSTRAINT_CLASSES = ("general", "diagonal-in-z-basis", "axially-symmetric", "pure")
_CLASS_ALIASES = {**{c: c for c in CONSTRAINT_CLASSES},
                  "diagonal": "diagonal-in-z-basis", "axial": "axially-symmetric"}


@_read_only
class Direction(_Frozen):
    """Point on the Poincare sphere: polar theta in [0, pi], azimuth phi in [0, 2pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        self._freeze(**{name: _check_reals(name, getattr(self, name)) for name in ("theta", "phi")})
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    @classmethod
    def from_vector(cls, v) -> "Direction":
        v = _check_reals("v", v, (3,))
        n = _check_norm("v", v)
        theta = math.acos(min(1.0, max(-1.0, v[2] / n)))
        phi = math.atan2(v[1], v[0]) % (2.0 * math.pi)
        return cls(theta, phi)

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([
            st * math.cos(self.phi),
            st * math.sin(self.phi),
            math.cos(self.theta),
        ])


def _points(directions) -> np.ndarray:
    """The (theta, phi) of each of a list of Directions, as a float [direction, 2] array."""
    return np.array([[d.theta for d in directions], [d.phi for d in directions]], dtype=float).T


@_read_only
class ValidationReport:
    """Hermiticity / trace / positivity diagnostics for a candidate density matrix."""

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    tol: float

    @property
    def hermitian_ok(self) -> bool:
        return self.hermiticity_deviation <= self.tol

    @property
    def trace_ok(self) -> bool:
        return self.trace_deviation <= self.tol

    @property
    def positive_ok(self) -> bool:
        return self.min_eigenvalue >= -self.tol

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.positive_ok

    def message(self) -> str:
        problems = []
        if not self.hermitian_ok:
            problems.append(f"hermiticity deviation {self.hermiticity_deviation:.3e}")
        if not self.trace_ok:
            problems.append(f"trace deviation {self.trace_deviation:.3e}")
        if not self.positive_ok:
            problems.append(f"negative eigenvalue {self.min_eigenvalue:.3e}")
        if not problems:
            return "ok"
        return "; ".join(problems)


def _diagnose(rho: np.ndarray, tol: float) -> ValidationReport:
    herm = float(np.max(np.abs(rho - rho.conj().T))) if rho.size else 0.0
    trace = abs(complex(np.trace(rho)) - 1.0)
    sym = 0.5 * (rho + rho.conj().T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return ValidationReport(herm, float(trace), min_eig, tol)


class SpinSector(_Frozen):
    """Density matrix on one photon-number shell (spin S, basis |S,m>, m descending).

    Non-finite entries are always refused.  Validated on construction by
    default (Hermitian, unit trace, positive semidefinite, each within
    `DEFAULT_TOL`); pass ``validate=False`` to skip that, e.g. for matrices
    known valid by construction.  Immutable once built.
    """

    __slots__ = ("spin", "rho")

    def __init__(self, spin, rho, *, validate: bool = True):
        spin = _check_spin("spin", spin)
        rho = _check_reals("rho", rho, (spin.twice + 1,) * 2, complex_ok=True)
        if validate:
            report = _diagnose(rho, DEFAULT_TOL)
            if not report.ok:
                raise ValueError(f"invalid density matrix: {report.message()}")
        self._freeze(spin=spin, rho=rho)

    def purity(self) -> float:
        return float(np.vdot(self.rho, self.rho).real)

    def __repr__(self):
        return f"SpinSector(spin={self.spin}, dim={len(self.rho)})"


def validate(sector: SpinSector, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Diagnostic report for a sector's density matrix; raises only for a sector of the wrong type or a bad tol."""
    sector = _check_type("sector", sector, SpinSector)
    _check_tol(tol)
    return _diagnose(sector.rho, tol)


def fock_sector(S, m) -> SpinSector:
    """Pure basis state |S,m><S,m|."""
    S = _check_spin("S", S)
    try:
        m = half(m)
    except ValueError:
        raise ValueError(f"m must be an integer or half-integer, got {m!r}") from None
    if abs(m.twice) > S.twice or (S.twice - m.twice) % 2 != 0:
        raise ValueError(f"m = {m} is not a valid projection for S = {S}")
    rho = np.zeros((S.twice + 1, S.twice + 1), dtype=complex)
    idx = (S.twice - m.twice) // 2
    rho[idx, idx] = 1.0
    return SpinSector(S, rho, validate=False)


def coherent_amplitudes(S, theta, phi) -> np.ndarray:
    """Amplitudes of the spin coherent states pointing along (theta, phi).

    The state is defined by (n.S)|theta,phi> = +S|theta,phi>: the north pole
    gives |S,S>.  Component on |S,m> is d^S_{m,S}(theta) exp(-i m phi), the
    rotation of |S,S> by Euler angles (phi, theta, 0), with the m = S column
    of d^S read from the same Jy eigendecomposition as `wigner_small_d`.
    theta and phi, numbers or ndarrays, broadcast against each other; the
    basis index is the last axis.
    """
    t = _check_spin("S", S).twice
    theta, phi = _check_reals("theta", theta, None), np.asarray(_check_reals("phi", phi, None))
    ms = np.arange(t, -t - 1, -2) / 2.0  # m descending
    return _d_column(t, 0, theta) * np.exp(-1j * ms * phi[..., None])


def su2_coherent(S, direction: Direction) -> SpinSector:
    """Pure spin coherent state along `direction` (eigenstate of n.S, eigenvalue +S)."""
    direction = _check_type("direction", direction, Direction)
    amps = coherent_amplitudes(S, direction.theta, direction.phi)
    return SpinSector(S, np.outer(amps, amps.conj()), validate=False)


def diag_sector(S, eigenvalues) -> SpinSector:
    """Diagonal sector diag(p_m) in the |S,m> basis (axially symmetric about z)."""
    S = _check_spin("S", S)
    p = _check_reals("eigenvalues", eigenvalues, (S.twice + 1,))
    if np.any(p < -DEFAULT_TOL):
        raise ValueError(f"negative entry {p.min()} in eigenvalue list")
    if abs(p.sum() - 1.0) > DEFAULT_TOL:
        raise ValueError(f"eigenvalues sum to {p.sum()}, expected 1")
    return SpinSector(S, np.diag(p.astype(complex)), validate=False)


def pure_sector(S, amplitudes) -> SpinSector:
    """Normalized pure state |psi><psi| from amplitudes in the |S,m> basis."""
    S = _check_spin("S", S)
    v = _check_reals("amplitudes", amplitudes, (S.twice + 1,), complex_ok=True)
    v = v / _check_norm("amplitudes", v)
    return SpinSector(S, np.outer(v, v.conj()), validate=False)


def maximally_mixed(S) -> SpinSector:
    """The fully unpolarized shell state, identity / (2S+1)."""
    d = _check_spin("S", S).twice + 1
    return SpinSector(S, np.eye(d, dtype=complex) / d, validate=False)


def rotate(sector: SpinSector, angles: EulerAngles) -> SpinSector:
    """Rotated sector D rho D^dagger (spectrum and purity preserved)."""
    sector = _check_type("sector", sector, SpinSector)
    D = wigner_D(sector.spin, angles)
    return SpinSector(sector.spin, D @ sector.rho @ D.conj().T, validate=False)


class PolarizationState(_Frozen):
    """Block-diagonal polarization sector: weighted shells (P_S, rho^(S)).

    Weights are the photon-number distribution: non-negative, summing
    to 1, with at most one sector per spin.  Immutable.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple((_check_reals(f"entries[{i}][0]", w), _check_type(f"entries[{i}][1]", sec, SpinSector))
                        for i, (w, sec) in enumerate(entries))
        if not entries:
            raise ValueError("polarization state needs at least one shell")
        seen = set()
        total = 0.0
        for w, sec in entries:
            if w < -DEFAULT_TOL:
                raise ValueError(f"shell weight must be non-negative, got {w}")
            if sec.spin.twice in seen:
                raise ValueError(f"duplicate shell for spin {sec.spin}")
            seen.add(sec.spin.twice)
            total += w
        if abs(total - 1.0) > DEFAULT_TOL:
            raise ValueError(f"shell weights sum to {total}, expected 1")
        self._freeze(entries=entries)

    def purity(self) -> float:
        """Purity of the block-diagonal state, sum_S P_S^2 Tr[rho_S^2]."""
        return float(sum(w * w * sec.purity() for w, sec in self.entries))

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        shells = ", ".join(f"S={sec.spin}:{w:g}" for w, sec in self.entries)
        return f"PolarizationState({shells})"


def assemble(entries) -> PolarizationState:
    """Build a PolarizationState from (weight, sector) pairs."""
    return PolarizationState(entries)


def as_shells(obj) -> list[tuple[float, SpinSector]]:
    """Uniform shell view: a bare sector counts as a single shell of weight 1."""
    if isinstance(_check_type("obj", obj, (SpinSector, PolarizationState)), SpinSector):
        return [(1.0, obj)]
    return list(obj.entries)


def purity(obj) -> float:
    """Tr rho^2 of a sector, or the block purity of a PolarizationState."""
    return _check_type("obj", obj, (SpinSector, PolarizationState)).purity()


def _ginibre(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A d x k matrix of independent standard complex Gaussians."""
    return rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))


def random_sector(S, rng: np.random.Generator, rank: int | None = None) -> SpinSector:
    """Random density matrix of the given rank (default full, 2S+1) from the Ginibre ensemble."""
    d = _check_spin("S", S).twice + 1
    rng = _check_type("rng", rng, np.random.Generator)
    rank = d if rank is None else _check_int("rank", rank, 1, d, span="[1, 2S+1]")
    g = _ginibre(d, rank, rng)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return SpinSector(S, rho, validate=False)


def random_direction(rng: np.random.Generator) -> Direction:
    """Uniform random point on the sphere."""
    rng = _check_type("rng", rng, np.random.Generator)
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return Direction(math.acos(z), phi)


def random_angles(rng: np.random.Generator) -> EulerAngles:
    """Haar-ish random Euler angles (uniform alpha/gamma, cos-uniform beta)."""
    rng = _check_type("rng", rng, np.random.Generator)
    return EulerAngles(
        rng.uniform(0.0, 2.0 * math.pi),
        math.acos(rng.uniform(-1.0, 1.0)),
        rng.uniform(0.0, 2.0 * math.pi),
    )
