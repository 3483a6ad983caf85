"""Computations made apart from qpolar, and the output checks built on them.

Nothing here imports qpolar.  Spin matrices, coherent states, moments and the
coherent-state ceiling of A_K are computed from their definitions, so a check
compares the program against an independent result or against a property
the method must have, never against saved output.  Every check raises
:class:`CheckFailed` with a message naming the quantity that was off.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_close(what: str, got: float, want: float, tol: float) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{what}: got {got!r}, expected {want!r} within {tol:g}",
    )


# ---------------------------------------------------------------- own algebra

def spin_matrices(two_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) on the spin-S shell, basis |S, m> with m descending."""
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    sz = np.diag(m).astype(complex)
    # <m+1| S+ |m> = sqrt(S(S+1) - m(m+1)); row i-1 holds m + 1 when row i holds m
    up = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.diag(up, 1).astype(complex)
    sx = 0.5 * (sp + sp.conj().T)
    sy = -0.5j * (sp - sp.conj().T)
    return sx, sy, sz


def unit_vector(theta: float, phi: float) -> np.ndarray:
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])


def spin_along(two_s: int, n: np.ndarray) -> np.ndarray:
    sx, sy, sz = spin_matrices(two_s)
    return n[0] * sx + n[1] * sy + n[2] * sz


def coherent_projector(two_s: int, theta: float, phi: float) -> np.ndarray:
    """|n><n| for the eigenvector of n.S with the largest eigenvalue, S."""
    _, vecs = np.linalg.eigh(spin_along(two_s, unit_vector(theta, phi)))
    v = vecs[:, -1]
    return np.outer(v, v.conj())


def moments(rho: np.ndarray, two_s: int, n: np.ndarray, max_ell: int) -> np.ndarray:
    """<(n.S)^l> for l = 1..max_ell."""
    sn = spin_along(two_s, n)
    out = np.empty(max_ell)
    acc = np.array(rho, dtype=complex)
    for ell in range(max_ell):
        acc = acc @ sn
        out[ell] = np.trace(acc).real
    return out


def purity(rho: np.ndarray) -> float:
    return float(np.vdot(rho, rho).real)


def coherent_ceiling(two_s: int, k: int) -> Fraction:
    """A_K of a spin coherent state, 2S/(2S+1) - [(2S)!]^2 / [(2S-K-1)!(2S+K+1)!], exactly."""
    val = Fraction(two_s, two_s + 1)
    if k < two_s:
        val -= Fraction(
            math.factorial(two_s) ** 2,
            math.factorial(two_s - k - 1) * math.factorial(two_s + k + 1),
        )
    return val


def check_directions(count: int = 26) -> list[np.ndarray]:
    """A fixed spiral of unit vectors for isotropy checks."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(count):
        z = 1.0 - 2.0 * (i + 0.5) / count
        r = math.sqrt(1.0 - z * z)
        out.append(np.array([r * math.cos(i * golden), r * math.sin(i * golden), z]))
    return out


# ----------------------------------------------------------- seeded inputs

def ginibre(two_s: int, rng: np.random.Generator) -> np.ndarray:
    d = two_s + 1
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_pure(two_s: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(two_s + 1) + 1j * rng.standard_normal(two_s + 1)
    return v / np.linalg.norm(v)


def simplex(d: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.exponential(size=d)
    return p / p.sum()


def direction(rng: np.random.Generator) -> tuple[float, float]:
    return math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)


def euler_angles(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform alpha and gamma, cos(beta) uniform."""
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    beta = math.acos(rng.uniform(-1.0, 1.0))
    return alpha, beta, rng.uniform(0.0, 2.0 * math.pi)


# ------------------------------------------------------------------ checks

def check_state_matches(what: str, got: np.ndarray, want: np.ndarray, tol: float = 1e-12) -> None:
    got, want = np.asarray(got), np.asarray(want)
    require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want)))
    require(err <= tol, f"{what}: density matrix off by {err:.3e} (tol {tol:g})")


def check_parseval(what: str, strengths, rho: np.ndarray, tol: float = 1e-10) -> None:
    """Sum_K W_K = Tr rho^2: the multipole basis is orthonormal."""
    check_close(f"{what}: sum of W_K against Tr rho^2", float(np.sum(strengths)), purity(rho), tol)


def check_invariant_strengths(what: str, before, after, tol: float = 1e-10) -> None:
    """W_K is a rotation invariant."""
    before, after = np.asarray(before), np.asarray(after)
    require(before.shape == after.shape, f"{what}: {before.shape} vs {after.shape} strengths")
    err = float(np.max(np.abs(before - after)))
    require(err <= tol, f"{what}: W_K changed by {err:.3e} under rotation (tol {tol:g})")


def check_coherent(what: str, two_s: int, cumulative, degrees, tol: float = 1e-9) -> None:
    """A coherent state reaches the ceiling at every order, so P_K = 1."""
    require(len(cumulative) == two_s and len(degrees) == two_s, f"{what}: expected {two_s} orders")
    for k in range(1, two_s + 1):
        check_close(f"{what}: A_{k}", float(cumulative[k - 1]), float(coherent_ceiling(two_s, k)), tol)
        check_close(f"{what}: P_{k}", float(degrees[k - 1]), 1.0, tol)


def check_spectrum_preserved(what: str, rho: np.ndarray, rotated: np.ndarray, tol: float = 1e-9) -> None:
    """A unitary rotation keeps the trace and the spectrum."""
    check_close(f"{what}: trace after rotation", float(np.trace(rotated).real), float(np.trace(rho).real), tol)
    herm = 0.5 * (rotated + rotated.conj().T)
    err = float(np.max(np.abs(np.linalg.eigvalsh(herm) - np.linalg.eigvalsh(rho))))
    require(err <= tol, f"{what}: spectrum moved by {err:.3e} under rotation (tol {tol:g})")


def check_two_photon_rows(rows, tol: float = 1e-10) -> None:
    """diag(l, 1-2l, l): purity from its eigenvalues, and P_2 = sqrt((3P-1)/2)."""
    require(len(rows) > 0, "two-photon scan returned no rows")
    for lam, pur, p2 in rows:
        check_close(f"two-photon lam={lam}: purity", pur, 2 * lam * lam + (1 - 2 * lam) ** 2, tol)
        check_close(f"two-photon lam={lam}: P_2", p2, math.sqrt(max(0.0, (3 * pur - 1) / 2)), tol)


def check_three_photon_first(rows, tol: float = 1e-12) -> None:
    """Every feasible point has A_1 = 0, and the best purity on the grid is 5/8."""
    feasible = [(pur, a1) for pur, a1 in rows if pur is not None]
    require(len(feasible) > 0, "three-photon first-order scan has no feasible point")
    for pur, a1 in feasible:
        require(abs(a1) <= tol, f"three-photon first-order point with A_1 = {a1!r}")
    check_close("three-photon first-order best purity", max(p for p, _ in feasible), 5 / 8, tol)


def check_three_photon_second(rows, tol: float = 1e-12) -> None:
    """Every feasible point has A_2 = 0, and the best purity is 7/18 at lam4 = 1/6."""
    feasible = [(pur, a2) for pur, a2 in rows if pur is not None]
    require(len(feasible) > 0, "three-photon second-order scan has no feasible point")
    for pur, a2 in feasible:
        require(abs(a2) <= tol, f"three-photon second-order point with A_2 = {a2!r}")
    check_close("three-photon second-order best purity", max(p for p, _ in feasible), 7 / 18, tol)


# paper presets: (purity, unpolarization order)
PRESET_ANCHORS = {
    "fig4-left": (Fraction(5, 8), 1),
    "fig4-right": (Fraction(7, 18), 2),
    "eq27-3p": (Fraction(1), 1),
    "eq23-pson": (Fraction(1), 1),
}


def check_preset(name: str, pur: float, order: int, tol: float = 1e-12) -> None:
    want_purity, want_order = PRESET_ANCHORS[name]
    check_close(f"preset {name}: purity", pur, float(want_purity), tol)
    require(order == want_order, f"preset {name}: unpolarization order {order}, expected {want_order}")


def check_q_grid(
    what: str, two_s: int, rho: np.ndarray, values: np.ndarray, thetas: np.ndarray,
    phis: np.ndarray, theta_weights: np.ndarray, nodes, tol: float = 1e-9,
) -> None:
    """Normalization (2S+1)/(4pi) int Q = 1, 0 <= Q <= 1, and Q = <n|rho|n> at sampled nodes."""
    values = np.asarray(values)
    integral = float(np.sum(theta_weights[:, None] * values) * (2.0 * math.pi / len(phis)))
    check_close(f"{what}: Q normalization", (two_s + 1) / (4.0 * math.pi) * integral, 1.0, tol)
    require(
        float(values.min()) >= -tol and float(values.max()) <= 1.0 + tol,
        f"{what}: Q outside [0, 1]: [{values.min()!r}, {values.max()!r}]",
    )
    for i, j in nodes:
        want = float(np.vdot(coherent_projector(two_s, thetas[i], phis[j]), rho).real)
        check_close(f"{what}: Q at node ({i}, {j})", float(values[i, j]), want, tol)


def check_components(what: str, got: dict, want: dict, tol: float = 1e-9) -> None:
    """Reconstructed rho_Kq against the analysed ones, for every (K, q) reconstructed."""
    require(len(got) > 0, f"{what}: no components")
    for key, value in got.items():
        require(key in want, f"{what}: unexpected component {key}")
        err = abs(complex(value) - complex(want[key]))
        require(err <= tol, f"{what}: rho_{key} off by {err:.3e} (tol {tol:g})")


def check_isotropic(what: str, rho: np.ndarray, two_s: int, order: int, tol: float = 1e-8) -> None:
    """A K-th-order unpolarized state has <(n.S)^l> independent of n for every l <= K."""
    table = np.stack([moments(rho, two_s, n, order) for n in check_directions()])
    spread = table.max(axis=0) - table.min(axis=0)
    for ell in range(order):
        require(
            spread[ell] <= tol,
            f"{what}: <(n.S)^{ell + 1}> varies by {spread[ell]:.3e} over directions (tol {tol:g})",
        )


def check_density_matrix(what: str, rho: np.ndarray, tol: float = 1e-9) -> None:
    """Hermitian, unit trace, positive semidefinite, purity at most 1."""
    rho = np.asarray(rho)
    require(float(np.max(np.abs(rho - rho.conj().T))) <= tol, f"{what}: not Hermitian")
    check_close(f"{what}: trace", float(np.trace(rho).real), 1.0, tol)
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    require(low >= -tol, f"{what}: negative eigenvalue {low!r}")
    require(purity(rho) <= 1.0 + tol, f"{what}: purity {purity(rho)!r} above 1")
