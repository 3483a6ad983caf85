"""Extremal unpolarized states: purity maximization and anticoherent search.

Three solvers cover the constraint classes:

* diagonal / axially symmetric — the constraints are linear in the
  eigenvalues, the feasible set is a polytope, and Tr rho^2 is convex, so
  the maximum sits at a vertex; vertices are enumerated exactly.
* general mixed — projected ascent: inflate the state along the purity
  gradient (which is rho itself) and re-project onto the intersection of
  the multipole-vanishing affine subspace with the PSD cone by alternating
  projections, from many random restarts.
* pure — gradient descent of A_K on the normalized amplitude manifold with
  random restarts; convergence to A_K < 1e-10 is an existence certificate
  for an anticoherent state of that order, a reported minimum otherwise.

Every restart records why it ended, one of `STOP_REASONS`: "converged"
(the solver's own optimality test held), "stalled" (a pure descent could no
longer lower A_K at float resolution) or "max-iter" (its iteration budget
ran out).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .angmom import HalfInt, half
from .catalog import three_photon_first_order_eigs
from .multipole import _basis, components, degree, state_multipoles, synthesize
from .states import SpinSector, diag_sector, maximally_mixed, random_sector

__all__ = [
    "CONSTRAINT_CLASSES",
    "SearchProblem",
    "RestartRecord",
    "STOP_REASONS",
    "SearchResult",
    "InfeasibleError",
    "max_purity_unpolarized",
    "pure_anticoherent_search",
    "anticoherence_objective",
    "anticoherence_gradient",
    "project_multipole_free",
    "TwoPhotonRow",
    "scan_two_photon_family",
    "ThreePhotonRow",
    "scan_three_photon_family",
]

CONSTRAINT_CLASSES = ("general", "diagonal-in-z-basis", "axially-symmetric", "pure")

_CLASS_ALIASES = {
    "general": "general",
    "diagonal": "diagonal-in-z-basis",
    "diagonal-in-z-basis": "diagonal-in-z-basis",
    "axial": "axially-symmetric",
    "axially-symmetric": "axially-symmetric",
    "pure": "pure",
}

# fixed solver settings
FEAS_TOL = 1e-12          # PSD tolerance of the alternating projections during the ascent
ASCENT_MAX_STEPS = 400    # inflate-and-project steps per general restart
PURE_MAX_ITER = 4000      # descent iterations per pure restart
PURE_GTOL = 1e-13         # gradient norm at which a pure restart has converged
DIAG_MAX_SUPPORTS = 50_000  # eigenvalue supports the diagonal vertex enumeration may try

STOP_REASONS = ("converged", "stalled", "max-iter")


class InfeasibleError(ValueError):
    """The requested constraint class / order combination has no feasible state."""


@dataclass(frozen=True)
class SearchProblem:
    """Search setup: shell spin, unpolarization order, constraint class, restarts, seed."""

    spin: HalfInt
    order: int
    constraint_class: str = "general"
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "spin", half(self.spin))
        cls = _CLASS_ALIASES.get(self.constraint_class)
        if cls is None:
            raise ValueError(
                f"unknown constraint class {self.constraint_class!r}; "
                f"choose from {CONSTRAINT_CLASSES}"
            )
        object.__setattr__(self, "constraint_class", cls)
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if not 1 <= self.order <= self.spin.twice:
            raise ValueError(
                f"order must lie in [1, 2S] = [1, {self.spin.twice}], got {self.order}"
            )


@dataclass(frozen=True)
class RestartRecord:
    index: int
    objective: float
    residual: float
    iterations: int
    reason: str               # one of STOP_REASONS


@dataclass(frozen=True)
class SearchResult:
    """Best state found, with the per-restart certificate digest."""

    problem: SearchProblem
    state: SpinSector
    objective: float
    residual: float           # A_K at the solution
    digest: str
    history: tuple[RestartRecord, ...]

    @property
    def feasible_start_purity(self) -> float:
        """Purity of the maximally mixed state, the start every class can reach."""
        return 1.0 / (self.problem.spin.twice + 1)

    @property
    def stop_reasons(self) -> dict[str, int]:
        """How many restarts ended for each of `STOP_REASONS`, in that order."""
        return {r: sum(rec.reason == r for rec in self.history) for r in STOP_REASONS}

    @property
    def is_anticoherent(self) -> bool:
        """For pure searches: the minimum qualifies as A_K = 0 at numerical precision."""
        return self.residual < 1e-10


def _digest(history) -> str:
    h = hashlib.sha256()
    for rec in history:
        h.update(
            f"{rec.index}:{rec.objective.hex()}:{rec.residual.hex()}:{rec.iterations}:{rec.reason}\n".encode()
        )
    return h.hexdigest()


def _a_k(rho: np.ndarray, S: HalfInt, order: int) -> float:
    """A_order = sum of |rho_Kq|^2 over 1 <= K <= order."""
    c = components(rho, S, order)[1:]
    return float(np.sum(c.real ** 2 + c.imag ** 2))


def project_multipole_free(rho: np.ndarray, S, order: int) -> np.ndarray:
    """Orthogonal projection onto {rho: Tr rho = 1, rho_Kq = 0 for 1 <= K <= order}."""
    S = half(S)
    rho = np.asarray(rho, dtype=complex)
    c = components(rho, S, order)
    c[0, order] -= 1.0 / math.sqrt(S.twice + 1)  # leave the monopole of I/d, so Tr = 1
    return rho - synthesize(c, S)


def _feasible_point(rho: np.ndarray, S: HalfInt, order: int, tol: float, max_iter: int = 2000) -> np.ndarray:
    out = rho
    for _ in range(max_iter):
        out = project_multipole_free(out, S, order)
        sym = 0.5 * (out + out.conj().T)
        vals, vecs = np.linalg.eigh(sym)
        # the multipoles of `out` were just projected out; only the PSD test can fail
        if vals[0] >= -tol:
            return out
        out = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    raise InfeasibleError(
        f"alternating projections failed to reach feasibility at order {order}"
    )


def _ascend_general(problem: SearchProblem, rho0: np.ndarray):
    S, order = problem.spin, problem.order
    rho = _feasible_point(rho0, S, order, FEAS_TOL)
    best = float(np.vdot(rho, rho).real)
    step = 0.5
    iters = 0
    while step > 1e-10 and iters < ASCENT_MAX_STEPS:
        iters += 1
        cand = _feasible_point((1.0 + step) * rho, S, order, FEAS_TOL)
        p = float(np.vdot(cand, cand).real)
        if p > best + 1e-15:
            rho, best = cand, p
        else:
            step *= 0.5
    rho = _feasible_point(rho, S, order, 1e-13, max_iter=20000)
    reason = "converged" if step <= 1e-10 else "max-iter"
    return rho, float(np.vdot(rho, rho).real), iters, reason


def _diag_constraint_rows(S: HalfInt, order: int) -> np.ndarray:
    # on diagonal states only q = 0 multipoles are nonzero; constrain those
    return np.vstack([_basis(S.twice)[0][S.twice, 1:order + 1], np.ones(S.twice + 1)])


def _diag_vertices(S: HalfInt, order: int) -> list[np.ndarray]:
    n_eq, d = order + 1, S.twice + 1
    supports = sum(math.comb(d, size) for size in range(1, min(n_eq, d) + 1))
    if supports > DIAG_MAX_SUPPORTS:
        raise ValueError(
            f"diagonal search at order {order} for spin {S} would try {supports} "
            f"eigenvalue supports, more than the limit of {DIAG_MAX_SUPPORTS}"
        )
    c = _diag_constraint_rows(S, order)
    rhs = np.zeros(n_eq)
    rhs[-1] = 1.0
    verts: list[np.ndarray] = []
    for size in range(1, min(n_eq, d) + 1):
        for support in itertools.combinations(range(d), size):
            sub = c[:, support]
            sol, res, rank, _ = np.linalg.lstsq(sub, rhs, rcond=None)
            if rank < size:
                continue
            if np.linalg.norm(sub @ sol - rhs) > 1e-10 or np.any(sol < -1e-12):
                continue
            v = np.zeros(d)
            v[list(support)] = np.clip(sol, 0.0, None)
            if not any(np.allclose(v, u, atol=1e-10) for u in verts):
                verts.append(v)
    return verts


def _solve_diagonal(problem: SearchProblem):
    verts = _diag_vertices(problem.spin, problem.order)
    if not verts:
        raise InfeasibleError(
            f"no feasible diagonal state at order {problem.order} for spin {problem.spin}"
        )
    history = []
    best_v, best_p = None, -1.0
    for i, v in enumerate(verts):
        p = float(np.dot(v, v))
        sec = diag_sector(problem.spin, v / v.sum())
        history.append(RestartRecord(i, p, _a_k(sec.rho, problem.spin, problem.order), 1, "converged"))
        if p > best_p + 1e-15:
            best_v, best_p = v, p
    state = diag_sector(problem.spin, best_v / best_v.sum())
    return state, best_p, tuple(history)


def max_purity_unpolarized(problem: SearchProblem) -> SearchResult:
    """Maximize Tr rho^2 over states with vanishing multipoles up to the order.

    Diagonal and axially-symmetric classes are solved exactly by vertex
    enumeration of the eigenvalue polytope (an axially symmetric state is a
    rotated diagonal one, and purity and multipole strengths are rotation
    invariant, so the two classes share an optimum).  The general class runs
    multi-restart projected ascent and is locally optimal only.
    """
    if problem.constraint_class == "pure":
        raise ValueError("use pure_anticoherent_search for the pure class")
    d = problem.spin.twice + 1
    if problem.constraint_class in ("diagonal-in-z-basis", "axially-symmetric"):
        state, best, history = _solve_diagonal(problem)
        return SearchResult(
            problem, state, best, _a_k(state.rho, problem.spin, problem.order),
            _digest(history), history,
        )

    rng = np.random.default_rng(problem.seed)
    history = []
    best_state, best_p = maximally_mixed(problem.spin), 1.0 / d
    for i in range(problem.restarts):
        rho, p, iters, reason = _ascend_general(problem, random_sector(problem.spin, rng).rho)
        history.append(RestartRecord(i, p, _a_k(rho, problem.spin, problem.order), iters, reason))
        if p > best_p + 1e-15:
            best_state, best_p = SpinSector(problem.spin, rho, validate=False), p
    history = tuple(history)
    return SearchResult(
        problem, best_state, best_p, _a_k(best_state.rho, problem.spin, problem.order),
        _digest(history), history,
    )


def anticoherence_objective(psi: np.ndarray, S, order: int) -> float:
    """A_order of the normalized pure state with amplitudes psi."""
    v = psi / np.linalg.norm(psi)
    return _a_k(np.outer(v, v.conj()), half(S), order)


def anticoherence_gradient(x: np.ndarray, S, order: int) -> np.ndarray:
    """Gradient of A_order in the 2(2S+1) real coordinates (re, im) of psi.

    The objective is evaluated on psi/|psi| (degree-4 homogeneous over the
    raw amplitudes divided by |psi|^4); the gradient below is exact at
    |psi| = 1 and is what central finite differences of the normalized
    objective must reproduce.
    """
    S = half(S)
    d = S.twice + 1
    psi = x[:d] + 1j * x[d:]
    norm = np.linalg.norm(psi)
    v = psi / norm
    # with u_Kq = <v|T_Kq^dagger|v>, sum_Kq u* T^dagger v + u T v = 2 P v, where
    # P = sum_Kq u_Kq T_Kq is the projection of |v><v| onto the rank 1..order span
    u = components(np.outer(v, v.conj()), S, order)
    u[0] = 0.0  # the monopole is not part of A_K
    f = float(np.sum(u.real ** 2 + u.imag ** 2))
    gc = 2.0 * (synthesize(u, S) @ v)
    grad_v = np.concatenate([2.0 * gc.real, 2.0 * gc.imag]) - 4.0 * f * np.concatenate([v.real, v.imag])
    return grad_v / norm  # chain rule through the normalization at general |psi|


def _descend_pure(S: HalfInt, order: int, x0: np.ndarray):
    d = S.twice + 1
    x = x0 / np.linalg.norm(x0)
    f = anticoherence_objective(x[:d] + 1j * x[d:], S, order)
    for it in range(PURE_MAX_ITER):
        g = anticoherence_gradient(x, S, order)
        gn = float(np.linalg.norm(g))
        if gn < PURE_GTOL or f < 1e-24:
            return x, f, it, "converged"
        t = 0.25
        for _ in range(60):
            y = x - t * g
            y /= np.linalg.norm(y)
            fy = anticoherence_objective(y[:d] + 1j * y[d:], S, order)
            if fy <= f - 1e-4 * t * gn * gn:
                break
            t *= 0.5
        else:
            return x, f, it, "stalled"
        # the Armijo test accepts fy == f once the decrease it asks for is
        # below the float resolution of f: a step that does not lower f ends it
        if fy >= f:
            return x, f, it, "stalled"
        x, f = y, fy
    return x, f, PURE_MAX_ITER, "max-iter"


def pure_anticoherent_search(S, order: int, restarts: int = 64, seed: int = 0) -> SearchResult:
    """Minimize A_order over pure states; certifies anticoherence when it hits 0.

    Non-existence is a reported outcome (a strictly positive minimum), not an
    error: e.g. every pure spin-1/2 state is coherent, so the order-1 minimum
    is 1/2.
    """
    problem = SearchProblem(half(S), order, constraint_class="pure", restarts=restarts, seed=seed)
    d = problem.spin.twice + 1
    rng = np.random.default_rng(seed)
    history = []
    best_x, best_f = None, math.inf
    for i in range(restarts):
        x0 = rng.standard_normal(2 * d)
        x, f, iters, reason = _descend_pure(problem.spin, order, x0)
        history.append(RestartRecord(i, f, f, iters, reason))
        if f < best_f:
            best_x, best_f = x, f
    history = tuple(history)
    psi = best_x[:d] + 1j * best_x[d:]
    psi /= np.linalg.norm(psi)
    state = SpinSector(problem.spin, np.outer(psi, psi.conj()), validate=False)
    return SearchResult(problem, state, best_f, best_f, _digest(history), history)


@dataclass(frozen=True)
class TwoPhotonRow:
    lam: float
    purity: float
    p2: float


def scan_two_photon_family(lams) -> list[TwoPhotonRow]:
    """Scan diag(lam, 1-2lam, lam) on the two-photon shell.

    These are the first-order unpolarized axially symmetric states; positivity
    restricts lam to [0, 1/2].  Purity and the second-order degree are
    computed through the multipole machinery, not from closed forms.
    """
    rows = []
    for lam in lams:
        lam = float(lam)
        if not 0.0 <= lam <= 0.5:
            raise ValueError(f"lam = {lam} outside [0, 1/2] (positivity)")
        sec = diag_sector(1, [lam, 1.0 - 2.0 * lam, lam])
        spec = state_multipoles(sec)
        rows.append(TwoPhotonRow(lam, sec.purity(), degree(spec, 2)))
    return rows


@dataclass(frozen=True)
class ThreePhotonRow:
    lam3: float
    lam4: float
    feasible: bool
    purity: float | None
    a1: float | None
    a2: float | None
    a3: float | None


def scan_three_photon_family(kind: str, grid) -> list[ThreePhotonRow]:
    """Scan the diagonal three-photon families without first-order polarization.

    kind = "first-order": grid holds (lam3, lam4) pairs; the eigenvalues are
    (lam3+2lam4-1/2, -2lam3-3lam4+3/2, lam3, lam4).  kind = "second-order"
    adds the quadrupole-killing constraint lam3 = 1-3lam4 and grid holds
    lam4 values.  Grid points violating positivity are flagged, not errors.
    """
    if kind not in ("first-order", "second-order"):
        raise ValueError(f"kind must be 'first-order' or 'second-order', got {kind!r}")
    rows = []
    for point in grid:
        if kind == "first-order":
            lam3, lam4 = float(point[0]), float(point[1])
        else:
            lam4 = float(point)
            lam3 = 1.0 - 3.0 * lam4
        eigs = np.array(three_photon_first_order_eigs(lam3, lam4))
        if np.any(eigs < -1e-12) or np.any(eigs > 1.0 + 1e-12):
            rows.append(ThreePhotonRow(lam3, lam4, False, None, None, None, None))
            continue
        p = np.clip(eigs, 0.0, None)
        sec = diag_sector(1.5, p / p.sum())
        spec = state_multipoles(sec)
        a = spec.cumulative_all
        rows.append(ThreePhotonRow(lam3, lam4, True, sec.purity(), a[0], a[1], a[2]))
    return rows
