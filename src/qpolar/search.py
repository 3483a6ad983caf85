"""Extremal unpolarized states: purity maximization and anticoherent search.

* diagonal / axially symmetric — the constraints are linear in the
  eigenvalues and Tr rho^2 is convex, so the maximum sits at a vertex of
  the eigenvalue polytope; vertices are enumerated exactly, every support
  of one size solved by one batched SVD.
* general mixed — rho = V V^dagger / |V|^2 with V of size d x (K+1), which
  loses no optimum (Barvinok-Pataki).  A restart retracts a random V onto
  A_K = 0, then steps along the purity gradient projected onto the tangent
  space of A_K = 0 and retracts again, halving the step when purity does
  not rise.
* pure — the rank-1 case: A_K is minimized from random amplitudes; A_K <
  1e-10 certifies an anticoherent state, a reported minimum otherwise.

Both use one Levenberg-Marquardt core on the residual u_Kq, 1 <= K <= order
and q >= 0, with |u|^2 = A_K.  Its Jacobian is real arithmetic on a plan
cached per (2S, order): two gathers of the factor against coefficient rows
read from the basis diagonals q <= order, and u = J x / 2.  Each trial point
is evaluated once, with its Jacobian.  Every restart records why it ended,
one of `STOP_REASONS`: "converged" (the solver's optimality test held),
"stalled" (A_K could no longer be lowered at float resolution, or a general
start could not be retracted onto A_K = 0) or "max-iter" (its iteration
budget ran out).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angmom import HalfInt, half
from .catalog import three_photon_first_order_eigs
from .multipole import _basis_diagonal, _strengths_cumulative_degrees, components, synthesize
from .states import SpinSector, _ginibre, diag_sector, maximally_mixed, pure_sector

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

_CLASS_ALIASES = {**{c: c for c in CONSTRAINT_CLASSES},
                  "diagonal": "diagonal-in-z-basis", "axial": "axially-symmetric"}

# fixed solver settings
ASCENT_MAX_STEPS = 400    # ascent steps per general restart
RETRACT_MAX_ITER = 100    # Levenberg-Marquardt iterations per retraction onto A_K = 0
PURE_MAX_ITER = 4000      # Levenberg-Marquardt iterations per pure restart
PURE_GTOL = 1e-13         # |J^T u| at which a pure restart has converged
LM_MU_MAX = 1e20          # damping at which a step that does not lower A_K ends the run
LM_MAX_ENTRIES = 2_000_000  # Jacobian entries a Levenberg-Marquardt run may allocate: J is then 16 MB
# and a run peaks near 51 MB, plus a 32 MB cached residual plan (pure 2S = 200, K = 69, tracemalloc)
DIAG_MAX_SUPPORTS = 50_000  # eigenvalue supports the diagonal vertex enumeration may try

STOP_REASONS = ("converged", "stalled", "max-iter")


def _check_order(S: HalfInt, order: int) -> None:
    if not 1 <= order <= S.twice:
        raise ValueError(f"order must lie in [1, 2S] = [1, {S.twice}], got {order}")


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
        _check_order(self.spin, self.order)


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
    """Orthogonal projection onto {rho: Tr rho = 1, rho_Kq = 0 for 1 <= K <= order <= 2S}."""
    S = half(S)
    _check_order(S, order)
    rho = np.asarray(rho, dtype=complex)
    c = components(rho, S, order)
    c[0, order] -= 1.0 / math.sqrt(S.twice + 1)  # leave the monopole of I/d, so Tr = 1
    return rho - synthesize(c, S)


@lru_cache(maxsize=32)
def _residual_plan(t: int, order: int) -> tuple[np.ndarray, ...]:
    """What `_residual` needs of the shell 2S = t at one order, computed once and read-only.

    Row p of u is u_K0 (K = 1..order), then sqrt(2) Re u_Kq, then sqrt(2) Im
    u_Kq (0 < q <= K <= order).  For a_Kq = Tr[V V^dagger T_Kq^dagger],
    da/dconj V[i] = T_Kq[i - q, i] V[i - q] and da/dV[i] = T_Kq[i, i + q]
    conj V[i + q], so with V = A + iB the row's derivative by (Re V, Im V) is
    ch[p, i] F[i + q] + cl[p, i] F[i - q], where F = (A, B) on an Re row and
    (-B, A) on an Im row, ch = w T_Kq[i, i + q], cl = w T_Kq[i - q, i] (negated
    on an Im row) and w = sqrt(2) for q > 0, 1 for q = 0.

    Returns `shift[hi/lo, 2q + im, Re V/Im V, i]`, the row of the stacked
    blocks (A, B, -B, A) that holds F[i + q] or F[i - q] (row i where that
    falls outside the matrix: its coefficient is zero), `pick[p] = 2q + im`,
    and ch, cl shaped [p, Re V/Im V, i, 1] like the gathered factor, so that at
    rank 1 no product broadcasts (a broadcasting product allocates a buffer).
    """
    d = t + 1
    pairs = [(q, K) for q in range(order + 1) for K in range(max(q, 1), order + 1)]
    pairs += pairs[order:]  # the Im rows repeat the pairs with q > 0
    m = len(pairs)
    i = np.arange(d)
    q = np.arange(order + 1)[:, None, None, None]
    block = np.arange(4).reshape(1, 2, 2, 1) * d  # [q, im, Re V/Im V, i]
    shift = np.stack([block + np.where(i + q < d, i + q, i), block + np.where(i >= q, i - q, i)])
    pick = np.empty(m, dtype=np.intp)
    ch, cl = np.zeros((2, m, 2, d, 1))
    for p, (q, K) in enumerate(pairs):
        im = p >= (m + order) // 2
        c = (1.0 if q == 0 else math.sqrt(2.0)) * _basis_diagonal(t, q)[K - q]  # T_Kq[i, i + q]
        pick[p] = 2 * q + im
        ch[p, :, :d - q, 0] = c
        cl[p, :, q:, 0] = -c if im else c
    plan = (shift.reshape(2, -1, 2, d), pick, ch, cl)
    for a in plan:
        a.setflags(write=False)
    return plan


def _residual(x: np.ndarray, S: HalfInt, order: int, rank: int, jacobian: bool = True):
    """Rows u of rho = V V^dagger / |V|^2 with |u|^2 = A_order, and du/dx.

    x holds Re V and Im V of the d x rank factor V, each flattened row-major.
    The rows are u_K0, then sqrt(2) Re u_Kq and sqrt(2) Im u_Kq for 0 < q <= K
    (u_K,-q = (-1)^q conj u_Kq adds nothing), laid out by `_residual_plan`.
    Everything is real: J is two gathers of the factor scaled by 1/|V|^2
    against the plan's coefficients, and u = J x / 2, as each row of u is a
    quadratic form in x.
    """
    shift, pick, ch, cl = _residual_plan(S.twice, order)
    y = x / float(x @ x)
    h = y.size // 2
    F = np.concatenate([y, -y[h:], y[:h]]).reshape(-1, rank).take(shift, axis=0)
    T = F[0].take(pick, axis=0)  # [p, Re V/Im V, i, r]
    J = T * ch
    F[1].take(pick, axis=0, out=T, mode="clip")  # every index is in range; "raise" would buffer out
    T *= cl
    J += T
    J = J.reshape(len(pick), -1)
    u = 0.5 * (J @ x)
    if not jacobian:
        return u
    T = T.reshape(J.shape)
    np.matmul(u[:, None], 2.0 * y[None, :], out=T)  # the outer product, without a ufunc's buffer
    J -= T  # the derivative of 1/|V|^2
    return u, J


def _levenberg_marquardt(x: np.ndarray, S: HalfInt, order: int, rank: int, max_iter: int, gtol: float):
    """Minimize A_order = |u|^2 from x by damped minimum-norm Gauss-Newton steps.

    The step -J^T (J J^T + mu I)^-1 u is solved as -(J^T J + mu I)^-1 J^T u
    when that Gram matrix is the smaller; mu falls tenfold after a step that
    lowers A_K and rises tenfold after one that does not.  A run converges
    at A_K < 1e-24 or at |J^T u| < gtol.  Each trial point is evaluated once,
    with its Jacobian, which an accepted trial carries into the next step.
    """
    m = order * (order + 2)
    if m * x.size > LM_MAX_ENTRIES:
        raise ValueError(f"a search at order {order} with rank {rank} for spin {S} would build a "
                         f"Jacobian of {m * x.size} entries, more than the limit of {LM_MAX_ENTRIES}")
    x = x / np.linalg.norm(x)
    u, J = _residual(x, S, order, rank)
    f, mu = float(u @ u), 1e-3
    small = m <= x.size
    for it in range(max_iter):
        g = J.T @ u
        if f < 1e-24 or np.linalg.norm(g) < gtol:
            return x, f, J, it, "converged"
        gram = J @ J.T if small else J.T @ J
        while True:
            damped = gram.copy()
            damped.flat[::len(gram) + 1] += mu
            y = x - (J.T @ np.linalg.solve(damped, u) if small else np.linalg.solve(damped, g))
            y /= np.linalg.norm(y)
            uy, Jy = _residual(y, S, order, rank)
            fy = float(uy @ uy)
            if fy < f:
                break
            if mu >= LM_MU_MAX:  # no strict decrease even from a step of float resolution
                return x, f, J, it, "stalled"
            mu *= 10.0
        x, u, J, f, mu = y, uy, Jy, fy, max(mu / 10.0, 1e-15)
    return x, f, J, max_iter, "max-iter"


def _coords(V: np.ndarray) -> np.ndarray:
    return np.concatenate([V.real.ravel(), V.imag.ravel()])


def _factor(x: np.ndarray, d: int) -> np.ndarray:
    return (x[:x.size // 2] + 1j * x[x.size // 2:]).reshape(d, -1)


def _ascend_general(problem: SearchProblem, V0: np.ndarray):
    """Purity ascent on A_K = 0 from the factor V0: (rho, purity, steps, stop reason)."""
    S, order = problem.spin, problem.order
    d, rank = V0.shape

    def retract(x):
        # no gradient test: a retraction succeeds only at A_K < 1e-24, and one
        # stopped just above it where J is small costs the ascent a rejected step
        x, f, J, _, _ = _levenberg_marquardt(x, S, order, rank, RETRACT_MAX_ITER, 0.0)
        V = _factor(x, d)
        rho = V @ V.conj().T
        return x, f < 1e-24, J, V, rho, float(np.vdot(rho, rho).real)

    x, feasible, J, V, rho, best = retract(_coords(V0))
    if not feasible:
        return rho, best, 0, "stalled"
    step, iters = 0.5, 0
    while step > 1e-10 and iters < ASCENT_MAX_STEPS:
        iters += 1
        # the purity gradient rho V - Tr(rho^2) V less its least-squares fit by the rows of J:
        # its part in null(J), the tangent space of A_K = 0
        g = _coords(rho @ V - best * V)
        g -= J.T @ np.linalg.lstsq(J.T, g, rcond=1e-10)[0]
        norm = np.linalg.norm(g)
        if norm == 0.0:  # a critical point: there is no ascent direction
            return rho, best, iters, "converged"
        y, ok, Jy, W, cand, p = retract(x + (step / norm) * g)
        if ok and p > best + 1e-15:
            x, J, V, rho, best = y, Jy, W, cand, p
        else:
            step *= 0.5
    return rho, best, iters, "converged" if step <= 1e-10 else "max-iter"


def _diag_constraint_rows(S: HalfInt, order: int) -> np.ndarray:
    # on diagonal states only q = 0 multipoles are nonzero; constrain those
    return np.vstack([_basis_diagonal(S.twice, 0)[1:order + 1], np.ones(S.twice + 1)])


def _diag_vertices(S: HalfInt, order: int) -> np.ndarray:
    n_eq, d = order + 1, S.twice + 1
    supports = sum(math.comb(d, size) for size in range(1, min(n_eq, d) + 1))
    if supports > DIAG_MAX_SUPPORTS:
        raise ValueError(
            f"diagonal search at order {order} for spin {S} would try {supports} "
            f"eigenvalue supports, more than the limit of {DIAG_MAX_SUPPORTS}"
        )
    c = _diag_constraint_rows(S, order)
    verts = np.empty((0, d))
    for size in range(1, min(n_eq, d) + 1):
        # every support of this size at once: the least-squares solution of c[:, support] x = e,
        # e = (0, ..., 0, 1) the trace row, as V diag(1/s) U^T e from one batched SVD
        supports = np.array(list(itertools.combinations(range(d), size)))
        sub = c.T[supports].swapaxes(1, 2)  # [support, n_eq, size]
        U, sv, Vt = np.linalg.svd(sub, full_matrices=False)
        full = sv[:, -1] > np.finfo(float).eps * max(n_eq, size) * sv[:, 0]  # lstsq's rank rule at rcond=None
        sol = np.einsum("nki,nk->ni", Vt, np.divide(U[:, -1], sv, out=np.zeros_like(sv), where=full[:, None]))
        res = np.einsum("nji,ni->nj", sub, sol)
        res[:, -1] -= 1.0
        ok = full & (np.linalg.norm(res, axis=1) <= 1e-10) & np.all(sol >= -1e-12, axis=1)
        for support, x in zip(supports[ok], sol[ok]):
            v = np.zeros(d)
            v[support] = np.clip(x, 0.0, None)
            # np.allclose(v, u, atol=1e-10) against every vertex u found so far, at once
            if not np.any(np.all(np.abs(v - verts) <= 1e-10 + 1e-5 * np.abs(verts), axis=1)):
                verts = np.vstack([verts, v])
    return verts


def _solve_diagonal(problem: SearchProblem):
    verts = _diag_vertices(problem.spin, problem.order)
    if not len(verts):
        raise InfeasibleError(
            f"no feasible diagonal state at order {problem.order} for spin {problem.spin}"
        )
    purity = [float(v @ v) for v in verts]
    # every vertex's A_K from one product with the q = 0 basis block
    a_k = _diagonal_rows(verts / verts.sum(axis=1, keepdims=True))[1][:, problem.order - 1].tolist()
    history = tuple(RestartRecord(i, p, a, 1, "converged") for i, (p, a) in enumerate(zip(purity, a_k)))
    best = 0
    for i, p in enumerate(purity):
        if p > purity[best] + 1e-15:
            best = i
    state = diag_sector(problem.spin, verts[best] / verts[best].sum())
    return state, purity[best], a_k[best], history


def max_purity_unpolarized(problem: SearchProblem) -> SearchResult:
    """Maximize Tr rho^2 over states with vanishing multipoles up to the order.

    Diagonal and axially-symmetric classes are solved exactly by vertex
    enumeration of the eigenvalue polytope (an axially symmetric state is a
    rotated diagonal one, and purity and multipole strengths are rotation
    invariant, so the two classes share an optimum).  The general class runs
    a multi-restart purity ascent over rank-(order + 1) factors of rho and is
    locally optimal only.
    """
    if problem.constraint_class == "pure":
        raise ValueError("use pure_anticoherent_search for the pure class")
    if problem.constraint_class in ("diagonal-in-z-basis", "axially-symmetric"):
        state, best, residual, history = _solve_diagonal(problem)
    else:
        d = problem.spin.twice + 1
        rng = np.random.default_rng(problem.seed)
        history = []
        state, best = maximally_mixed(problem.spin), 1.0 / d
        for i in range(problem.restarts):
            rho, p, iters, reason = _ascend_general(problem, _ginibre(d, problem.order + 1, rng))
            history.append(RestartRecord(i, p, _a_k(rho, problem.spin, problem.order), iters, reason))
            # a start that could not be retracted onto A_K = 0 is no candidate
            if reason != "stalled" and p > best + 1e-15:
                state, best = SpinSector(problem.spin, rho, validate=False), p
        history = tuple(history)
        residual = _a_k(state.rho, problem.spin, problem.order)
    return SearchResult(problem, state, best, residual, _digest(history), history)


def anticoherence_objective(psi: np.ndarray, S, order: int) -> float:
    """A_order of the normalized pure state with amplitudes psi, 1 <= order <= 2S."""
    S = half(S)
    _check_order(S, order)
    return _a_k(pure_sector(S, psi).rho, S, order)


def anticoherence_gradient(x: np.ndarray, S, order: int) -> np.ndarray:
    """Gradient 2 J^T u of A_order in the 2(2S+1) real coordinates (re, im) of psi.

    Exact at every |psi|, as A_order is evaluated on psi/|psi|.  Raises
    ValueError for an order outside [1, 2S], and for x that is not 2(2S+1)
    finite reals or whose squared norm is zero or overflows.
    """
    S = half(S)
    _check_order(S, order)
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * (S.twice + 1),):
        raise ValueError(f"x must hold 2(2S + 1) = {2 * (S.twice + 1)} coordinates, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x holds a non-finite coordinate")
    with np.errstate(over="ignore"):
        if not 0.0 < float(x @ x) < math.inf:
            raise ValueError("x is zero, or its squared norm is outside the float range")
    u, J = _residual(x, S, order, 1)
    return 2.0 * (J.T @ u)


def pure_anticoherent_search(S, order: int, restarts: int = 64, seed: int = 0) -> SearchResult:
    """Minimize A_order over pure states; certifies anticoherence when it hits 0.

    Non-existence is a reported outcome (a strictly positive minimum), not an
    error: e.g. every pure spin-1/2 state is coherent, so the order-1 minimum
    is 1/2.
    """
    problem = SearchProblem(half(S), order, constraint_class="pure", restarts=restarts, seed=seed)
    d = problem.spin.twice + 1
    rng = np.random.default_rng(seed)
    history, best_x, best_f = [], None, math.inf
    for i in range(restarts):
        x0 = rng.standard_normal(2 * d)
        x, f, _, iters, reason = _levenberg_marquardt(x0, problem.spin, order, 1, PURE_MAX_ITER, PURE_GTOL)
        history.append(RestartRecord(i, f, f, iters, reason))
        if f < best_f:
            best_x, best_f = x, f
    history = tuple(history)
    state = pure_sector(problem.spin, _factor(best_x, d)[:, 0])
    return SearchResult(problem, state, best_f, best_f, _digest(history), history)


def _grid_points(grid, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A scan grid as a float array [point, *shape]; a malformed or non-finite point is refused."""
    try:
        pts = np.asarray(grid, dtype=float)
    except ValueError:  # points of unequal lengths, or entries that are no numbers
        pts = None
    if pts is None or pts.shape != (len(pts),) + shape or not np.isfinite(pts).all():
        for i, point in enumerate(grid):
            if np.shape(point) != shape or not np.isfinite(np.asarray(point, dtype=float)).all():
                raise ValueError(f"grid point {i} = {point!r} is not {what}")
        pts = np.asarray(grid, dtype=float).reshape((0,) + shape)  # an empty grid
    return pts


def _diagonal_rows(p: np.ndarray):
    """Purity, A_K and P_K of diagonal states from their eigenvalue rows p[N, 2S + 1], m descending.

    Such a state has only rho_K0 = sum_m T_K0[m, m] p_m: one product with the q = 0 basis block.
    """
    t = p.shape[-1] - 1
    _, A, P = _strengths_cumulative_degrees((p @ _basis_diagonal(t, 0).T)[..., None], t)
    return np.einsum("nm,nm->n", p, p), A, P


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
    lams = _grid_points(lams, (), "a finite lam value")
    outside = (lams < 0.0) | (lams > 0.5)
    if outside.any():
        raise ValueError(f"lam = {lams[outside][0]} outside [0, 1/2]")
    purity, _, P = _diagonal_rows(np.column_stack([lams, 1.0 - 2.0 * lams, lams]))
    return list(map(TwoPhotonRow, lams.tolist(), purity.tolist(), P[:, 1].tolist()))


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
    lam4 values.  Grid points violating positivity are flagged, not errors;
    a non-finite or malformed grid point is refused.
    """
    if kind not in ("first-order", "second-order"):
        raise ValueError(f"kind must be 'first-order' or 'second-order', got {kind!r}")
    if kind == "first-order":
        lam3, lam4 = _grid_points(grid, (2,), "a finite (lam3, lam4) pair").T
    else:
        lam4 = _grid_points(grid, (), "a finite lam4 value")
        lam3 = 1.0 - 3.0 * lam4
    with np.errstate(over="ignore", invalid="ignore"):  # eigenvalues past the float range are infeasible
        eigs = np.column_stack(three_photon_first_order_eigs(lam3, lam4))
    feasible = ~np.any((eigs < -1e-12) | (eigs > 1.0 + 1e-12), axis=1)
    p = np.clip(eigs[feasible], 0.0, None)
    purity, A, _ = _diagonal_rows(p / p.sum(axis=1, keepdims=True))
    found = iter(np.column_stack([purity, A]).tolist())
    return [ThreePhotonRow(l3, l4, ok, *(next(found) if ok else (None,) * 4))
            for l3, l4, ok in zip(lam3.tolist(), lam4.tolist(), feasible.tolist())]
