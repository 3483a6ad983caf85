"""Extremal unpolarized states: purity maximization and anticoherent search.

* diagonal / axially symmetric — the constraints are linear in the
  eigenvalues and Tr rho^2 is convex, so the maximum sits at a vertex of
  the eigenvalue polytope.  Every vertex solves the constraints on some K + 1
  levels, so all those square systems go to one batched solve, and each
  vertex is kept once, keyed by the levels where it is positive.
* general mixed — rho = V V^dagger / |V|^2 with V of size d x (K+1), which
  loses no optimum (Barvinok-Pataki).  A restart retracts a random V onto
  A_K = 0, then steps along the purity gradient g projected onto its tangent
  space null(J), by one solve in J J^T, and retracts again, until g passes a
  first-order test.  The step halves when purity does not rise; at each new
  point it is the two-point (Barzilai-Borwein) length |g| |dx|^2 / (-dx.dg)
  of the last move, at most 1/2, and 1/2 when that curvature is not positive.
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
from typing import NamedTuple

import numpy as np

from .angmom import (MAX_ENTRIES, HalfInt, InfeasibleError, _cache, _check_int, _check_norm, _check_reals,
                     _check_spin, _check_type, _Frozen, _read_only)
from .catalog import three_photon_first_order_eigs
from .multipole import _basis_diagonal, _strengths_cumulative_degrees
from .states import _CLASS_ALIASES, CONSTRAINT_CLASSES, SpinSector, _ginibre, diag_sector, maximally_mixed, pure_sector

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
    "FamilyScan",
    "TwoPhotonRow",
    "scan_two_photon_family",
    "ThreePhotonRow",
    "scan_three_photon_family",
]

# fixed solver settings
ASCENT_MAX_STEPS = 400    # ascent steps per general restart
RETRACT_MAX_ITER = 100    # Levenberg-Marquardt iterations per retraction onto A_K = 0
PURE_MAX_ITER = 4000      # Levenberg-Marquardt iterations per pure restart
PURE_GTOL = 1e-13         # |J^T u| at which a pure restart has converged
ASCENT_GTOL = 1e-6        # |projected purity gradient| / |rho V| at which a general restart has converged
RETRACT_MU = 1e-9         # initial damping of a retraction: each starts one short step from A_K = 0
LM_MU_MAX = 1e20          # damping at which a step that does not lower A_K ends the run
# MAX_ENTRIES bounds the Jacobian entries a Levenberg-Marquardt run may allocate: J is then 16 MB and a run
# peaks near 51 MB, plus a 32 MB cached residual plan (pure 2S = 200, K = 69, tracemalloc); the stacked
# square blocks of the diagonal vertex enumeration are held to the same number of entries
DIAG_MAX_SUPPORTS = 50_000  # supports of order + 1 levels the diagonal vertex enumeration may try

STOP_REASONS = ("converged", "stalled", "max-iter")


@_read_only
class SearchProblem(_Frozen):
    """Search setup: shell spin, unpolarization order, constraint class, restarts, seed."""

    spin: HalfInt
    order: int
    constraint_class: str = "general"
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        spin, cls = _check_spin("spin", self.spin), _CLASS_ALIASES.get(self.constraint_class)
        if cls is None:
            raise ValueError(f"unknown constraint class {self.constraint_class!r}; "
                             f"choose from {CONSTRAINT_CLASSES}")
        self._freeze(spin=spin, constraint_class=cls)
        _check_int("order", self.order, 1, self.spin.twice, span="[1, 2S]")
        _check_int("restarts", self.restarts, 1)
        _check_int("seed", self.seed, 0)


@_read_only
class RestartRecord:
    index: int
    objective: float
    residual: float
    iterations: int
    reason: str               # one of STOP_REASONS


@_read_only
class SearchResult:
    """Best state found, with the per-restart certificate digest."""

    problem: SearchProblem
    state: SpinSector
    objective: float
    residual: float           # A_K at the solution
    digest: str
    history: tuple[RestartRecord, ...]

    @property
    def stop_reasons(self) -> dict[str, int]:
        """How many restarts ended for each of `STOP_REASONS`, in that order."""
        return {r: sum(rec.reason == r for rec in self.history) for r in STOP_REASONS}

    @property
    def is_anticoherent(self) -> bool:
        """For pure searches: the minimum qualifies as A_K = 0 at numerical precision."""
        return self.residual < 1e-10


def _first_best(values, sign: float = 1.0) -> int:
    """The first index within a relative 1e-12 of the best value: the largest for sign +1, the least for -1."""
    top = max(sign * v for v in values)
    return next(i for i, v in enumerate(values) if sign * v >= top - 1e-12 * abs(top))


def _digest(history) -> str:
    h = hashlib.sha256()
    for rec in history:
        h.update(
            f"{rec.index}:{rec.objective.hex()}:{rec.residual.hex()}:{rec.iterations}:{rec.reason}\n".encode()
        )
    return h.hexdigest()


@_cache(32)
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
    return shift.reshape(2, -1, 2, d), pick, ch, cl


def _residual(x: np.ndarray, S: HalfInt, order: int, rank: int):
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
    T = T.reshape(J.shape)
    np.matmul(u[:, None], 2.0 * y[None, :], out=T)  # the outer product, without a ufunc's buffer
    J -= T  # the derivative of 1/|V|^2
    return u, J


def _levenberg_marquardt(x: np.ndarray, S: HalfInt, order: int, rank: int, max_iter: int, gtol: float,
                         mu: float = 1e-3):
    """Minimize A_order = |u|^2 from x by damped minimum-norm Gauss-Newton steps.

    The step -J^T (J J^T + mu I)^-1 u is solved as -(J^T J + mu I)^-1 J^T u
    when that Gram matrix is the smaller; mu starts at `mu`, falls tenfold after
    a step that lowers A_K and rises tenfold after one that does not.  A run converges
    at A_K < 1e-24 or at |J^T u| < gtol.  Each trial point is evaluated once,
    with its Jacobian, which an accepted trial carries into the next step.
    """
    m = order * (order + 2)
    if m * x.size > MAX_ENTRIES:
        raise ValueError(f"a search at order {order} with rank {rank} for spin {S} would build a "
                         f"Jacobian of {m * x.size} entries, more than the limit of {MAX_ENTRIES}")
    x = x / np.linalg.norm(x)
    u, J = _residual(x, S, order, rank)
    f = float(u @ u)
    small = m <= x.size
    for it in range(max_iter):
        g = J.T @ u if gtol > 0.0 or not small else None  # a retraction (gtol = 0) with J J^T reads no g
        if f < 1e-24 or g is not None and np.linalg.norm(g) < gtol:
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


def _tangent(J: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The part of g in null(J): g - J^T (J J^T + delta I)^-1 J g, delta = 1e-14 Tr J J^T, as J may lose rank."""
    gram = J @ J.T
    gram.flat[::len(gram) + 1] += 1e-14 * np.trace(gram)
    return g - J.T @ np.linalg.solve(gram, J @ g)


def _ascend_general(problem: SearchProblem, V0: np.ndarray):
    """Purity ascent on A_K = 0 from the factor V0: (V, purity, A_K, steps, stop reason).

    Converged when the projected purity gradient, computed once per accepted
    point, is at most ASCENT_GTOL |rho V|; a step below 1e-10 is a safety net.
    """
    S, order = problem.spin, problem.order
    d, rank = V0.shape

    def retract(x):
        # no gradient test: a retraction succeeds only at A_K < 1e-24, and one
        # stopped just above it where J is small costs the ascent a rejected step
        x, f, J, _, _ = _levenberg_marquardt(x, S, order, rank, RETRACT_MAX_ITER, 0.0, RETRACT_MU)
        V = _factor(x, d)
        rho = V @ V.conj().T
        return x, f, J, V, rho, float(np.vdot(rho, rho).real)

    x, f, J, V, rho, best = retract(_coords(V0))
    if not f < 1e-24:
        return V, best, f, 0, "stalled"
    step, iters, moved, last = 0.5, 0, True, None
    while step > 1e-10 and iters < ASCENT_MAX_STEPS:
        if moved:
            # the purity gradient rho V - Tr(rho^2) V projected onto null(J), the tangent space of A_K = 0
            rhoV = rho @ V
            g = _tangent(J, _coords(rhoV - best * V))
            norm = np.linalg.norm(g)
            if norm <= ASCENT_GTOL * np.linalg.norm(rhoV):
                return V, best, f, iters, "converged"
            if last is not None:
                # two-point (Barzilai-Borwein) step: the curvature measured along the last accepted move
                dx, dg = x - last[0], g - last[1]
                curv = -float(dx @ dg)
                step = min(norm * float(dx @ dx) / curv, 0.5) if curv > 0.0 else 0.5
            last = x, g
        iters += 1
        y, fy, Jy, W, cand, p = retract(x + (step / norm) * g)
        moved = fy < 1e-24 and p > best + 1e-15
        if moved:
            x, f, J, V, rho, best = y, fy, Jy, W, cand, p
        else:
            step *= 0.5
    return V, best, f, iters, "converged" if step <= 1e-10 else "max-iter"


def _diag_constraint_rows(S: HalfInt, order: int) -> np.ndarray:
    # on diagonal states only q = 0 multipoles are nonzero; constrain those
    return np.vstack([_basis_diagonal(S.twice, 0)[1:order + 1], np.ones(S.twice + 1)])


def _diag_vertices(S: HalfInt, order: int) -> np.ndarray:
    n_eq, d = order + 1, S.twice + 1
    count = math.comb(d, n_eq)
    if count > DIAG_MAX_SUPPORTS or count * n_eq**2 > MAX_ENTRIES:
        raise ValueError(f"diagonal search at order {order} for spin {S} would try {count} eigenvalue supports "
                         f"of {n_eq} levels in {count * n_eq**2} block entries, more than the limit of "
                         f"{DIAG_MAX_SUPPORTS} supports or {MAX_ENTRIES} entries")
    # the rows are polynomials of degree <= order in m, so any n_eq levels give an invertible block,
    # and every vertex solves c[:, support] x = e, e = (0, ..., 0, 1) the trace row, on some support
    # of n_eq levels: all of them in one batched solve; a vertex on fewer levels comes padded with zeros
    levels = itertools.chain.from_iterable(itertools.combinations(range(d), n_eq))
    supports = np.fromiter(levels, np.intp, count * n_eq).reshape(count, n_eq)
    blocks, e = _diag_constraint_rows(S, order).T[supports].swapaxes(1, 2), np.eye(n_eq)[-1]
    sol = np.linalg.solve(blocks, e)
    # the blocks grow ill-conditioned with the order: keep only solutions that meet the constraints
    res = np.linalg.norm(np.einsum("nij,nj->ni", blocks, sol) - e, axis=1)
    feasible = np.all(sol > -1e-10, axis=1) & (res <= 1e-10)
    v = np.zeros((np.count_nonzero(feasible), d))
    np.put_along_axis(v, supports[feasible], np.where(sol[feasible] > 1e-10, sol[feasible], 0.0), axis=1)
    # each vertex once, keyed by its own support, ordered by support size, then in combination order
    verts = {}
    for row in v:
        verts.setdefault(tuple(row.nonzero()[0].tolist()), row)
    return np.array([verts[k] for k in sorted(verts, key=lambda k: (len(k), k))])


def _solve_diagonal(problem: SearchProblem):
    verts = _diag_vertices(problem.spin, problem.order)
    if not len(verts):
        raise InfeasibleError(f"no feasible diagonal state at order {problem.order} for spin {problem.spin}")
    purity = [float(v @ v) for v in verts]
    # every vertex's A_K from one product with the q = 0 basis block
    a_k = _diagonal_rows(verts / verts.sum(axis=1, keepdims=True))[1][:, problem.order - 1].tolist()
    history = tuple(RestartRecord(i, p, a, 1, "converged") for i, (p, a) in enumerate(zip(purity, a_k)))
    # of optima equal but for rounding (a vertex and its mirror image m -> -m), the first vertex
    best = _first_best(purity)
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
    problem = _check_type("problem", problem, SearchProblem)
    if problem.constraint_class == "pure":
        raise ValueError("use pure_anticoherent_search for the pure class")
    if problem.constraint_class in ("diagonal-in-z-basis", "axially-symmetric"):
        state, best, residual, history = _solve_diagonal(problem)
    else:
        d = problem.spin.twice + 1
        rng, history = np.random.default_rng(problem.seed), []
        candidates = [(None, 1.0 / d, 0.0)]  # maximally mixed (Tr T_Kq = 0 for K > 0), listed first to win a tie
        for i in range(problem.restarts):
            V, p, f, iters, reason = _ascend_general(problem, _ginibre(d, problem.order + 1, rng))
            history.append(RestartRecord(i, p, f, iters, reason))
            if reason != "stalled":  # a start that could not be retracted onto A_K = 0 is no candidate
                candidates.append((V, p, f))
        history = tuple(history)
        V, best, residual = candidates[_first_best([p for _, p, _ in candidates])]
        state = maximally_mixed(problem.spin) if V is None else SpinSector(problem.spin, V @ V.conj().T, validate=False)
    return SearchResult(problem, state, best, residual, _digest(history), history)


def anticoherence_objective(psi: np.ndarray, S, order: int) -> float:
    """A_order of the normalized pure state with amplitudes psi, 1 <= order <= 2S."""
    S = _check_spin("S", S)
    _check_int("order", order, 1, S.twice, span="[1, 2S]")
    psi = _check_reals("psi", psi, (S.twice + 1,), complex_ok=True)
    u, _ = _residual(_coords(psi / _check_norm("psi", psi)), S, order, 1)
    return float(u @ u)


def anticoherence_gradient(x: np.ndarray, S, order: int) -> np.ndarray:
    """Gradient 2 J^T u of A_order in the 2(2S+1) real coordinates (re, im) of psi.

    Exact at every |psi|, as A_order is evaluated on psi/|psi|; computed at x / 2^e, e the binary
    exponent of |x|, and scaled by 2^-e, so no square overflows.  Raises ValueError for an order
    outside [1, 2S], and for x that is not 2(2S+1) finite reals or whose norm is zero or overflows.
    """
    S = _check_spin("S", S)
    _check_int("order", order, 1, S.twice, span="[1, 2S]")
    x = _check_reals("x", x, (2 * (S.twice + 1),))
    _, e = math.frexp(_check_norm("x", x))
    u, J = _residual(np.ldexp(x, -e), S, order, 1)
    return np.ldexp(2.0 * (J.T @ u), -e)


def pure_anticoherent_search(S, order: int, restarts: int = 64, seed: int = 0) -> SearchResult:
    """Minimize A_order over pure states; certifies anticoherence when it hits 0.

    Non-existence is a reported outcome (a strictly positive minimum), not an
    error: e.g. every pure spin-1/2 state is coherent, so the order-1 minimum
    is 1/2.
    """
    problem = SearchProblem(_check_spin("S", S), order, constraint_class="pure", restarts=restarts, seed=seed)
    d = problem.spin.twice + 1
    rng = np.random.default_rng(seed)
    history, found = [], []
    for i in range(restarts):
        x0 = rng.standard_normal(2 * d)
        x, f, _, iters, reason = _levenberg_marquardt(x0, problem.spin, order, 1, PURE_MAX_ITER, PURE_GTOL)
        history.append(RestartRecord(i, f, f, iters, reason))
        found.append(x)
    history = tuple(history)
    best = _first_best([rec.objective for rec in history], -1.0)
    state = pure_sector(problem.spin, _factor(found[best], d)[:, 0])
    return SearchResult(problem, state, history[best].objective, history[best].residual, _digest(history), history)


def _diagonal_rows(p: np.ndarray):
    """Purity, A_K and P_K of diagonal states from their eigenvalue rows p[N, 2S + 1], m descending.

    Such a state has only rho_K0 = sum_m T_K0[m, m] p_m: one product with the q = 0 basis block.
    """
    t = p.shape[-1] - 1
    _, A, P = _strengths_cumulative_degrees((p @ _basis_diagonal(t, 0).T)[..., None], t)
    return np.einsum("nm,nm->n", p, p), A, P


class FamilyScan(_Frozen):
    """Read-only columns named by the fields of the row type `scan.row`; iterating makes the rows, in one pass."""

    def __init__(self, row: type, *columns: np.ndarray):
        self._freeze(row=row, **dict(zip(row._fields, columns)))

    def __len__(self) -> int:
        return len(vars(self)[self.row._fields[0]])

    def __iter__(self):
        values = ((np.where(np.isnan(c), None, c.astype(object)) if c.dtype == float else c).tolist()
                  for c in map(vars(self).get, self.row._fields))
        return map(tuple.__new__, itertools.repeat(self.row), zip(*values))  # no per-row Python call


@_read_only
class TwoPhotonRow(NamedTuple):
    lam: float
    purity: float
    p2: float


def scan_two_photon_family(lams) -> FamilyScan:
    """Scan diag(lam, 1-2lam, lam) on the two-photon shell.

    These are the first-order unpolarized axially symmetric states; positivity
    restricts lam to [0, 1/2].  Purity and the second-order degree are
    computed through the multipole machinery, not from closed forms.
    """
    lams = _check_reals("lams", lams, (None,))
    outside = (lams < 0.0) | (lams > 0.5)
    if outside.any():
        raise ValueError(f"lam = {lams[outside][0]} outside [0, 1/2]")
    purity, _, P = _diagonal_rows(np.column_stack([lams, 1.0 - 2.0 * lams, lams]))
    return FamilyScan(TwoPhotonRow, lams, purity, P[:, 1])


@_read_only
class ThreePhotonRow(NamedTuple):
    lam3: float
    lam4: float
    feasible: bool
    purity: float | None
    a1: float | None
    a2: float | None
    a3: float | None


def scan_three_photon_family(kind: str, grid) -> FamilyScan:
    """Scan the diagonal three-photon families without first-order polarization.

    kind = "first-order": grid holds (lam3, lam4) pairs; the eigenvalues are
    (lam3+2lam4-1/2, -2lam3-3lam4+3/2, lam3, lam4).  kind = "second-order"
    adds the quadrupole-killing constraint lam3 = 1-3lam4 and grid holds
    lam4 values.  A point violating positivity is flagged infeasible, with NaN
    purity and A_K (None in its row); a non-finite or malformed point is refused.
    """
    if kind not in ("first-order", "second-order"):
        raise ValueError(f"kind must be 'first-order' or 'second-order', got {kind!r}")
    if kind == "first-order":
        lam3, lam4 = _check_reals("grid", grid, (None, 2)).T
    else:
        lam4 = _check_reals("grid", grid, (None,))
        lam3 = 1.0 - 3.0 * lam4
    with np.errstate(over="ignore", invalid="ignore"):  # eigenvalues past the float range are infeasible
        eigs = np.column_stack(three_photon_first_order_eigs(lam3, lam4))
    feasible = ~np.any((eigs < -1e-12) | (eigs > 1.0 + 1e-12), axis=1)
    p = np.clip(eigs[feasible], 0.0, None)
    purity, A, _ = _diagonal_rows(p / p.sum(axis=1, keepdims=True))
    values = np.full((4, len(feasible)), np.nan)  # purity and A_K, NaN where a point is infeasible
    values[0, feasible], values[1:, feasible] = purity, A.T
    return FamilyScan(ThreePhotonRow, lam3, lam4, feasible, *values)
