"""`search` workload: the extremal-state solvers on converged and stalled cases.

This is the only workload that drives `search`.  The converged cases end
early; the stalled ones run until an iteration budget or a creeping ascent
stops them.  A solver's work depends strongly on its random start (the pure
2S=3 K=2 descent runs all 4,000 iterations from most starts and stops after
a few dozen from some), so every case keeps a fixed solver seed and
`--seed` only sets the order in which the cases run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import reference as ref
from qpolar import search


@dataclass(frozen=True)
class Case:
    name: str
    cls: str
    two_s: int
    order: int
    restarts: int
    stalled: bool = False


CASES = (
    Case("diag-3-1", "diagonal", 3, 1, 1),
    Case("axial-3-2", "axial", 3, 2, 1),
    Case("diag-10-4", "diagonal", 10, 4, 1),
    Case("general-2-1", "general", 2, 1, 2),
    Case("general-3-2", "general", 3, 2, 2),
    Case("general-6-3", "general", 6, 3, 2),
    Case("pure-1-1", "pure", 1, 1, 4),
    Case("pure-6-3", "pure", 6, 3, 4),
    Case("pure-12-3", "pure", 12, 3, 2),
    Case("pure-3-2", "pure", 3, 2, 1, stalled=True),
    Case("general-10-4", "general", 10, 4, 1, stalled=True),
)
SOLVER_SEED = 0

# paper anchors: the optimum each case must reach
ANCHORS = {
    "diag-3-1": 5 / 8,        # max purity, diagonal, first order
    "axial-3-2": 7 / 18,      # max purity, axially symmetric, second order
    "general-2-1": 1.0,       # a pure two-photon state without dipole exists
    "pure-1-1": 1 / 2,        # every spin-1/2 pure state is coherent
    "pure-3-2": 1 / 4,        # no pure three-photon state is second-order unpolarized
}


def solve(case: Case):
    if case.cls == "pure":
        return search.pure_anticoherent_search(
            case.two_s / 2, case.order, restarts=case.restarts, seed=SOLVER_SEED)
    problem = search.SearchProblem(
        case.two_s / 2, case.order, constraint_class=case.cls,
        restarts=case.restarts, seed=SOLVER_SEED)
    return search.max_purity_unpolarized(problem)


class Search:
    name = "search"
    spins = tuple(sorted({c.two_s for c in CASES}))

    def __init__(self, seed: int, workdir: str):
        self.cases = [CASES[i] for i in np.random.default_rng([seed, 303]).permutation(len(CASES))]

    def prepare(self) -> None:
        """The cases are fixed; there are no inputs to generate."""

    def warm(self) -> None:
        """Diagonal optimum at the (2S, K) of every general case: a general result may not fall below it."""
        self.diagonal_optimum = {
            (c.two_s, c.order): solve(Case("", "diagonal", c.two_s, c.order, 1)).objective
            for c in CASES if c.cls == "general"
        }

    def run_round(self, rec) -> None:
        for case in self.cases:
            rec.attempt(
                "stalled" if case.stalled else "converged", case.name, case.two_s,
                lambda c=case: rec.call("search", solve, c, two_s=c.two_s, name=f"search.{c.name}"),
                lambda result, c=case: self._check(rec, c, result),
            )

    def _check(self, rec, case: Case, result) -> None:
        rec.count(f"search.iterations.{case.name}", sum(r.iterations for r in result.history))
        check_result(case, result, self.diagonal_optimum.get((case.two_s, case.order)))


def check_result(case: Case, result, diagonal_optimum: float | None) -> None:
    what = f"search {case.name}"
    rho = np.asarray(result.state.rho)
    ref.check_density_matrix(what, rho)
    if case.name in ANCHORS:
        ref.check_close(f"{what}: optimum", result.objective, ANCHORS[case.name], 1e-9)
    if case.cls == "pure":
        ref.check_close(f"{what}: purity", ref.purity(rho), 1.0, 1e-9)
        ref.check_close(f"{what}: A_{case.order} of the state", result.residual, result.objective, 0.0)
        if case.name not in ANCHORS:
            ref.require(result.is_anticoherent, f"{what}: not anticoherent, A_K = {result.objective!r}")
            ref.check_isotropic(what, rho, case.two_s, case.order)
        return
    ref.require(result.residual <= 1e-8, f"{what}: A_{case.order} = {result.residual!r} above 1e-8")
    ref.check_isotropic(what, rho, case.two_s, case.order)
    ref.check_close(f"{what}: purity", ref.purity(rho), result.objective, 1e-9)
    if case.cls == "diagonal":
        ref.require(np.count_nonzero(rho - np.diag(np.diag(rho))) == 0, f"{what}: not diagonal")
    if diagonal_optimum is not None:
        ref.require(
            result.objective >= diagonal_optimum - 1e-9,
            f"{what}: purity {result.objective!r} below the diagonal optimum {diagonal_optimum!r}",
        )
