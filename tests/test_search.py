"""Extremal-state searches: exact vertex solutions, projected ascent, pure descent."""

import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qpolar import multipole, search
from qpolar.angmom import _check_reals, half
from qpolar.catalog import three_photon_first_order_eigs
from qpolar.multipole import _basis, _basis_diagonal, degree, state_multipoles, tensor_matrix, unpolarization_order
from qpolar.search import (
    STOP_REASONS,
    SearchProblem,
    anticoherence_gradient,
    anticoherence_objective,
    max_purity_unpolarized,
    pure_anticoherent_search,
    scan_three_photon_family,
    scan_two_photon_family,
)
from qpolar.states import SpinSector, diag_sector, pure_sector, random_sector, validate

from shell_reference import project_multipole_free


def polytope_grid_oracle(twice_s, order, rounds=6, n=61):
    """Max purity over the diagonal feasible polytope by zooming grid scan.

    Independent of the vertex solver: scans the eigenvalue simplex through the
    linear multipole constraints on a shrinking grid around the running best.
    """
    d = twice_s + 1
    rows = np.stack([np.diag(tensor_matrix(twice_s / 2, K, 0)).real for K in range(1, order + 1)])
    free = d - 1 - order  # simplex dim minus number of equality constraints
    if free <= 0:
        # unique feasible point: solve the square system
        a = np.vstack([rows, np.ones(d)])
        sol, *_ = np.linalg.lstsq(a, np.concatenate([np.zeros(order), [1.0]]), rcond=None)
        return float(np.dot(sol, sol))

    # parametrize: choose `free` coordinates on a box, solve the rest
    fixed_idx = list(range(free))
    other_idx = list(range(free, d))
    a_other = np.vstack([rows[:, other_idx], np.ones(len(other_idx))])
    a_fixed = np.vstack([rows[:, fixed_idx], np.ones(len(fixed_idx))])
    center = np.full(free, 1.0 / d)
    width = 1.0
    best = -1.0
    for _ in range(rounds):
        axes = [np.linspace(max(0.0, c - width / 2), min(1.0, c + width / 2), n) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh])  # (free, N)
        rhs = np.concatenate([np.zeros(order), [1.0]])[:, None] - a_fixed @ pts
        sol = np.linalg.solve(a_other, rhs)  # (d-free, N)
        ok = np.all(sol >= -1e-12, axis=0) & np.all(pts >= -1e-12, axis=0)
        if not np.any(ok):
            width /= 2
            continue
        pur = (pts[:, ok] ** 2).sum(axis=0) + (sol[:, ok] ** 2).sum(axis=0)
        k = int(np.argmax(pur))
        best = max(best, float(pur[k]))
        center = pts[:, ok][:, k]
        width /= n / 4
    return best


def per_point_two_photon(lams):
    """(purity, P_2) per lam, one sector and one full multipole spectrum per point."""
    rows = []
    for lam in lams:
        sec = diag_sector(1, [lam, 1.0 - 2.0 * lam, lam])
        rows.append((sec.purity(), degree(state_multipoles(sec), 2)))
    return rows


def per_point_three_photon(points):
    """(purity, A_1, A_2, A_3) per (lam3, lam4) point, None where positivity fails."""
    rows = []
    for lam3, lam4 in points:
        eigs = np.array(three_photon_first_order_eigs(lam3, lam4))
        if np.any(eigs < -1e-12) or np.any(eigs > 1.0 + 1e-12):
            rows.append(None)
            continue
        p = np.clip(eigs, 0.0, None)
        sec = diag_sector(1.5, p / p.sum())
        rows.append((sec.purity(), *state_multipoles(sec).cumulative_all))
    return rows


def row_list_two_photon(lams):
    """The rows as a list, one NamedTuple per point: how the scan returned them before its columns."""
    lams = np.asarray(lams, dtype=float)
    purity, _, P = search._diagonal_rows(np.column_stack([lams, 1.0 - 2.0 * lams, lams]))
    return [tuple.__new__(search.TwoPhotonRow, r) for r in zip(lams.tolist(), purity.tolist(), P[:, 1].tolist())]


def row_list_three_photon(kind, grid):
    """The three-photon rows as a list of NamedTuples, with None in an infeasible row."""
    if kind == "first-order":
        lam3, lam4 = np.asarray(grid, dtype=float).reshape(-1, 2).T
    else:
        lam4 = np.asarray(grid, dtype=float)
        lam3 = 1.0 - 3.0 * lam4
    with np.errstate(over="ignore", invalid="ignore"):
        eigs = np.column_stack(three_photon_first_order_eigs(lam3, lam4))
    feasible = ~np.any((eigs < -1e-12) | (eigs > 1.0 + 1e-12), axis=1)
    p = np.clip(eigs[feasible], 0.0, None)
    purity, A, _ = search._diagonal_rows(p / p.sum(axis=1, keepdims=True))
    full, values = np.full(len(feasible), None, dtype=object), []
    for column in (purity, *A.T):
        full[feasible] = column
        values.append(full.tolist())
    rows = zip(lam3.tolist(), lam4.tolist(), feasible.tolist(), *values)
    return [tuple.__new__(search.ThreePhotonRow, r) for r in rows]


def typed(rows):
    """Each row as its type and the (type, value) of every field, so that 1 == 1.0 == True tell apart."""
    return [(type(r), [(type(v), v) for v in r]) for r in rows]


def basis_blocks(t, order):
    """The blocks C[2S + q], |q| <= order, of `_basis(2S)[0]`, from the diagonals alone."""
    d = t + 1
    C = np.zeros((2 * order + 1, d, d))
    for q in range(order + 1):
        C[order + q, q:, q:] = _basis_diagonal(t, q)
        C[order - q, q:, :d - q] = (-1) ** q * _basis_diagonal(t, q)
    return C


def reference_residual(x, S, order, rank):
    """(u, J) of `search._residual` by complex gathers on a (q, K) grid of basis blocks."""
    t, d = S.twice, S.twice + 1
    V, n = search._factor(x, d), float(x @ x)
    q, i = np.arange(order + 1)[:, None], np.arange(d)
    pad = np.vstack([V, np.zeros((1, rank))])  # row d stands in for rows outside the matrix
    keep = np.arange(1, order + 1) >= q[1:]  # [q - 1, K - 1]: the components with q <= K
    rows = lambda z: np.concatenate(  # [q, K, ...] complex -> the real rows
        [z[0].real, math.sqrt(2) * z[1:][keep].real, math.sqrt(2) * z[1:][keep].imag])
    C = basis_blocks(t, order)[:, 1:order + 1, :, None]
    lo = C[order:] * pad[np.where(i >= q, i - q, d)][:, None]
    u = rows(np.einsum("qkir,ir->qk", lo, V.conj())) / n
    # T_Kq[i, i + q] = (-1)^q T_K,-q[i + q, i], read from the block q below the diagonal one
    hi = C[order::-1] * ((-1.0) ** q[..., None] * pad[np.where(i + q < d, i + q, d)].conj())[:, None]
    da = np.stack([hi + lo, 1j * (hi - lo)], axis=2).reshape(order + 1, order, -1)  # d/dRe V, d/dIm V
    return u, rows(da) / n - np.outer(u, (2.0 / n) * x)


def reference_vertices(S, order):
    """Vertices of the diagonal eigenvalue polytope, one `lstsq` per support, in combination order."""
    n_eq, d = order + 1, S.twice + 1
    c = search._diag_constraint_rows(S, order)
    rhs = np.zeros(n_eq)
    rhs[-1] = 1.0
    verts = []
    for size in range(1, min(n_eq, d) + 1):
        for support in itertools.combinations(range(d), size):
            sub = c[:, support]
            sol, _, rank, _ = np.linalg.lstsq(sub, rhs, rcond=None)
            if rank < size or np.linalg.norm(sub @ sol - rhs) > 1e-10 or np.any(sol < -1e-12):
                continue
            v = np.zeros(d)
            v[list(support)] = np.clip(sol, 0.0, None)
            if not any(np.allclose(v, u, atol=1e-10) for u in verts):
                verts.append(v)
    return verts


def complement_vertices(S, order):
    """Vertices of the diagonal eigenvalue polytope in the orthonormal coordinates a of p = 1/d + sum_K a_K T_K0,
    K > order, each where d - order - 1 levels vanish; cheap only for an order near 2S."""
    d = S.twice + 1
    B = _basis_diagonal(S.twice, 0)[order + 1:]
    verts = {}
    for zeros in itertools.combinations(range(d), len(B)):
        M = B[:, zeros].T
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        p = 1 / d + B.T @ np.linalg.solve(M, np.full(len(B), -1 / d))
        if p.min() > -1e-10:
            p = np.where(p > 1e-10, p, 0.0)
            verts.setdefault(tuple(np.flatnonzero(p)), p)
    return np.array(list(verts.values()))


class TestProblemValidation:
    def test_bad_class(self):
        with pytest.raises(ValueError):
            SearchProblem(1, 1, constraint_class="weird")

    def test_bad_order(self):
        with pytest.raises(ValueError):
            SearchProblem(1, 3)
        with pytest.raises(ValueError):
            SearchProblem(1, 0)

    def test_pure_class_rejected_by_max_purity(self):
        with pytest.raises(ValueError):
            max_purity_unpolarized(SearchProblem(1, 1, constraint_class="pure"))


class TestInputContract:
    PSI = np.ones(3)  # spin 1: 2S + 1 = 3 amplitudes, 6 real coordinates
    X = np.concatenate([np.ones(3), np.zeros(3)])

    @pytest.mark.parametrize(
        "call",
        [
            lambda o: anticoherence_objective(TestInputContract.PSI, 1, o),
            lambda o: anticoherence_gradient(TestInputContract.X, 1, o),
        ],
        ids=["objective", "gradient"],
    )
    @pytest.mark.parametrize("order", [5, 3, 0, -1])
    def test_order_outside_one_to_two_s_is_refused(self, call, order):
        with pytest.raises(ValueError, match=re.escape(f"order must be an integer in [1, 2S] = [1, 2], got {order}")):
            call(order)

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.ones(5), re.escape("x must be a list of 6 entries, got array([1., 1., 1., 1., 1.])")),
            (np.ones((2, 3)), re.escape("x must be a list of 6 entries, got array([[1., 1., 1.],")),
            (np.array([1.0, math.nan, 0, 0, 0, 0]), re.escape("x[1] must be a finite number, got np.float64(nan)")),
            (np.array([1.0, 0, 0, 0, 0, -math.inf]), re.escape("x[5] must be a finite number, got np.float64(-inf)")),
            (np.ones(6, dtype=bool), re.escape("x[0] must be a finite number, got np.True_")),
            (np.ones(6, dtype=complex), re.escape("x[0] must be a finite number, got np.complex128(1+0j)")),
            (np.zeros(6), "^x must have a finite, nonzero norm, got 0.0$"),
            (np.full(6, 5e-324), "^x must have a norm of at least 2.2250738585072014e-308, got 1e-323$"),
            (np.full(6, 1e308), "^x must have a finite, nonzero norm, got inf$"),
        ],
        ids=["short", "matrix", "nan", "minus-inf", "bool-array", "complex-array", "zero", "norm-subnormal",
             "norm-overflows"],
    )
    def test_gradient_refuses_malformed_coordinates(self, x, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                anticoherence_gradient(x, 1, 1)

    @pytest.mark.parametrize("scale, norm", [(0.0, "0.0"), (1.5e308, "inf")], ids=["zero", "norm-overflows"])
    def test_objective_refuses_amplitudes_of_zero_or_overflowing_norm(self, scale, norm):
        # the objective once borrowed this check from pure_sector, naming "amplitude", not psi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^psi must have a finite, nonzero norm, got {norm}$"):
                anticoherence_objective(scale * TestInputContract.PSI, 1, 1)

    def test_amplitudes_whose_squares_overflow_are_read(self):
        # entries above about 1e154 overflow their squares, and their norm was refused as inf
        x = np.random.default_rng(7).standard_normal(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = anticoherence_objective(1e200 * (x[:3] + 1j * x[3:]), 1, 1)
            g = anticoherence_gradient(1e160 * x, 1, 1)
        assert big == pytest.approx(anticoherence_objective(x[:3] + 1j * x[3:], 1, 1), rel=1e-13)
        assert_allclose(1e160 * g, anticoherence_gradient(x, 1, 1), rtol=1e-13, atol=0)

    def test_amplitudes_whose_squares_underflow_are_read(self):
        # entries below about 1e-162 underflow their squares, and their norm was refused as 0.0
        x = np.random.default_rng(7).standard_normal(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small = anticoherence_objective(1e-170 * (x[:3] + 1j * x[3:]), 1, 1)
            g = anticoherence_gradient(1e-170 * x, 1, 1)
        assert small == pytest.approx(anticoherence_objective(x[:3] + 1j * x[3:], 1, 1), rel=1e-13)
        assert_allclose(g, 1e170 * anticoherence_gradient(x, 1, 1), rtol=1e-13, atol=0)


class TestProjector:
    # the test-side projection runs the library's `components`, then sums c_Kq T_Kq from `tensor_matrix`
    def test_kills_low_multipoles_and_fixes_trace(self):
        rng = np.random.default_rng(50)
        sec = random_sector(1.5, rng)
        out = project_multipole_free(sec.rho, 1.5, 2)
        assert abs(np.trace(out) - 1.0) < 1e-12
        for K in (1, 2):
            for q in range(-K, K + 1):
                assert abs(np.vdot(tensor_matrix(1.5, K, q), out)) < 1e-12
        # rank-3 components untouched
        spec = state_multipoles(sec)
        for q in range(-3, 4):
            assert abs(np.vdot(tensor_matrix(1.5, 3, q), out) - spec.component(3, q)) < 1e-12

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 6, 10])
    def test_idempotent_and_removes_exactly_ranks_through_order(self, twice_s):
        rng = np.random.default_rng(51 + twice_s)
        S = twice_s / 2
        for order in range(1, twice_s + 1):
            rho = random_sector(S, rng).rho
            out = project_multipole_free(rho, S, order)
            assert_allclose(project_multipole_free(out, S, order), out, atol=1e-14)
            before = state_multipoles(SpinSector(S, rho, validate=False))
            after = state_multipoles(SpinSector(S, out, validate=False))
            for (K, q), c in after.components.items():
                if K == 0:
                    assert abs(c - 1 / math.sqrt(twice_s + 1)) < 1e-14
                elif K <= order:
                    assert abs(c) < 1e-14
                else:
                    assert abs(c - before.component(K, q)) < 1e-14


class TestDiagonalSolver:
    def test_three_photon_first_order_bound(self):
        res = max_purity_unpolarized(SearchProblem(1.5, 1, constraint_class="diagonal"))
        assert abs(res.objective - 0.625) <= 2 * np.finfo(float).eps
        diag = np.sort(np.diag(res.state.rho).real)
        assert_allclose(diag, [0.0, 0.0, 0.25, 0.75], atol=1e-10)
        assert res.residual < 1e-12

    def test_three_photon_second_order_bound(self):
        res = max_purity_unpolarized(SearchProblem(1.5, 2, constraint_class="axial"))
        assert abs(res.objective - 7 / 18) <= 2 * np.finfo(float).eps
        diag = np.diag(res.state.rho).real
        target = np.array([1 / 3, 0.0, 0.5, 1 / 6])
        match = min(
            np.max(np.abs(diag - target)), np.max(np.abs(diag - target[::-1]))
        )
        assert match < 1e-10

    def test_two_photon_first_order_reaches_pure(self):
        res = max_purity_unpolarized(SearchProblem(1, 1, constraint_class="diagonal"))
        assert_allclose(res.objective, 1.0, atol=1e-12)  # diag(0, 1, 0) is feasible

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 4])
    def test_full_order_leaves_only_maximally_mixed(self, twice_s):
        res = max_purity_unpolarized(
            SearchProblem(twice_s / 2, twice_s, constraint_class="diagonal")
        )
        assert_allclose(res.objective, 1.0 / (twice_s + 1), atol=1e-12)

    @pytest.mark.parametrize(
        "twice_s,order",
        [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)],
    )
    def test_against_grid_zoom_oracle(self, twice_s, order):
        res = max_purity_unpolarized(
            SearchProblem(twice_s / 2, order, constraint_class="diagonal")
        )
        oracle = polytope_grid_oracle(twice_s, order)
        assert abs(res.objective - oracle) < 1e-6

    def test_refuses_too_many_supports_before_enumerating(self, monkeypatch):
        # 2S=20, K=6 has 116,280 eigenvalue supports of 7 levels
        def never(*args):
            raise AssertionError("the enumeration must not start")

        monkeypatch.setattr(search, "_diag_constraint_rows", never)
        expected = math.comb(21, 7)
        assert expected > search.DIAG_MAX_SUPPORTS
        with pytest.raises(ValueError, match=f"{expected} eigenvalue supports"):
            max_purity_unpolarized(SearchProblem(10, 6, constraint_class="diagonal"))

    def test_refuses_too_many_block_entries_before_enumerating(self, monkeypatch):
        # 2S=200, K=198: 20,100 supports, within the support limit, but 20,100 blocks of 199 x 199 (6.4 GB)
        def never(*args):
            raise AssertionError("the enumeration must not start")

        monkeypatch.setattr(search, "_diag_constraint_rows", never)
        count, entries = math.comb(201, 199), math.comb(201, 199) * 199**2
        assert count <= search.DIAG_MAX_SUPPORTS < search.MAX_ENTRIES < entries
        with pytest.raises(ValueError, match=f"{count} eigenvalue supports of 199 levels in {entries} block entries"):
            max_purity_unpolarized(SearchProblem(100, 198, constraint_class="diagonal"))

    @pytest.mark.parametrize("later_scale", [1.0, 1 + 2e-15])
    def test_mirror_image_optima_return_the_first_vertex(self, monkeypatch, later_scale):
        # 2S=9, K=1: diag(0.1 at m = 9/2, 0.9 at m = -1/2) and its mirror image tie, equal but for rounding,
        # and a later one larger by rounding does not displace the first
        verts = search._diag_vertices(half(4.5), 1)
        (later,) = np.flatnonzero(np.abs(verts - verts[0][::-1]).max(axis=1) < 1e-14)
        verts[later] *= later_scale
        monkeypatch.setattr(search, "_diag_vertices", lambda S, order: verts)
        res = max_purity_unpolarized(SearchProblem(4.5, 1, constraint_class="diagonal"))
        diag = np.diag(res.state.rho).real
        assert np.flatnonzero(diag > 1e-10).tolist() == [0, 5]
        assert_allclose(diag[[0, 5]], [0.1, 0.9], rtol=0, atol=1e-14)
        assert abs(res.objective - 0.82) <= 1e-14

    # all but (3, 1), (3, 2) and (10, 4) hold vertices on fewer than order + 1 levels, found padded with zeros
    @pytest.mark.parametrize("twice_s,order", [(3, 1), (3, 2), (4, 2), (7, 2), (8, 5), (10, 3), (10, 4), (12, 3),
                                               (14, 5), (16, 4)])
    def test_batched_vertices_match_per_support_reference(self, twice_s, order):
        S = half(twice_s / 2)
        got, expected = search._diag_vertices(S, order), reference_vertices(S, order)
        assert len(got) == len(expected) > 0
        assert_allclose(np.array(got), np.array(expected), rtol=0, atol=1e-14)

    # the blocks at these orders reach condition numbers near 1e13 (2S=40, K=38) and 1e19 (2S=100, K=99)
    @pytest.mark.parametrize("twice_s,order", [(20, 18), (30, 28), (40, 38), (100, 99), (125, 124)])
    def test_high_order_vertices_match_complement_reference(self, twice_s, order):
        S = half(twice_s / 2)
        got, expected = search._diag_vertices(S, order), complement_vertices(S, order)
        assert sorted(map(tuple, got > 0)) == sorted(map(tuple, expected > 0))
        got, expected = got[np.lexsort((got > 0).T)], expected[np.lexsort((expected > 0).T)]
        assert_allclose(got, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("twice_s,order,count", [(60, 2, 8161), (200, 1, 10001)])
    def test_large_spin_vertices_are_distinct_basic_solutions(self, twice_s, order, count):
        S = half(twice_s / 2)
        verts = search._diag_vertices(S, order)
        assert verts.shape == (count, twice_s + 1)
        assert verts.min() >= 0.0
        c = search._diag_constraint_rows(S, order)
        e = np.zeros(order + 1)
        e[-1] = 1.0
        assert np.abs(verts @ c.T - e).max() <= 1e-10
        support = verts > 0.0
        # distinct supports: two vertices differ at least by the smaller one's least entry
        assert len(np.unique(support, axis=0)) == count
        assert len(np.unique(verts, axis=0)) == count
        sizes = support.sum(axis=1)
        assert sizes.min() >= 1 and sizes.max() <= order + 1
        for size in np.unique(sizes):
            levels = np.nonzero(support[sizes == size])[1].reshape(-1, size)
            columns = c.T[levels].swapaxes(1, 2)  # [vertex, n_eq, size]
            assert np.all(np.linalg.matrix_rank(columns) == size)

    def test_result_revalidates_and_reclassifies(self):
        res = max_purity_unpolarized(SearchProblem(1.5, 2, constraint_class="axial"))
        assert validate(res.state).ok
        spec = state_multipoles(res.state)
        assert unpolarization_order(spec) >= 2


class TestGeneralSolver:
    def test_two_photon_first_order_reaches_purity_one(self):
        res = max_purity_unpolarized(
            SearchProblem(1, 1, constraint_class="general", restarts=8)
        )
        assert res.objective > 1.0 - 1e-6
        assert res.residual < 1e-8
        assert validate(res.state, tol=1e-7).ok

    def test_three_photon_second_order_beats_axial_bound(self):
        # the general class admits purity 1/2 (an equal mixture of two
        # orthogonal pure states with no dipole or quadrupole), above the
        # axially symmetric optimum 7/18; reported empirically
        res = max_purity_unpolarized(
            SearchProblem(1.5, 2, constraint_class="general", restarts=12)
        )
        assert res.objective > 7 / 18
        assert res.residual < 1e-8
        spec = state_multipoles(res.state)
        assert unpolarization_order(spec, 1e-8) >= 2

    @pytest.mark.parametrize("twice_s,order,restarts", [(2, 1, 4), (3, 2, 4), (6, 3, 2)])
    def test_every_restart_ends_on_the_constraint_set(self, twice_s, order, restarts):
        res = max_purity_unpolarized(SearchProblem(twice_s / 2, order, restarts=restarts))
        assert all(rec.residual <= 1e-24 for rec in res.history)
        assert res.residual <= 1e-24

    def test_two_photon_first_order_optimum_is_pure(self):
        res = max_purity_unpolarized(SearchProblem(1, 1, restarts=2, seed=0))
        assert abs(res.objective - 1.0) < 1e-9

    def test_ten_photon_fourth_order_optimum(self):
        # one restart from seed 0 reaches the rank-2 optimum 0.8528, in fewer than the 67 steps of halving alone
        res = max_purity_unpolarized(SearchProblem(5, 4, restarts=1, seed=0))
        assert abs(res.objective - 0.8528) < 1e-9
        assert res.stop_reasons["converged"] == 1
        assert res.history[0].iterations < 67

    def test_step_floor_still_ends_a_restart(self, monkeypatch):
        # with the first-order stop switched off, the step halves down to 1e-10, the safety net
        monkeypatch.setattr(search, "ASCENT_GTOL", 0.0)
        res = max_purity_unpolarized(SearchProblem(5, 4, restarts=1, seed=0))
        assert abs(res.objective - 0.8528) < 1e-9
        assert res.stop_reasons["converged"] == 1
        assert res.history[0].iterations < search.ASCENT_MAX_STEPS

    @pytest.mark.parametrize("twice_s,order,seed", [(2, 1, 1), (3, 2, 3), (6, 3, 1), (10, 4, 0)])
    def test_one_projection_per_accepted_point(self, monkeypatch, twice_s, order, seed):
        # a rejected step leaves the point as it was, so the tangent direction is not recomputed
        solves, retractions = [], []
        tangent, lm = search._tangent, search._levenberg_marquardt

        def counting_tangent(*args):
            solves.append(1)
            return tangent(*args)

        def recording_lm(*args, **kwargs):
            out = lm(*args, **kwargs)
            retractions.append(out[:2])
            return out

        monkeypatch.setattr(search, "_tangent", counting_tangent)
        monkeypatch.setattr(search, "_levenberg_marquardt", recording_lm)
        res = max_purity_unpolarized(SearchProblem(twice_s / 2, order, restarts=1, seed=seed))
        (rec,) = res.history
        assert rec.reason == "converged"
        assert len(retractions) == rec.iterations + 1
        # replay the acceptance rule: a step is taken when it lands on A_K = 0 with purity up by 1e-15
        best, accepted = None, 0
        for x, f in retractions:
            V = search._factor(x, twice_s + 1)
            rho = V @ V.conj().T
            p = float(np.vdot(rho, rho).real)
            if best is None:
                best = p
            elif f < 1e-24 and p > best + 1e-15:
                best, accepted = p, accepted + 1
        assert best == rec.objective
        assert 0 < accepted < rec.iterations
        assert len(solves) == accepted + 1

    @pytest.mark.parametrize("twice_s,order,seed", [(3, 1, 1), (6, 3, 2), (5, 4, 2)])
    def test_step_lengths_follow_the_two_point_rule(self, monkeypatch, twice_s, order, seed):
        # replay every trial step from the retractions and the projected gradients the ascent computed;
        # each case meets a secant of non-positive curvature, where the step is reset to the 1/2 cap
        gradients, retractions = [], []
        tangent, lm = search._tangent, search._levenberg_marquardt

        def recording_tangent(J, g):
            gradients.append(tangent(J, g))
            return gradients[-1]

        def recording_lm(x, *args, **kwargs):
            out = lm(x, *args, **kwargs)
            retractions.append((x, out[0], out[1]))
            return out

        monkeypatch.setattr(search, "_tangent", recording_tangent)
        monkeypatch.setattr(search, "_levenberg_marquardt", recording_lm)
        res = max_purity_unpolarized(SearchProblem(twice_s / 2, order, restarts=1, seed=seed))
        assert res.history[0].reason == "converged"

        def purity(x):
            V = search._factor(x, twice_s + 1)
            rho = V @ V.conj().T
            return float(np.vdot(rho, rho).real)

        x, g = retractions[0][1], gradients[0]
        best, step, k, capped = purity(x), 0.5, 0, set()
        for trial, y, fy in retractions[1:]:
            assert np.linalg.norm(trial - x) == pytest.approx(step, rel=1e-9, abs=1e-14)
            if not (fy < 1e-24 and purity(y) > best + 1e-15):
                step *= 0.5
                continue
            k += 1
            dx, dg = y - x, gradients[k] - g
            x, g, best = y, gradients[k], purity(y)
            curv = -float(dx @ dg)
            if curv > 0.0:
                step = min(np.linalg.norm(g) * float(dx @ dx) / curv, 0.5)
            else:
                step = 0.5
                capped.add(k)
        assert k == len(gradients) - 1
        assert capped - {k}  # the last accepted point converged and set no step

    def test_step_after_non_positive_curvature_is_the_cap(self):
        # 2S = 8, K = 4, seed 0, restart 2 meets -dx.dg <= 0 at most of its points: a step kept there
        # crept at 8.8e-4 until max-iter at purity 0.503474; reset to 1/2 it converges to the optimum
        res = max_purity_unpolarized(SearchProblem(4, 4, restarts=3, seed=0))
        rec = res.history[2]
        assert rec.reason == "converged" and rec.iterations < 100
        assert abs(rec.objective - res.objective) < 1e-9
        assert abs(res.objective - 0.506173) < 1e-6

    def test_search_through_a_nearly_rank_deficient_jacobian_reaches_a_pure_optimum(self, monkeypatch):
        # the optimum at 2S = 6, K = 3 is pure, where J loses rank: near it J J^T is singular to working
        # precision (an unshifted solve in it raises at restart 2), and the shift keeps the solve defined
        jacobians, tangent = [], search._tangent

        def recording_tangent(J, g):
            jacobians.append(J)
            return tangent(J, g)

        monkeypatch.setattr(search, "_tangent", recording_tangent)
        res = max_purity_unpolarized(SearchProblem(3, 3, restarts=3, seed=0))
        assert abs(res.objective - 1.0) < 1e-9
        assert res.stop_reasons["converged"] == 3
        sv = np.linalg.svd(jacobians[-1], compute_uv=False)
        assert sv[-1] < 1e-8 * sv[0]

    @pytest.mark.parametrize("twice_s,order", [(2, 1), (3, 2), (6, 3), (10, 4), (4, 4)])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_shifted_gram_projection_matches_the_svd_projection(self, twice_s, order, repeat):
        # on a full-rank J, and on one with an exactly repeated row, whose J J^T is singular
        rng = np.random.default_rng(twice_s + order)
        x = rng.standard_normal(2 * (twice_s + 1) * (order + 1))
        _, J = search._residual(x / np.linalg.norm(x), half(twice_s / 2), order, order + 1)
        if repeat:
            J = np.vstack([J, J[-1]])
        g = rng.standard_normal(J.shape[1])
        _, sv, Vt = np.linalg.svd(J, full_matrices=False)
        rows = Vt[sv > 1e-10 * sv[0]]
        assert len(rows) == len(J) - repeat
        assert np.linalg.norm(search._tangent(J, g) - (g - rows.T @ (rows @ g))) <= 1e-10 * np.linalg.norm(g)

    @pytest.mark.parametrize("twice_s,order,seed", [(2, 1, 0), (3, 2, 0), (6, 3, 1), (10, 4, 0)])
    def test_converged_restarts_meet_the_first_order_test(self, twice_s, order, seed):
        # the purity gradient at the returned factor, projected onto null(J) by an SVD of J
        problem = SearchProblem(twice_s / 2, order, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            V, p, f, _, reason = search._ascend_general(problem, search._ginibre(twice_s + 1, order + 1, rng))
            assert reason == "converged" and f < 1e-24
            _, J = search._residual(search._coords(V), problem.spin, order, order + 1)
            _, sv, Vt = np.linalg.svd(J, full_matrices=False)
            rows = Vt[sv > 1e-10 * sv[0]]
            rhoV = V @ (V.conj().T @ V)
            g = search._coords(rhoV - p * V)
            g -= rows.T @ (rows @ g)
            assert np.linalg.norm(g) <= search.ASCENT_GTOL * np.linalg.norm(rhoV)

    def test_general_search_and_objective_never_build_the_full_basis(self, monkeypatch):
        # a restart's A_K is its final retraction's |u|^2, and the objective is |u|^2 of the amplitudes
        def forbidden(twice):
            raise AssertionError(f"the full basis of 2S = {twice} was built")

        factors, ascend = [], search._ascend_general

        def recording_ascend(problem, V0):
            out = ascend(problem, V0)
            factors.append(out[0])
            return out

        psi = np.random.default_rng(5).standard_normal((2, 7)).T @ [1, 1j]
        monkeypatch.setattr(search, "_ascend_general", recording_ascend)
        monkeypatch.setattr(multipole, "_basis", forbidden)
        results = [max_purity_unpolarized(SearchProblem(twice_s / 2, order, restarts=3, seed=2))
                   for twice_s, order in [(2, 1), (3, 2), (6, 3), (9, 2)]]
        objective = anticoherence_objective(psi, 3, 3)
        monkeypatch.undo()
        assert len(factors) == 3 * len(results)
        for i, V in enumerate(factors):
            res = results[i // 3]
            a_k = state_multipoles(SpinSector(res.problem.spin, V @ V.conj().T)).cumulative_all[res.problem.order - 1]
            assert abs(res.history[i % 3].residual - a_k) <= 1e-20
        for res in results:
            a_k = state_multipoles(res.state).cumulative_all[res.problem.order - 1]
            assert res.residual <= 1e-24 and abs(res.residual - a_k) <= 1e-20
        assert_allclose(objective, state_multipoles(pure_sector(3, psi)).cumulative_all[2], rtol=1e-13)

    def test_start_that_cannot_be_retracted_is_no_candidate(self, monkeypatch):
        # with no retraction iterations no start reaches A_K = 0: every restart
        # stalls and the result falls back to the maximally mixed state
        monkeypatch.setattr(search, "RETRACT_MAX_ITER", 0)
        res = max_purity_unpolarized(SearchProblem(1, 1, restarts=3))
        assert [(rec.reason, rec.iterations) for rec in res.history] == [("stalled", 0)] * 3
        assert all(rec.objective > 1 / 3 and rec.residual > 1e-24 for rec in res.history)
        assert np.array_equal(res.state.rho, np.eye(3) / 3)
        assert res.objective == 1 / 3

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_best_restart_does_not_move_with_the_last_bit(self, monkeypatch, nudge):
        # restart 1 sits 1e-15 above restart 0, give or take 1 ulp: both are within a relative 1e-12 of the
        # best, so the first is returned every time; the stalled restart 2, though higher, is no candidate
        top = 0.5 + 1e-15
        outcomes = iter([(0.5, "converged"), (top + nudge * math.ulp(top), "converged"), (0.9, "stalled")])
        factors = []

        def ascend(problem, V0):
            factors.append(V0 / np.linalg.norm(V0))
            p, reason = next(outcomes)
            return factors[-1], p, 0.0, 1, reason

        monkeypatch.setattr(search, "_ascend_general", ascend)
        res = max_purity_unpolarized(SearchProblem(1, 1, restarts=3))
        assert res.objective == 0.5
        assert np.array_equal(res.state.rho, factors[0] @ factors[0].conj().T)

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_maximally_mixed_state_wins_a_tie(self, monkeypatch, nudge):
        monkeypatch.setattr(search, "_ascend_general",
                            lambda problem, V0: (V0, 1 / 3 + nudge * math.ulp(1 / 3), 0.0, 1, "converged"))
        res = max_purity_unpolarized(SearchProblem(1, 1, restarts=2))
        assert np.array_equal(res.state.rho, np.eye(3) / 3)
        assert (res.objective, res.residual) == (1 / 3, 0.0)

    def test_restart_determinism(self):
        a = max_purity_unpolarized(SearchProblem(1, 1, constraint_class="general", restarts=6, seed=3))
        b = max_purity_unpolarized(SearchProblem(1, 1, constraint_class="general", restarts=6, seed=3))
        assert a.digest == b.digest
        assert a.objective == b.objective
        assert np.array_equal(a.state.rho, b.state.rho)


class TestPureSearch:
    def test_two_photon_anticoherent_family(self):
        res = pure_anticoherent_search(1, 1, restarts=8)
        assert res.is_anticoherent and res.objective < 1e-10
        spec = state_multipoles(res.state)
        assert_allclose(spec.strengths[2], 2 / 3, atol=1e-9)

    def test_three_photon_first_order_exists(self):
        res = pure_anticoherent_search(1.5, 1, restarts=8)
        assert res.objective < 1e-10

    def test_single_photon_has_no_anticoherent_state(self):
        res = pure_anticoherent_search(0.5, 1, restarts=8)
        assert not res.is_anticoherent
        assert_allclose(res.objective, 0.5, atol=1e-9)

    def test_spin_one_no_second_order_pure(self):
        # two Majorana stars cannot isotropize the quadrupole
        res = pure_anticoherent_search(1, 2, restarts=12)
        assert res.objective > 1e-3

    def test_two_anticoherent_exists_at_spin_two(self):
        res = pure_anticoherent_search(2, 2, restarts=12)
        assert res.objective < 1e-10

    def test_twelve_photon_third_order_converges_in_a_few_steps(self):
        res = pure_anticoherent_search(6, 3, restarts=2, seed=0)
        assert [rec.reason for rec in res.history] == ["converged"] * 2
        assert all(rec.iterations <= 20 for rec in res.history)
        assert res.objective < 1e-24

    def test_spin_half_stops_at_iteration_zero(self):
        # A_1 is 1/2 on every pure spin-1/2 state, so its gradient vanishes at the start
        res = pure_anticoherent_search(0.5, 1, restarts=4, seed=0)
        assert [(rec.reason, rec.iterations) for rec in res.history] == [("converged", 0)] * 4

    def test_determinism(self):
        a = pure_anticoherent_search(1.5, 1, restarts=5, seed=9)
        b = pure_anticoherent_search(1.5, 1, restarts=5, seed=9)
        assert a.digest == b.digest

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_best_restart_does_not_move_with_the_last_bit(self, monkeypatch, nudge):
        # restart 1 reaches the A_2 of restart 0 give or take 1 ulp: the first within a relative 1e-12 is returned
        values, found = iter([0.25, 0.25 + nudge * math.ulp(0.25), 0.5]), []

        def descend(x, S, order, rank, max_iter, gtol, mu=1e-3):
            found.append(x / np.linalg.norm(x))
            return found[-1], next(values), None, 1, "stalled"

        monkeypatch.setattr(search, "_levenberg_marquardt", descend)
        res = pure_anticoherent_search(1.5, 2, restarts=3)
        assert (res.objective, res.residual) == (0.25, 0.25)
        assert np.array_equal(res.state.rho, pure_sector(1.5, search._factor(found[0], 4)[:, 0]).rho)

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 4, 5, 6])
    def test_gradient_matches_finite_differences(self, twice_s):
        rng = np.random.default_rng(60 + twice_s)
        d = twice_s + 1
        order = max(1, twice_s // 2)
        for _ in range(10):
            x = rng.standard_normal(2 * d)
            x /= np.linalg.norm(x)
            g = anticoherence_gradient(x, twice_s / 2, order)
            h = 1e-5
            fd = np.empty_like(g)
            for i in range(2 * d):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fp = anticoherence_objective(xp[:d] + 1j * xp[d:], twice_s / 2, order)
                fm = anticoherence_objective(xm[:d] + 1j * xm[d:], twice_s / 2, order)
                fd[i] = (fp - fm) / (2 * h)
            # floor the denominator: central differences carry ~1e-11 absolute
            # noise, and the S=1/2 order-1 objective is exactly constant
            denom = max(np.linalg.norm(g), np.linalg.norm(fd), 1e-4)
            assert np.linalg.norm(g - fd) / denom < 1e-6


class TestLevenbergMarquardtCore:
    @pytest.mark.parametrize("rank", ["1", "2", "K+1"])
    @pytest.mark.parametrize("twice_s,order", [(1, 1), (3, 2), (6, 3), (10, 4)])
    def test_jacobian_matches_finite_differences(self, twice_s, order, rank):
        S = half(twice_s / 2)
        r = {"1": 1, "2": 2, "K+1": order + 1}[rank]
        rng = np.random.default_rng(80 + twice_s)
        for _ in range(5):
            x = rng.standard_normal(2 * (twice_s + 1) * r)
            x /= np.linalg.norm(x)
            _, J = search._residual(x, S, order, r)
            h = 1e-5
            fd = np.empty_like(J)
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                up = search._residual(xp, S, order, r)[0]
                fd[:, i] = (up - search._residual(xm, S, order, r)[0]) / (2 * h)
            # the floor and tolerance of test_gradient_matches_finite_differences
            denom = max(np.linalg.norm(J), np.linalg.norm(fd), 1e-4)
            assert np.linalg.norm(J - fd) / denom < 1e-6

    @pytest.mark.parametrize("twice_s,order,r", [(1, 1, 1), (4, 2, 1), (6, 3, 4), (10, 10, 3)])
    def test_residual_rows_square_to_a_k(self, twice_s, order, r):
        rng = np.random.default_rng(90 + twice_s)
        V = rng.standard_normal((twice_s + 1, r)) + 1j * rng.standard_normal((twice_s + 1, r))
        x = np.concatenate([V.real.ravel(), V.imag.ravel()])
        u = search._residual(x, half(twice_s / 2), order, r)[0]
        assert u.shape == ((order + 1) ** 2 - 1,)
        rho = SpinSector(twice_s / 2, V @ V.conj().T / np.vdot(V, V).real)
        assert abs(u @ u - state_multipoles(rho).cumulative_all[order - 1]) < 1e-15

    @pytest.mark.parametrize(
        "twice_s,order,rank",
        [(t, K, r) for t, K in [(1, 1), (3, 2), (6, 3), (10, 4), (40, 10)] for r in sorted({1, 2, K + 1})]
        + [(200, 3, 1)],
    )
    def test_matches_complex_gather_reference(self, twice_s, order, rank):
        S = half(twice_s / 2)
        rng = np.random.default_rng(70 + twice_s + rank)
        for scale in (1.0, 1e-3, 30.0):
            x = scale * rng.standard_normal(2 * (twice_s + 1) * rank) / math.sqrt(2 * (twice_s + 1) * rank)
            u, J = search._residual(x, S, order, rank)
            u_ref, J_ref = reference_residual(x, S, order, rank)
            assert J.shape == J_ref.shape == ((order + 1) ** 2 - 1, x.size)
            # u is scale-free and J falls as 1/|x|: compare both at unit norm
            assert_allclose(u, u_ref, rtol=0, atol=1e-15)
            assert_allclose(J * scale, J_ref * scale, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("twice_s,order", [(3, 2), (10, 4), (12, 12)])
    def test_reference_blocks_are_the_basis_blocks(self, twice_s, order):
        C = _basis(twice_s)[0][twice_s - order:twice_s + order + 1]
        assert np.array_equal(basis_blocks(twice_s, order), C)

    def test_jacobian_peak_memory_is_bounded_by_its_size(self):
        # pure 2S = 40, K = 10: J is 120 x 82; the cached plan is built outside the measurement
        S, order = half(20), 10
        x = np.random.default_rng(75).standard_normal(2 * 41)
        search._residual(x, S, order, 1)
        tracemalloc.start()
        try:
            _, J = search._residual(x, S, order, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * J.nbytes

    def test_refuses_an_oversized_jacobian_before_building_it(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the Jacobian must not be built")

        monkeypatch.setattr(search, "_residual", never)
        rows = 200 * 202  # (K+1)^2 - 1 residual rows at 2S = K = 200
        general, pure = rows * 2 * 201 * 201, rows * 2 * 201
        assert min(general, pure) > search.MAX_ENTRIES
        with pytest.raises(ValueError, match=f"Jacobian of {general} entries"):
            max_purity_unpolarized(SearchProblem(100, 200, restarts=1))
        with pytest.raises(ValueError, match=f"Jacobian of {pure} entries"):
            pure_anticoherent_search(100, 200, restarts=1)


class TestStopReasons:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_pure_descent_stalls_at_the_three_photon_minimum(self, seed):
        # no pure three-photon state is second-order unpolarized: min A_2 = 1/4
        res = pure_anticoherent_search(1.5, 2, restarts=1, seed=seed)
        (rec,) = res.history
        assert rec.reason == "stalled"
        assert rec.iterations < 200
        assert abs(res.objective - 0.25) < 1e-12

    def test_stall_test_never_cuts_a_converging_descent(self):
        res = pure_anticoherent_search(3, 3, restarts=4, seed=0)
        assert [rec.reason for rec in res.history] == ["converged"] * 4
        assert res.objective < 1e-24

    def test_pure_iteration_budget(self, monkeypatch):
        # both restarts need 5 or more iterations to converge (5 and 6)
        monkeypatch.setattr(search, "PURE_MAX_ITER", 3)
        res = pure_anticoherent_search(3, 3, restarts=2, seed=0)
        assert [(rec.reason, rec.iterations) for rec in res.history] == [("max-iter", 3)] * 2

    def test_general_step_budget(self, monkeypatch):
        # both restarts need 4 or more steps to converge (4 and 5)
        monkeypatch.setattr(search, "ASCENT_MAX_STEPS", 3)
        res = max_purity_unpolarized(SearchProblem(1, 1, restarts=2))
        assert [(rec.reason, rec.iterations) for rec in res.history] == [("max-iter", 3)] * 2

    def test_general_and_diagonal_restarts_converge(self):
        general = max_purity_unpolarized(SearchProblem(1, 1, restarts=2))
        diagonal = max_purity_unpolarized(SearchProblem(1.5, 1, constraint_class="diagonal"))
        for res in (general, diagonal):
            assert {rec.reason for rec in res.history} == {"converged"}
            assert res.stop_reasons == {"converged": len(res.history), "stalled": 0, "max-iter": 0}
            assert tuple(res.stop_reasons) == STOP_REASONS

    def test_reason_enters_the_digest(self):
        res = pure_anticoherent_search(1.5, 2, restarts=1, seed=0)
        (rec,) = res.history
        relabelled = dataclasses.replace(rec, reason="max-iter")
        assert search._digest((relabelled,)) != res.digest


class TestScans:
    def test_two_photon_closed_forms(self):
        rows = scan_two_photon_family([0.0, 1 / 3, 0.5])
        lam0, lam13, lam12 = rows
        assert_allclose((lam0.purity, lam0.p2), (1.0, 1.0), atol=1e-12)
        assert_allclose((lam13.purity, lam13.p2), (1 / 3, 0.0), atol=1e-12)
        assert_allclose((lam12.purity, lam12.p2), (0.5, 0.5), atol=1e-12)
        for r in rows:
            assert_allclose(r.purity, 6 * r.lam**2 - 4 * r.lam + 1, atol=1e-12)
            assert_allclose(r.p2, abs(3 * r.lam - 1), atol=1e-12)
            assert_allclose(r.p2, math.sqrt((3 * r.purity - 1) / 2), atol=1e-12)

    def test_two_photon_rejects_outside_positivity(self):
        with pytest.raises(ValueError):
            scan_two_photon_family([0.6])

    def test_three_photon_first_order_family(self):
        rows = scan_three_photon_family(
            "first-order", [(0.5, 1 / 6), (0.25, 0.25), (0.0, 0.25), (0.9, 0.9)]
        )
        fig4_right, mixed, fig4_left, bad = rows
        assert_allclose(fig4_right.purity, 7 / 18, atol=1e-12)
        assert_allclose(mixed.purity, 0.25, atol=1e-12)
        assert_allclose(fig4_left.purity, 5 / 8, atol=1e-12)
        assert not bad.feasible and bad.purity is None
        for r in rows:
            if not r.feasible:
                continue
            assert r.a1 < 1e-12
            quad = 0.25 + 1.25 * (2 * r.lam3 + 2 * r.lam4 - 1) ** 2 + (r.lam3 + 3 * r.lam4 - 1) ** 2
            assert_allclose(r.purity, quad, atol=1e-12)

    def test_three_photon_second_order_family(self):
        lam4s = np.linspace(1 / 6, 1 / 3, 21)
        rows = scan_three_photon_family("second-order", lam4s)
        assert all(r.feasible for r in rows)
        assert all(r.a1 < 1e-12 and r.a2 < 1e-12 for r in rows)
        purities = [r.purity for r in rows]
        assert_allclose(max(purities), 7 / 18, atol=1e-12)
        assert_allclose(min(purities), 0.25, atol=1e-3)  # interior dips to 1/4 at lam4 = 1/4

    def test_three_photon_kind_validated(self):
        with pytest.raises(ValueError):
            scan_three_photon_family("zeroth-order", [0.2])

    def test_two_photon_matches_per_point_reference(self):
        lams = np.linspace(0.0, 0.5, 101)
        rows = scan_two_photon_family(lams)
        assert [r.lam for r in rows] == lams.tolist()
        got = [(r.purity, r.p2) for r in rows]
        assert_allclose(got, per_point_two_photon(lams.tolist()), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", ["first-order", "second-order"])
    def test_three_photon_matches_per_point_reference(self, kind):
        # the CLI's grids: 101 x 101 (lam3, lam4), lam3-major, and 101 lam4 values
        if kind == "first-order":
            grid = [(l3, l4) for l3 in np.linspace(0.0, 1.0, 101) for l4 in np.linspace(0.0, 0.5, 101)]
            points = grid
        else:
            grid = np.linspace(1 / 6, 1 / 3, 101)
            points = [(1.0 - 3.0 * l4, l4) for l4 in grid.tolist()]
        rows = scan_three_photon_family(kind, grid)
        expected = per_point_three_photon(points)
        assert [(r.lam3, r.lam4) for r in rows] == points
        assert [r.feasible for r in rows] == [e is not None for e in expected]
        assert any(r.feasible for r in rows)
        for r, e in zip(rows, expected):
            if e is None:
                assert (r.purity, r.a1, r.a2, r.a3) == (None,) * 4
            else:
                assert_allclose((r.purity, r.a1, r.a2, r.a3), e, rtol=0, atol=1e-15)

    def test_three_photon_rows_hold_plain_floats(self):
        for kind, grid in (("first-order", np.array([[0.5, 1 / 6], [0.9, 0.9]])), ("second-order", [0.25])):
            r, *rest = scan_three_photon_family(kind, grid)
            for value in (r.lam3, r.lam4, r.purity, r.a1, r.a2, r.a3):
                assert type(value) is float
            assert type(r.feasible) is bool
            for bad in rest:  # an infeasible point
                assert [type(v) for v in bad] == [float, float, bool] + [type(None)] * 4
        (r,) = scan_two_photon_family(np.array([0.25]))
        assert all(type(v) is float for v in (r.lam, r.purity, r.p2))

    def test_rows_are_immutable_named_tuples(self):
        (two,) = scan_two_photon_family([0.25])
        first, bad = scan_three_photon_family("first-order", [(0.5, 1 / 6), (0.9, 0.9)])
        (second,) = scan_three_photon_family("second-order", [0.25])
        assert type(two) is search.TwoPhotonRow and type(first) is type(bad) is search.ThreePhotonRow
        assert search.TwoPhotonRow._fields == ("lam", "purity", "p2")
        assert search.ThreePhotonRow._fields == ("lam3", "lam4", "feasible", "purity", "a1", "a2", "a3")
        assert tuple(two) == (two.lam, two.purity, two.p2)
        for r in (first, bad, second):
            assert tuple(r) == (r.lam3, r.lam4, r.feasible, r.purity, r.a1, r.a2, r.a3)
            assert r == tuple(r) and hash(r) == hash(tuple(r))
        assert tuple(bad) == (0.9, 0.9, False, None, None, None, None)
        for r, field in ((two, "p2"), (first, "purity"), (bad, "feasible"), (second, "a2")):
            with pytest.raises(AttributeError):
                setattr(r, field, 0.0)

    @pytest.mark.parametrize(
        "kind, point, message",
        [
            ("first-order", (math.nan, 0.25), "grid[{i}][0] must be a finite number, got nan"),
            ("first-order", (0.25, math.inf), "grid[{i}][1] must be a finite number, got inf"),
            ("first-order", (-math.inf, 0.25), "grid[{i}][0] must be a finite number, got -inf"),
            ("first-order", (0.5,), "grid[{i}] must be a list of 2 entries, got (0.5,)"),
            ("first-order", (0.5, 1 / 6, 9),
             "grid[{i}] must be a list of 2 entries, got (0.5, 0.16666666666666666, 9)"),
            ("second-order", math.nan, "grid[{i}] must be a finite number, got nan"),
            ("second-order", -math.inf, "grid[{i}] must be a finite number, got -inf"),
            ("second-order", (0.2, 0.25), "grid[{i}] must be a finite number, got (0.2, 0.25)"),
        ],
        ids=["nan", "inf-lam4", "minus-inf-lam3", "one-entry", "three-entries",
             "second-nan", "second-minus-inf", "second-pair"],
    )
    def test_three_photon_refuses_bad_points(self, kind, point, message):
        good = (0.25, 0.25) if kind == "first-order" else 0.25
        for grid in ([good, point], [point]):
            with pytest.raises(ValueError, match=f"^{re.escape(message.format(i=len(grid) - 1))}$"):
                scan_three_photon_family(kind, grid)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: scan_two_photon_family(0.25), "lams must be a list, got 0.25"),
            (lambda: scan_two_photon_family(x for x in (0.1, 0.2)), "lams must be a list, got <generator"),
            (lambda: scan_two_photon_family("0.25"), "lams must be a list, got '0.25'"),
            (lambda: scan_three_photon_family("first-order", 0.3), "grid must be a list, got 0.3"),
            (lambda: scan_three_photon_family("second-order", np.array(0.25)), "grid must be a list, got array(0.25)"),
            (lambda: scan_three_photon_family("second-order", ["x"]), "grid[0] must be a finite number, got 'x'"),
            (lambda: scan_two_photon_family([0.1, "y"]), "lams[1] must be a finite number, got 'y'"),
            (lambda: scan_three_photon_family("first-order", [(0.25, 0.25), (0.1, "z")]),
             "grid[1][1] must be a finite number, got 'z'"),
        ],
        ids=["float", "generator", "string", "first-order-float", "0-d-array",
             "second-string-point", "two-photon-string-point", "first-string-entry"],
    )
    def test_grid_that_is_no_sequence_or_point_that_is_no_number_is_named(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_two_photon_refuses_non_finite_points(self):
        with pytest.raises(ValueError, match=re.escape("lams[1] must be a finite number, got nan")):
            scan_two_photon_family([0.25, math.nan])

    def test_three_photon_point_past_float_range_is_infeasible(self):
        # finite coordinates whose eigenvalues overflow: flagged, not refused, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (r,) = scan_three_photon_family("first-order", [(1.7e308, -1.7e308)])
        assert not r.feasible and r.purity is None

    def test_empty_grids_give_no_rows(self):
        for scan in (scan_three_photon_family("first-order", []), scan_three_photon_family("second-order", []),
                     scan_two_photon_family([])):
            assert list(scan) == [] and len(scan) == 0


# the grids of the CLI and of the benchmark's analysis workload
FIRST_ORDER_GRID = [(l3, l4) for l3 in np.linspace(0.0, 1.0, 101) for l4 in np.linspace(0.0, 0.5, 101)]


class TestFamilyScanColumns:
    SCANS = {
        "two-photon": lambda: scan_two_photon_family(np.linspace(0.0, 0.5, 11)),
        "first-order": lambda: scan_three_photon_family("first-order", [(0.5, 1 / 6), (0.9, 0.9), (0.0, 0.25)]),
        "second-order": lambda: scan_three_photon_family("second-order", [0.25, 0.5, 1 / 6]),
    }

    @pytest.mark.parametrize("family", sorted(SCANS))
    def test_column_contract(self, family):
        scan = self.SCANS[family]()
        assert type(scan) is search.FamilyScan
        names = ("lam", "purity", "p2") if family == "two-photon" else (
            "lam3", "lam4", "feasible", "purity", "a1", "a2", "a3")
        assert scan.row._fields == names
        assert len(scan) == (11 if family == "two-photon" else 3)
        for name in names:
            column = getattr(scan, name)
            assert type(column) is np.ndarray and column.shape == (len(scan),)
            assert column.dtype == (bool if name == "feasible" else np.float64)
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
            with pytest.raises(AttributeError, match="read-only"):
                setattr(scan, name, column)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(scan, name)
        feasible = getattr(scan, "feasible", np.ones(len(scan), dtype=bool))
        assert family == "two-photon" or 0 < feasible.sum() < len(scan)
        for name in set(names) - {"feasible"}:
            gaps = ~feasible if name in ("purity", "a1", "a2", "a3") else np.zeros(len(scan), dtype=bool)
            assert (np.isnan(getattr(scan, name)) == gaps).all(), name

    def test_columns_never_alias_the_grid(self):
        lams, grid = np.array([0.1, 0.2]), np.array([[0.5, 1 / 6], [0.25, 0.25]])
        two, first = scan_two_photon_family(lams), scan_three_photon_family("first-order", grid)
        lams[:], grid[:] = 0.0, 0.0
        assert two.lam.tolist() == [0.1, 0.2] and first.lam3.tolist() == [0.5, 0.25]

    @pytest.mark.parametrize(
        "kind, grid",
        [("two-photon", np.linspace(0.0, 0.5, 101)),
         ("two-photon", [0.0, 0.25, 1 / 3, 0.5]),
         ("first-order", FIRST_ORDER_GRID),
         ("first-order", np.array(FIRST_ORDER_GRID)),
         ("first-order", [(0.5, 1 / 6), (0.9, 0.9), (1.7e308, -1.7e308), (0, 1), (0.25, 0.25)]),
         ("second-order", np.linspace(1 / 6, 1 / 3, 101)),
         ("second-order", [0.25, 0.5, 1 / 6, 2]),
         ("second-order", range(2))],
        ids=["two-array", "two-list", "first-workload", "first-array", "first-mixed", "second-array",
             "second-mixed", "second-range"],
    )
    def test_rows_equal_the_row_list(self, kind, grid):
        if kind == "two-photon":
            scan, want = scan_two_photon_family(grid), row_list_two_photon(grid)
        else:
            scan, want = scan_three_photon_family(kind, grid), row_list_three_photon(kind, grid)
        assert typed(scan) == typed(want)
        assert typed(scan) == typed(want)  # each iteration makes the rows afresh

    @pytest.mark.parametrize("kind", ["float", "float64", "int"])
    def test_list_grid_is_read_like_asarray(self, kind):
        cast = {"float": float, "float64": np.float64, "int": int}[kind]
        values = range(-3, 4) if kind == "int" else np.linspace(-0.5, 1.5, 7).tolist() + [1e-310, 1 / 3]
        grid = [(cast(a), cast(b)) for a in values for b in values]
        got = _check_reals("grid", grid, (None, 2))
        want = np.asarray(grid, dtype=float)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_list_grid_whose_lengths_sum_to_two_pairs_is_refused(self):
        # np.fromiter with a count would read it as two pairs; TestScans'
        # test_three_photon_refuses_bad_points[three-entries] is the case where it would drop an entry
        with pytest.raises(ValueError, match=re.escape("grid[0] must be a list of 2 entries, got (0.5,)")):
            scan_three_photon_family("first-order", [(0.5,), (0.2, 0.3, 0.4)])


class TestDiagonalSolverPicksTheBestVertex:
    def test_best_vertex_is_not_the_first(self):
        # at 2S = 5, order 3 the first vertex has purity 0.288; the best, found later, 13/36
        res = max_purity_unpolarized(SearchProblem(2.5, 3, constraint_class="diagonal"))
        assert res.history[0].objective < 0.29
        assert_allclose(res.objective, 13 / 36, atol=1e-12)
        assert res.objective == max(rec.objective for rec in res.history)

    def test_no_vertex_is_infeasible(self, monkeypatch, capsys):
        # the maximally mixed point keeps the polytope of valid input non-empty, so it always has a vertex;
        # the guard is reached by removing every vertex
        monkeypatch.setattr(search, "_diag_vertices", lambda S, order: np.zeros((0, S.twice + 1)))
        with pytest.raises(search.InfeasibleError, match="^no feasible diagonal state at order 1 for spin 3/2$"):
            max_purity_unpolarized(SearchProblem(1.5, 1, constraint_class="diagonal"))
        from qpolar.cli import main

        capsys.readouterr()
        assert main(["search", "--two-s", "3", "--order", "1", "--class", "diagonal"]) == 3
        assert capsys.readouterr().err == "error: no feasible diagonal state at order 1 for spin 3/2\n"
