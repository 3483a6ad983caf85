"""Exact Clebsch-Gordan values, Wigner matrices, and their group properties."""

import ast
import itertools
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpolar import angmom, husimi, multipole, search, stokes
from qpolar.angmom import (
    EulerAngles,
    HalfInt,
    half,
    rotation_matrix,
    wigner_D,
    wigner_small_d,
)
from qpolar.multipole import coherent_cumulative_max, tensor_matrix
from qpolar.search import SearchProblem, anticoherence_objective
from qpolar.states import Direction, _points, coherent_amplitudes, maximally_mixed, random_angles
from qpolar.stokes import directional_moment, tomography_directions

from cg_reference import _cg_parts, clebsch_gordan
from shell_reference import m_range


def euler_from_matrix(r3: np.ndarray) -> EulerAngles:
    """z-y-z Euler angles of a 3x3 rotation (generic branch, sin(beta) != 0)."""
    beta = math.acos(min(1.0, max(-1.0, r3[2, 2])))
    alpha = math.atan2(r3[1, 2], r3[0, 2])
    gamma = math.atan2(r3[2, 1], -r3[2, 0])
    return EulerAngles(alpha, beta, gamma)


class TestHalfInt:
    def test_coercion(self):
        assert half(2).twice == 4
        assert half(1.5).twice == 3
        assert half(Fraction(5, 2)).twice == 5
        assert half(HalfInt(7)).twice == 7
        assert half(np.int64(3)).twice == 6
        assert half(np.float64(-2.5)).twice == -5
        assert half(10**400).twice == 2 * 10**400

    @pytest.mark.parametrize(
        "bad", [0.3, 1.2, Fraction(1, 3), "x", None, True, math.inf, -math.inf, math.nan, np.True_]
    )
    def test_rejects_non_half_integers(self, bad):
        with pytest.raises(ValueError):
            half(bad)

    def test_float_equality_and_hash(self):
        assert float(half(2.5)) == 2.5
        assert half(1.5) == 1.5 and half(2) == 2 and half(0.5) != half(-0.5)
        assert half(1.5) != "1.5" and hash(half(3)) == hash(HalfInt(6))

    def test_m_range_descends(self):
        assert [m.twice for m in m_range(1.5)] == [3, 1, -1, -3]


@pytest.mark.parametrize(
    "call",
    [
        lambda b: coherent_cumulative_max(1, b),
        lambda b: tensor_matrix(1, b, False),
        lambda b: tensor_matrix(1, 1, b),
        lambda b: directional_moment(maximally_mixed(1), Direction(0.3, 0.4), b),
        lambda b: SearchProblem(1, b),
        lambda b: SearchProblem(1, 1, restarts=b),
        lambda b: anticoherence_objective(np.ones(3), 1, b),
    ],
    ids=["rank", "tensor-rank", "tensor-component", "moment-order", "search-order", "restarts",
         "objective-order"],
)
def test_integer_arguments_refuse_bool(call):
    # bool subclasses int, so True would pass for 1 without the check
    with pytest.raises(ValueError, match="integer"):
        call(True)


def cg_float_oracle(j1, m1, j2, m2, J, M):
    """Independent floating-point Racah evaluation (plain float factorials)."""
    if m1 + m2 != M or not abs(j1 - j2) <= J <= j1 + j2:
        return 0.0
    fact = lambda x: float(math.factorial(round(x)))
    pref = math.sqrt(
        (2 * J + 1)
        * fact(j1 + j2 - J) * fact(j1 - j2 + J) * fact(-j1 + j2 + J)
        / fact(j1 + j2 + J + 1)
        * fact(J + M) * fact(J - M)
        * fact(j1 + m1) * fact(j1 - m1) * fact(j2 + m2) * fact(j2 - m2)
    )
    s = 0.0
    kmin = int(max(0, -(J - j2 + m1), -(J - j1 - m2)))
    kmax = int(min(j1 + j2 - J, j1 - m1, j2 + m2))
    for k in range(kmin, kmax + 1):
        s += (-1) ** k / (
            fact(k) * fact(j1 + j2 - J - k) * fact(j1 - m1 - k)
            * fact(j2 + m2 - k) * fact(J - j2 + m1 + k) * fact(J - j1 - m2 + k)
        )
    return pref * s


class TestClebschGordan:
    @pytest.mark.parametrize("tj,tm", [(1, 1), (2, 0), (3, -1), (5, 3)])
    def test_coupling_with_spin_zero_is_identity(self, tj, tm):
        c = clebsch_gordan(HalfInt(tj), HalfInt(tm), 0, 0, HalfInt(tj), HalfInt(tm))
        assert (c.sign, c.numerator, c.denominator) == (1, 1, 1)

    def test_two_spin_half_by_diagonalization(self):
        # couple two spin-1/2: diagonalize the total-spin Casimir on C^2 x C^2
        sz = np.diag([0.5, -0.5])
        sp = np.array([[0.0, 1.0], [0.0, 0.0]])
        sx, sy = 0.5 * (sp + sp.T), -0.5j * (sp - sp.T)
        eye = np.eye(2)
        tot = [np.kron(s, eye) + np.kron(eye, s) for s in (sx, sy, sz)]
        casimir = sum(s @ s for s in tot)
        vals, vecs = np.linalg.eigh(casimir)
        # J=1, M=0 eigenvector: eigenvalue 2 and Sz_total = 0
        sel = [
            i for i in range(4)
            if abs(vals[i] - 2.0) < 1e-12 and abs((vecs[:, i].conj() @ tot[2] @ vecs[:, i]).real) < 1e-12
        ]
        (i,) = sel
        v = vecs[:, i]
        v *= np.sign((v[1]).real)  # Condon-Shortley: <up,down|1,0> > 0
        # basis order |m1 m2>: (uu, ud, du, dd); coefficient of |ud> is the CG
        got = float(clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0))
        assert_allclose(got, v[1].real, atol=1e-12)
        assert_allclose(got, math.sqrt(0.5), atol=1e-15)

    def test_racah_closed_form_oracle_value(self):
        got = float(clebsch_gordan(1, 1, 2, 0, 1, 1))
        assert_allclose(got, math.sqrt(1 / 10), atol=1e-12)
        assert_allclose(got, cg_float_oracle(1, 1, 2, 0, 1, 1), atol=1e-12)

    def test_against_float_oracle_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            tj1, tj2 = rng.integers(0, 13, size=2)
            tJ = rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1)
            if (tj1 + tj2 + tJ) % 2:
                continue
            tm1 = rng.integers(-tj1, tj1 + 1)
            if (tj1 - tm1) % 2:
                continue
            tm2 = rng.integers(-tj2, tj2 + 1)
            if (tj2 - tm2) % 2:
                continue
            tM = tm1 + tm2
            if abs(tM) > tJ:
                continue
            exact = float(clebsch_gordan(*[HalfInt(t) for t in (tj1, tm1, tj2, tm2, tJ, tM)]))
            approx = cg_float_oracle(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, tJ / 2, tM / 2)
            assert_allclose(exact, approx, atol=1e-12)

    def test_selection_rules_return_zero(self):
        assert float(clebsch_gordan(1, 1, 1, -1, 1, 1)) == 0.0  # M != m1+m2
        assert float(clebsch_gordan(1, 0, 1, 0, 3, 0)) == 0.0  # triangle rule fails

    def test_malformed_half_integers_raise(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0.5, 0, 0, 1, 0.5)  # m parity violates j
        with pytest.raises(ValueError):
            clebsch_gordan(0.5, 1.5, 0, 0, 0.5, 1.5)  # |m| > j
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0, 0.5, 0.5, 1, 0.5)  # j1+j2+J is not an integer

    def test_orthogonality_exact_all_j_up_to_6(self):
        # CG = R*sqrt(F*G) with F shared by both factors at fixed (m1, m2):
        # column Gram sums are exactly rational, so delta_{JJ'} is checked
        # with no surd arithmetic at all.
        for tj1 in range(13):
            for tj2 in range(13):
                for tM in range(-(tj1 + tj2), tj1 + tj2 + 1, 2):
                    cols = {}
                    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                        if abs(tM) > tJ:
                            continue
                        col = {}
                        g_col = None
                        for tm1 in range(-tj1, tj1 + 1, 2):
                            tm2 = tM - tm1
                            if abs(tm2) > tj2:
                                continue
                            r, f, g = _cg_parts(tj1, tm1, tj2, tm2, tJ, tM)
                            col[tm1] = (r, f)
                            g_col = g
                        if col:
                            cols[tJ] = (col, g_col)
                    for tJ, (col, g) in cols.items():
                        norm = sum(r * r * Fraction(f) for r, f in col.values())
                        assert g * norm == 1, (tj1, tj2, tJ, tM)
                    for ta, tb in itertools.combinations(sorted(cols), 2):
                        ca, cb = cols[ta][0], cols[tb][0]
                        cross = sum(
                            ra * cb[tm][0] * fa
                            for tm, (ra, fa) in ca.items()
                            if tm in cb
                        )
                        assert cross == 0, (tj1, tj2, ta, tb, tM)


class TestWignerSmallD:
    @pytest.mark.parametrize("j", [0, 0.5, 1, 1.5, 3])
    def test_identity_at_zero(self, j):
        assert_allclose(wigner_small_d(j, 0.0), np.eye(half(j).twice + 1), atol=1e-15)

    def test_spin_half_closed_form(self):
        beta = 0.7
        expect = np.array([
            [math.cos(beta / 2), -math.sin(beta / 2)],
            [math.sin(beta / 2), math.cos(beta / 2)],
        ])
        assert_allclose(wigner_small_d(0.5, beta), expect, atol=1e-15)
        assert_allclose(wigner_small_d(0.5, math.pi / 2)[0, 0], math.sqrt(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("j", [0.5, 1, 2.5, 4, 40, 100])
    def test_orthogonality(self, j):
        rng = np.random.default_rng(11)
        for beta in rng.uniform(-6, 6, size=5):
            d = wigner_small_d(j, beta)
            assert_allclose(d @ d.T, np.eye(d.shape[0]), atol=1e-12)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 3, 6, 40, 100])
    def test_composition_in_beta(self, j):
        rng = np.random.default_rng(12)
        for _ in range(4):
            b1, b2 = rng.uniform(-3, 3, size=2)
            assert_allclose(
                wigner_small_d(j, b1 + b2),
                wigner_small_d(j, b1) @ wigner_small_d(j, b2),
                atol=1e-12,
            )

    @pytest.mark.parametrize("twice_j", [5, 40, 200])
    def test_highest_weight_column_binomial(self, twice_j):
        # d^j_{m,j}(beta) = sqrt(C(2j, j+m)) cos^(j+m) sin^(j-m) of beta/2, and the
        # coherent amplitudes along (beta, phi) are that column times exp(-i m phi)
        j, beta, phi = twice_j / 2, 1.3, 2.2
        d = wigner_small_d(j, beta)
        amps = coherent_amplitudes(j, beta, phi)
        ch, sh = math.cos(beta / 2), math.sin(beta / 2)
        for i, m in enumerate(m_range(j)):
            k = (twice_j + m.twice) // 2
            closed = math.sqrt(math.comb(twice_j, k)) * ch**k * sh ** (twice_j - k)
            assert_allclose(d[i, 0], closed, rtol=0, atol=1e-13)
            assert_allclose(amps[i], closed * np.exp(-1j * float(m) * phi), rtol=0, atol=1e-13)


def _callers(name: str) -> set[str]:
    """module.function of every qpolar function that calls `name`, as `name(...)` or `x.name(...)`."""
    found = set()
    for path in pathlib.Path(angmom.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(c, ast.Call) and name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
                    for c in ast.walk(fn)):
                found.add(f"{path.stem}.{fn.name}")
    return found


def test_one_product_forms_d_and_q_grids_call_no_su2_function():
    # the Jy eigenvectors are read by _d_column alone, and _fourier takes its d-columns from its caller
    assert _callers("_jy_eigen") == {"angmom._d_column"}
    for su2 in ("_jy_eigen", "_d_column", "wigner_small_d", "wigner_D", "coherent_amplitudes"):
        assert "husimi._fourier" not in _callers(su2)


class TestWignerD:
    def test_identity(self):
        assert_allclose(wigner_D(1.5, EulerAngles(0, 0, 0)), np.eye(4), atol=1e-15)

    def test_pure_gamma_is_diagonal_phase(self):
        gamma = 0.9
        got = wigner_D(0.5, EulerAngles(0, 0, gamma))
        expect = np.diag([np.exp(-1j * gamma / 2), np.exp(1j * gamma / 2)])
        assert_allclose(got, expect, atol=1e-15)

    @pytest.mark.parametrize("twice_j", [0, 1, 3, 10, 40, 120])
    def test_byte_equal_to_m_range_phases(self, twice_j):
        # the phases exp(-i m alpha), exp(-i m gamma) with m read from the HalfInt list, entry for entry
        j, ang = twice_j / 2, EulerAngles(0.3, 1.1, -2.7)
        ms = np.array([m.twice for m in m_range(j)]) / 2.0
        d = wigner_small_d(j, ang.beta)
        want = np.exp(-1j * ms[:, None] * ang.alpha) * d * np.exp(-1j * ms[None, :] * ang.gamma)
        assert wigner_D(j, ang).tobytes() == want.tobytes()

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2])
    def test_unitary(self, j):
        rng = np.random.default_rng(13)
        for _ in range(4):
            D = wigner_D(j, random_angles(rng))
            assert_allclose(D @ D.conj().T, np.eye(D.shape[0]), atol=1e-12)

    def test_group_composition_integer_spin(self):
        rng = np.random.default_rng(14)
        for _ in range(6):
            g1, g2 = random_angles(rng), random_angles(rng)
            g3 = euler_from_matrix(rotation_matrix(g1) @ rotation_matrix(g2))
            assert_allclose(
                wigner_D(1, g1) @ wigner_D(1, g2), wigner_D(1, g3), atol=1e-12
            )

    def test_group_composition_half_integer_up_to_sign(self):
        # SU(2) double cover: half-integer representations compose up to +-1
        rng = np.random.default_rng(15)
        for _ in range(6):
            g1, g2 = random_angles(rng), random_angles(rng)
            g3 = euler_from_matrix(rotation_matrix(g1) @ rotation_matrix(g2))
            prod = wigner_D(1.5, g1) @ wigner_D(1.5, g2)
            direct = wigner_D(1.5, g3)
            err = min(np.max(np.abs(prod - direct)), np.max(np.abs(prod + direct)))
            assert err < 1e-12

    @pytest.mark.parametrize("j", [1, 1.5, 2])
    def test_conjugation_rotates_spin_vector(self, j):
        # D S_i D^dagger = sum_k R_{ki} S_k: the spin matrices transform as a vector
        from qpolar.stokes import stokes_matrices

        rng = np.random.default_rng(16)
        s = stokes_matrices(j)
        ops = (s.sx, s.sy, s.sz)
        for _ in range(4):
            ang = random_angles(rng)
            D, R = wigner_D(j, ang), rotation_matrix(ang)
            for i in range(3):
                got = D @ ops[i] @ D.conj().T
                expect = sum(R[k, i] * ops[k] for k in range(3))
                assert_allclose(got, expect, atol=1e-10)


class TestRefusalsAndRepr:
    def test_halfint_needs_an_integer(self):
        with pytest.raises(ValueError, match=r"^twice must be an integer, got 1\.5$"):
            HalfInt(1.5)

    def test_halfint_repr_shows_the_value(self):
        assert repr(HalfInt(-2)) == "HalfInt(-1)" and repr(HalfInt(3)) == "HalfInt(3/2)"

    def test_non_finite_angles_are_refused(self):
        with pytest.raises(ValueError, match="^beta must be a finite number, got nan$"):
            wigner_small_d(1, math.nan)
        with pytest.raises(ValueError, match="^gamma must be a finite number, got inf$"):
            EulerAngles(0.1, 0.2, math.inf)


# every cached table: its module, builder, a key and its maxsize (None: one entry per spin, unbounded)
CACHED_TABLES = [
    (angmom, "_spin_arrays", (3,), None),
    (angmom, "_jy_eigen", (3,), None),
    (multipole, "_basis_diagonal", (4, 1), None),
    (multipole, "_basis", (4,), None),
    (multipole, "_coherent_maxima", (4,), None),
    (search, "_residual_plan", (4, 2), 32),
    (stokes, "_layout", (4, 3, _points(tomography_directions(7)).tobytes(), np.full(7, 3, np.intp).tobytes()), 8),
    (husimi, "_pair_index", (5,), 8),
    (husimi, "_grid_axes", (4, 16, 24), 8),  # the pair table is cached
    (husimi, "_grid_axes", (200, 64, 128), 8),  # the table is too large: None in its place
]


@pytest.mark.parametrize("module,name,key,maxsize", CACHED_TABLES,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}{k[:2]}" for m, n, k, _ in CACHED_TABLES])
def test_cached_tables_are_read_only_and_built_once(module, name, key, maxsize):
    build = getattr(module, name)
    first = build(*key)
    arrays = [a for a in (first if isinstance(first, tuple) else (first,)) if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    hits = build.cache_info().hits
    assert build(*key) is first
    assert build.cache_info().hits == hits + 1
    assert build.cache_info().maxsize == maxsize
