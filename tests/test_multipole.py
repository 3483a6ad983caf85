"""Tensor-operator basis, state multipoles, strengths, degrees, classification."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qpolar.catalog as catalog
from qpolar.angmom import half
from qpolar.multipole import (
    _basis,
    _coherent_maxima,
    analyze,
    coherent_cumulative_max,
    components,
    cumulative,
    degree,
    state_multipoles,
    strengths,
    tensor_matrix,
    unpolarization_order,
)
from qpolar.states import (
    Direction,
    diag_sector,
    fock_sector,
    maximally_mixed,
    random_angles,
    random_direction,
    random_sector,
    rotate,
    su2_coherent,
)
from qpolar.stokes import stokes_matrices

from cg_reference import clebsch_gordan, racah_basis
from shell_reference import m_range


def all_tensors(S):
    t = half(S).twice
    return [(K, q, tensor_matrix(S, K, q)) for K in range(t + 1) for q in range(-K, K + 1)]


def dense_tensor(twice_s, K, q):
    """T_Kq[m', m] = sqrt((2K+1)/(2S+1)) <S m, K q | S m'>, entry by entry."""
    S = half(twice_s / 2)
    ms = m_range(S)
    out = np.zeros((twice_s + 1, twice_s + 1))
    for col, m in enumerate(ms):
        for row, mp in enumerate(ms):
            if mp.twice == m.twice + 2 * q:  # the CG selection rule zeroes the rest
                out[row, col] = math.sqrt((2 * K + 1) / (twice_s + 1)) * float(
                    clebsch_gordan(S, m, K, q, S, mp)
                )
    return out


class TestTensorBasis:
    @pytest.mark.parametrize("twice_s", [*range(1, 13), 25])
    def test_matches_dense_clebsch_gordan_build(self, twice_s):
        for K, q, t in all_tensors(twice_s / 2):
            assert_allclose(t, dense_tensor(twice_s, K, q), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("twice_s", range(1, 13))
    def test_orthonormal_basis(self, twice_s):
        mats = np.stack([m for _, _, m in all_tensors(twice_s / 2)])
        flat = mats.reshape(len(mats), -1)
        gram = flat @ flat.conj().T
        assert_allclose(gram, np.eye(len(mats)), atol=1e-12)

    @pytest.mark.parametrize("twice_s", range(1, 13))
    def test_adjoint_pairing(self, twice_s):
        S = twice_s / 2
        for K in range(twice_s + 1):
            for q in range(-K, K + 1):
                lhs = tensor_matrix(S, K, q).conj().T
                rhs = (-1) ** q * tensor_matrix(S, K, -q)
                assert_allclose(lhs, rhs, atol=1e-12)

    def test_monopole_and_dipole_anchors(self):
        assert_allclose(tensor_matrix(1.5, 0, 0), np.eye(4) / 2, atol=1e-15)
        assert_allclose(
            np.diag(tensor_matrix(1, 1, 0)), [1 / math.sqrt(2), 0, -1 / math.sqrt(2)], atol=1e-15
        )
        assert_allclose(np.diag(tensor_matrix(1.5, 2, 0)), [0.5, -0.5, -0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("twice_s", [2, 3, 5, 8])
    def test_proportional_to_spin_polynomials(self, twice_s):
        # T_10 ~ Sz, T_20 ~ 3Sz^2 - S(S+1), T_2-+1 ~ {Sz, S+-}, T_2-+2 ~ S+-^2,
        # all with unit Hilbert-Schmidt norm
        S = twice_s / 2
        ops = stokes_matrices(S)
        sp = ops.sx + 1j * ops.sy
        sm = ops.sx - 1j * ops.sy
        sz = ops.sz
        casimir = S * (S + 1) * np.eye(twice_s + 1)
        candidates = {
            (1, 0): sz,
            (1, 1): sp,
            (1, -1): sm,
            (2, 0): 3 * sz @ sz - casimir,
            (2, 1): sz @ sp + sp @ sz,
            (2, -1): sz @ sm + sm @ sz,
            (2, 2): sp @ sp,
            (2, -2): sm @ sm,
        }
        for (K, q), raw in candidates.items():
            if K > twice_s:
                continue
            t = tensor_matrix(S, K, q)
            norm = np.linalg.norm(raw)
            # proportionality with |constant| fixed by unit HS norm
            ratio = np.vdot(raw / norm, t)
            assert_allclose(abs(ratio), 1.0, atol=1e-12)
            assert_allclose(t, ratio * raw / norm, atol=1e-12)
            assert_allclose(np.linalg.norm(t), 1.0, atol=1e-12)

    def test_quadrupole_constant_requires_extra_spin_factor(self):
        # the closed-form constant 30/[(2S+3)(2S+1)(2S-1)(S+1)] does not
        # HS-normalize the quadrupole: at S = 3/2 it gives norm^2 = 3/2;
        # dividing it by S fixes the normalization
        S = 1.5
        ops = stokes_matrices(S)
        raw = 3 * ops.sz @ ops.sz - S * (S + 1) * np.eye(4)
        c_closed = 30 / ((2 * S + 3) * (2 * S + 1) * (2 * S - 1) * (S + 1))
        t_closed = math.sqrt(c_closed / 6) * raw
        assert_allclose(np.vdot(t_closed, t_closed).real, 1.5, atol=1e-12)
        t_fixed = math.sqrt(c_closed / S / 6) * raw
        assert_allclose(np.vdot(t_fixed, t_fixed).real, 1.0, atol=1e-12)
        assert_allclose(t_fixed, tensor_matrix(S, 2, 0), atol=1e-12)

    def test_rank_component_range_errors(self):
        with pytest.raises(ValueError):
            tensor_matrix(1, 3, 0)
        with pytest.raises(ValueError):
            tensor_matrix(1, 2, 3)
        with pytest.raises(ValueError):
            tensor_matrix(1, -1, 0)

    @pytest.mark.parametrize("twice_s", [*range(13), 25, 40])
    def test_recurrence_is_bit_identical_to_racah_build(self, twice_s):
        assert _basis(twice_s)[0].tobytes() == racah_basis(twice_s).tobytes()

    def test_spin_sixty_basis(self):
        # 2S = 120, out of the Racah reference's reach: checked by its properties
        t = 120
        C = _basis(t)[0]
        for q in range(t + 1):
            block = C[t + q, q:, q:]  # rows K = q..2S of the q-th diagonal
            assert_allclose(block @ block.T, np.eye(t + 1 - q), rtol=0, atol=1e-13)
        sec = random_sector(t / 2, np.random.default_rng(120))
        assert_allclose(state_multipoles(sec).strengths.sum(), sec.purity(), rtol=0, atol=1e-13)
        coherent = state_multipoles(su2_coherent(t / 2, Direction(0.7, 1.9)))
        ceiling = [coherent_cumulative_max(t / 2, K) for K in range(1, t + 1)]
        assert_allclose(coherent.cumulative_all, ceiling, rtol=0, atol=1e-12)


class TestComponentsKernel:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_dense_traces_over_a_batch(self, dtype):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((2, 3, 4, 4)).astype(dtype)
        if dtype is complex:
            X += 1j * rng.standard_normal(X.shape)
        c = components(X, half(1.5), 2)
        assert c.shape == (2, 3, 3, 5) and c.dtype == X.dtype
        for K in range(3):
            for q in range(-2, 3):
                # Tr[X T_Kq^dagger] with T_Kq real; zero where |q| > K
                dense = np.einsum("...ij,ij->...", X, tensor_matrix(1.5, K, q)) if abs(q) <= K else 0.0
                assert_allclose(c[..., K, 2 + q], dense, rtol=0, atol=1e-14)

    def test_complex_matrix_never_copies_the_block(self):
        # the real block meets the (re, im) pairs of each entry; a complex copy of it would be twice its size
        t = 40
        S = half(t / 2)
        rho = random_sector(S, np.random.default_rng(26)).rho
        components(rho, S, t)  # the basis is built and cached outside the measurement
        tracemalloc.start()
        try:
            components(rho, S, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _basis(t)[0].nbytes / 4


class TestStateMultipoles:
    def test_reconstruction(self):
        rng = np.random.default_rng(21)
        for twice_s in (1, 2, 3, 6):
            sec = random_sector(twice_s / 2, rng)
            spec = state_multipoles(sec)
            rebuilt = sum(
                spec.component(K, q) * tensor_matrix(sec.spin, K, q)
                for K in range(twice_s + 1)
                for q in range(-K, K + 1)
            )
            assert_allclose(rebuilt, sec.rho, atol=1e-12)

    def test_hermiticity_pairing_of_components(self):
        rng = np.random.default_rng(22)
        spec = state_multipoles(random_sector(2, rng))
        for (K, q), c in spec.components.items():
            assert abs(spec.component(K, -q) - (-1) ** q * c.conjugate()) < 1e-10

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 4])
    def test_maximally_mixed_keeps_only_monopole(self, twice_s):
        spec = state_multipoles(maximally_mixed(twice_s / 2))
        assert_allclose(spec.strengths[0], 1 / (twice_s + 1), atol=1e-15)
        assert np.all(spec.strengths[1:] < 1e-28)
        assert spec.unpol_order == twice_s

    def test_two_photon_diagonal_family(self):
        for lam in (0.1, 0.45):
            spec = state_multipoles(diag_sector(1, [lam, 1 - 2 * lam, lam]))
            assert abs(spec.component(1, 0)) < 1e-15
            assert_allclose(spec.strengths[2], (3 * lam - 1) ** 2 * 2 / 3, atol=1e-14)
            assert_allclose(degree(spec, 2), abs(3 * lam - 1), atol=1e-12)

    def test_fock_three_half_dipole_value(self):
        spec = state_multipoles(fock_sector(1.5, 0.5))
        assert_allclose(spec.component(1, 0), 1 / (2 * math.sqrt(5)), atol=1e-14)

    def test_parseval_random_states(self):
        rng = np.random.default_rng(23)
        for twice_s in range(1, 13):
            for _ in range(60):
                sec = random_sector(twice_s / 2, rng)
                spec = state_multipoles(sec)
                assert abs(spec.strengths.sum() - sec.purity()) < 1e-10

    def test_rotation_invariance_of_scalars(self):
        rng = np.random.default_rng(24)
        for twice_s in (1, 2, 3, 6):
            sec = random_sector(twice_s / 2, rng)
            spec = state_multipoles(sec)
            for _ in range(5):
                rspec = state_multipoles(rotate(sec, random_angles(rng)))
                assert np.max(np.abs(spec.strengths - rspec.strengths)) < 1e-10
                assert np.max(np.abs(spec.cumulative_all - rspec.cumulative_all)) < 1e-10
                assert np.max(np.abs(spec.degrees_all - rspec.degrees_all)) < 1e-10
                assert spec.unpol_order == rspec.unpol_order


def eager_components(sector):
    """The component dict as `state_multipoles` built it before it kept the array."""
    t = sector.spin.twice
    rows = components(sector.rho, sector.spin, t).tolist()
    return {(K, q): rows[K][t + q] for K in range(t + 1) for q in range(-K, K + 1)}


class TestLazyComponents:
    """The spectrum keeps its coefficient array; the (K, q) dict is built on first read, then kept."""

    def test_no_dict_until_read(self):
        from qpolar.states import assemble

        rng = np.random.default_rng(23)
        state = assemble([(0.3, random_sector(1.5, rng)), (0.7, random_sector(5, rng))])
        spec = state_multipoles(state.entries[1][1])
        assert "components" not in vars(spec)
        shells = analyze(state).shells
        assert all("components" not in vars(shell.spectrum) for shell in shells)
        first = spec.components
        assert vars(spec)["components"] is first and spec.components is first
        assert [f.name for f in dataclasses.fields(spec)][:2] == ["spin", "coefficients"]
        assert "components" not in dataclasses.asdict(spec)

    @pytest.mark.parametrize("twice_s", range(41))
    def test_dict_equals_the_eager_one(self, twice_s):
        sec = random_sector(twice_s / 2, np.random.default_rng(900 + twice_s))
        spec = state_multipoles(sec)
        want = eager_components(sec)
        assert type(spec.components) is dict and repr(spec.components) == repr(want)
        assert all(type(K) is int and type(q) is int and type(c) is complex for (K, q), c in spec.components.items())
        assert spec.coefficients.shape == (twice_s + 1, 2 * twice_s + 1)
        assert spec.coefficients.tobytes() == components(sec.rho, sec.spin, twice_s).tobytes()
        assert not spec.coefficients.flags.writeable
        with pytest.raises(ValueError):
            spec.coefficients[0, twice_s] = 0.0
        with pytest.raises(KeyError):
            spec.component(0, 1)

    def test_multi_shell_dicts_equal_the_eager_ones(self):
        from qpolar.states import assemble

        rng = np.random.default_rng(24)
        sectors = [random_sector(0.5, rng), fock_sector(1.5, 0.5), random_sector(20, rng)]
        report = analyze(assemble([(w, s) for w, s in zip((0.2, 0.3, 0.5), sectors)]))
        for shell, sec in zip(report.shells, sectors):
            assert repr(shell.spectrum.components) == repr(eager_components(sec))
            assert not shell.spectrum.coefficients.flags.writeable


class TestCoherentMaxAndDegrees:
    def test_closed_form_values(self):
        assert_allclose(coherent_cumulative_max(1, 1), 0.5, atol=1e-15)
        assert_allclose(coherent_cumulative_max(1, 2), 2 / 3, atol=1e-15)
        assert_allclose(coherent_cumulative_max(1.5, 1), 9 / 20, atol=1e-15)

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 10, 40, 120, 200])
    def test_maxima_are_the_exact_fractions_rounded_once(self, twice_s):
        t, f = twice_s, math.factorial
        exact = [
            Fraction(t, t + 1) - (Fraction(f(t) ** 2, f(t - K - 1) * f(t + K + 1)) if K < t else 0)
            for K in range(1, t + 1)
        ]
        assert _coherent_maxima(t).tobytes() == np.array([float(a) for a in exact]).tobytes()

    def test_k_range_errors(self):
        with pytest.raises(ValueError):
            coherent_cumulative_max(1, 0)
        with pytest.raises(ValueError):
            coherent_cumulative_max(1, 3)

    @pytest.mark.parametrize("twice_s", range(1, 13))
    def test_matches_direct_coherent_cumulative(self, twice_s):
        rng = np.random.default_rng(twice_s)
        spec = state_multipoles(su2_coherent(twice_s / 2, random_direction(rng)))
        for K in range(1, twice_s + 1):
            assert abs(cumulative(spec, K) - coherent_cumulative_max(twice_s / 2, K)) < 1e-9

    def test_coherent_degrees_are_one(self):
        spec = state_multipoles(su2_coherent(2, Direction(0.9, 1.7)))
        for K in range(1, 5):
            assert_allclose(degree(spec, K), 1.0, atol=1e-9)

    def test_first_order_degree_is_bloch_length(self):
        spec = state_multipoles(fock_sector(0.5, 0.5))
        assert_allclose(degree(spec, 1), 1.0, atol=1e-12)

    def test_bound_audit_random_pure_states(self):
        # falsification attempt on the coherent maximality of A_K:
        # 10^4 Haar-random pure states per shell, S <= 25/2, contracted
        # through the batched multipole kernel 1,000 states at a time
        rng = np.random.default_rng(7)
        worst = -np.inf
        for twice_s in range(1, 26):
            S = half(twice_s / 2)
            d = twice_s + 1
            n = 10_000
            psi = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
            psi /= np.linalg.norm(psi, axis=0)
            ceiling = [coherent_cumulative_max(S, K) for K in range(1, twice_s + 1)]
            for chunk in np.split(psi, 10, axis=1):
                c = components(np.einsum("in,jn->nij", chunk, chunk.conj()), S, twice_s)[:, 1:]
                A = np.cumsum(np.sum(c.real ** 2 + c.imag ** 2, axis=-1), axis=-1)  # [state, K]
                worst = max(worst, float(np.max(A - ceiling)))
        assert worst <= 1e-8


class TestClassification:
    def test_maximally_mixed_spin2(self):
        assert state_multipoles(maximally_mixed(2)).unpol_order == 4

    def test_pole_superposition_is_first_order_only(self):
        spec = state_multipoles(catalog.three_photon_pole_superposition())
        assert spec.unpol_order == 1
        assert spec.strengths[1] < 1e-12 and spec.strengths[2] > 0.2

    def test_fig4_right_state_is_second_order(self):
        spec = state_multipoles(diag_sector(1.5, [1 / 3, 0, 0.5, 1 / 6]))
        assert spec.unpol_order == 2

    def test_order_tolerance_validated(self):
        spec = state_multipoles(maximally_mixed(1))
        with pytest.raises(ValueError):
            unpolarization_order(spec, tol=0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda s, tol: unpolarization_order(state_multipoles(s), tol),
            lambda s, tol: state_multipoles(s, tol=tol),
            lambda s, tol: analyze(s, tol=tol),
        ],
        ids=["unpolarization_order", "state_multipoles", "analyze"],
    )
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_tolerance_is_refused(self, call, tol):
        # tol = inf once called a coherent 2S = 3 state fully unpolarized, and nan gave order 0
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}"):
            call(su2_coherent(1.5, Direction(0.3, 1.1)), tol)

    def test_strengths_copy_and_cumulative_range(self):
        spec = state_multipoles(maximally_mixed(1))
        w = strengths(spec)
        w[0] = 99.0
        assert spec.strengths[0] != 99.0
        with pytest.raises(ValueError):
            cumulative(spec, 0)
        with pytest.raises(ValueError):
            cumulative(spec, 3)


class TestAxialProfile:
    # axial symmetry about z leaves only q = 0 multipoles; z-reversal symmetry kills every odd-K rho_K0
    @staticmethod
    def _residuals(sector):
        spec = state_multipoles(sector)
        off_axis = max(abs(c) for (K, q), c in spec.components.items() if q != 0)
        odd = max(abs(spec.component(K, 0)) for K in range(1, spec.max_rank + 1, 2))
        return off_axis, odd

    def test_diagonal_states_are_axial(self):
        off_axis, odd = self._residuals(diag_sector(1.5, [0.4, 0.3, 0.2, 0.1]))
        assert off_axis <= 1e-10 and odd > 1e-10

    def test_palindrome_is_even_rank_only(self):
        off_axis, odd = self._residuals(diag_sector(1.5, [0.5, 0, 0, 0.5]))
        assert off_axis <= 1e-10 and odd <= 1e-10

    def test_rotated_diagonal_loses_z_axiality(self):
        from qpolar.angmom import EulerAngles

        sec = rotate(diag_sector(1.5, [0.4, 0.3, 0.2, 0.1]), EulerAngles(0.0, math.pi / 3, 0.0))
        assert self._residuals(sec)[0] > 1e-10
        # rotation invariants unchanged: still unitarily equivalent to an axial state
        assert_allclose(
            state_multipoles(sec).strengths,
            state_multipoles(diag_sector(1.5, [0.4, 0.3, 0.2, 0.1])).strengths,
            atol=1e-12,
        )


class TestAnalyze:
    def test_single_shell_report(self):
        rep = analyze(diag_sector(1.5, [1 / 3, 0, 0.5, 1 / 6]))
        assert len(rep.shells) == 1
        assert rep.aggregate_order == 2
        assert_allclose(rep.block_purity, 7 / 18, atol=1e-14)

    def test_block_purity_is_the_bits_of_purity(self):
        from qpolar.states import assemble, purity

        rng = np.random.default_rng(34)
        state = assemble([(0.2, random_sector(0.5, rng)), (0.3, random_sector(1.5, rng)), (0.5, random_sector(4, rng))])
        for obj in (state, random_sector(2.5, rng)):
            rep = analyze(obj)
            by_shell = float(sum(shell.weight * shell.weight * shell.purity for shell in rep.shells))
            assert rep.block_purity.hex() == purity(obj).hex() == by_shell.hex()

    def test_multi_shell_aggregate(self):
        from qpolar.states import assemble

        state = assemble([
            (0.5, maximally_mixed(0.5)),
            (0.5, catalog.three_photon_pole_superposition()),
        ])
        rep = analyze(state)
        assert rep.aggregate_order == 1
        # aggregate A_2 = 0.5 * A_2(shell 3/2) since the S=1/2 shell saturates at 0
        assert_allclose(rep.aggregate_cumulative[1], 0.5 * 0.25, atol=1e-12)
