"""Stokes matrices, directional moments, isotropy, and moment tomography."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qpolar.catalog as catalog
from qpolar.angmom import _d_column, half
from qpolar.multipole import components, cumulative, state_multipoles, unpolarization_order
from qpolar.search import project_multipole_free
from qpolar.states import (
    Direction,
    SpinSector,
    assemble,
    diag_sector,
    fock_sector,
    maximally_mixed,
    random_direction,
    random_sector,
    su2_coherent,
)
from qpolar.stokes import (
    IllConditionedError,
    MomentSample,
    _axial_factors,
    _design_rows,
    _real_unknowns,
    directional_moment,
    isotropy_order,
    moments_to_multipoles,
    read_moments,
    sample_moments,
    spin_along,
    stokes_matrices,
    tomography_directions,
    total_variance,
    write_moments,
)


def reference_moments(sector, direction, max_ell):
    """<(n.S)^l> for l = 1..max_ell from successive matrix products with n.S."""
    sn = spin_along(sector.spin, direction)
    out = np.empty(max_ell)
    acc = sector.rho
    for ell in range(1, max_ell + 1):
        acc = acc @ sn
        out[ell - 1] = float(np.trace(acc).real)
    return out


class TestStokesMatrices:
    def test_pauli_over_two(self):
        ops = stokes_matrices(0.5)
        assert_allclose(ops.sx, np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)
        assert_allclose(ops.sy, np.array([[0, -0.5j], [0.5j, 0]]), atol=1e-15)
        assert_allclose(ops.sz, np.diag([0.5, -0.5]), atol=1e-15)

    def test_spin_one_casimir(self):
        ops = stokes_matrices(1)
        cas = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        assert_allclose(cas, 2 * np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("twice_s", range(1, 21))
    def test_commutators_and_casimir(self, twice_s):
        S = twice_s / 2
        ops = stokes_matrices(S)
        sx, sy, sz = ops.vector
        assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
        assert_allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-12)
        assert_allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-12)
        cas = sx @ sx + sy @ sy + sz @ sz
        assert_allclose(cas, S * (S + 1) * np.eye(twice_s + 1), atol=1e-12)


class TestDirectionalMoments:
    def test_maximally_mixed_quadratic(self):
        rng = np.random.default_rng(31)
        for twice_s in (1, 3, 4):
            S = twice_s / 2
            mm = maximally_mixed(S)
            for _ in range(3):
                got = directional_moment(mm, random_direction(rng), 2)
                assert_allclose(got, S * (S + 1) / 3, atol=1e-12)

    def test_coherent_first_moment(self):
        d = Direction(1.2, 0.4)
        assert_allclose(directional_moment(su2_coherent(2.5, d), d, 1), 2.5, atol=1e-12)

    def test_fig4_right_isotropic_to_second(self):
        sec = diag_sector(1.5, [1 / 3, 0, 0.5, 1 / 6])
        dirs = [Direction(0.0, 0.0), Direction(math.pi / 2, 0.0), Direction(1.0, 2.5)]
        for d in dirs:
            assert_allclose(directional_moment(sec, d, 1), 0.0, atol=1e-12)
            assert_allclose(directional_moment(sec, d, 2), 5 / 4, atol=1e-12)

    def test_weighted_over_shells(self):
        state = assemble([(0.4, fock_sector(0.5, 0.5)), (0.6, maximally_mixed(1))])
        got = directional_moment(state, Direction(0.0, 0.0), 1)
        assert_allclose(got, 0.4 * 0.5, atol=1e-14)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            directional_moment(maximally_mixed(1), Direction(0, 0), 0)

    @pytest.mark.parametrize("twice_s", [*range(1, 13), 25])
    def test_match_matrix_power_reference(self, twice_s):
        rng = np.random.default_rng(700 + twice_s)
        sec = random_sector(twice_s / 2, rng)
        dirs = tomography_directions(7) + [random_direction(rng) for _ in range(3)] + [Direction(0.0, 0.0)]
        max_ell = twice_s + 2
        size = max(twice_s / 2, 1.0) ** np.arange(1, max_ell + 1)  # s^l
        want = np.array([reference_moments(sec, d, max_ell) for d in dirs])
        got = np.array([s.value for s in sample_moments(sec, dirs, max_ell)]).reshape(want.shape)
        assert np.all(np.abs(got - want) <= 1e-13 * size)
        for ell in range(1, max_ell + 1):
            assert abs(directional_moment(sec, dirs[-2], ell) - want[-2, ell - 1]) <= 1e-13 * size[ell - 1]

    def test_raw_moment_past_float_range_is_refused(self):
        # s^l = 100^160 overflows: refused, never returned as inf or nan
        sec = random_sector(100, np.random.default_rng(45))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="order l = 160 at spin 100 are past the float range"):
                directional_moment(sec, Direction(0.7, 0.2), 160)
            with pytest.raises(ValueError, match="order l = 160 at spin 100 are past the float range"):
                sample_moments(sec, [Direction(0.7, 0.2)], 160)

    def test_sample_moments_needs_an_order(self):
        with pytest.raises(ValueError, match="max_ell must be >= 1"):
            sample_moments(maximally_mixed(1), tomography_directions(3), 0)


class TestTotalVariance:
    def test_examples(self):
        rng = np.random.default_rng(32)
        assert_allclose(total_variance(su2_coherent(1, random_direction(rng))), 1.0, atol=1e-12)
        assert_allclose(total_variance(maximally_mixed(1)), 2.0, atol=1e-13)
        assert_allclose(total_variance(fock_sector(1, 0)), 2.0, atol=1e-13)


class TestIsotropyOrder:
    def test_maximally_mixed_saturates(self):
        assert isotropy_order(maximally_mixed(1.5), 3) == 3

    def test_pole_superposition(self):
        assert isotropy_order(catalog.three_photon_pole_superposition(), 3) == 1

    def test_fock10_counts_vanishing_first_moment(self):
        assert isotropy_order(fock_sector(1, 0), 2) == 1

    def test_needs_enough_directions(self):
        with pytest.raises(ValueError):
            isotropy_order(maximally_mixed(1), 3, n_directions=5)

    def test_rejects_multi_shell_states(self):
        state = assemble([(1.0, maximally_mixed(1))])
        with pytest.raises(TypeError):
            isotropy_order(state, 2)

    def _engineered_sector(self, twice_s, order, rng):
        # I/d + t (P - I/d) keeps the multipoles of P = project_multipole_free(start)
        # for every t; take the largest t <= 1 at which it is still PSD
        d = twice_s + 1
        P = project_multipole_free(random_sector(twice_s / 2, rng).rho, twice_s / 2, order)
        low = np.linalg.eigvalsh(P)[0]
        t = 1.0 if low >= 0 else (1 / d) / (1 / d - low)
        return SpinSector(twice_s / 2, np.eye(d) / d + t * (P - np.eye(d) / d), validate=False)

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 4, 5, 6])
    def test_equivalence_with_multipole_classifier(self, twice_s):
        # random states plus engineered K-th-order unpolarized ones
        rng = np.random.default_rng(33 + twice_s)
        sectors = [random_sector(twice_s / 2, rng) for _ in range(200)]
        sectors += [maximally_mixed(twice_s / 2), su2_coherent(twice_s / 2, random_direction(rng))]
        for order in range(1, twice_s + 1):
            sectors.append(self._engineered_sector(twice_s, order, rng))
        for sec in sectors:
            spec = state_multipoles(sec)
            assert isotropy_order(sec, twice_s) == unpolarization_order(spec, 1e-10)

    @pytest.mark.parametrize("twice_s", [20, 40, 100, 200])
    def test_large_spin_matches_multipole_order(self, twice_s):
        # raw moments grow as S^l: an absolute tolerance on them misses isotropy at these spins
        max_ell = 4 if twice_s == 200 else 10
        S = twice_s / 2
        assert isotropy_order(maximally_mixed(S), max_ell) == max_ell
        assert isotropy_order(fock_sector(S, 0), max_ell) == 1
        assert isotropy_order(su2_coherent(S, Direction(0.4, 1.1)), max_ell) == 0

    @pytest.mark.parametrize("twice_s", [20, 40])
    def test_large_spin_engineered_states(self, twice_s):
        rng = np.random.default_rng(70 + twice_s)
        for order in range(1, 11):
            sec = self._engineered_sector(twice_s, order, rng)
            want = min(unpolarization_order(state_multipoles(sec), 1e-10), 10)
            assert want == order
            assert isotropy_order(sec, 10) == want

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
    def test_tol_must_be_positive_and_finite(self, tol):
        sec = random_sector(1.5, np.random.default_rng(46))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            isotropy_order(sec, 3, tol=tol)


def reference_rows(samples, S, k_max):
    """Design rows from a matrix power of n.S per sample, through the analysis kernel."""
    powers = np.array([np.linalg.matrix_power(spin_along(S, s.direction), s.ell) for s in samples])
    # Tr[T_Kq (n.S)^l] is the analysis kernel applied to the transposed power
    t = components(powers.swapaxes(1, 2), S, k_max)
    ks, qs, parts = _real_unknowns(k_max)
    t = t[:, ks, k_max + qs]
    rows = np.where(qs == 0, t.real, np.where(parts == 0, 2.0 * t.real, -2.0 * t.imag))
    return rows, np.trace(powers, axis1=1, axis2=2).real / (S.twice + 1)


class TestDesignRows:
    """Rows from rotation covariance, z_{K,l} exp(iq phi) d^K_q0(theta), against matrix powers."""

    def test_axial_factors_match_d_columns(self):
        # the Legendre recurrence in K against the m = 0 column of the spin-K d-matrix, poles included
        theta = np.concatenate([[0.0, 1e-9, 1e-3, math.pi / 2, math.pi - 1e-3, math.pi], np.linspace(0.05, 3.1, 15)])
        phi = np.linspace(0.0, 6.0, len(theta))
        factors = _axial_factors([Direction(a, b) for a, b in zip(theta, phi)], 60)
        for K, f in factors:
            want = _d_column(2 * K, K, theta)[:, K::-1] * np.exp(1j * np.outer(phi, np.arange(K + 1)))
            assert_allclose(f, want, rtol=0, atol=1e-12, err_msg=f"K = {K}")

    @pytest.mark.parametrize("rank", [100, 200])
    def test_axial_factors_match_d_columns_at_large_rank(self, rank):
        # the top ranks `isotropy_order` and `moments_to_multipoles` reach at 2S <= 200, one rank at a time
        theta = np.array([0.0, 1e-9, 1e-3, 0.3, math.pi / 2, 2.0, math.pi - 1e-3, math.pi - 1e-9, math.pi])
        phi = np.linspace(0.0, 6.0, len(theta))
        f = list(_axial_factors([Direction(a, b) for a, b in zip(theta, phi)], rank))[rank][1]
        want = _d_column(2 * rank, rank, theta)[:, rank::-1] * np.exp(1j * np.outer(phi, np.arange(rank + 1)))
        assert_allclose(f, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("twice_s", [*range(1, 13), 25])
    def test_match_matrix_power_rows(self, twice_s):
        rng = np.random.default_rng(600 + twice_s)
        S = half(twice_s / 2)
        for k_max in range(1, min(twice_s, 6) + 1):
            dirs = tomography_directions(3 * (2 * k_max + 1)) + [random_direction(rng) for _ in range(4)]
            samples = sample_moments(random_sector(S, rng), dirs, k_max)
            rows, monopole = _design_rows(samples, S, k_max)
            # the rows are those of the scaled moments <(n.S/s)^l>, s = max(S, 1)
            size = np.array([max(twice_s / 2, 1.0) ** s.ell for s in samples])
            want_rows, want_monopole = reference_rows(samples, S, k_max)
            want_rows, want_monopole = want_rows / size[:, None], want_monopole / size
            scale = np.abs(want_rows).max(axis=1, keepdims=True)
            assert np.all(np.abs(rows - want_rows) <= 1e-13 * scale), (twice_s, k_max)
            # the scaled monopole is at most 1, the largest eigenvalue of (n.S/s)^l; odd orders have none
            assert np.all(np.abs(monopole - want_monopole) <= 1e-13), (twice_s, k_max)


class TestReconstruction:
    def test_coherent_round_trip_minimal_directions(self):
        sec = su2_coherent(1, Direction(0.0, 0.0))
        spec = state_multipoles(sec)
        samples = sample_moments(sec, tomography_directions(5), 2)
        rec = moments_to_multipoles(samples, 1, 2)
        for K in (1, 2):
            for q in range(-K, K + 1):
                assert abs(rec.components[(K, q)] - spec.component(K, q)) < 1e-8

    @pytest.mark.parametrize("twice_s,k_max", [(1, 1), (2, 2), (3, 3), (4, 4)])
    def test_random_state_round_trip(self, twice_s, k_max):
        rng = np.random.default_rng(34 + twice_s)
        sec = random_sector(twice_s / 2, rng)
        spec = state_multipoles(sec)
        samples = sample_moments(sec, tomography_directions(2 * k_max + 1), k_max)
        rec = moments_to_multipoles(samples, twice_s / 2, k_max)
        dev = max(
            abs(rec.components[(K, q)] - spec.component(K, q))
            for K in range(1, k_max + 1)
            for q in range(-K, K + 1)
        )
        assert dev < 1e-8
        assert rec.residual < 1e-8
        assert rec.condition_number < 1e6

    def test_two_photon_family_strengths(self):
        lam = 0.15
        sec = diag_sector(1, [lam, 1 - 2 * lam, lam])
        samples = sample_moments(sec, tomography_directions(7), 2)
        rec = moments_to_multipoles(samples, 1, 2)
        assert rec.cumulative[0] < 1e-12
        assert_allclose(rec.cumulative[1], (3 * lam - 1) ** 2 * 2 / 3, atol=1e-10)

    def test_large_spin_minimal_directions(self):
        # raw moment rows span 13 decades here; the scaled rows are well conditioned
        sec = random_sector(20, np.random.default_rng(47))
        spec = state_multipoles(sec)
        rec = moments_to_multipoles(sample_moments(sec, tomography_directions(21), 10), 20, 10)
        assert max(abs(rec.components[key] - spec.component(*key)) for key in rec.components) <= 1e-12
        assert rec.condition_number < 1e7

    def test_identical_directions_rank_deficient(self):
        sec = maximally_mixed(1)
        d = Direction(1.0, 1.0)
        samples = sample_moments(sec, [d, d, d, d, d], 2)
        with pytest.raises(IllConditionedError):
            moments_to_multipoles(samples, 1, 2)

    def test_needs_at_least_one_direction(self):
        with pytest.raises(ValueError):
            tomography_directions(0)

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            moments_to_multipoles([MomentSample(Direction(0, 0), 1, 0.0)], 1, 3)

    def test_moments_above_k_max_are_refused(self):
        # moments of order 4 carry ranks 3 and 4, which a K <= 2 fit would alias
        sec = random_sector(2, np.random.default_rng(44))
        samples = sample_moments(sec, tomography_directions(9), 4)
        with pytest.raises(ValueError, match="l = 4 carry ranks above k_max = 2"):
            moments_to_multipoles(samples, 2, 2)
        low = [s for s in samples if s.ell <= 2]
        assert_allclose(moments_to_multipoles(low, 2, 2).cumulative[1],
                        cumulative(state_multipoles(sec), 2), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused_by_sample(self, bad):
        sec = diag_sector(1, [0.2, 0.6, 0.2])
        samples = sample_moments(sec, tomography_directions(9), 2)
        rows = [(s.direction, s.ell, s.value) for s in samples]
        rows[7] = (rows[7][0], rows[7][1], bad)
        with pytest.raises(ValueError, match=f"moment sample 7 has a non-finite value: .*ell=2, value={bad!r}"):
            moments_to_multipoles(rows, 1, 2)

    def test_moments_csv_round_trip(self, tmp_path):
        sec = diag_sector(1, [0.2, 0.6, 0.2])
        samples = sample_moments(sec, tomography_directions(5), 2)
        path = tmp_path / "m.csv"
        write_moments(samples, path)
        back = read_moments(path)
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            assert a.ell == b.ell and abs(a.value - b.value) < 1e-16
            assert abs(a.direction.theta - b.direction.theta) < 1e-16
