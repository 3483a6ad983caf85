"""Stokes matrices, directional moments, isotropy, and moment tomography."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qpolar.catalog as catalog
import qpolar.stokes as stokes
from qpolar.angmom import _d_column, half
from qpolar.multipole import components, cumulative, state_multipoles, unpolarization_order
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
    _layout,
    _real_unknowns,
    directional_moment,
    isotropy_order,
    moments_to_multipoles,
    read_moments,
    sample_moments,
    stokes_matrices,
    tomography_directions,
    write_moments,
)

from shell_reference import project_multipole_free, spin_along, total_variance


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
        sx, sy, sz = ops.sx, ops.sy, ops.sz
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

    def test_the_largest_orders_within_the_budget_run(self, monkeypatch):
        # 2S = 2: powers [3, 666666] and, with the default 1999 directions, moments [1999, 999]
        sec = maximally_mixed(1)
        assert isotropy_order(sec, 999) == 999
        assert directional_moment(sec, Direction(0.7, 0.2), 666665) == 0.0  # (1 + (-1)^l) / 3, 0 at odd l
        monkeypatch.setattr(stokes, "MAX_ENTRIES", 300)  # moments [10, 30], then [10, 31]
        assert len(sample_moments(sec, tomography_directions(10), 30)) == 300
        with pytest.raises(ValueError, match=r"^max_ell must be .* MAX_ENTRIES = 300 entries each, got 31$"):
            sample_moments(sec, tomography_directions(10), 31)

    @pytest.mark.parametrize("directions", [[], iter(())], ids=["list", "iterator"])
    def test_sample_moments_needs_a_direction(self, directions):
        with pytest.raises(ValueError, match="sample_moments needs at least one direction"):
            sample_moments(maximally_mixed(1), directions, 2)

    def test_sample_moments_needs_an_order(self):
        with pytest.raises(ValueError, match="max_ell must be an integer >= 1, got 0"):
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

    @pytest.mark.parametrize("n", [50.0, True, np.float64(7.0), 6, -7])
    def test_n_directions_must_be_an_integer_of_at_least_2_max_ell_plus_1(self, n):
        message = f"n_directions must be an integer >= 2*max_ell+1 = 7, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            isotropy_order(maximally_mixed(1), 3, n_directions=n)
        assert isotropy_order(maximally_mixed(1), 3, n_directions=np.int64(7)) == 3

    @pytest.mark.parametrize("max_ell", [1, 24, 25, 30])
    def test_default_directions_are_enough_for_every_max_ell(self, max_ell):
        # the default is max(50, 2*max_ell+1) directions, which the n_directions check accepts at every max_ell;
        # an explicit count is checked as before
        assert isotropy_order(maximally_mixed(15), max_ell) == max_ell
        sec = random_sector(15, np.random.default_rng(47))
        n = max(50, 2 * max_ell + 1)
        assert isotropy_order(sec, max_ell) == isotropy_order(sec, max_ell, n_directions=n) == 0
        with pytest.raises(ValueError, match=re.escape(f"n_directions must be an integer >= 2*max_ell+1 = "
                                                       f"{2 * max_ell + 1}, got {2 * max_ell}")):
            isotropy_order(sec, max_ell, n_directions=2 * max_ell)

    def test_rejects_multi_shell_states(self):
        state = assemble([(1.0, maximally_mixed(1))])
        with pytest.raises(ValueError, match=r"^sector must be of type SpinSector, got PolarizationState\(S=1:1\)$"):
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
        factors = _axial_factors(np.column_stack([theta, phi]), 60)
        for K, f in factors:
            want = _d_column(2 * K, K, theta)[:, K::-1] * np.exp(1j * np.outer(phi, np.arange(K + 1)))
            assert_allclose(f, want, rtol=0, atol=1e-12, err_msg=f"K = {K}")

    @pytest.mark.parametrize("rank", [100, 200])
    def test_axial_factors_match_d_columns_at_large_rank(self, rank):
        # the top ranks `isotropy_order` and `moments_to_multipoles` reach at 2S <= 200, one rank at a time
        theta = np.array([0.0, 1e-9, 1e-3, 0.3, math.pi / 2, 2.0, math.pi - 1e-3, math.pi - 1e-9, math.pi])
        phi = np.linspace(0.0, 6.0, len(theta))
        f = list(_axial_factors(np.column_stack([theta, phi]), rank))[rank][1]
        want = _d_column(2 * rank, rank, theta)[:, rank::-1] * np.exp(1j * np.outer(phi, np.arange(rank + 1)))
        assert_allclose(f, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("twice_s", [*range(1, 13), 25])
    def test_match_matrix_power_rows(self, twice_s):
        rng = np.random.default_rng(600 + twice_s)
        S = half(twice_s / 2)
        for k_max in range(1, min(twice_s, 6) + 1):
            dirs = tomography_directions(3 * (2 * k_max + 1)) + [random_direction(rng) for _ in range(4)]
            samples = sample_moments(random_sector(S, rng), dirs, k_max)
            points = np.array([(s.direction.theta, s.direction.phi) for s in samples])
            rows, monopole = _design_rows(points, np.array([s.ell for s in samples]), S.twice, k_max)
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

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, -2, "3"])
    def test_direction_count_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1, got"):
            tomography_directions(n)
        assert len(tomography_directions(np.int64(3))) == 3

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
        with pytest.raises(ValueError, match=re.escape(f"sample values[7] must be a finite number, got {bad!r}")):
            moments_to_multipoles(rows, 1, 2)

    @pytest.mark.parametrize(
        "ell", [2.7, 2.0, np.float64(2.0), True, "2", 0, -1],
        ids=["fraction", "float", "numpy-float", "bool", "string", "zero", "negative"],
    )
    def test_order_must_be_an_integer_of_at_least_one(self, ell):
        # a fractional order was once truncated and fitted as its integer part
        sec = diag_sector(1, [0.2, 0.6, 0.2])
        rows = [(s.direction, s.ell, s.value) for s in sample_moments(sec, tomography_directions(9), 2)]
        rows[5] = (rows[5][0], ell, rows[5][2])
        match = re.escape(f"moment sample 5 has order {ell!r}, not an integer >= 1: MomentSample(")
        with pytest.raises(ValueError, match=match):
            moments_to_multipoles(rows, 1, 2)
        with pytest.raises(ValueError, match=match):
            moments_to_multipoles([MomentSample(*row) for row in rows], 1, 2)

    @pytest.mark.parametrize("k_max", [True, 2.0, np.float64(2.0), "2", 0, 3])
    def test_k_max_must_be_an_integer_in_range(self, k_max):
        sec = diag_sector(1, [0.2, 0.6, 0.2])
        samples = sample_moments(sec, tomography_directions(9), 1)
        with pytest.raises(ValueError, match=re.escape(f"k_max must be an integer in [1, 2S] = [1, 2], got {k_max!r}")):
            moments_to_multipoles(samples, 1, k_max)
        assert moments_to_multipoles(samples, 1, np.int64(1)).k_max == 1

    def test_samples_as_tuples_lists_or_moment_samples_give_the_same_bits(self):
        sec = random_sector(5, np.random.default_rng(48))
        samples = sample_moments(sec, tomography_directions(3 * 13), 6)
        results = [
            moments_to_multipoles(form, 5, 6)
            for form in (samples, [(s.direction, s.ell, s.value) for s in samples],
                         [[s.direction, np.int64(s.ell), np.float64(s.value)] for s in samples])
        ]
        for rec in results[1:]:
            for name in ("coefficients", "strengths", "cumulative", "degrees"):
                assert getattr(rec, name).tobytes() == getattr(results[0], name).tobytes(), name
            assert (rec.condition_number, rec.residual, rec.n_samples) == (
                results[0].condition_number, results[0].residual, results[0].n_samples)

    def test_directions_equal_after_rounding_count_once(self):
        # five directions, each also given 1e-14 away: ten exact angles, five distinct ones
        sec = random_sector(2, np.random.default_rng(49))
        dirs = tomography_directions(5)
        near = [Direction(d.theta + 1e-14, d.phi + 1e-14) for d in dirs]
        samples = sample_moments(sec, dirs + near, 3)
        with pytest.raises(IllConditionedError, match="5 distinct directions cannot span rank 3; need at least 7"):
            moments_to_multipoles(samples, 2, 3)
        assert moments_to_multipoles(sample_moments(sec, dirs + near, 2), 2, 2).n_samples == 20

    def test_components_are_built_from_coefficients_on_first_read(self):
        for twice_s, k_max in ((1, 1), (4, 4), (10, 6), (25, 6), (40, 10)):
            sec = random_sector(twice_s / 2, np.random.default_rng(50 + twice_s))
            rec = moments_to_multipoles(sample_moments(sec, tomography_directions(3 * (2 * k_max + 1)), k_max),
                                        twice_s / 2, k_max)
            assert "components" not in vars(rec)
            c = rec.coefficients
            assert c.shape == (k_max + 1, 2 * k_max + 1) and not c.flags.writeable
            with pytest.raises(ValueError):
                c[1, k_max] = 0.0
            # the dict the result once held, one complex(...) per entry
            want = {(K, q): complex(c[K, k_max + q]) for K in range(k_max + 1) for q in range(-K, K + 1)}
            assert type(rec.components) is dict and repr(rec.components) == repr(want)
            assert all(type(v) is complex for v in rec.components.values())
            assert vars(rec)["components"] is rec.components
            assert "components" not in dataclasses.asdict(rec) and "coefficients" in dataclasses.asdict(rec)

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

    @pytest.mark.parametrize("kind", [np.float64, np.float32, int], ids=["float64", "float32", "int"])
    def test_moments_csv_round_trip_of_numpy_and_integer_values(self, tmp_path, kind):
        # a numpy value was once written as np.float64(0.5), a row read_moments refuses
        values = [kind(x) for x in (0.5, -2.25, 3.0)]
        samples = [MomentSample(Direction(0.3, 0.2), ell, v) for ell, v in enumerate(values, 1)]
        path = tmp_path / "m.csv"
        write_moments(samples, path)
        back = read_moments(path)
        assert [(b.direction, b.ell, b.value) for b in back] == [(Direction(0.3, 0.2), ell, float(v))
                                                                 for ell, v in enumerate(values, 1)]
        assert all(type(b.value) is float for b in back)


def fit_bytes(samples, S, k_max):
    rec = moments_to_multipoles(samples, S, k_max)
    return rec.coefficients.tobytes(), rec.condition_number, rec.residual


class TestLayoutCache:
    """The design rows are cached per (2S, k_max, direction bits, orders); the values never enter the key."""

    def test_values_on_one_layout_give_the_uncached_fit(self):
        dirs = tomography_directions(3 * 9)
        sets = [sample_moments(random_sector(3, np.random.default_rng(seed)), dirs, 4) for seed in (70, 71)]
        uncached = []
        for samples in sets:
            _layout.cache_clear()
            uncached.append(fit_bytes(samples, 3, 4))
        _layout.cache_clear()
        assert [fit_bytes(samples, 3, 4) for samples in sets + sets] == uncached + uncached
        assert _layout.cache_info()[:2] == (3, 1)  # hits, misses

    def test_signed_zero_and_spin_are_apart(self):
        rng = np.random.default_rng(72)
        dirs = tomography_directions(8)
        layouts = [[Direction(zero, 0.0)] + dirs for zero in (-0.0, 0.0)]
        cases = [(sample_moments(random_sector(S, rng), layout, 3), S) for layout in layouts for S in (1.5, 2)]
        uncached = []
        for samples, S in cases:
            _layout.cache_clear()
            uncached.append(fit_bytes(samples, S, 3))
        _layout.cache_clear()
        assert [fit_bytes(samples, S, 3) for samples, S in cases] == uncached
        assert _layout.cache_info().currsize == 4

    def test_cached_arrays_are_read_only(self):
        samples = sample_moments(random_sector(2, np.random.default_rng(73)), tomography_directions(7), 3)
        moments_to_multipoles(samples, 2, 3)
        ell = np.array([s.ell for s in samples], dtype=np.intp)
        points = np.array([(s.direction.theta, s.direction.phi) for s in samples])
        rows, monopole, unknowns, distinct = _layout(4, 3, points.tobytes(), ell.tobytes())
        assert distinct == 7
        for a in (rows, monopole, unknowns):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_refusals_hold_on_every_call(self):
        sec = random_sector(1, np.random.default_rng(74))
        few = sample_moments(sec, tomography_directions(4), 2)
        equator = sample_moments(sec, [Direction(math.pi / 2, phi) for phi in (0.0, 1.0, 2.0, 3.0, 4.0)], 2)
        too_few = "^4 distinct directions cannot span rank 2; need at least 5$"
        for _ in range(3):
            with pytest.raises(IllConditionedError, match=too_few):
                moments_to_multipoles(few, 1, 2)
            with pytest.raises(IllConditionedError, match="^direction set is rank deficient: singular values span"):
                moments_to_multipoles(equator, 1, 2)

    def test_size_is_bounded(self):
        _layout.cache_clear()
        sec = random_sector(0.5, np.random.default_rng(75))
        size = _layout.cache_info().maxsize
        for n in range(3, size + 6):
            moments_to_multipoles(sample_moments(sec, tomography_directions(n), 1), 0.5, 1)
        info = _layout.cache_info()
        assert info.misses == size + 3 and info.currsize == size


class TestReconstructionRefusals:
    def test_no_samples_are_refused(self):
        with pytest.raises(ValueError, match="^no moment samples given$"):
            moments_to_multipoles([], 1, 1)

    def test_rank_deficient_direction_set_is_refused(self):
        # on the equator d^1_00 and d^2_10 vanish: five distinct directions, but rho_10 and rho_21 are not seen
        equator = [Direction(math.pi / 2, phi) for phi in (0.0, 1.0, 2.0, 3.0, 4.0)]
        samples = sample_moments(random_sector(1, np.random.default_rng(3)), equator, 2)
        with pytest.raises(IllConditionedError, match="^direction set is rank deficient: singular values span"):
            moments_to_multipoles(samples, 1, 2)
