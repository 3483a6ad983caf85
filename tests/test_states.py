"""Shell density matrices: constructors, rotation, mixtures, validation."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qpolar.catalog as catalog
from qpolar.angmom import EulerAngles
from qpolar.search import scan_two_photon_family
from qpolar.states import (
    Direction,
    SpinSector,
    as_shells,
    assemble,
    coherent_amplitudes,
    diag_sector,
    fock_sector,
    maximally_mixed,
    pure_sector,
    purity,
    random_angles,
    random_direction,
    random_sector,
    rotate,
    su2_coherent,
    validate,
)

from shell_reference import spin_along, total_variance


class TestDirection:
    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            Direction(-0.1, 0.0)
        with pytest.raises(ValueError):
            Direction(0.5, 2 * math.pi)

    def test_vector_round_trip(self):
        d = Direction(1.1, 2.3)
        assert_allclose(Direction.from_vector(d.unit_vector).unit_vector, d.unit_vector, atol=1e-14)


class TestFockSector:
    def test_examples(self):
        assert_allclose(fock_sector(0.5, 0.5).rho, np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(fock_sector(1, 0).rho, np.diag([0.0, 1.0, 0.0]), atol=1e-15)
        assert_allclose(fock_sector(1.5, -1.5).rho, np.diag([0, 0, 0, 1.0]), atol=1e-15)

    def test_projection_out_of_range(self):
        with pytest.raises(ValueError):
            fock_sector(1, 2)


class TestCoherent:
    def test_north_pole_is_highest_weight(self):
        for S in (0.5, 1, 2.5):
            sec = su2_coherent(S, Direction(0.0, 0.0))
            assert_allclose(sec.rho, fock_sector(S, S).rho, atol=1e-15)

    def test_equator_matches_sx_eigenvector(self):
        # oracle: top eigenvector of S_x at S = 1/2
        sec = su2_coherent(0.5, Direction(math.pi / 2, 0.0))
        sx = spin_along(0.5, Direction(math.pi / 2, 0.0))
        vals, vecs = np.linalg.eigh(sx)
        v = vecs[:, -1]
        assert_allclose(sec.rho, np.outer(v, v.conj()), atol=1e-12)
        expect = pure_sector(0.5, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert_allclose(sec.rho, expect.rho, atol=1e-15)

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 7, 20])
    def test_eigenvector_residual(self, twice_s):
        rng = np.random.default_rng(twice_s)
        S = twice_s / 2
        for _ in range(3):
            d = random_direction(rng)
            psi = coherent_amplitudes(S, d.theta, d.phi)
            sn = spin_along(S, d)
            assert np.linalg.norm(sn @ psi - S * psi) < 1e-10

    @pytest.mark.parametrize("twice_s", [1, 2, 5, 12, 20])
    def test_saturates_uncertainty(self, twice_s):
        rng = np.random.default_rng(twice_s + 100)
        sec = su2_coherent(twice_s / 2, random_direction(rng))
        assert_allclose(total_variance(sec), twice_s / 2, atol=1e-10)


class TestDiagAndPure:
    def test_diag_examples(self):
        assert_allclose(diag_sector(1, [1 / 3, 1 / 3, 1 / 3]).rho, np.eye(3) / 3, atol=1e-15)
        sec = diag_sector(1.5, [1 / 3, 0.0, 0.5, 1 / 6])
        assert_allclose(sec.purity(), 7 / 18, atol=1e-15)

    def test_diag_rejects_negativity_and_shape(self):
        with pytest.raises(ValueError):
            diag_sector(1.5, [0.6, 0.6, -0.2, 0.0])
        with pytest.raises(ValueError):
            diag_sector(1.5, [0.5, 0.5])

    def test_pure_examples(self):
        r = 1 / math.sqrt(2)
        sec = pure_sector(1.5, [r, 0, 0, r])
        assert_allclose(np.diag(sec.rho), [0.5, 0, 0, 0.5], atol=1e-15)
        assert_allclose(sec.rho[0, 3], 0.5, atol=1e-15)
        assert_allclose(pure_sector(0.5, [2.0, 0.0]).rho, np.diag([1.0, 0.0]), atol=1e-15)
        with pytest.raises(ValueError, match="^amplitudes must have a finite, nonzero norm, got 0.0$"):
            pure_sector(1, [0, 0, 0])

    def test_pure_rejects_overflowing_norm_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^amplitudes must have a finite, nonzero norm, got inf$"):
                pure_sector(0.5, [1.5e308, 1.5e308])
            with pytest.raises(ValueError, match="^amplitudes must have a finite, nonzero norm, got inf$"):
                pure_sector(0.5, [1.5e308 + 1.5e308j, 1.0])

    def test_pure_reads_amplitudes_whose_squares_overflow(self):
        # the norm of [1e200, 1e200] is finite, though its squares are not: it was refused as inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sec = pure_sector(0.5, [1e200, 1e200])
        assert_allclose(sec.rho, np.full((2, 2), 0.5), atol=1e-15)

    def test_pure_reads_amplitudes_whose_squares_underflow(self):
        # the squares of [1e-170, 1e-170] underflow to 0: the norm 1.4e-170 was refused as 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sec = pure_sector(0.5, [1e-170, 1e-170j])
        assert_allclose(sec.rho, pure_sector(0.5, [1.0, 1j]).rho, rtol=0, atol=1e-15)


class TestRotate:
    def test_identity_angles(self):
        rng = np.random.default_rng(0)
        sec = random_sector(1.5, rng)
        assert_allclose(rotate(sec, EulerAngles(0, 0, 0)).rho, sec.rho, atol=1e-15)

    def test_rotated_fock10_is_the_pure_unpolarized_family(self):
        # the (alpha, beta) member arises from Euler angles (pi - alpha, beta, *)
        for a, b in [(0.3, 1.2), (2.0, 0.4)]:
            got = rotate(fock_sector(1, 0), EulerAngles(math.pi - a, b, 0.7))
            expect = catalog.two_photon_pure_unpolarized(a, b)
            assert_allclose(got.rho, expect.rho, atol=1e-12)

    def test_rotating_north_pole_moves_coherent_state(self):
        for S in (1, 2.5):
            got = rotate(su2_coherent(S, Direction(0.0, 0.0)), EulerAngles(0.0, 1.1, 0.0))
            expect = su2_coherent(S, Direction(1.1, 0.0))
            assert np.max(np.abs(got.rho - expect.rho)) < 1e-10

    def test_spectrum_and_purity_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sec = random_sector(2, rng)
            rot = rotate(sec, random_angles(rng))
            assert_allclose(
                np.sort(np.linalg.eigvalsh(rot.rho)),
                np.sort(np.linalg.eigvalsh(sec.rho)),
                atol=1e-10,
            )
            assert abs(rot.purity() - sec.purity()) < 1e-12

    @pytest.mark.parametrize("twice_s", [80, 200])
    def test_spectrum_and_purity_preserved_at_high_spin(self, twice_s):
        rng = np.random.default_rng(twice_s)
        sec = random_sector(twice_s / 2, rng)
        for _ in range(3):
            rot = rotate(sec, random_angles(rng))
            assert_allclose(np.linalg.eigvalsh(rot.rho), np.linalg.eigvalsh(sec.rho), atol=1e-12)
            assert abs(rot.purity() - sec.purity()) < 1e-12
            assert abs(np.trace(rot.rho) - 1.0) < 1e-12


class TestMix:
    # convex combinations of same-spin sectors, built as w_a rho_a + w_b rho_b
    def test_pole_mixture(self):
        got = 0.5 * fock_sector(1.5, 1.5).rho + 0.5 * fock_sector(1.5, -1.5).rho
        assert_allclose(got, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    def test_equal_fock_mixture_is_maximally_mixed(self):
        S = 1.5
        got = sum(0.25 * fock_sector(S, m).rho for m in (1.5, 0.5, -0.5, -1.5))
        assert_allclose(got, maximally_mixed(S).rho, atol=1e-15)

    def test_purity_bounded_by_components(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b = random_sector(1, rng), random_sector(1, rng)
            w = rng.uniform(0, 1)
            mixed = SpinSector(1, w * a.rho + (1 - w) * b.rho)
            assert mixed.purity() <= max(a.purity(), b.purity()) + 1e-12


class TestValidate:
    def test_good_matrix_passes(self):
        rep = validate(diag_sector(0.5, [0.5, 0.5]))
        assert rep.ok and rep.message() == "ok"

    def test_negative_eigenvalue_fails(self):
        bad = SpinSector(0.5, np.diag([1.2, -0.2]), validate=False)
        rep = validate(bad)
        assert not rep.ok and not rep.positive_ok and rep.trace_ok

    def test_non_hermitian_fails(self):
        m = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        rep = validate(SpinSector(0.5, m, validate=False))
        assert not rep.hermitian_ok

    def test_constructor_validates_by_default(self):
        with pytest.raises(ValueError):
            SpinSector(0.5, np.diag([1.2, -0.2]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("check", [True, False], ids=["validated", "unvalidated"])
    def test_non_finite_entries_are_refused(self, bad, check):
        rho = np.diag([bad, 0.5]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^rho\[0\]\[0\] must be a finite number, got np\.complex128\("):
                SpinSector(0.5, rho, validate=check)

    def test_uncertainty_floor_for_random_sectors(self):
        rng = np.random.default_rng(4)
        for twice_s in (1, 2, 4, 7):
            for _ in range(20):
                sec = random_sector(twice_s / 2, rng)
                assert total_variance(sec) >= twice_s / 2 - 1e-10


class TestRandomSector:
    @pytest.mark.parametrize("rank", [1, 2, np.int64(3)])
    def test_rank_is_kept(self, rank):
        sec = random_sector(1, np.random.default_rng(6), rank=rank)
        assert np.linalg.matrix_rank(sec.rho, tol=1e-10) == rank
        assert validate(sec).ok

    @pytest.mark.parametrize("rank", [0, -1, 4, 2.7, 2.0, True, "2"])
    def test_bad_rank_is_refused(self, rank):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"rank must be an integer in \[1, 2S\+1\] = \[1, 3\]"):
                random_sector(1, np.random.default_rng(6), rank=rank)


class TestPurity:
    def test_two_photon_formula(self):
        for lam in (0.0, 0.2, 0.5):
            sec = diag_sector(1, [lam, 1 - 2 * lam, lam])
            assert_allclose(sec.purity(), 6 * lam**2 - 4 * lam + 1, atol=1e-14)

    def test_maximally_mixed(self):
        assert_allclose(maximally_mixed(1.5).purity(), 0.25, atol=1e-15)


class TestPolarizationState:
    def test_single_sector_behaves_like_bare(self):
        rng = np.random.default_rng(5)
        sec = random_sector(1, rng)
        state = assemble([(1.0, sec)])
        assert_allclose(purity(state), purity(sec), atol=1e-15)
        assert state.entries[0][1] is sec

    def test_two_maximally_mixed_shells(self):
        state = assemble([(0.3, maximally_mixed(0.5)), (0.7, maximally_mixed(1))])
        from qpolar.multipole import analyze

        rep = analyze(state)
        assert rep.aggregate_order == 2
        assert all(s.spectrum.unpol_order == s.spectrum.max_rank for s in rep.shells)

    def test_thermal_like_state_is_unpolarized(self):
        # geometric photon-number weights over maximally mixed shells
        p = 0.4
        weights = [(1 - p) * p**n for n in range(6)]
        weights = [w / sum(weights) for w in weights]
        state = assemble([(w, maximally_mixed(n / 2)) for n, w in enumerate(weights)])
        from qpolar.multipole import analyze

        rep = analyze(state)
        assert rep.aggregate_order == max(sec.spin.twice for _, sec in state)
        assert np.all(rep.aggregate_cumulative < 1e-14)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            assemble([(0.5, maximally_mixed(1)), (0.6, maximally_mixed(0.5))])
        with pytest.raises(ValueError):
            assemble([(0.5, maximally_mixed(1)), (0.5, maximally_mixed(1))])
        with pytest.raises(ValueError):
            assemble([(-0.1, maximally_mixed(1)), (1.1, maximally_mixed(0.5))])


class TestRefusalsAndViews:
    def test_direction_refuses_non_finite_angles_and_the_zero_vector(self):
        with pytest.raises(ValueError, match="^theta must be a finite number, got nan$"):
            Direction(math.nan, 0.0)
        with pytest.raises(ValueError, match="^phi must be a finite number, got inf$"):
            Direction(0.3, math.inf)
        with pytest.raises(ValueError, match="^v must have a finite, nonzero norm, got 0.0$"):
            Direction.from_vector([0.0, 0.0, 0.0])

    def test_direction_from_a_vector_whose_squares_underflow(self):
        # squares summed below the normal floats lost digits (theta off by 7e-6 at 1e-160), or summed to 0.0
        want = Direction.from_vector([1.0, 2.0, 3.0])
        for scale in (1e-160, 1e-170, 1e-300):
            d = Direction.from_vector([scale, 2 * scale, 3 * scale])
            assert d.theta == pytest.approx(want.theta, rel=1e-15) and d.phi == pytest.approx(want.phi, rel=1e-15)
        # a subnormal norm has lost digits itself: [1, 2, 3] of the smallest float has theta 0.72, not 0.64
        with pytest.raises(ValueError, match="^v must have a norm of at least 2.2250738585072014e-308, got 2e-323$"):
            Direction.from_vector([5e-324, 1e-323, 1.5e-323])

    def test_trace_deviation_is_reported(self):
        rep = validate(SpinSector(0.5, np.eye(2), validate=False))
        assert not rep.trace_ok and rep.message() == "trace deviation 1.000e+00"

    def test_matrix_of_the_wrong_size_is_refused(self):
        with pytest.raises(ValueError, match=re.escape("rho must be a list of 3 entries, got array([[0.5, 0. ],")):
            SpinSector(1, np.eye(2) / 2)

    def test_sector_repr(self):
        assert repr(maximally_mixed(1.5)) == "SpinSector(spin=3/2, dim=4)"

    def test_non_finite_or_off_unit_sum_eigenvalues_and_amplitudes_of_the_wrong_length_are_refused(self):
        with pytest.raises(ValueError, match=r"^eigenvalues\[0\] must be a finite number, got nan$"):
            diag_sector(1, [math.nan, 0.5, 0.5])
        with pytest.raises(ValueError, match="^eigenvalues sum to 0.875, expected 1$"):
            diag_sector(1, [0.5, 0.25, 0.125])
        with pytest.raises(ValueError, match=r"^amplitudes must be a list of 3 entries, got \[1\.0, 0\.0\]$"):
            pure_sector(1, [1.0, 0.0])

    def test_polarization_state_refuses_no_shells_and_entries_that_are_no_sectors(self):
        with pytest.raises(ValueError, match="^polarization state needs at least one shell$"):
            assemble([])
        message = "entries[0][1] must be of type SpinSector, got array([[0.5, 0. ],"
        with pytest.raises(ValueError, match=re.escape(message)):
            assemble([(1.0, np.eye(2) / 2)])

    def test_polarization_state_views(self):
        state = assemble([(0.3, maximally_mixed(0.5)), (0.7, maximally_mixed(1))])
        assert [(w, sec.spin.twice) for w, sec in state] == [(0.3, 1), (0.7, 2)]
        assert repr(state) == "PolarizationState(S=1/2:0.3, S=1:0.7)"

    @pytest.mark.parametrize("attr", ["spin", "rho"])
    def test_sector_attributes_cannot_be_set_or_deleted(self, attr):
        sec = maximally_mixed(1)
        message = f"^a SpinSector is read-only: cannot set '{attr}'$"
        with pytest.raises(AttributeError, match=message):
            setattr(sec, attr, 7)
        with pytest.raises(AttributeError, match=message):
            delattr(sec, attr)
        assert sec.spin.twice == 2 and sec.rho.shape == (3, 3)

    def test_state_entries_cannot_be_set_or_deleted(self):
        state = assemble([(1.0, maximally_mixed(1))])
        with pytest.raises(AttributeError, match="^a PolarizationState is read-only: cannot set 'entries'$"):
            state.entries = ()
        with pytest.raises(AttributeError, match="^a PolarizationState is read-only: cannot set 'entries'$"):
            del state.entries
        assert len(state.entries) == 1

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_read_only_objects_still_copy_and_pickle(self, copier):
        # copy and pickle restore attributes past the refusing __setattr__
        sec = maximally_mixed(1)
        state, scan = assemble([(0.25, maximally_mixed(0.5)), (0.75, sec)]), scan_two_photon_family([0.1, 0.2])
        sec2, state2, scan2 = copier(sec), copier(state), copier(scan)
        assert sec2.spin == 1 and np.array_equal(sec2.rho, sec.rho)
        assert [(w, s.spin.twice) for w, s in state2] == [(0.25, 1), (0.75, 2)]
        assert list(scan2) == list(scan)
        with pytest.raises(AttributeError, match="^a SpinSector is read-only: cannot set 'spin'$"):
            sec2.spin = 2

    @pytest.mark.parametrize("view", [as_shells, purity])
    def test_views_refuse_what_is_no_state(self, view):
        message = "obj must be of type SpinSector or PolarizationState, got array("
        with pytest.raises(ValueError, match=re.escape(message)):
            view(np.eye(2) / 2)
