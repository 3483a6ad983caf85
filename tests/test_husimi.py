"""Husimi Q function: normalization, covariance, closed-form overlaps, export, kernel."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from shell_reference import q_grid_by_diagonals

import qpolar.catalog as catalog
from qpolar import husimi
from qpolar.angmom import _d_column, rotation_matrix
from qpolar.husimi import _grid_axes, _pair_index, _pair_table, export_qgrid, q_function, q_values
from qpolar.states import (
    Direction,
    SpinSector,
    coherent_amplitudes,
    maximally_mixed,
    random_angles,
    random_direction,
    random_sector,
    rotate,
    su2_coherent,
)


def overlap_oracle(amplitudes, theta, phi):
    """Closed-form |<theta,phi|psi>|^2 from the binomial coherent expansion."""
    t = len(amplitudes) - 1  # 2S
    ch, sh = math.cos(theta / 2), math.sin(theta / 2)
    total = 0.0j
    for i, a in enumerate(amplitudes):  # i = 0 is m = +S
        k = t - i  # S+m
        m = k - t / 2
        c = math.sqrt(math.comb(t, k)) * ch**k * sh ** (t - k) * np.exp(-1j * m * phi)
        total += np.conj(c) * a
    return abs(total) ** 2


def reference_q(rho, twice_s, thetas, phis):
    """Re <a|rho|a> over the coherent amplitudes of every (theta, phi) node."""
    amps = coherent_amplitudes(twice_s / 2, np.asarray(thetas)[:, None], np.asarray(phis)[None, :])
    return np.einsum("...k,...k->...", amps.conj(), amps @ rho.T).real


def reference_export(grid, path):
    """The CSV writer over QGrid.nodes(), one validated Direction per node."""
    with open(path, "w") as fh:
        fh.write("theta,phi,weight,Q\n")
        for direction, weight, value in grid.nodes():
            fh.write(f"{direction.theta!r},{direction.phi!r},{weight!r},{value!r}\n")


class TestFourierKernel:
    """q_function sums 2S+1 Fourier coefficients per theta; checked against Re <a|rho|a>."""

    @pytest.mark.parametrize("twice_s", [*range(13), 25, 40, 200])
    def test_matches_amplitude_reference(self, twice_s):
        rng = np.random.default_rng(500 + twice_s)
        for sec in (random_sector(twice_s / 2, rng), random_sector(twice_s / 2, rng, rank=1)):
            grid = q_function(sec, (64, 128))
            want = reference_q(sec.rho, twice_s, grid.thetas, grid.phis)
            assert_allclose(grid.values, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(64, 128), (1, 1), (64, 5), (3, 128)])
    def test_grid_shapes_at_2s_40(self, shape):
        rng = np.random.default_rng(510)
        sec = random_sector(20, rng)
        grid = q_function(sec, shape)
        assert grid.values.shape == shape
        assert_allclose(grid.values, reference_q(sec.rho, 40, grid.thetas, grid.phis), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("twice_s", [3, 10, 40])
    def test_anti_hermitian_noise_is_ignored_as_re_rho_is(self, twice_s):
        rng = np.random.default_rng(520 + twice_s)
        rho = random_sector(twice_s / 2, rng).rho
        g = rng.standard_normal(rho.shape) + 1j * rng.standard_normal(rho.shape)
        noisy = rho + 1e-12 * (g - g.conj().T)  # anti-Hermitian, invisible to Re <a|rho|a>
        grid = q_function(SpinSector(twice_s / 2, noisy, validate=False), (64, 128))
        assert_allclose(grid.values, reference_q(noisy, twice_s, grid.thetas, grid.phis), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("twice_s", [0, 3, 25])
    def test_q_values_equal_the_grid_at_its_nodes(self, twice_s):
        rng = np.random.default_rng(530 + twice_s)
        sec = random_sector(twice_s / 2, rng)
        grid = q_function(sec, (16, 24))
        at_nodes = q_values(sec, [d for d, _, _ in grid.nodes()])
        assert_allclose(at_nodes.reshape(grid.values.shape), grid.values, rtol=0, atol=1e-15)

    def test_cached_axes_are_read_only_and_shared(self):
        a = q_function(maximally_mixed(1), (8, 16))
        b = q_function(random_sector(1, np.random.default_rng(540)), (8, 16))
        assert a.thetas is b.thetas and a.theta_weights is b.theta_weights and a.phis is b.phis
        for axis in (a.thetas, a.theta_weights, a.phis):
            with pytest.raises(ValueError):
                axis[0] = 0.0
        assert not a.values.flags.writeable


SPINS = [*range(13), 25, 40, 200]
ULP_OF_ONE = np.spacing(1.0)  # Q lies in [0, 1]: one ulp of its largest value


def _sectors(twice_s):
    rng = np.random.default_rng(600 + twice_s)
    return random_sector(twice_s / 2, rng), random_sector(twice_s / 2, rng, rank=1)


@pytest.fixture
def fresh_axes():
    """An empty grid cache before and after, so that a patched budget decides every table built in between."""
    _grid_axes.cache_clear()
    yield
    _grid_axes.cache_clear()


class TestPairTable:
    """One gather of H and one stacked product with the pair table give the per-diagonal sums."""

    @pytest.mark.parametrize("twice_s", SPINS)
    def test_default_grid_has_the_bits_of_the_per_diagonal_sums(self, twice_s):
        for sec in _sectors(twice_s):
            grid = q_function(sec, (64, 128))
            want = q_grid_by_diagonals(sec.rho, grid.thetas, grid.phis)
            assert grid.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("twice_s", SPINS)
    def test_other_grids_are_within_one_ulp_of_the_per_diagonal_sums(self, twice_s):
        # BLAS may sum the padded and the exact-length products of a narrow grid in another order
        for shape in [(1, 1), (64, 5), (3, 128), (twice_s + 1, 2 * twice_s + 2)]:
            for sec in _sectors(twice_s):
                grid = q_function(sec, shape)
                want = q_grid_by_diagonals(sec.rho, grid.thetas, grid.phis)
                assert_allclose(grid.values, want, rtol=0, atol=ULP_OF_ONE)

    @pytest.mark.parametrize("twice_s", [0, 1, 2, 3, 8, 9])
    def test_table_rows_pair_the_diagonals_k_and_d_minus_k(self, twice_s):
        d, thetas = twice_s + 1, np.linspace(0.0, math.pi, 7)
        col = _d_column(twice_s, 0, thetas).T.copy()
        table = _pair_table(col)
        assert table.shape == (d // 2 + 1, d, 7)
        for k in range(d // 2 + 1):
            for i in range(d):
                assert table[k, i].tobytes() == (col[i] * col[(i + k) % d]).tobytes()

    def test_table_and_index_are_read_only_and_shared_by_the_states_on_one_grid(self, fresh_axes):
        _pair_index.cache_clear()
        a, b = _sectors(10)
        q_function(a, (16, 24))
        q_function(b, (16, 24))
        assert _grid_axes.cache_info()[:2] == (1, 1)  # hits, misses
        assert _pair_index.cache_info()[:2] == (1, 1)
        pairs, index = _grid_axes(10, 16, 24)[4], _pair_index(11)
        assert pairs.shape == (6, 11, 16) and index.shape == (6, 4, 11)
        for table in (pairs, index):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0, 0] = 0

    @pytest.mark.parametrize("twice_s, tiles", [(10, 1), (10, 3), (10, 8), (200, 6)])
    def test_tables_over_the_budget_are_built_in_blocks(self, fresh_axes, monkeypatch, twice_s, tiles):
        # the budget holds 8 * tiles + 5 thetas of the table (2S = 10: 11 * 6 entries each, 2S = 200: 201 * 101),
        # and a block is cut to whole 8-theta tiles, which BLAS sums as it sums them in one product
        monkeypatch.setattr(husimi, "MAX_ENTRIES", (twice_s + 1) * (twice_s // 2 + 1) * (8 * tiles + 5))
        for sec in _sectors(twice_s):
            grid = q_function(sec, (64, 128))
            assert grid.values.tobytes() == q_grid_by_diagonals(sec.rho, grid.thetas, grid.phis).tobytes()
        assert _grid_axes(twice_s, 64, 128)[4] is None

    def test_blocks_of_single_thetas_stay_within_one_ulp(self, fresh_axes, monkeypatch):
        monkeypatch.setattr(husimi, "MAX_ENTRIES", 66 * 3)
        for sec in _sectors(10):
            grid = q_function(sec, (20, 30))
            assert_allclose(grid.values, q_grid_by_diagonals(sec.rho, grid.thetas, grid.phis), rtol=0, atol=ULP_OF_ONE)

    def test_grids_past_the_budget_form_no_d_columns_once_warm(self, monkeypatch):
        # 2S = 100: 101 * 51 * 64 table entries, more than MAX_ENTRIES / 8, so only the columns are cached
        sec, calls = _sectors(100)[0], []
        want = q_function(sec, (64, 128))
        monkeypatch.setattr(husimi, "_d_column", lambda *args: calls.append(args) or _d_column(*args))
        assert q_function(sec, (64, 128)).values.tobytes() == want.values.tobytes()
        assert calls == [] and _grid_axes(100, 64, 128)[4] is None

    def test_only_tables_of_an_eighth_of_the_budget_are_cached(self):
        # 2S = 40: 41 * 21 * 64 entries; 2S = 200: 201 * 101 * 64, more than MAX_ENTRIES / 8
        assert _grid_axes(40, 64, 128)[4].shape == (21, 41, 64)
        assert _grid_axes(200, 64, 128)[4] is None

    def test_one_call_holds_at_most_the_budget_in_tables(self):
        sec = _sectors(200)[0]
        q_function(sec, (201, 402))  # the grid axes are cached outside the traced call
        tracemalloc.start()
        try:
            q_function(sec, (201, 402))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the blocks of the table, and less than 4 MB for rho, the coefficients and the 201 x 402 values
        assert peak < 8 * husimi.MAX_ENTRIES + 4e6

    @pytest.mark.parametrize("twice_s", [3, 40])
    def test_q_values_over_several_blocks_equal_the_grid_at_its_nodes(self, monkeypatch, twice_s):
        if twice_s == 3:  # 4 * 3 entries per direction: blocks of 64 directions
            monkeypatch.setattr(husimi, "MAX_ENTRIES", 12 * 64)
        sec = _sectors(twice_s)[0]
        grid = q_function(sec, (48, 64))  # at 2S = 40, 3072 nodes in blocks of 2320
        at_nodes = q_values(sec, [d for d, _, _ in grid.nodes()])
        assert_allclose(at_nodes.reshape(grid.values.shape), grid.values, rtol=0, atol=1e-15)

    def test_q_values_of_no_directions_are_empty(self):
        assert q_values(maximally_mixed(100), []).shape == (0,)

    def test_caches_hold_at_most_their_maxsize(self):
        for cache, calls in ((_grid_axes, [(3, n, 8) for n in range(1, 20)]), (_pair_index, [(d,) for d in range(1, 20)])):
            for args in calls:
                cache(*args)
            info = cache.cache_info()
            assert info.currsize == info.maxsize == 8


class TestQFunction:
    @pytest.mark.parametrize("twice_s", [1, 2, 4])
    def test_maximally_mixed_is_flat(self, twice_s):
        grid = q_function(maximally_mixed(twice_s / 2), (8, 16))
        assert_allclose(grid.values, 1.0 / (twice_s + 1), atol=1e-13)
        assert_allclose(grid.normalization(), 1.0, atol=1e-12)

    def test_coherent_peaks_at_its_direction(self):
        d = Direction(1.0, 2.0)
        grid = q_function(su2_coherent(2, d), (64, 128))
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert abs(grid.thetas[i] - d.theta) < math.pi / 32
        assert abs(grid.phis[j] - d.phi) < 2 * math.pi / 64
        assert grid.values[i, j] > 0.99

    @pytest.mark.parametrize("twice_s", range(1, 11))
    def test_normalization_random_states(self, twice_s):
        rng = np.random.default_rng(40 + twice_s)
        for _ in range(10):
            grid = q_function(random_sector(twice_s / 2, rng), (32, 64))
            assert abs(grid.normalization() - 1.0) < 1e-9

    def test_pointwise_bounds(self):
        rng = np.random.default_rng(41)
        grid = q_function(random_sector(2.5, rng), (24, 48))
        assert grid.values.min() >= -1e-12
        assert grid.values.max() <= 1.0 + 1e-12

    def test_pole_superposition_structure(self):
        # Q = |cos^3(t/2) e^{3i p/2} + sin^3(t/2) e^{-3i p/2}|^2 / 2:
        # poles sit at 1/2; the equator carries three lobes (1+cos 3p)/8
        # peaking at 1/4, so the polar values dominate
        sec = catalog.three_photon_pole_superposition()
        psi = np.array([1, 0, 0, 1]) / math.sqrt(2)
        north = q_values(sec, [Direction(0.0, 0.0)])[0]
        south = q_values(sec, [Direction(math.pi, 0.0)])[0]
        assert_allclose(north, 0.5, atol=1e-12)
        assert_allclose(south, 0.5, atol=1e-12)
        phis = np.linspace(0, 2 * math.pi, 7, endpoint=False)
        eq = q_values(sec, [Direction(math.pi / 2, p) for p in phis])
        assert_allclose(eq, (1 + np.cos(3 * phis)) / 8, atol=1e-12)
        assert eq.max() <= 0.25 + 1e-12
        # cross-check every value against the independent overlap oracle
        for p, v in zip(phis, eq):
            assert_allclose(v, overlap_oracle(psi, math.pi / 2, p), atol=1e-12)
        assert north > eq.max()

    def test_matches_overlap_oracle_on_random_pure_states(self):
        rng = np.random.default_rng(42)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        from qpolar.states import pure_sector

        sec = pure_sector(1.5, amps)
        for _ in range(10):
            d = random_direction(rng)
            got = q_values(sec, [d])[0]
            assert_allclose(got, overlap_oracle(amps, d.theta, d.phi), atol=1e-12)

    def test_rotation_covariance(self):
        rng = np.random.default_rng(43)
        for twice_s in (1, 3, 5):
            sec = random_sector(twice_s / 2, rng)
            ang = random_angles(rng)
            rot = rotate(sec, ang)
            r3 = rotation_matrix(ang)
            dirs = [random_direction(rng) for _ in range(20)]
            pulled = [Direction.from_vector(r3.T @ d.unit_vector) for d in dirs]
            assert_allclose(
                q_values(rot, dirs), q_values(sec, pulled), atol=1e-9
            )

    def test_coarse_grid_flag(self):
        grid = q_function(maximally_mixed(3), (4, 16))
        assert grid.coarse_warning
        fine = q_function(maximally_mixed(3), (8, 16))
        assert not fine.coarse_warning

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            q_function(maximally_mixed(1), (0, 8))

    @pytest.mark.parametrize(
        "grid, name",
        [((2.5, 5), "n_theta"), ((True, 5), "n_theta"), ((4, 8.0), "n_phi"), ((4, -1), "n_phi"), ((4, "8"), "n_phi")],
        ids=["fractional", "bool", "float", "negative", "string"],
    )
    def test_grid_sizes_must_be_positive_integers(self, grid, name):
        with pytest.raises(ValueError, match=f"grid size {name} must be an integer >= 1, got"):
            q_function(maximally_mixed(1), grid)
        assert q_function(maximally_mixed(1), (np.int64(3), np.int64(4))).values.shape == (3, 4)


class TestExport:
    def test_round_trip_and_ordering(self, tmp_path):
        rng = np.random.default_rng(44)
        grid = q_function(random_sector(1, rng), (6, 10))
        path = tmp_path / "q.csv"
        export_qgrid(grid, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert len(rows) == 6 * 10
        # theta-major, phi-minor ordering, bit-identical values
        k = 0
        for i in range(6):
            for j in range(10):
                th, ph, w, v = rows[k]
                assert th == grid.thetas[i] and ph == grid.phis[j]
                assert v == grid.values[i, j]
                k += 1

    def test_constant_column_for_maximally_mixed(self, tmp_path):
        grid = q_function(maximally_mixed(1), (4, 8))
        path = tmp_path / "flat.csv"
        export_qgrid(grid, path)
        vals = np.loadtxt(path, delimiter=",", skiprows=1)[:, 3]
        assert np.ptp(vals) < 1e-14 and abs(vals[0] - 1 / 3) < 1e-14

    @pytest.mark.parametrize("twice_s, shape", [(1, (6, 10)), (25, (64, 128)), (40, (3, 7))])
    def test_bytes_match_the_node_writer(self, tmp_path, twice_s, shape):
        grid = q_function(random_sector(twice_s / 2, np.random.default_rng(45)), shape)
        export_qgrid(grid, tmp_path / "fast.csv")
        reference_export(grid, tmp_path / "nodes.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "nodes.csv").read_bytes()

    def test_weights_sum_to_sphere_area(self, tmp_path):
        grid = q_function(maximally_mixed(0.5), (12, 8))
        total = sum(w for _, w, _ in grid.nodes())
        assert_allclose(total, 4 * math.pi, atol=1e-10)
