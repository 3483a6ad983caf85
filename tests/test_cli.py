"""CLI surface: subcommands, file outputs, exit codes, determinism."""

import copy
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qpolar import husimi, search
from qpolar.catalog import PRESETS
from qpolar.cli import main
from qpolar.stateio import MAX_TWO_S, SchemaError, load_state, state_from_dict
from qpolar.states import diag_sector, random_sector
from qpolar.stokes import sample_moments, tomography_directions, write_moments


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestMakeStateAndAnalyze:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_emit_valid_states(self, tmp_path, name):
        out = tmp_path / f"{name}.json"
        assert run_cli("make-state", name, "--out", out) == 0
        load_state(out)
        assert run_cli("analyze", out) == 0

    def test_analyze_pole_superposition(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run_cli("make-state", "eq27-3p", "--out", out)
        capsys.readouterr()
        assert run_cli("analyze", out) == 0
        text = capsys.readouterr().out
        assert "unpolarization order: 1" in text
        assert "hidden polarization at K = 2" in text

    def test_analyze_fig4_right(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        run_cli("make-state", "fig4-right", "--out", out)
        capsys.readouterr()
        run_cli("analyze", out)
        text = capsys.readouterr().out
        assert "unpolarization order: 2" in text
        assert "purity=0.388888888" in text

    def test_analyze_maximally_mixed(self, tmp_path, capsys):
        path = tmp_path / "mm.json"
        path.write_text(json.dumps(
            {"sectors": [{"two_S": 2, "weight": 1.0, "form": "diag",
                          "data": [1 / 3, 1 / 3, 1 / 3]}]}
        ))
        capsys.readouterr()
        assert run_cli("analyze", path) == 0
        text = capsys.readouterr().out
        assert "unpolarization order: 2 (fully unpolarized)" in text
        assert "hidden polarization" not in text

    def test_analyze_csv_out(self, tmp_path):
        state = tmp_path / "s.json"
        table = tmp_path / "t.csv"
        run_cli("make-state", "fig4-left", "--out", state)
        assert run_cli("analyze", state, "--out", table) == 0
        rows = [l for l in table.read_text().splitlines() if l and not l.startswith("#")]
        assert rows[0] == "two_S,K,q,re,im,W_K,A_K,P_K"
        assert len(rows) == 1 + 16  # header + (2S+1)^2 components

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sectors": [{"two_S": 2, "weight": 1.0, "form": "diag", "data": [2.0, 0, -1.0]}]}')
        assert run_cli("analyze", bad) == 2

    def test_bad_tol_exit_code(self, tmp_path):
        state = tmp_path / "s.json"
        run_cli("make-state", "fig4-left", "--out", state)
        assert run_cli("analyze", state, "--tol", "-1") == 2


def _state_file(tmp_path, sector):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"sectors": [sector]}))
    return path


VALID_SECTOR = {"two_S": 2, "weight": 1.0, "form": "diag", "data": [0.25, 0.5, 0.25]}


def _maximally_mixed_entry(two_s, form, weight):
    """A valid shell: I/d as diag or matrix, or the equal-amplitude pure state."""
    d = two_s + 1
    if form == "diag":
        data = [1.0 / d] * d
    elif form == "matrix":
        data = [[[1.0 / d if r == c else 0.0, 0.0] for c in range(d)] for r in range(d)]
    else:  # pure
        data = [[1.0 / math.sqrt(d), 0.0] for _ in range(d)]
    return {"two_S": two_s, "weight": weight, "form": form, "data": data}


@st.composite
def non_finite_states(draw):
    """A valid state of 1-3 shells, and a copy with one number made nan, +inf or -inf."""
    spins = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    valid = {"sectors": [
        _maximally_mixed_entry(t, draw(st.sampled_from(["diag", "matrix", "pure"])), 1.0 / len(spins))
        for t in spins
    ]}
    bad = copy.deepcopy(valid)
    entry = bad["sectors"][draw(st.integers(0, len(spins) - 1))]
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if draw(st.booleans()):
        entry["weight"] = value
        return valid, bad
    index = draw(st.integers(0, entry["two_S"]))
    if entry["form"] == "diag":
        entry["data"][index] = value
        return valid, bad
    row = entry["data"][index]
    if entry["form"] == "matrix":
        row = row[draw(st.integers(0, entry["two_S"]))]
    row[draw(st.integers(0, 1))] = value
    return valid, bad


class TestInputContract:
    @pytest.mark.parametrize(
        "sector,argv",
        [
            ({**VALID_SECTOR, "data": [math.nan, 0.5, 0.5]}, ["analyze", "{state}"]),
            ({"two_S": True, "weight": 1.0, "form": "diag", "data": [0.5, 0.5]}, ["analyze", "{state}"]),
            ({**VALID_SECTOR, "weight": math.nan}, ["analyze", "{state}"]),
            ({"two_S": 1, "weight": 1.0, "form": "pure", "data": [[1.5e308, 0.0], [1.5e308, 0.0]]},
             ["analyze", "{state}"]),
            (VALID_SECTOR, ["analyze", "{state}", "--tol", "nan"]),
            (None, ["search", "--two-s", 3, "--order", 1, "--class", "pure", "--restarts", 0]),
            (None, ["search", "--two-s", 2, "--order", 1, "--class", "general", "--restarts", 0]),
            ({**VALID_SECTOR, "weight": 10**400}, ["analyze", "{state}"]),
            ({**VALID_SECTOR, "data": [0.25, 10**400, 0.25]}, ["analyze", "{state}"]),
            ({"two_S": 1, "weight": 1.0, "form": "pure", "data": [[1.0, 0.0], [0.0, 10**400]]},
             ["analyze", "{state}"]),
            ({"two_S": 1, "weight": 1.0, "form": "matrix",
              "data": [[[0.5, 0.0], [10**400, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
             ["analyze", "{state}"]),
            ({"two_S": 2, "weight": 1.0, "form": "fock", "data": {"two_m": 10**400}},
             ["analyze", "{state}"]),
            ({"two_S": 2, "weight": 1.0, "form": "coherent", "data": {"theta": 10**400, "phi": 0.0}},
             ["analyze", "{state}"]),
        ],
        ids=["nan-diag", "bool-two-s", "nan-weight", "overflowing-pure", "nan-tol",
             "pure-no-restarts", "general-no-restarts", "huge-int-weight", "huge-int-diag",
             "huge-int-pure", "huge-int-matrix", "huge-int-two-m", "huge-int-theta"],
    )
    def test_invalid_input_exits_2(self, tmp_path, capsys, sector, argv):
        state = _state_file(tmp_path, sector) if sector is not None else None
        capsys.readouterr()
        assert run_cli(*[state if a == "{state}" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "unpolarization order" not in captured.out

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(states=non_finite_states())
    def test_non_finite_value_exits_2(self, tmp_path, states):
        valid, bad = states
        state_from_dict(valid)  # the injected value is the only fault
        with pytest.raises(SchemaError):
            state_from_dict(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))  # nan and ±inf are written as NaN and ±Infinity
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize(
        "command,two_s",
        [(["search", "--order", 1], 10**9), (["make-state", "eq15-coherent"], 10**9),
         (["search", "--order", 1], -1), (["make-state", "eq15-coherent"], -1)],
        ids=["command0", "command1", "search-negative", "make-state-negative"],
    )
    def test_two_s_above_bound_exits_2(self, tmp_path, capsys, command, two_s):
        capsys.readouterr()
        assert run_cli(*command, "--two-s", two_s, "--out", tmp_path / "s.json") == 2
        assert f"--two-s must be an integer in [0, MAX_TWO_S] = [0, {MAX_TWO_S}], got {two_s}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,flag,value",
        [("eq23-pson", "--alpha", "nan"), ("eq23-pson", "--alpha", "inf"),
         ("eq23-pson", "--beta", "nan"), ("eq29-diag32nd", "--lam", "nan")],
    )
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, name, flag, value):
        # a RuntimeWarning would fail this test: the suite turns them into errors
        out = tmp_path / "s.json"
        capsys.readouterr()
        assert run_cli("make-state", name, flag, value, "--out", out) == 2
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestQfunc:
    def test_grid_csv(self, tmp_path):
        state = tmp_path / "s.json"
        out = tmp_path / "q.csv"
        run_cli("make-state", "eq27-3p", "--out", state)
        assert run_cli("qfunc", state, "--grid", "12x24", "--out", out) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert len(rows) == 12 * 24
        total = rows[:, 2] @ rows[:, 3]
        assert_allclose(4 / (4 * math.pi) * total, 1.0, atol=1e-9)

    def test_multi_shell_outputs(self, tmp_path):
        state = tmp_path / "two.json"
        state.write_text(json.dumps({"sectors": [
            {"two_S": 1, "weight": 0.5, "form": "diag", "data": [0.5, 0.5]},
            {"two_S": 2, "weight": 0.5, "form": "diag", "data": [1 / 3, 1 / 3, 1 / 3]},
        ]}))
        out = tmp_path / "q.csv"
        assert run_cli("qfunc", state, "--grid", "8x16", "--out", out) == 0
        assert (tmp_path / "q_2S1.csv").exists() and (tmp_path / "q_2S2.csv").exists()


class TestReconstruct:
    def test_round_trip(self, tmp_path, capsys):
        sec = diag_sector(1, [0.2, 0.6, 0.2])
        moments = tmp_path / "m.csv"
        write_moments(sample_moments(sec, tomography_directions(5), 2), moments)
        out = tmp_path / "rec.csv"
        capsys.readouterr()
        assert run_cli("reconstruct", moments, "--two-s", 2, "--order", 2, "--out", out) == 0
        text = capsys.readouterr().out
        assert "condition number" in text
        lam = 0.2
        rows = [l for l in out.read_text().splitlines() if l.startswith("2,2,0,")]
        assert rows, "quadrupole row missing"
        a2 = float(rows[0].split(",")[6])
        assert abs(a2 - (3 * lam - 1) ** 2 * 2 / 3) < 1e-10

    def test_moments_written_from_numpy_values_are_read(self, tmp_path, capsys):
        # write_moments once wrote np.float64(...) fields, and reconstruct refused the file with exit 2
        sec = diag_sector(1, [0.2, 0.6, 0.2])
        samples = sample_moments(sec, tomography_directions(5), 2)
        moments, plain = tmp_path / "m.csv", tmp_path / "plain.csv"
        write_moments([dataclasses.replace(s, value=np.float64(s.value)) for s in samples], moments)
        write_moments(samples, plain)
        assert moments.read_bytes() == plain.read_bytes()
        assert run_cli("reconstruct", moments, "--two-s", 2, "--order", 2) == 0

    @pytest.mark.parametrize("ell", [3, 10**400], ids=["ell-3", "ell-1e400"])
    def test_moment_order_above_k_max_exits_2(self, tmp_path, capfd, ell):
        sec = diag_sector(1, [0.2, 0.6, 0.2])
        moments = tmp_path / "m.csv"
        write_moments(sample_moments(sec, tomography_directions(5), 2), moments)
        with open(moments, "a") as fh:
            fh.write(f"0.3,0.4,{ell},0.5\n")
        capfd.readouterr()
        assert run_cli("reconstruct", moments, "--two-s", 2, "--order", 2) == 2
        captured = capfd.readouterr()
        assert f"l = {ell} carry ranks above k_max = 2" in captured.err
        assert captured.out == ""  # refused before any matrix power or least-squares call

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_moment_exits_2(self, tmp_path, capfd, bad):
        sec = diag_sector(1, [0.2, 0.6, 0.2])
        samples = sample_moments(sec, tomography_directions(9), 2)
        assert len(samples) == 18
        moments = tmp_path / "m.csv"
        write_moments(samples, moments)
        lines = moments.read_text().splitlines()
        head, value = lines[6].rsplit(",", 1)
        lines[6] = f"{head},{bad}"  # the sixth sample, index 5
        moments.write_text("\n".join(lines) + "\n")
        capfd.readouterr()
        assert run_cli("reconstruct", moments, "--two-s", 2, "--order", 2) == 2
        captured = capfd.readouterr()
        assert captured.err == f"error: sample values[5] must be a finite number, got {float(bad)!r}\n"
        assert captured.out == ""

    def test_large_spin_minimal_directions(self, tmp_path):
        sec = random_sector(20, np.random.default_rng(48))
        moments = tmp_path / "m.csv"
        write_moments(sample_moments(sec, tomography_directions(21), 10), moments)
        assert run_cli("reconstruct", moments, "--two-s", 40, "--order", 10) == 0

    def test_rank_deficient_exit_code(self, tmp_path):
        sec = diag_sector(1, [0.2, 0.6, 0.2])
        d = tomography_directions(1) * 5
        moments = tmp_path / "m.csv"
        write_moments(sample_moments(sec, d, 2), moments)
        assert run_cli("reconstruct", moments, "--two-s", 2, "--order", 2) == 3


class TestSearchAndScan:
    def test_axial_search_writes_result(self, tmp_path, capsys):
        out = tmp_path / "best.json"
        capsys.readouterr()
        assert run_cli("search", "--two-s", 3, "--order", 2, "--class", "axial", "--out", out) == 0
        text = capsys.readouterr().out
        assert "0.3888888888" in text
        obj = json.loads(out.read_text())
        assert obj["metadata"]["order"] == 2
        ((_, sec),) = load_state(out)
        assert sec.spin == 1.5
        assert_allclose(sec.purity(), 7 / 18, atol=1e-12)

    def test_diagonal_search_reports_the_vertices_it_solved(self, tmp_path, capsys):
        # the diagonal solver enumerates vertices and does not use --restarts
        out = tmp_path / "best.json"
        capsys.readouterr()
        assert run_cli("search", "--two-s", 3, "--order", 1, "--class", "diagonal", "--out", out) == 0
        text = capsys.readouterr().out
        assert "seed=0 restarts=4 digest=" in text
        assert "stop reasons: converged=4 stalled=0 max-iter=0" in text
        assert json.loads(out.read_text())["metadata"]["restarts"] == 4

    def test_diagonal_search_refuses_an_unbounded_enumeration(self, capsys):
        capsys.readouterr()
        assert run_cli("search", "--two-s", 40, "--order", 20, "--class", "diagonal") == 2
        supports = math.comb(41, 21)
        assert f"would try {supports} eigenvalue supports of 21 levels" in capsys.readouterr().err

    def test_search_refuses_an_oversized_jacobian(self, capsys):
        capsys.readouterr()
        assert run_cli("search", "--two-s", 200, "--order", 200) == 2
        assert f"Jacobian of {200 * 202 * 2 * 201 * 201} entries" in capsys.readouterr().err

    def test_pure_search_reports_nonexistence(self, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli("search", "--two-s", 1, "--order", 1, "--class", "pure",
                       "--restarts", 6) == 0
        text = capsys.readouterr().out
        assert "no pure solution; min A_1 = 0.5" in text

    def test_pure_search_stalls_at_the_three_photon_minimum(self, tmp_path, capsys):
        # no pure three-photon state is second-order unpolarized; each of the
        # 64 default restarts must stop at A_2 = 1/4 well before its budget
        out = tmp_path / "best.json"
        capsys.readouterr()
        assert run_cli("search", "--two-s", 3, "--order", 2, "--class", "pure", "--out", out) == 0
        text = capsys.readouterr().out
        assert "min A_2 = 0.25" in text
        assert "stop reasons: converged=0 stalled=64 max-iter=0" in text
        stops = json.loads(out.read_text())["metadata"]["stop_reasons"]
        assert list(stops.items()) == [("converged", 0), ("stalled", 64), ("max-iter", 0)]

    def test_scan_two_photon(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli("scan", "--family", "two-photon", "--points", 101, "--out", out) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert rows[0] == "lam,purity,P_2"
        assert len(rows) == 102
        for line in rows[1:]:
            lam, pur, p2 = map(float, line.split(","))
            assert abs(p2 - math.sqrt((3 * pur - 1) / 2)) < 1e-12

    def test_scan_three_photon_second(self, tmp_path):
        out = tmp_path / "f2.csv"
        assert run_cli("scan", "--family", "three-photon-second", "--points", 25, "--out", out) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        purities = [float(l.split(",")[3]) for l in rows[1:] if l.split(",")[2] == "1"]
        assert max(purities) == pytest.approx(7 / 18, abs=1e-12)

    def test_scan_three_photon_first_grid_is_lam3_major(self, tmp_path):
        out = tmp_path / "f1.csv"
        assert run_cli("scan", "--family", "three-photon-first", "--points", 5, "--out", out) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        grid = [(l3, l4) for l3 in np.linspace(0.0, 1.0, 5) for l4 in np.linspace(0.0, 0.5, 5)]
        assert [(float(r[0]), float(r[1])) for r in rows] == grid
        assert all(float(r[4]) < 1e-12 for r in rows if r[2] == "1")
        assert sum(r[2] == "1" for r in rows) > 0

    def test_scan_refuses_no_points(self, capsys):
        capsys.readouterr()
        assert run_cli("scan", "--family", "two-photon", "--points", 0) == 2
        assert "--points must be an integer >= 1, got 0" in capsys.readouterr().err

    def test_scan_with_no_feasible_point_writes_its_csv(self, tmp_path, capsys):
        out = tmp_path / "f1.csv"
        capsys.readouterr()
        assert run_cli("scan", "--family", "three-photon-first", "--points", 1, "--out", out) == 0
        assert "three-photon-first family: 0 feasible of 1 grid points\n" in capsys.readouterr().out
        assert out.read_text().splitlines()[1:] == ["lam3,lam4,feasible,purity,A_1,A_2,A_3", "0.0,0.0,0,,,,"]


    @pytest.mark.parametrize("points", [1, 2, 7, 101])
    @pytest.mark.parametrize("family", ["two-photon", "three-photon-first", "three-photon-second"])
    def test_scan_csv_is_the_row_formatting_of_the_scan(self, tmp_path, capsys, family, points):
        # the CSV is written from the columns; it must hold the bytes that formatting each row gives
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--family", family, "--points", points, "--out", out) == 0
        if family == "two-photon":
            rows = list(search.scan_two_photon_family(np.linspace(0.0, 0.5, points)))
            lines = ["lam,purity,P_2"] + ["%r,%r,%r" % r for r in rows]
            summary = (f"two-photon family: {len(rows)} rows, purity range "
                       f"[{min(r.purity for r in rows):.6g}, {max(r.purity for r in rows):.6g}]")
        else:
            if family == "three-photon-first":
                grid = [(l3, l4) for l3 in np.linspace(0.0, 1.0, points) for l4 in np.linspace(0.0, 0.5, points)]
                rows = list(search.scan_three_photon_family("first-order", grid))
            else:
                rows = list(search.scan_three_photon_family("second-order", np.linspace(1 / 6, 1 / 3, points)))
            lines = ["lam3,lam4,feasible,purity,A_1,A_2,A_3"] + [
                "%r,%r,%d,%r,%r,%r,%r" % r if r.feasible else "%r,%r,0,,,," % r[:2] for r in rows]
            kept = [r for r in rows if r.feasible]
            best = f", max purity {max(r.purity for r in kept):.9g}" if kept else ""
            summary = f"{family} family: {len(kept)} feasible of {len(rows)} grid points{best}"
        head = f"# scan family={family} points={points}\n"
        assert out.read_bytes() == (head + "\n".join(lines) + "\n").encode()
        assert capsys.readouterr().out.splitlines()[0] == summary


class TestDeterminism:
    def _run_subprocess(self, workdir, out_name):
        cmd = [
            sys.executable, "-m", "qpolar", "search",
            "--two-s", "2", "--order", "1", "--class", "general",
            "--restarts", "4", "--seed", "1", "--out", out_name,
        ]
        res = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return (workdir / out_name).read_bytes(), res.stdout

    def test_search_outputs_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        d1.mkdir(), d2.mkdir()
        b1, s1 = self._run_subprocess(d1, "a.json")
        b2, s2 = self._run_subprocess(d2, "a.json")
        assert b1 == b2
        assert s1 == s2

    def test_scan_outputs_byte_identical(self, tmp_path):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            res = subprocess.run(
                [sys.executable, "-m", "qpolar", "scan", "--family", "two-photon",
                 "--points", "31", "--out", name],
                cwd=tmp_path, capture_output=True, text=True,
            )
            assert res.returncode == 0, res.stderr
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]


def test_import_loads_neither_fractions_nor_decimal():
    # the coherent-state ceilings are int/int divisions, so start-up needs no rational arithmetic
    res = subprocess.run(
        [sys.executable, "-c", "import sys, qpolar.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestUncommonPaths:
    @pytest.mark.parametrize("grid", ["64by128", "8x16x2", "x16"])
    def test_malformed_grid_exits_2(self, tmp_path, capsys, grid):
        state, out = tmp_path / "s.json", tmp_path / "q.csv"
        run_cli("make-state", "eq27-3p", "--out", state)
        capsys.readouterr()
        assert run_cli("qfunc", state, "--grid", grid, "--out", out) == 2
        assert capsys.readouterr().err == f"error: --grid expects NTHETAxNPHI, e.g. 64x128; got {grid!r}\n"
        assert not out.exists()

    def test_analyze_prints_the_aggregate_of_several_shells(self, tmp_path, capsys):
        state = tmp_path / "two.json"
        state.write_text(json.dumps({"sectors": [
            {"two_S": 1, "weight": 0.5, "form": "fock", "data": {"two_m": 1}},
            {"two_S": 2, "weight": 0.5, "form": "diag", "data": [1 / 3, 1 / 3, 1 / 3]},
        ]}))
        capsys.readouterr()
        assert run_cli("analyze", state) == 0
        lines = capsys.readouterr().out.splitlines()
        # the spin-1/2 shell is coherent, A_1 = 1/2, and its A_K saturates at K = 2
        assert lines[-2:] == ["aggregate (weighted by P_S): A_1=0.25, A_2=0.25",
                              "aggregate order: 0; block purity: 0.333333333333"]

    @pytest.mark.parametrize(
        "argv, entry",
        [(["eq24-diag2", "--lam", "0.125"], {"two_S": 2, "form": "diag", "data": [0.125, 0.75, 0.125]}),
         (["eq15-coherent", "--theta", "0.5", "--phi", "1.0", "--two-s", "4"],
          {"two_S": 4, "form": "coherent", "data": {"theta": 0.5, "phi": 1.0}})],
        ids=["lam", "theta-phi-two-s"],
    )
    def test_make_state_passes_finite_parameters(self, tmp_path, argv, entry):
        out = tmp_path / "s.json"
        assert run_cli("make-state", *argv, "--out", out) == 0
        assert json.loads(out.read_text())["sectors"] == [{**entry, "weight": 1.0}]

    def test_q_normalization_off_on_an_adequate_grid_exits_4(self, tmp_path, capsys, monkeypatch):
        state, out = tmp_path / "s.json", tmp_path / "q.csv"
        run_cli("make-state", "eq27-3p", "--out", state)
        monkeypatch.setattr(husimi.QGrid, "normalization", lambda self: 1.25)
        capsys.readouterr()
        assert run_cli("qfunc", state, "--grid", "8x16", "--out", out) == 4
        assert capsys.readouterr().err == "error: Q normalization 1.25 deviates beyond 1e-6 on an adequate grid\n"
        assert not out.exists()

    def test_general_solution_off_the_constraint_exits_4(self, tmp_path, capsys, monkeypatch):
        solve = search.max_purity_unpolarized
        monkeypatch.setattr(search, "max_purity_unpolarized", lambda p: dataclasses.replace(solve(p), residual=2e-8))
        out = tmp_path / "g.json"
        capsys.readouterr()
        assert run_cli("search", "--two-s", 2, "--order", 1, "--restarts", 1, "--out", out) == 4
        assert capsys.readouterr().err == "error: solution violates the order-1 constraint: A_K = 2.000e-08\n"
        assert not out.exists()
