"""Every output check passes on a right value and fails on a deliberately wrong one.

A check that cannot fail would let a broken program through the benchmark,
so each test feeds the check a correct output, then the same output with
one quantity nudged past the check's tolerance.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref
import work_analysis
import work_cli
import work_measurement
import work_search


def fails(check, *args, **kwargs):
    with pytest.raises(ref.CheckFailed):
        check(*args, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ------------------------------------------------------------ own algebra

@pytest.mark.parametrize("two_s", [1, 2, 3, 10])
def test_spin_matrices_obey_the_algebra(two_s):
    sx, sy, sz = ref.spin_matrices(two_s)
    s = two_s / 2
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    np.testing.assert_allclose(sx @ sx + sy @ sy + sz @ sz, s * (s + 1) * np.eye(two_s + 1), atol=1e-12)
    assert sz[0, 0] == s   # m descending


def test_coherent_projector_is_the_top_eigenstate():
    p = ref.coherent_projector(3, 0.0, 0.0)
    assert abs(p[0, 0] - 1.0) < 1e-12   # north pole is |S, S>


def test_coherent_ceiling_known_values():
    assert ref.coherent_ceiling(1, 1) == Fraction(1, 2)
    assert ref.coherent_ceiling(2, 2) == Fraction(2, 3)
    assert ref.coherent_ceiling(2, 1) == Fraction(2, 3) - Fraction(4, 1 * 24)


# ----------------------------------------------------------------- checks

def test_check_state_matches(rng):
    rho = ref.ginibre(4, rng)
    ref.check_state_matches("s", rho, rho.copy())
    fails(ref.check_state_matches, "s", rho + 1e-9, rho)
    fails(ref.check_state_matches, "s", rho[:3, :3], rho)


def test_check_parseval(rng):
    rho = ref.ginibre(3, rng)
    w = [0.25, 0.1, 0.05, ref.purity(rho) - 0.4]
    ref.check_parseval("p", w, rho)
    fails(ref.check_parseval, "p", [w[0] + 1e-6] + w[1:], rho)


def test_check_invariant_strengths():
    w = np.array([0.25, 0.1, 0.3])
    ref.check_invariant_strengths("r", w, w + 1e-12)
    fails(ref.check_invariant_strengths, "r", w, w + np.array([0, 1e-6, 0]))


def test_check_coherent():
    two_s = 4
    a = [float(ref.coherent_ceiling(two_s, k)) for k in range(1, two_s + 1)]
    p = [1.0] * two_s
    ref.check_coherent("c", two_s, a, p)
    fails(ref.check_coherent, "c", two_s, [a[0] + 1e-6] + a[1:], p)
    fails(ref.check_coherent, "c", two_s, a, p[:-1] + [1.001])
    fails(ref.check_coherent, "c", two_s, a[:-1], p[:-1])


def test_check_spectrum_preserved(rng):
    rho = ref.ginibre(5, rng)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    ref.check_spectrum_preserved("u", rho, q @ rho @ q.conj().T)
    bent = q * (1.0 + 1e-6)
    fails(ref.check_spectrum_preserved, "u", rho, bent @ rho @ bent.conj().T)


def two_photon_rows():
    return [(lam, 2 * lam * lam + (1 - 2 * lam) ** 2,
             math.sqrt((3 * (2 * lam * lam + (1 - 2 * lam) ** 2) - 1) / 2))
            for lam in np.linspace(0, 0.5, 11)]


def test_check_two_photon_rows():
    rows = two_photon_rows()
    ref.check_two_photon_rows(rows)
    lam, pur, p2 = rows[3]
    fails(ref.check_two_photon_rows, rows[:3] + [(lam, pur, p2 + 1e-6)] + rows[4:])
    fails(ref.check_two_photon_rows, rows[:3] + [(lam, pur + 1e-6, p2)] + rows[4:])
    fails(ref.check_two_photon_rows, [])


def test_check_three_photon_first():
    rows = [(5 / 8, 0.0), (0.4, 1e-16), (None, None)]
    ref.check_three_photon_first(rows)
    fails(ref.check_three_photon_first, rows[1:])                     # optimum missing
    fails(ref.check_three_photon_first, rows + [(0.3, 1e-6)])         # a polarized point
    fails(ref.check_three_photon_first, [(None, None)])


def test_check_three_photon_second():
    rows = [(7 / 18, 0.0), (0.3, 0.0)]
    ref.check_three_photon_second(rows)
    fails(ref.check_three_photon_second, [(7 / 18 + 1e-9, 0.0)])
    fails(ref.check_three_photon_second, rows + [(0.3, 1e-6)])


def test_check_preset():
    ref.check_preset("fig4-left", 0.625, 1)
    ref.check_preset("fig4-right", 7 / 18, 2)
    fails(ref.check_preset, "fig4-left", 0.625, 2)
    fails(ref.check_preset, "fig4-right", 7 / 18 + 1e-9, 2)


def q_grid(two_s, rho, shape=(8, 16)):
    x, w = np.polynomial.legendre.leggauss(shape[0])
    thetas, weights = np.arccos(x[::-1]), w[::-1]
    phis = np.arange(shape[1]) * (2 * math.pi / shape[1])
    values = np.array([[np.vdot(ref.coherent_projector(two_s, t, p), rho).real for p in phis] for t in thetas])
    return values, thetas, phis, weights


def test_check_q_grid(rng):
    rho = ref.ginibre(3, rng)
    values, thetas, phis, weights = q_grid(3, rho)
    nodes = [(1, 2), (5, 9)]
    ref.check_q_grid("q", 3, rho, values, thetas, phis, weights, nodes)
    fails(ref.check_q_grid, "q", 3, rho, values * 1.001, thetas, phis, weights, nodes)
    swapped = values.copy()
    swapped[1, 2], swapped[1, 3] = values[1, 3], values[1, 2]     # normalization kept, node wrong
    fails(ref.check_q_grid, "q", 3, rho, swapped, thetas, phis, weights, nodes)
    negative = values.copy()
    negative[0, 0] -= 1.0
    negative[0, 1] += 1.0
    fails(ref.check_q_grid, "q", 3, rho, negative, thetas, phis, weights, [])


def test_check_components():
    want = {(0, 0): 0.5, (1, 0): 0.1 + 0.0j, (1, 1): 0.02 - 0.03j}
    ref.check_components("c", dict(want), want)
    fails(ref.check_components, "c", {**want, (1, 1): 0.02 - 0.03j + 1e-6}, want)
    fails(ref.check_components, "c", {**want, (2, 0): 0.0}, want)
    fails(ref.check_components, "c", {}, want)


def test_check_isotropic():
    ref.check_isotropic("mixed", np.eye(4) / 4, 3, 3)
    fails(ref.check_isotropic, "coherent", ref.coherent_projector(3, 0.4, 0.1), 3, 1)
    pole = np.diag([0.5, 0, 0, 0.5]).astype(complex)     # dipole-free, quadrupole present
    ref.check_isotropic("poles", pole, 3, 1)
    fails(ref.check_isotropic, "poles", pole, 3, 2)


def test_check_density_matrix(rng):
    rho = ref.ginibre(3, rng)
    ref.check_density_matrix("d", rho)
    fails(ref.check_density_matrix, "d", rho * 1.001)
    fails(ref.check_density_matrix, "d", rho + np.diag([0.2, -0.2, 0, 0]))
    fails(ref.check_density_matrix, "d", rho + 1e-6j * np.triu(np.ones((4, 4)), 1))


# -------------------------------------------------------- workload checks

def test_wigner_d_check():
    from qpolar import angmom

    d = angmom.wigner_small_d(5, 0.9)
    work_analysis._check_wigner_d(10, 0.9, d)
    fails(work_analysis._check_wigner_d, 10, 0.9, d * (1 + 1e-6))
    fails(work_analysis._check_wigner_d, 10, 0.91, d)


def test_reconstruction_check(rng):
    rho = ref.ginibre(2, rng)
    comps = {(0, 0): 1 / math.sqrt(3), (1, 0): 0.1}
    good = SimpleNamespace(components=comps, strengths=[1 / 3, 0.2, ref.purity(rho) - 1 / 3 - 0.2])
    work_measurement._check_reconstruction("r", 2, 2, rho, good, comps)
    bad = SimpleNamespace(components=comps, strengths=[1 / 3, 0.2 + 1e-6, ref.purity(rho) - 1 / 3 - 0.2])
    fails(work_measurement._check_reconstruction, "r", 2, 2, rho, bad, comps)


def search_result(rho, objective, residual, anticoherent=False):
    return SimpleNamespace(
        state=SimpleNamespace(rho=rho), objective=objective, residual=residual,
        is_anticoherent=anticoherent, history=(),
    )


def test_search_checks():
    cases = {c.name: c for c in work_search.CASES}
    fig4 = np.diag([0.0, 0.75, 0.0, 0.25]).astype(complex)
    work_search.check_result(cases["diag-3-1"], search_result(fig4, 0.625, 0.0), None)
    fails(work_search.check_result, cases["diag-3-1"], search_result(fig4, 0.625 + 1e-6, 0.0), None)
    fails(work_search.check_result, cases["diag-3-1"], search_result(fig4, 0.625, 1e-6), None)
    polarized = np.diag([0.0, 0.75, 0.25, 0.0]).astype(complex)
    fails(work_search.check_result, cases["diag-3-1"], search_result(polarized, 0.625, 0.0), None)
    mixed = np.eye(3) / 3
    general = cases["general-2-1"]
    fails(work_search.check_result, general, search_result(mixed, 1 / 3, 0.0), None)
    v = np.array([1, 0, 1]) / math.sqrt(2)          # (|1,1> + |1,-1>)/sqrt2: pure, no dipole
    work_search.check_result(general, search_result(np.outer(v, v).astype(complex), 1.0, 0.0), 0.5)
    fails(work_search.check_result, cases["general-3-2"],
          search_result(np.eye(4, dtype=complex) / 4, 0.25, 0.0), 7 / 18)   # below the diagonal optimum
    coherent = ref.coherent_projector(12, 0.3, 0.2)
    fails(work_search.check_result, cases["pure-12-3"], search_result(coherent, 1e-20, 1e-20, True), None)


def test_cli_checks():
    proc = SimpleNamespace(returncode=0, stdout=b"same", stderr=b"")
    first = work_cli.Outcome(proc, {"pure.json": b"{}"})
    work_cli.check_identical(first, work_cli.Outcome(proc, {"pure.json": b"{}"}))
    fails(work_cli.check_identical, first, work_cli.Outcome(proc, {"pure.json": b"{ }"}))
    fails(work_cli.check_identical, None, first)
    work_cli.check_exit("x", first)
    fails(work_cli.check_exit, "x", work_cli.Outcome(SimpleNamespace(returncode=2, stdout=b"", stderr=b"bad"), {}))
    rho = work_cli._rho_from_entry({"form": "pure", "data": [[1, 0], [0, 0], [0, 0], [1, 0]]})
    ref.check_state_matches("eq27-3p", rho, work_cli.PRESETS_2S3["eq27-3p"], 1e-15)


@pytest.fixture
def session(tmp_path):
    """A prepared cli workload, and its commands run in this process."""
    from qpolar.cli import main

    cli = work_cli.Cli(3, str(tmp_path))
    cli.prepare()
    cli.warm()
    proc = SimpleNamespace(returncode=0, stdout=b"", stderr=b"")

    def run(args, name):
        argv = [a if not a.endswith((".json", ".csv")) else str(tmp_path / a) for a in args]
        assert main(argv) == 0
        return work_cli.Outcome(proc, {name: (tmp_path / name).read_bytes()})

    return cli, run


def replace_field(out, name, row, column, transform):
    """The outcome with one CSV field of one data row transformed."""
    lines = out.files[name].decode().splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    fields = lines[data[row]].split(",")
    fields[column] = repr(transform(float(fields[column])))
    lines[data[row]] = ",".join(fields)
    return outcome({name: ("\n".join(lines) + "\n").encode()})


def outcome(files):
    return work_cli.Outcome(SimpleNamespace(returncode=0, stdout=b"", stderr=b""), files)


def test_cli_analyze_check(session):
    cli, run = session
    out = run(["analyze", "state25.json", "--out", "analyze25.csv"], "analyze25.csv")
    cli._check_analyze(out, "analyze25.csv", 25, cli.rho25)
    bad = replace_field(out, "analyze25.csv", 5, 5, lambda w: w + 1e-6)   # a W_K off by 1e-6
    fails(cli._check_analyze, bad, "analyze25.csv", 25, cli.rho25)


def test_cli_qfunc_check(session):
    cli, run = session
    out = run(["qfunc", "state25.json", "--out", "q25.csv"], "q25.csv")
    cli._check_qfunc(out)
    text = out.files["q25.csv"].decode().splitlines()
    scaled = [text[0]] + [",".join(r.split(",")[:3] + [repr(float(r.split(",")[3]) * 1.001)]) for r in text[1:]]
    fails(cli._check_qfunc, outcome({"q25.csv": "\n".join(scaled).encode()}))
    moved = replace_field(out, "q25.csv", cli.q_rows[0], 3, lambda q: q + 1e-6)
    fails(cli._check_qfunc, moved)


def test_cli_reconstruct_check(session):
    cli, run = session
    out = run(["reconstruct", "moments4.csv", "--two-s", "4", "--order", "4", "--out", "rec4.csv"], "rec4.csv")
    cli._check_reconstruct(out)
    fails(cli._check_reconstruct, replace_field(out, "rec4.csv", 2, 3, lambda re: re + 1e-6))


def test_cli_scan_and_search_checks(session):
    cli, run = session
    scan = run(["scan", "--family", "three-photon-first", "--points", "101", "--out", "scan.csv"], "scan.csv")
    cli._check_scan(scan)
    best = [i for i, line in enumerate(scan.files["scan.csv"].decode().splitlines()[2:])
            if line.split(",")[2] == "1" and abs(float(line.split(",")[3]) - 0.625) < 1e-12]
    assert len(best) == 2   # diag(0, 3/4, 0, 1/4) and its mirror image
    lowered = scan
    for row in best:
        lowered = replace_field(lowered, "scan.csv", row, 3, lambda p: p - 1e-6)
    fails(cli._check_scan, lowered)
    diag = run(["search", "--two-s", "3", "--order", "1", "--class", "diagonal", "--out", "diag.json"], "diag.json")
    cli._check_search_diagonal(diag)
    doc = json.loads(diag.files["diag.json"])
    doc["metadata"]["objective"] += 1e-6
    fails(cli._check_search_diagonal, outcome({"diag.json": json.dumps(doc).encode()}))


def test_cli_make_state_check(session):
    cli, run = session
    out = run(["make-state", cli.preset, "--out", "preset.json"], "preset.json")
    cli._check_make_state(out)
    doc = json.loads(out.files["preset.json"])
    doc["sectors"][0]["data"][0] = [0.5, 0.0] if doc["sectors"][0]["form"] == "pure" else 0.5
    fails(cli._check_make_state, outcome({"preset.json": json.dumps(doc).encode()}))
