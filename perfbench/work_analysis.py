"""`analysis` workload: load state files, analyse and rotate them, scan the paper families.

The warm multipole spectrum and the Wigner-d rotation do almost all the
work here; solvers, Q grids and tomography do none.  Each round loads and
analyses every state file, rotates every single-shell state, evaluates two
Wigner-d matrices, builds the four paper presets, runs the three family
scans, and tries the two rotation probes at 2S = 80 and 2S = 120.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref
from qpolar import angmom, catalog, multipole, search, stateio, states

SPINS = (3, 10, 25, 40)
KINDS = ("ginibre", "pure", "coherent", "fock", "diag")
MULTI_SHELL = ((3, 10, 25), (10, 40))
PRESETS = ("fig4-left", "fig4-right", "eq27-3p", "eq23-pson")
WIGNER_SPINS = (10, 40)
# rotations at beta = pi/2 that the factorial-sum Wigner-d gets wrong (80) or overflows on (120);
# their input is fixed, so they fail the same way on every seed
PROBE_SPINS = (80, 120)
PROBE_ANGLES = angmom.EulerAngles(0.3, math.pi / 2, 0.7)
SCAN_POINTS = 101


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _shell(kind: str, two_s: int, rng: np.random.Generator) -> tuple[dict, np.ndarray]:
    """One sector entry of the state-file schema and the density matrix it stands for."""
    d = two_s + 1
    if kind == "ginibre":
        rho = ref.ginibre(two_s, rng)
        return {"form": "matrix", "data": [_pairs(row) for row in rho]}, rho
    if kind == "pure":
        v = ref.haar_pure(two_s, rng)
        return {"form": "pure", "data": _pairs(v)}, np.outer(v, v.conj())
    if kind == "coherent":
        theta, phi = ref.direction(rng)
        return {"form": "coherent", "data": {"theta": theta, "phi": phi}}, ref.coherent_projector(two_s, theta, phi)
    if kind == "fock":
        index = int(rng.integers(d))
        rho = np.zeros((d, d), dtype=complex)
        rho[index, index] = 1.0
        return {"form": "fock", "data": {"two_m": two_s - 2 * index}}, rho
    p = ref.simplex(d, rng)
    return {"form": "diag", "data": [float(x) for x in p]}, np.diag(p).astype(complex)


class StateFile:
    def __init__(self, label: str, path: str, shells: list[tuple[float, int, np.ndarray]], kind: str):
        self.label = label
        self.path = path
        self.shells = shells          # (weight, 2S, expected rho)
        self.kind = kind
        self.two_s = shells[0][1] if len(shells) == 1 else None   # spans of multi-shell files carry no 2S


class Analysis:
    name = "analysis"
    spins = SPINS

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 101])
        self.workdir = workdir
        self.files: list[StateFile] = []

    def prepare(self) -> None:
        rng = self.rng
        for two_s in SPINS:
            for kind in KINDS:
                entry, rho = _shell(kind, two_s, rng)
                self._write(f"{kind}-2S{two_s}", [(1.0, two_s, entry, rho)], kind)
        for spins in MULTI_SHELL:
            weights = ref.simplex(len(spins), rng)
            shells = []
            for w, two_s, kind in zip(weights, spins, ("ginibre", "pure", "diag")):
                entry, rho = _shell(kind, two_s, rng)
                shells.append((float(w), two_s, entry, rho))
            self._write("multi-2S" + "-".join(map(str, spins)), shells, "multi")
        self.angles = [angmom.EulerAngles(*ref.euler_angles(rng)) for f in self.files if len(f.shells) == 1]
        self.betas = [float(rng.uniform(0.0, math.pi)) for _ in WIGNER_SPINS]
        self.probes = []
        for two_s in PROBE_SPINS:
            p = np.arange(1, two_s + 2, dtype=float)
            self.probes.append(states.diag_sector(two_s / 2, p / p.sum()))

    def _write(self, label, shells, kind) -> None:
        path = os.path.join(self.workdir, f"{label}.json")
        doc = {"sectors": [{"two_S": t, "weight": w, **entry} for w, t, entry, _ in shells]}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        self.files.append(StateFile(label, path, [(w, t, rho) for w, t, _, rho in shells], kind))

    def warm(self) -> None:
        """Load the single-shell files once, for the rotations and their W_K before rotation."""
        self.sectors = []
        for f in self.files:
            if len(f.shells) == 1:
                sector = stateio.load_state(f.path).entries[0][1]
                self.sectors.append((f, sector, multipole.state_multipoles(sector).strengths))

    # ------------------------------------------------------------- one round

    def run_round(self, rec) -> None:
        for f in self.files:
            rec.attempt(
                "analyze", f.label, f.two_s,
                lambda f=f: self._load_and_analyze(rec, f),
                lambda out, f=f: _check_analysis(f, *out),
            )
        for (f, sector, before), angles in zip(self.sectors, self.angles):
            rec.attempt(
                "rotate", f.label, f.two_s,
                lambda s=sector, a=angles: rec.call("states", states.rotate, s, a, two_s=s.spin.twice),
                lambda out, f=f, w=before: _check_rotation(f, w, out),
            )
        for two_s, beta in zip(WIGNER_SPINS, self.betas):
            rec.attempt(
                "wigner_d", f"wigner_d-2S{two_s}", two_s,
                lambda t=two_s, b=beta: rec.call("angmom", angmom.wigner_small_d, t / 2, b, two_s=t),
                lambda out, t=two_s, b=beta: _check_wigner_d(t, b, out),
            )
        for name in PRESETS:
            rec.attempt(
                "preset", name, None,
                lambda n=name: self._preset(rec, n),
                lambda out, n=name: ref.check_preset(
                    n, out.shells[0].purity, out.shells[0].spectrum.unpol_order),
            )
        self._scans(rec)
        for sector in self.probes:
            rec.attempt(
                "probe", f"probe-2S{sector.spin.twice}", sector.spin.twice,
                lambda s=sector: rec.call("states", states.rotate, s, PROBE_ANGLES, two_s=s.spin.twice),
                lambda out, s=sector: ref.check_spectrum_preserved(
                    f"rotation probe 2S={s.spin.twice}", s.rho, out.rho),
                probe=True,
            )

    def _load_and_analyze(self, rec, f: StateFile):
        state = rec.call("stateio", stateio.load_state, f.path, two_s=f.two_s)
        report = rec.call("multipole", multipole.analyze, state, two_s=f.two_s)
        return state, report

    def _preset(self, rec, name: str):
        doc = rec.call("catalog", catalog.preset_state, name)
        state = rec.call("stateio", stateio.state_from_dict, doc, two_s=doc["sectors"][0]["two_S"])
        return rec.call("multipole", multipole.analyze, state, two_s=doc["sectors"][0]["two_S"])

    def _scans(self, rec) -> None:
        lams = np.linspace(0.0, 0.5, SCAN_POINTS)
        rec.attempt(
            "scan", "two-photon", 2,
            lambda: rec.call("search", search.scan_two_photon_family, lams, two_s=2),
            lambda rows: ref.check_two_photon_rows([(r.lam, r.purity, r.p2) for r in rows]),
            work=len(lams),
        )
        grid = [
            (l3, l4)
            for l3 in np.linspace(0.0, 1.0, SCAN_POINTS)
            for l4 in np.linspace(0.0, 0.5, SCAN_POINTS)
        ]
        rec.attempt(
            "scan", "three-photon-first", 3,
            lambda: rec.call("search", search.scan_three_photon_family, "first-order", grid, two_s=3),
            lambda rows: ref.check_three_photon_first([(r.purity, r.a1) for r in rows]),
            work=len(grid),
        )
        lam4 = np.linspace(1 / 6, 1 / 3, SCAN_POINTS)
        rec.attempt(
            "scan", "three-photon-second", 3,
            lambda: rec.call("search", search.scan_three_photon_family, "second-order", lam4, two_s=3),
            lambda rows: ref.check_three_photon_second([(r.purity, r.a2) for r in rows]),
            work=len(lam4),
        )


def _check_analysis(f: StateFile, state, report) -> None:
    ref.require(len(report.shells) == len(f.shells), f"{f.label}: {len(report.shells)} shells")
    block = 0.0
    for (w, two_s, rho), (w_got, sector), shell in zip(f.shells, state, report.shells):
        what = f"{f.label} shell 2S={two_s}"
        ref.require(sector.spin.twice == two_s, f"{what}: loaded as 2S={sector.spin.twice}")
        ref.check_close(f"{what}: weight", w_got, w, 1e-15)
        ref.check_state_matches(what, sector.rho, rho, 1e-10)
        ref.check_parseval(what, shell.spectrum.strengths, rho)
        if f.kind == "coherent":
            ref.check_coherent(what, two_s, shell.spectrum.cumulative_all, shell.spectrum.degrees_all)
        block += w * w * ref.purity(rho)
    ref.check_close(f"{f.label}: block purity", report.block_purity, block, 1e-10)


def _check_rotation(f: StateFile, before, rotated) -> None:
    _, two_s, rho = f.shells[0]
    ref.check_spectrum_preserved(f"{f.label} rotation", rho, rotated.rho)
    after = multipole.state_multipoles(rotated).strengths
    ref.check_invariant_strengths(f"{f.label} rotation", before, after)


def _check_wigner_d(two_s: int, beta: float, d: np.ndarray) -> None:
    """d(beta) = exp(-i beta Sy), computed here from the eigenvectors of Sy."""
    _, sy, _ = ref.spin_matrices(two_s)
    w, v = np.linalg.eigh(sy)
    want = (v * np.exp(-1j * beta * w)) @ v.conj().T
    err = float(np.max(np.abs(d - want)))
    ref.require(err <= 1e-9, f"wigner_small_d 2S={two_s} beta={beta!r}: off by {err:.3e}")
