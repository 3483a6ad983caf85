"""`cli` workload: a scripted session of fresh `python -m qpolar` processes.

Only here are the interpreter start, the package import and the cold
tensor build paid on every operation, as a CLI user pays them.  The child
processes get an absolute import path to the package under test and BLAS
pinned to one thread.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

import reference as ref
import qpolar
from qpolar import multipole, states, stokes

PRESETS_2S3 = {
    "fig4-left": np.diag([0.0, 0.75, 0.0, 0.25]).astype(complex),
    "fig4-right": np.diag([1 / 3, 0.0, 0.5, 1 / 6]).astype(complex),
    "eq27-3p": 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex),
}
ANALYZE_2S = 25
RECONSTRUCT_2S = 4
PURE_SEARCH = ("--two-s", "6", "--order", "3", "--class", "pure", "--restarts", "8", "--seed", "0")
Q_SAMPLED_ROWS = 8
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """The caller's environment, with an absolute path to this qpolar and one BLAS thread."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(qpolar.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Outcome:
    def __init__(self, proc: subprocess.CompletedProcess, files: dict[str, bytes]):
        self.returncode = proc.returncode
        self.stdout = proc.stdout
        self.stderr = proc.stderr
        self.files = files


def _read_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")][1:]


class Cli:
    name = "cli"
    spins = (RECONSTRUCT_2S,)

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 404])
        self.workdir = workdir
        self.env = child_env()

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        rng = self.rng
        self.preset = sorted(PRESETS_2S3)[int(rng.integers(len(PRESETS_2S3)))]
        self.rho25 = ref.ginibre(ANALYZE_2S, rng)
        with open(self._path("state25.json"), "w") as fh:
            json.dump({"sectors": [{
                "two_S": ANALYZE_2S, "weight": 1.0, "form": "matrix",
                "data": [[[float(z.real), float(z.imag)] for z in row] for row in self.rho25],
            }]}, fh)
        self.rho4 = ref.ginibre(RECONSTRUCT_2S, rng)
        with open(self._path("moments4.csv"), "w") as fh:
            fh.write("theta,phi,ell,value\n")
            for d in stokes.tomography_directions(3 * (2 * RECONSTRUCT_2S + 1)):
                values = ref.moments(self.rho4, RECONSTRUCT_2S, ref.unit_vector(d.theta, d.phi), RECONSTRUCT_2S)
                for ell, v in enumerate(values):
                    fh.write(f"{d.theta!r},{d.phi!r},{ell + 1},{float(v)!r}\n")
        self.q_rows = [int(i) for i in rng.integers(64 * 128, size=Q_SAMPLED_ROWS)]

    def warm(self) -> None:
        """Reference multipoles of the reconstruction state, from the in-process analysis."""
        self.rho4_components = multipole.state_multipoles(
            states.SpinSector(RECONSTRUCT_2S / 2, self.rho4)).components

    def _run(self, rec, label: str, argv: list[str], outputs: tuple[str, ...] = ()) -> Outcome:
        for name in outputs:
            if os.path.exists(self._path(name)):
                os.remove(self._path(name))
        proc = rec.call(
            "cli", subprocess.run, [sys.executable, *argv], cwd=self.workdir, env=self.env,
            capture_output=True, timeout=CHILD_TIMEOUT_S, name=f"cli.{label}",
        )
        files = {}
        for name in outputs:
            if os.path.exists(self._path(name)):
                with open(self._path(name), "rb") as fh:
                    files[name] = fh.read()
        return Outcome(proc, files)

    def _step(self, rec, label: str, two_s, args: list[str], outputs: tuple[str, ...], check) -> None:
        argv = ["-m", "qpolar", *args] if args else ["-c", "import qpolar"]

        def checked(out: Outcome) -> None:
            check_exit(label, out)
            check(out)

        rec.attempt("cli", label, two_s, lambda: self._run(rec, label, argv, outputs), checked)

    def run_round(self, rec) -> None:
        self.first_pure = None
        self._step(rec, "import", None, [], (), lambda out: None)
        self._step(rec, "make-state", 3, ["make-state", self.preset, "--out", "preset.json"],
                   ("preset.json",), self._check_make_state)
        self._step(rec, "analyze-2S3", 3, ["analyze", "preset.json", "--out", "analyze3.csv"],
                   ("analyze3.csv",), lambda out: self._check_analyze(out, "analyze3.csv", 3, PRESETS_2S3[self.preset]))
        self._step(rec, "analyze-2S25", 25, ["analyze", "state25.json", "--out", "analyze25.csv"],
                   ("analyze25.csv",), lambda out: self._check_analyze(out, "analyze25.csv", 25, self.rho25))
        self._step(rec, "qfunc-2S25", 25, ["qfunc", "state25.json", "--out", "q25.csv"],
                   ("q25.csv",), self._check_qfunc)
        self._step(rec, "reconstruct-2S4", 4,
                   ["reconstruct", "moments4.csv", "--two-s", str(RECONSTRUCT_2S),
                    "--order", str(RECONSTRUCT_2S), "--out", "rec4.csv"],
                   ("rec4.csv",), self._check_reconstruct)
        self._step(rec, "search-diagonal", 3,
                   ["search", "--two-s", "3", "--order", "1", "--class", "diagonal", "--out", "diag.json"],
                   ("diag.json",), self._check_search_diagonal)
        # the same search twice: its output must be byte for byte the same
        self._step(rec, "search-pure", 6, ["search", *PURE_SEARCH, "--out", "pure.json"],
                   ("pure.json",), self._check_search_pure)
        self._step(rec, "search-pure-repeat", 6, ["search", *PURE_SEARCH, "--out", "pure.json"],
                   ("pure.json",), lambda out: check_identical(self.first_pure, out))
        self._step(rec, "scan", 3, ["scan", "--family", "three-photon-first", "--out", "scan.csv"],
                   ("scan.csv",), self._check_scan)

    # ----------------------------------------------------------------- checks

    def _check_make_state(self, out: Outcome) -> None:
        doc = json.loads(out.files["preset.json"])
        sector = doc["sectors"][0]
        ref.require(sector["two_S"] == 3, f"make-state: two_S {sector['two_S']}")
        ref.check_state_matches("make-state", _rho_from_entry(sector), PRESETS_2S3[self.preset], 1e-15)

    def _check_analyze(self, out: Outcome, name: str, two_s: int, rho: np.ndarray) -> None:
        text = out.files[name].decode()
        strengths, squares = {}, {}
        for row in _read_rows(text):
            k, w = int(row[1]), float(row[5])
            ref.require(strengths.setdefault(k, w) == w, f"analyze {name}: two values of W_{k}")
            squares[k] = squares.get(k, 0.0) + float(row[3]) ** 2 + float(row[4]) ** 2
        ref.require(sorted(strengths) == list(range(two_s + 1)), f"analyze {name}: ranks {sorted(strengths)}")
        for k, w in strengths.items():
            ref.check_close(f"analyze {name}: W_{k} against its components", w, squares[k], 1e-12)
        ref.check_parseval(f"analyze {name}", list(strengths.values()), rho)
        shell = [line for line in text.splitlines() if line.startswith("# shell")][0]
        fields = dict(item.split("=") for item in shell.split()[2:])
        ref.check_close(f"analyze {name}: purity", float(fields["purity"]), ref.purity(rho), 1e-12)
        if two_s == 3 and self.preset in ref.PRESET_ANCHORS:
            ref.check_preset(self.preset, float(fields["purity"]), int(fields["unpol_order"]))

    def _check_qfunc(self, out: Outcome) -> None:
        rows = [[float(x) for x in row] for row in _read_rows(out.files["q25.csv"].decode())]
        ref.require(len(rows) == 64 * 128, f"qfunc: {len(rows)} rows")
        table = np.array(rows)
        norm = (ANALYZE_2S + 1) / (4.0 * math.pi) * float(np.sum(table[:, 2] * table[:, 3]))
        ref.check_close("qfunc: Q normalization", norm, 1.0, 1e-9)
        ref.require(table[:, 3].min() >= -1e-9 and table[:, 3].max() <= 1.0 + 1e-9, "qfunc: Q outside [0, 1]")
        for i in self.q_rows:
            theta, phi, _, q = rows[i]
            want = float(np.vdot(ref.coherent_projector(ANALYZE_2S, theta, phi), self.rho25).real)
            ref.check_close(f"qfunc: Q at row {i}", q, want, 1e-9)

    def _check_reconstruct(self, out: Outcome) -> None:
        comps, strengths = {}, {}
        for row in _read_rows(out.files["rec4.csv"].decode()):
            k, q = int(row[1]), int(row[2])
            comps[(k, q)] = complex(float(row[3]), float(row[4]))
            strengths[k] = float(row[5])
        ref.check_components("reconstruct", comps, self.rho4_components)
        total = sum(strengths.values()) + 1.0 / (RECONSTRUCT_2S + 1)   # the monopole is fixed by the trace
        ref.check_close("reconstruct: Parseval at K = 2S", total, ref.purity(self.rho4), 1e-9)

    def _check_search_diagonal(self, out: Outcome) -> None:
        doc = json.loads(out.files["diag.json"])
        rho = _rho_from_entry(doc["sectors"][0])
        ref.check_density_matrix("search diagonal", rho)
        ref.check_close("search diagonal: purity", ref.purity(rho), 5 / 8, 1e-12)
        ref.check_close("search diagonal: reported optimum", doc["metadata"]["objective"], 5 / 8, 1e-12)
        ref.check_isotropic("search diagonal", rho, 3, 1)

    def _check_search_pure(self, out: Outcome) -> None:
        self.first_pure = out
        doc = json.loads(out.files["pure.json"])
        rho = _rho_from_entry(doc["sectors"][0])
        ref.check_density_matrix("search pure", rho)
        ref.check_close("search pure: purity", ref.purity(rho), 1.0, 1e-9)
        ref.require(doc["metadata"]["objective"] < 1e-10, f"search pure: A_3 = {doc['metadata']['objective']!r}")
        ref.check_isotropic("search pure", rho, 6, 3)

    def _check_scan(self, out: Outcome) -> None:
        rows = []
        for row in _read_rows(out.files["scan.csv"].decode()):
            rows.append((float(row[3]), float(row[4])) if row[2] == "1" else (None, None))
        ref.require(len(rows) == 101 * 101, f"scan: {len(rows)} rows")
        ref.check_three_photon_first(rows)


def check_exit(label: str, out: Outcome) -> None:
    ref.require(
        out.returncode == 0,
        f"{label}: exit {out.returncode}: {out.stderr.decode(errors='replace').strip()[-300:]}",
    )


def check_identical(first: Outcome | None, second: Outcome) -> None:
    ref.require(first is not None, "repeat: the first run gave no output to compare")
    ref.require(first.stdout == second.stdout, "repeat: standard output differs between two runs")
    ref.require(first.files == second.files, "repeat: output file differs between two runs")


def _rho_from_entry(entry: dict) -> np.ndarray:
    """Density matrix of a 'diag', 'matrix' or 'pure' sector entry, read here without qpolar."""
    data = entry["data"]
    if entry["form"] == "diag":
        return np.diag(np.array(data, dtype=float)).astype(complex)
    if entry["form"] == "matrix":
        return np.array([[complex(re, im) for re, im in row] for row in data])
    if entry["form"] == "pure":
        v = np.array([complex(re, im) for re, im in data])
        v = v / np.linalg.norm(v)
        return np.outer(v, v.conj())
    raise ref.CheckFailed(f"unexpected sector form {entry['form']!r}")
