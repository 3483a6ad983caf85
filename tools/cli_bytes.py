"""Hash every output of a fixed series of `python -m qpolar` commands, with the stdlib and numpy only.

    python tools/cli_bytes.py [SRC]

Writes its inputs with numpy alone, from fixed seeds: a Ginibre density matrix on the 2S = 25
shell as a `matrix` state file, a two-shell state file, and the directional moments
<(n.S)^l> of the 2S = 25 state, computed from spin matrices built here.  Then, in a temporary
directory and each in a fresh process with one BLAS thread, it runs `make-state` for every
preset (and again with arguments for those that take some), `analyze --out` of every state
file, `qfunc` (of the 2S = 25 state also on the default 64x128 grid), `reconstruct`, `search`
for the diagonal, axial, general and pure classes, `scan` for the three families,
`--help` of qpolar and of each subcommand and, last, `make-state` and `qfunc` of a 2S = 100 coherent
state on the default grid.  It prints one sha256 per stdout, per non-empty stderr and per
file a command writes, each with the command's exit status.  SRC, the directory that holds the
qpolar package under test, defaults to this checkout's src/.  Two checkouts print the same
lines exactly when their CLI outputs are byte-identical:

    diff <(python tools/cli_bytes.py /path/to/other/src) <(python tools/cli_bytes.py)
"""

import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
GINIBRE_2S = 25
RECONSTRUCT_ORDER = 4
LARGE_2S = 100  # its 64x128 table holds 101 * 51 * 64 entries, more than qpolar's MAX_ENTRIES / 8
PRESET_ARGS = {  # a second make-state for each preset that reads arguments
    "eq15-coherent": ["--two-s", "5", "--theta", "0.4", "--phi", "2.0"],
    "eq23-pson": ["--alpha", "0.3", "--beta", "1.1"],
    "eq24-diag2": ["--lam", "0.1"],
    "eq29-diag32nd": ["--lam", "0.25"],
}
SEARCHES = {
    "diagonal": ["--two-s", "3", "--order", "1"],
    "axial": ["--two-s", "3", "--order", "2"],
    "general": ["--two-s", "4", "--order", "2", "--restarts", "4", "--seed", "1"],
    "pure": ["--two-s", "4", "--order", "2", "--restarts", "8"],
}
SCANS = {"two-photon": "51", "three-photon-first": "21", "three-photon-second": "51"}


def spin_matrices(twice: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) on the shell 2S = twice, basis |S, m> with m descending."""
    j, m = twice / 2, np.arange(twice, -twice - 1, -2) / 2
    up = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)  # S+ |j, m> = sqrt(...) |j, m + 1>
    return (up + up.T) / 2, (up - up.T) / 2j, np.diag(m)


def ginibre_state(twice: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((twice + 1,) * 2) + 1j * rng.standard_normal((twice + 1,) * 2)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def pairs(values) -> list:
    """Complex numbers as the [re, im] pairs of a state file."""
    return [[float(z.real), float(z.imag)] for z in values]


def write_inputs(workdir: pathlib.Path) -> None:
    rng = np.random.default_rng(25)
    rho = ginibre_state(GINIBRE_2S, rng)
    entry = {"two_S": GINIBRE_2S, "weight": 1.0, "form": "matrix", "data": [pairs(row) for row in rho]}
    (workdir / "ginibre.json").write_text(json.dumps({"sectors": [entry]}))
    amps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    two_shell = [{"two_S": 1, "weight": 0.25, "form": "diag", "data": [0.75, 0.25]},
                 {"two_S": 4, "weight": 0.75, "form": "pure", "data": pairs(amps)}]
    (workdir / "two_shell.json").write_text(json.dumps({"sectors": two_shell}))
    # <(n.S)^l> along a golden-angle spiral of 3(2K + 1) directions, l = 1..K
    sx, sy, sz = spin_matrices(GINIBRE_2S)
    n = 3 * (2 * RECONSTRUCT_ORDER + 1)
    lines = ["theta,phi,ell,value"]
    for i in range(n):
        theta, phi = math.acos(1 - 2 * (i + 0.5) / n), (i * math.pi * (3 - math.sqrt(5))) % (2 * math.pi)
        ns = math.sin(theta) * (math.cos(phi) * sx + math.sin(phi) * sy) + math.cos(theta) * sz
        power = np.eye(GINIBRE_2S + 1)
        for ell in range(1, RECONSTRUCT_ORDER + 1):
            power = power @ ns
            lines.append(f"{theta!r},{phi!r},{ell},{float(np.trace(rho @ power).real)!r}")
    (workdir / "moments.csv").write_text("\n".join(lines) + "\n")


def commands(presets: list[str], subcommands: list[str]) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command, in order; `analyze` runs on every state file written before it."""
    cmds = [(f"make-state {p}", ["make-state", p, "--out", f"{p}.json"]) for p in presets]
    cmds += [(f"make-state {p} {' '.join(a)}", ["make-state", p, *a, "--out", f"{p}-args.json"])
             for p, a in PRESET_ARGS.items()]
    files = ["ginibre.json", "two_shell.json", *(f"{p}.json" for p in presets),
             *(f"{p}-args.json" for p in PRESET_ARGS)]
    cmds += [(f"analyze {f}", ["analyze", f, "--out", f"{f[:-5]}.csv"]) for f in files]
    cmds += [("qfunc ginibre.json", ["qfunc", "ginibre.json", "--grid", "32x64", "--out", "q_ginibre.csv"]),
             ("qfunc two_shell.json", ["qfunc", "two_shell.json", "--grid", "16x32", "--out", "q_two_shell.csv"]),
             ("qfunc ginibre.json 64x128", ["qfunc", "ginibre.json", "--out", "q_ginibre_64x128.csv"]),
             ("reconstruct", ["reconstruct", "moments.csv", "--two-s", str(GINIBRE_2S),
                              "--order", str(RECONSTRUCT_ORDER), "--out", "reconstructed.csv"])]
    cmds += [(f"search {c}", ["search", "--class", c, *a, "--out", f"search_{c}.json"]) for c, a in SEARCHES.items()]
    cmds += [(f"scan {f}", ["scan", "--family", f, "--points", p, "--out", f"scan_{f}.csv"]) for f, p in SCANS.items()]
    cmds += [("--help", ["--help"])] + [(f"{s} --help", [s, "--help"]) for s in subcommands]
    # a default grid whose pair table passes the cache budget, so that qfunc rebuilds it block by block
    cmds += [(f"make-state eq15-coherent --two-s {LARGE_2S}",
              ["make-state", "eq15-coherent", "--two-s", str(LARGE_2S), "--out", "coherent-large.json"]),
             ("qfunc coherent-large.json 64x128", ["qfunc", "coherent-large.json", "--out", "q_coherent_large.csv"])]
    return cmds


def main(argv: list[str]) -> int:
    src = pathlib.Path(argv[0] if argv else ROOT / "src").resolve()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

    def run(args, cwd):
        return subprocess.run([sys.executable, "-m", "qpolar", *args], cwd=cwd, env=env, capture_output=True)

    def choices(args, cwd):  # the first {a,b,...} list of the usage that `args` print
        return re.search(r"\{([^}]*)\}", run(args, cwd).stdout.decode()).group(1).split(",")

    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        write_inputs(workdir)
        for label, args in commands(choices(["make-state", "--help"], workdir), choices(["--help"], workdir)):
            before = set(workdir.iterdir())
            proc = run(args, workdir)
            status = f"(exit {proc.returncode})"
            print(f"{hashlib.sha256(proc.stdout).hexdigest()}  {label} {status}: stdout")
            if proc.stderr:
                print(f"{hashlib.sha256(proc.stderr).hexdigest()}  {label} {status}: stderr")
            for path in sorted(set(workdir.iterdir()) - before):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label} {status}: {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
