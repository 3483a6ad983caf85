"""Print the outcome of a fixed sweep of general-class purity searches, with the stdlib and numpy only.

    python tools/search_sweep.py [SRC]

Runs `max_purity_unpolarized` for the general class on every shell 2S = 2..10 at every order
K = 1..min(4, 2S - 1), from seeds 0 and 1, with 3 restarts each: 60 problems, in one process
with one BLAS thread.  Each problem prints one line: 2S, K and the seed, the best objective as
`repr`, then every restart's ascent steps, stop reason and objective (`repr`), so a diff shows
which restart won a tie.  SRC, the directory that holds the
qpolar package under test, defaults to this checkout's src/.  Two checkouts can be compared
line by line:

    diff <(python tools/search_sweep.py /path/to/other/src) <(python tools/search_sweep.py)
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = [(t, k, seed) for t in range(2, 11) for k in range(1, min(4, t - 1) + 1) for seed in (0, 1)]
RESTARTS = 3


def main(argv: list[str]) -> int:
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    sys.path.insert(0, str(pathlib.Path(argv[0] if argv else ROOT / "src").resolve()))
    from qpolar.search import SearchProblem, max_purity_unpolarized

    for t, k, seed in PROBLEMS:
        res = max_purity_unpolarized(SearchProblem(t / 2, k, restarts=RESTARTS, seed=seed))
        restarts = " ".join(f"{rec.iterations}:{rec.reason}:{rec.objective!r}" for rec in res.history)
        print(f"2S={t} K={k} seed={seed} best={res.objective!r} {restarts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
