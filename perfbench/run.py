"""qpolar benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package under test is `src/qpolar`.
With `--trace 0` the result carries the end-to-end metrics, with `--trace 1`
the per-layer metrics computed from spans (written to
`perfbench/out/spans-<workload>-<seed>.jsonl`).  Lines before the result
give the finer figures named in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("analysis", "measurement", "search", "cli")
# set-up runs in fresh processes besides this one; setup_s is the median of all of them
SETUP_REPEATS = 2
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_workload(name: str):
    """Import the workload module, and with it numpy and qpolar."""
    sys.path.insert(0, SRC)
    if name == "analysis":
        from work_analysis import Analysis as cls
    elif name == "measurement":
        from work_measurement import Measurement as cls
    elif name == "search":
        from work_search import Search as cls
    else:
        from work_cli import Cli as cls
    return cls


def set_up(args, t_start: float, workdir: str):
    """Import, input generation and the cold tensor build; returns (workload, cold builds, seconds)."""
    cls = load_workload(args.workload)
    from qpolar import multipole, states

    wl = cls(args.seed, workdir)
    wl.prepare()
    cold = {}
    for two_s in wl.spins:
        t0 = time.perf_counter()
        multipole.state_multipoles(states.maximally_mixed(two_s / 2))
        cold[two_s] = time.perf_counter() - t0
    wl.warm()
    return wl, cold, time.perf_counter() - t_start


def setup_in_fresh_process(args) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(wl, rec, seconds: float) -> list[float]:
    """Whole rounds until `seconds` have passed; returns each round's summed operation time."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        first = len(rec.ops)
        wl.run_round(rec)
        rounds.append(sum(op.seconds for op in rec.ops[first:] if not op.probe))
        if time.perf_counter() - t0 >= seconds:
            return rounds


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux


def per_layer(rec, n_rounds: int, cold: dict) -> dict:
    from tracer import BENCH_LAYER, LAYERS, layer_totals

    # the probes stay out of the per-layer figures as they stay out of round_s
    seconds, calls = layer_totals([s for s in rec.spans if not rec.ops[s.op].probe])
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (1000.0 * seconds[layer] / n_rounds, "ms")
        out[f"{layer}.calls"] = (calls[layer] / n_rounds, "count")
    iterations = sum(v for k, v in rec.counters.items() if k.startswith("search.iterations."))
    out["search.iterations"] = (iterations / n_rounds, "count")
    out["multipole.cold_build_s"] = (sum(cold.values()), "s")
    op_total = sum(op.seconds for op in rec.ops if not op.probe)
    out["trace.coverage_pct"] = (100.0 * (1.0 - seconds[BENCH_LAYER] / op_total), "%")
    return out


def run_one(args) -> int:
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "qpolar", "__init__.py")):
        print(f"error: no qpolar package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    pin_blas()
    from tracer import Recorder

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        rec = Recorder(trace=bool(args.trace))
        wl, cold, setup_s = set_up(args, t_start, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        rounds = run_rounds(wl, rec, args.seconds)
        rss = peak_rss_mb(args.workload)
        # a traced run reports no setup_s, so it repeats no set-up
        setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(0 if args.trace else SETUP_REPEATS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in rec.errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"{rec.attempted} operations, {rec.failed} failed")
    from details import workload_details

    for name, value, unit in workload_details(wl.name, rec, rounds, cold):
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        rec.write_spans(path)
        print(f"  {len(rec.spans)} spans written to {os.path.relpath(path, ROOT)}")
        metrics = per_layer(rec, len(rounds), cold)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
            "round_s": (statistics.median(rounds), "s"),
        }
    result = {
        "correct": not rec.errors,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
