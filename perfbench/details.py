"""The finer figures of each workload, by operation, spin and case.

The result line carries the same metric names on every workload; these
lines break them down, under the names perfbench/README.md maps to the
end-to-end metric each should move.  Figures from spans are printed only
by a traced run.
"""

from __future__ import annotations

import statistics

from work_analysis import SPINS as ANALYSIS_SPINS, WIGNER_SPINS
from work_measurement import Q_SPINS, TOMOGRAPHY
from work_search import CASES


class Query:
    def __init__(self, rec, n_rounds: int):
        self.rec = rec
        self.n_rounds = n_rounds

    def ops(self, kind, label=None):
        return [op for op in self.rec.ops if op.kind == kind and label in (None, op.label)]

    def rate(self, kind) -> float:
        ops = self.ops(kind)
        return sum(op.work for op in ops) / sum(op.seconds for op in ops)

    def per_round(self, kind) -> float:
        return sum(op.seconds for op in self.ops(kind)) / self.n_rounds

    def op_median(self, kind, label=None) -> float:
        return statistics.median(op.seconds for op in self.ops(kind, label))

    def span_median(self, kind, name, two_s=None) -> float:
        ops = self.rec.ops
        return statistics.median(
            s.end - s.start for s in self.rec.spans
            if s.name == name and ops[s.op].kind == kind and two_s in (None, s.two_s)
        )


def workload_details(name: str, rec, rounds: list[float], cold: dict) -> list[tuple[str, float, str]]:
    q = Query(rec, len(rounds))
    # the untraced round_s is on the result line; the traced one shows the tracing overhead
    out = [("round_s.traced", statistics.median(rounds), "s")] if rec.trace else []
    out += [(f"multipole.cold_build_s.2S{t}", s, "s") for t, s in sorted(cold.items())]
    if name == "analysis":
        out += [
            ("analyze_per_s", q.rate("analyze"), "states/s"),
            ("rotate_per_s", q.rate("rotate"), "rotations/s"),
            ("scan_points_per_s", q.rate("scan"), "points/s"),
        ]
        out += [(f"probe_ms.{op.label}", 1000 * q.op_median("probe", op.label), "ms")
                for op in q.ops("probe")[:2]]
        if rec.trace:
            out += [(f"stateio.load_ms.2S{t}", 1000 * q.span_median("analyze", "stateio.load_state", t), "ms")
                    for t in ANALYSIS_SPINS]
            out += [(f"multipole.analyze_ms.2S{t}", 1000 * q.span_median("analyze", "multipole.analyze", t), "ms")
                    for t in ANALYSIS_SPINS]
            out += [(f"states.rotate_ms.2S{t}", 1000 * q.span_median("rotate", "states.rotate", t), "ms")
                    for t in ANALYSIS_SPINS]
            out += [(f"angmom.wigner_d_ms.2S{t}", 1000 * q.span_median("wigner_d", "angmom.wigner_small_d", t), "ms")
                    for t in WIGNER_SPINS]
            for op in q.ops("scan")[:3]:
                out.append((f"search.scan_us_per_point.{op.label}",
                            1e6 * q.op_median("scan", op.label) / op.work, "us"))
    elif name == "measurement":
        out += [
            ("qgrid_per_s", q.rate("qgrid"), "grids/s"),
            ("reconstruct_per_s", q.rate("reconstruct"), "reconstructions/s"),
        ]
        if rec.trace:
            out += [(f"husimi.q_function_ms.2S{t}", 1000 * q.span_median("qgrid", "husimi.q_function", t), "ms")
                    for t in Q_SPINS]
            out += [(f"stokes.reconstruct_ms.2S{t}_K{k}",
                     1000 * q.span_median("reconstruct", "stokes.moments_to_multipoles", t), "ms")
                    for t, k in TOMOGRAPHY]
    elif name == "search":
        out += [
            ("search_converged_s", q.per_round("converged"), "s"),
            ("search_stalled_s", q.per_round("stalled"), "s"),
        ]
        for case in CASES:
            kind = "stalled" if case.stalled else "converged"
            out.append((f"search.case_s.{case.name}", q.op_median(kind, case.name), "s"))
            iterations = rec.counters.get(f"search.iterations.{case.name}", 0.0)
            out.append((f"search.iterations.{case.name}", iterations / len(rounds), "count"))
    elif name == "cli":
        out.append(("cli_session_s", q.per_round("cli"), "s"))
        labels = dict.fromkeys(op.label for op in q.ops("cli"))
        out += [(f"cli.{label}_s", q.op_median("cli", label), "s") for label in labels]
    return out
