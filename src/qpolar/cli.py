"""Command-line interface: analyze, qfunc, reconstruct, search, scan, make-state.

Exit codes: 0 success, 2 invalid input, 3 infeasible or ill-conditioned,
4 internal tolerance failure.  All outputs are deterministic for fixed
inputs (and `--seed` for search); analysis tables record their tolerance
and search reports their seed.  Each command imports the modules it runs, so
building the parser loads only angmom, states and catalog.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import catalog
from .angmom import IllConditionedError, InfeasibleError, SchemaError, _check_int, _check_two_s
from .states import _CLASS_ALIASES, DEFAULT_ORDER_TOL, as_shells

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_TOLERANCE = 4
_NUMBER_FLAGS = ("theta", "phi", "alpha", "beta", "lam")  # the make-state options that take a number


class ToleranceFailure(RuntimeError):
    pass


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except Exception as exc:
        raise ValueError(f"--grid expects NTHETAxNPHI, e.g. 64x128; got {text!r}") from exc


def _fmt(x: float) -> str:
    return repr(float(x))


def _table_csv_lines(two_s: int, ranks, comps, W, A, P) -> list[str]:
    """Rows two_S,K,q,re,im,W_K,A_K,P_K; A and P start at K = 1 and are blank at K = 0."""
    lines = []
    for K in ranks:
        a, p = (_fmt(A[K - 1]), _fmt(P[K - 1])) if K >= 1 else ("", "")
        for q in range(-K, K + 1):
            c = comps[(K, q)]
            lines.append(f"{two_s},{K},{q},{_fmt(c.real)},{_fmt(c.imag)},{_fmt(W[K])},{a},{p}")
    return lines


def _write_lines(path, lines) -> None:
    """Write the lines to path, each ended by a newline, and say so."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")


def _report_csv_lines(report: multipole.PolarizationReport) -> list[str]:
    lines = ["# multipole report", f"# tol={report.tol!r}", "two_S,K,q,re,im,W_K,A_K,P_K"]
    for shell in report.shells:
        spec = shell.spectrum
        lines.append(
            f"# shell two_S={spec.spin.twice} weight={shell.weight!r} "
            f"purity={shell.purity!r} unpol_order={spec.unpol_order}"
        )
        lines.extend(_table_csv_lines(spec.spin.twice, range(spec.max_rank + 1), spec.components,
                                      spec.strengths, spec.cumulative_all, spec.degrees_all))
    return lines


def _print_table(ranks, W, A, P) -> None:
    print("  K    W_K             A_K             P_K")
    for K in ranks:
        a, p = (f"{A[K - 1]:<15.9g}", f"{P[K - 1]:.9g}") if K >= 1 else (f"{'-':<15}", "-")
        print(f"  {K:<4d} {W[K]:<15.9g} {a} {p}")


def _print_shell(shell: multipole.ShellReport) -> None:
    spec = shell.spectrum
    two_s = spec.spin.twice
    print(f"shell two_S={two_s} (S={spec.spin})  weight={shell.weight:g}  "
          f"purity={shell.purity:.12g}")
    _print_table(range(spec.max_rank + 1), spec.strengths, spec.cumulative_all, spec.degrees_all)
    d = two_s + 1
    print(f"  unpolarization order: {spec.unpol_order}"
          + (" (fully unpolarized)" if spec.unpol_order == two_s else ""))
    if 1 <= spec.unpol_order < two_s and shell.purity > 1.0 / d + spec.tol:
        print(f"  note: hidden polarization at K = {spec.unpol_order + 1}")


def cmd_analyze(args) -> int:
    from . import multipole, stateio

    state = stateio.load_state(args.state)
    report = multipole.analyze(state, tol=args.tol)
    print(f"analysis (tol={args.tol!r})")
    for shell in report.shells:
        _print_shell(shell)
    if len(report.shells) > 1:
        agg = ", ".join(f"A_{K+1}={v:.9g}" for K, v in enumerate(report.aggregate_cumulative))
        print(f"aggregate (weighted by P_S): {agg}")
        print(f"aggregate order: {report.aggregate_order}; block purity: {report.block_purity:.12g}")
    if args.out:
        _write_lines(args.out, _report_csv_lines(report))
    return EXIT_OK


def cmd_qfunc(args) -> int:
    from . import husimi, stateio

    state = stateio.load_state(args.state)
    shells = as_shells(state)
    grid = _parse_grid(args.grid)
    multi = len(shells) > 1
    for _, sec in shells:
        qg = husimi.q_function(sec, grid)
        norm = qg.normalization()
        if not qg.coarse_warning and abs(norm - 1.0) > 1e-6:
            raise ToleranceFailure(
                f"Q normalization {norm!r} deviates beyond 1e-6 on an adequate grid"
            )
        out = args.out
        if multi:
            stem, ext = os.path.splitext(args.out)
            out = f"{stem}_2S{sec.spin.twice}{ext}"
        husimi.export_qgrid(qg, out)
        flag = " (grid too coarse for the normalization check)" if qg.coarse_warning else ""
        print(f"two_S={sec.spin.twice}: grid {qg.n_theta}x{qg.n_phi}, "
              f"normalization {norm:.12g}{flag} -> {out}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    from . import stokes

    spin = _check_two_s("--two-s", args.two_s) / 2.0
    samples = stokes.read_moments(args.moments)
    result = stokes.moments_to_multipoles(samples, spin, args.order)
    print(f"reconstruction two_S={args.two_s} K_max={args.order}: "
          f"{result.n_samples} samples, condition number {result.condition_number:.6g}, "
          f"residual {result.residual:.3e}")
    _print_table(range(1, args.order + 1), result.strengths, result.cumulative, result.degrees)
    if args.out:
        _write_lines(args.out, [
            "# reconstructed multipoles",
            f"# condition_number={result.condition_number!r} residual={result.residual!r}",
            "two_S,K,q,re,im,W_K,A_K,P_K",
            *_table_csv_lines(args.two_s, range(1, args.order + 1), result.components,
                              result.strengths, result.cumulative, result.degrees),
        ])
    return EXIT_OK


def cmd_search(args) -> int:
    from . import search, stateio

    spin = _check_two_s("--two-s", args.two_s) / 2.0
    if args.cls == "pure":
        result = search.pure_anticoherent_search(
            spin, args.order, restarts=args.restarts, seed=args.seed
        )
        if result.is_anticoherent:
            print(f"pure anticoherent state found: A_{args.order} = {result.objective:.3e}")
        else:
            print(f"no pure solution; min A_{args.order} = {result.objective:.9g}")
    else:
        problem = search.SearchProblem(
            spin, args.order, constraint_class=args.cls,
            restarts=args.restarts, seed=args.seed,
        )
        result = search.max_purity_unpolarized(problem)
        if result.residual > 1e-8:
            raise ToleranceFailure(
                f"solution violates the order-{args.order} constraint: A_K = {result.residual:.3e}"
            )
        print(f"max purity ({args.cls}, order {args.order}, two_S={args.two_s}): "
              f"{result.objective:.12g}")
        print(f"constraint residual A_{args.order} = {result.residual:.3e}")
    print(f"seed={args.seed} restarts={len(result.history)} digest={result.digest[:16]}")
    stops = result.stop_reasons
    print("stop reasons: " + " ".join(f"{r}={n}" for r, n in stops.items()))
    if args.out:
        metadata = {
            "objective": result.objective,
            "residual": result.residual,
            "constraint_class": args.cls,
            "order": args.order,
            "restarts": len(result.history),
            "seed": args.seed,
            "digest": result.digest,
            "stop_reasons": stops,
        }
        stateio.save_state(result.state, args.out, metadata=metadata)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_scan(args) -> int:
    from . import search

    _check_int("--points", args.points, 1)
    if args.family == "two-photon":
        scan = search.scan_two_photon_family(np.linspace(0.0, 0.5, args.points))
        header = "lam,purity,P_2"
        print(f"two-photon family: {len(scan)} rows, purity range [{scan.purity.min():.6g}, {scan.purity.max():.6g}]")
    else:
        if args.family == "three-photon-first":
            axes = np.linspace(0.0, 1.0, args.points), np.linspace(0.0, 0.5, args.points)  # lam3-major
            kind, grid = "first-order", np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        else:
            kind, grid = "second-order", np.linspace(1 / 6, 1 / 3, args.points)
        scan = search.scan_three_photon_family(kind, grid)
        header = "lam3,lam4,feasible,purity,A_1,A_2,A_3"
        kept = int(np.count_nonzero(scan.feasible))
        best = f", max purity {scan.purity[scan.feasible].max():.9g}" if kept else ""
        print(f"{args.family} family: {kept} feasible of {len(scan)} grid points{best}")
    if args.out:
        # straight from the columns: 1 or 0 for a flag, a float as %r writes it, blank for NaN (an infeasible point)
        cells = [np.where(c, "1", "0").tolist() if c.dtype == bool else ["" if x != x else repr(x) for x in c.tolist()]
                 for c in (getattr(scan, name) for name in scan.row._fields)]
        _write_lines(args.out, [f"# scan family={args.family} points={args.points}", header,
                                *map(",".join, zip(*cells))])
    return EXIT_OK


def cmd_make_state(args) -> int:
    extra = {}
    for key in _NUMBER_FLAGS:
        v = getattr(args, key)
        if v is not None:
            if not np.isfinite(v):
                raise ValueError(f"--{key} must be finite, got {v!r}")
            extra[key] = v
    if args.two_s is not None:
        extra["two_s"] = _check_two_s("--two-s", args.two_s)
    obj = catalog.preset_state(args.name, **extra)
    with open(args.out, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out} ({catalog.PRESETS[args.name][1]})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qpolar",
        description="Multipole analysis of quantum polarization states",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="multipole table and unpolarization order of a state file")
    pa.add_argument("state", help="state file (JSON)")
    pa.add_argument("--tol", type=float, default=DEFAULT_ORDER_TOL)
    pa.add_argument("--out", help="also write the table as CSV")
    pa.set_defaults(func=cmd_analyze)

    pq = sub.add_parser("qfunc", help="sample the Husimi Q function onto a CSV grid")
    pq.add_argument("state")
    pq.add_argument("--grid", default="64x128", help="NTHETAxNPHI (default 64x128)")
    pq.add_argument("--out", required=True)
    pq.set_defaults(func=cmd_qfunc)

    pr = sub.add_parser("reconstruct", help="multipoles from directional-moment samples")
    pr.add_argument("moments", help="CSV theta,phi,ell,value")
    pr.add_argument("--two-s", dest="two_s", type=int, required=True)
    pr.add_argument("--order", type=int, required=True, help="max rank K to recover")
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_reconstruct)

    ps = sub.add_parser("search", help="extremal unpolarized states")
    ps.add_argument("--two-s", dest="two_s", type=int, required=True)
    ps.add_argument("--order", type=int, required=True)
    ps.add_argument("--class", dest="cls", default="general",
                    choices=sorted(_CLASS_ALIASES))
    ps.add_argument("--restarts", type=int, default=64)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_search)

    pc = sub.add_parser("scan", help="family scans (purity vs degrees)")
    pc.add_argument("--family", required=True,
                    choices=["two-photon", "three-photon-first", "three-photon-second"])
    pc.add_argument("--points", type=int, default=101)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_scan)

    pm = sub.add_parser("make-state", help="emit a named preset state file")
    pm.add_argument("name", choices=sorted(catalog.PRESETS))
    pm.add_argument("--out", required=True)
    pm.add_argument("--two-s", dest="two_s", type=int)
    for key in _NUMBER_FLAGS:
        pm.add_argument(f"--{key}", type=float)
    pm.set_defaults(func=cmd_make_state)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IllConditionedError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ToleranceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (SchemaError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
