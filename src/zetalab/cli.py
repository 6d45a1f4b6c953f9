"""Command-line front door: zeros, F tables, moments, coefficients, reports.

Every numeric output is CSV with a header row, 12 significant digits, LF
line endings, and no locale formatting.  Exit codes: 0 success, 1 domain
or computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from . import moments as mo
from . import pair_correlation as pc
from . import predictions as pred
from . import zero_catalog as zc
from .errors import ZetalabError
from .zeta_engine import FAST, STRICT, ZetaEngine

IDENTITY_A_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
FTABLE_HEADER = ["alpha", "f_value"]
IDENTITY_HEADER = ["k", "a", "gr_residual"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(rows: list[list], header: list[str], out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _emit(rows, header, path: str | None) -> None:
    out, close = _open_out(path)
    try:
        _write_csv(rows, header, out)
    finally:
        if close:
            out.close()


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_zeros(args) -> int:
    """Compute a table through the cache, or import one; write it only to --out."""
    if args.import_path:
        table = zc.import_zeros(args.import_path)
    else:
        table = zc.load_or_find(args.tmax, cache=args.cache,
                                engine=ZetaEngine(STRICT), threads=args.threads)
    report = zc.verify_counts(table)
    print(f"{len(table)} zeros, RvM expected {report.expected:.2f}, "
          f"{'PASS' if report.passed else 'FAIL'}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        zc.export_zeros(table, args.out)
        print(f"written: {args.out}")
    return 0


def _ftable_rows(grid):
    return [[float(a), float(v)] for a, v in zip(grid.alphas, grid.values)]


def cmd_ftable(args) -> int:
    table = zc.load_or_find(args.tmax, cache=args.cache, threads=args.threads)
    grid = pc.f_grid(table, args.tmax, args.alpha_max, args.step, threads=args.threads)
    _emit(_ftable_rows(grid), FTABLE_HEADER, args.out)
    return 0


def _quadratures(ks, a_list, t, table):
    """One quadrature sweep per distinct a, with the FAST profile."""
    engine = ZetaEngine(FAST)
    return {a: mo.i_k_quadrature_batch(ks, a, t, engine, table)
            for a in dict.fromkeys(a_list)}


def _moment_rows(ks, a_list, t, methods, quads, table, grid):
    rows = []
    for a in a_list:
        for i, k in enumerate(ks):
            row = [k, a, t]
            q = z = f = None
            if quads is not None:
                q = quads[a][i].value
                row += [q, quads[a][i].err_estimate]
            if "zeros" in methods:
                est = mo.i_k_from_zeros(k, a, t, table)
                z = est.value
                row += [z, est.err_estimate]
            if "fromF" in methods:
                est = mo.i_k_from_f(k, a, t, grid)
                f = est.value
                row += [f, est.err_estimate]
            if q is not None and z is not None:
                row.append(z / q)
            if q is not None and f is not None:
                row.append(f / q)
            pred_coeff = pred.coefficient_c(k, a).value * t * math.log(t) ** (2 * k + 2)
            row.append(pred_coeff)
            rows.append(row)
    return rows


def _moment_header(methods):
    header = ["k", "a", "t"]
    if "quad" in methods:
        header += ["i_quadrature", "i_quadrature_err"]
    if "zeros" in methods:
        header += ["i_zero_pairs", "i_zero_pairs_err"]
    if "fromF" in methods:
        header += ["i_from_f", "i_from_f_err"]
    if "quad" in methods and "zeros" in methods:
        header.append("zeros_over_quad")
    if "quad" in methods and "fromF" in methods:
        header.append("fromf_over_quad")
    header.append("coefficient_prediction")
    return header


def cmd_moments(args) -> int:
    methods = ("quad", "zeros", "fromF") if args.method == "all" else (args.method,)
    table = zc.load_or_find(args.tmax, cache=args.cache, threads=args.threads)
    quads = (_quadratures(args.k, args.a, args.tmax, table)
             if "quad" in methods else None)
    grid = None
    if "fromF" in methods:
        grid = pc.f_grid(table, args.tmax, args.alpha_max, args.step, threads=args.threads)
    rows = _moment_rows(args.k, args.a, args.tmax, methods, quads, table, grid)
    _emit(rows, _moment_header(methods), args.out)
    return 0


DISCRETE_HEADER = ["k", "a", "t", "two_pi_d_2a", "i_quadrature", "i_over_two_pi_d"]


def _discrete_rows(ks, a_list, t, quads, table):
    """I_k(a,T) from the given sweeps against 2 pi D_k(2a,T) (STRICT engine)."""
    engine = ZetaEngine(STRICT)
    rows = []
    for a in a_list:
        for i, k in enumerate(ks):
            d_est = mo.d_k(k, 2.0 * a, t, table, engine)
            two_pi_d = 2.0 * math.pi * d_est.value
            q = quads[a][i].value
            rows.append([k, a, t, two_pi_d, q, q / two_pi_d])
    return rows


def cmd_discrete(args) -> int:
    table = zc.load_or_find(args.tmax, cache=args.cache, threads=args.threads)
    quads = _quadratures(args.k, args.a, args.tmax, table)
    rows = _discrete_rows(args.k, args.a, args.tmax, quads, table)
    _emit(rows, DISCRETE_HEADER, args.out)
    return 0


def cmd_predict(args) -> int:
    c = pred.coefficient_c(args.k, args.a)
    d = pred.coefficient_d(args.k, args.a)
    _emit([[args.k, args.a, c.value, d.value]],
          ["k", "a", "coefficient_c", "coefficient_d"], args.out)
    return 0


def _identity_rows(ks):
    return [[k, a, pred.gr_identity_residual(k, a)] for k in ks for a in IDENTITY_A_GRID]


def cmd_identity(args) -> int:
    _emit(_identity_rows(range(args.kmax + 1)), IDENTITY_HEADER, args.out)
    return 0


def cmd_tauberian(args) -> int:
    table = zc.load_or_find(args.tmax, cache=args.cache, threads=args.threads)
    grid = pc.f_grid(table, args.tmax, args.alpha_max, args.step, threads=args.threads)
    rep = pred.tauberian_compare(grid, args.k, args.b)
    rows = [["lhs_A", rep.lhs_a], ["rhs_A", rep.rhs_a],
            ["lhs_over_rhs", rep.ratio]]
    rows += [[f"window_avg_{c:g}_{d:g}", avg] for c, d, avg in rep.window_averages]
    rows.append(["mass_sup", rep.mass_sup])
    _emit(rows, ["quantity", "value"], args.out)
    return 0


def cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = zc.load_or_find(args.tmax, cache=args.cache, threads=args.threads)
    grid = pc.f_grid(table, args.tmax, args.alpha_max, args.step, threads=args.threads)

    _emit(_ftable_rows(grid), FTABLE_HEADER, str(out_dir / "ftable.csv"))

    methods = ("quad", "zeros", "fromF")
    quads = _quadratures(args.k, args.a, args.tmax, table)
    rows = _moment_rows(args.k, args.a, args.tmax, methods, quads, table, grid)
    _emit(rows, _moment_header(methods), str(out_dir / "moments.csv"))

    rows = _discrete_rows(args.k, args.a, args.tmax, quads, table)
    _emit(rows, DISCRETE_HEADER, str(out_dir / "discrete.csv"))

    _emit(_identity_rows(args.k), IDENTITY_HEADER, str(out_dir / "identity.csv"))
    print(f"report written to {out_dir}")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Zero statistics and log-derivative moments of the "
                    "Riemann zeta function.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1,
                        help="worker cap for parallel sections (default 1)")
    common.add_argument("--cache", default=None,
                        help="zero-table cache directory (default $ZETALAB_CACHE "
                             "or ./zetalab-cache)")
    common.add_argument("--out", default=None,
                        help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", parents=[common],
                       help="compute or import a zero table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tmax", type=float)
    group.add_argument("--import", dest="import_path")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("ftable", parents=[common],
                       help="sample the pair-correlation function F(alpha,T)")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--alpha-max", type=float, default=6.0)
    p.add_argument("--step", type=float, default=0.02)
    p.set_defaults(func=cmd_ftable)

    p = sub.add_parser("moments", parents=[common],
                       help="second moments of (zeta'/zeta)^(k), three methods")
    p.add_argument("--k", type=_parse_int_list, required=True)
    p.add_argument("--a", type=_parse_float_list, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--method", choices=("quad", "zeros", "fromF", "all"),
                   default="all")
    p.add_argument("--alpha-max", type=float, default=6.0)
    p.add_argument("--step", type=float, default=0.02)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("discrete", parents=[common],
                       help="discrete moments D_k(2a,T) against I_k(a,T)")
    p.add_argument("--k", type=_parse_int_list, required=True)
    p.add_argument("--a", type=_parse_float_list, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.set_defaults(func=cmd_discrete)

    p = sub.add_parser("predict", parents=[common],
                       help="closed-form predicted moment coefficients")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("identity", parents=[common],
                       help="quadrature residual of the coefficient identity")
    p.add_argument("--kmax", type=_nonnegative_int, required=True)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("tauberian", parents=[common],
                       help="weighted-integral vs window-average comparator")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--alpha-max", type=float, default=6.0)
    p.add_argument("--step", type=float, default=0.02)
    p.set_defaults(func=cmd_tauberian)

    p = sub.add_parser("report", parents=[common],
                       help="emit ftable/moments/discrete/identity CSV files")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--k", type=_parse_int_list, required=True)
    p.add_argument("--a", type=_parse_float_list, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--alpha-max", type=float, default=6.0)
    p.add_argument("--step", type=float, default=0.02)
    p.set_defaults(func=cmd_report)
    return parser


def cmd_dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZetalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cmd_dispatch())


if __name__ == "__main__":
    main()
