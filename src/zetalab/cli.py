"""Command-line front door: zeros, F tables, moments, coefficients, reports.

Every numeric output is CSV with a header row, 12 significant digits, LF
line endings, and no locale formatting, written to --out (default stdout);
``report`` writes only under --out-dir.  Only commands that read a zero
table take --cache and --threads; ``moments --method quad`` takes them but
reads no zero table and writes no cache.  --threads is accepted and unused:
the zero scan is serial, and the commands of perfbench/workloads.py still
pass it.  Exit codes: 0 success, 1 domain or computation error or a failed
write, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from pathlib import Path

from . import moments as mo
from . import pair_correlation as pc
from . import predictions as pred
from . import zero_catalog as zc
from .errors import DomainError, IoError, ZetalabError
from .zeta_engine import ZetaEngine

IDENTITY_A_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
METHODS = ("quad", "zeros", "fromF")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(table, path) -> None:
    """Write a table builder's (header, rows) as CSV to ``path``; None or '-' is stdout.

    The CSV is built in memory and a file is replaced atomically, so a
    failed write leaves any previous file whole.
    """
    header, rows = table
    text = io.StringIO()
    try:
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        if path in (None, "-"):
            sys.stdout.write(text.getvalue())
            return
    except OSError as exc:
        raise IoError(f"cannot write {path or '-'}: {exc}") from exc
    zc.write_atomic(Path(path), text.getvalue())


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {path}: {exc}") from exc


def _list_of(kind):
    """argparse type for a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        values = [kind(tok) for tok in text.split(",") if tok]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        return values
    parse.__name__ = f"{kind.__name__} list"
    return parse


def _int_at_least(low: int):
    """argparse type for an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _check_cells(ks, a_list, t, discrete=False):
    """Refuse a (k, a) outside the moment envelope, and with ``discrete`` a 2a, before any work."""
    for a in a_list:
        for k in ks:
            mo.check_envelope(k, a, t)
            if discrete:
                try:
                    mo.check_envelope(k, 2.0 * a, t)
                except DomainError as exc:
                    raise DomainError(f"a={a}: D_k(2a,T) needs 2a={2.0 * a} inside "
                                      f"the envelope ({exc})") from exc


def _table(args):
    return zc.load_or_find(args.tmax, cache=args.cache)


def _grid(args, table):
    return pc.f_grid(table, args.tmax, args.alpha_max, args.step)


def _quadratures(ks, a_list, t):
    """One quadrature sweep per distinct a."""
    return {a: mo.i_k_quadrature_batch(ks, a, t, ZetaEngine())
            for a in dict.fromkeys(a_list)}


def _ftable(grid):
    return ["alpha", "f_value"], [[float(a), float(v)] for a, v in zip(grid.alphas, grid.values)]


def _moments(ks, a_list, t, methods, quads, table, grid):
    """I_k(a,T) by each chosen route, the others over quad, and c_k(a) T log^(2k+2) T."""
    # (method, value column, column of its ratio to quad, estimate), in column order
    routes = [r for r in (
        ("quad", "i_quadrature", None, lambda i, k, a: quads[a][i]),
        ("zeros", "i_zero_pairs", "zeros_over_quad",
         lambda i, k, a: mo.i_k_from_zeros(k, a, t, table)),
        ("fromF", "i_from_f", "fromf_over_quad", lambda i, k, a: mo.i_k_from_f(k, a, t, grid)),
    ) if r[0] in methods]
    ratio = "quad" in methods
    header = ["k", "a", "t", *(c for _, col, _, _ in routes for c in (col, col + "_err")),
              *(over for _, _, over, _ in routes if ratio and over), "coefficient_prediction"]
    rows = []
    for a in a_list:
        for i, k in enumerate(ks):
            ests = [(over, estimate(i, k, a)) for _, _, over, estimate in routes]
            rows.append([k, a, t, *(x for _, e in ests for x in (e.value, e.err_estimate)),
                         *(e.value / ests[0][1].value for over, e in ests if ratio and over),
                         pred.coefficient_c(k, a) * t * math.log(t) ** (2 * k + 2)])
    return header, rows


def _discrete(ks, a_list, t, quads, table):
    """I_k(a,T) from the given sweeps against 2 pi D_k(2a,T)."""
    rows = []
    for a in a_list:
        d_ests = mo.d_k_batch(ks, 2.0 * a, t, table, ZetaEngine())
        for i, k in enumerate(ks):
            rows.append([k, a, t, 2.0 * math.pi * d_ests[i].value, quads[a][i].value,
                         mo.ratio_of(quads[a][i], d_ests[i])])
    return ["k", "a", "t", "two_pi_d_2a", "i_quadrature", "i_over_two_pi_d"], rows


def _identity(ks):
    cells = [(k, a) for k in ks for a in IDENTITY_A_GRID]
    for k, a in cells:
        pred.validate(k, a)  # refuse an order above the limit before any quadrature
    return ["k", "a", "gr_residual"], [[k, a, pred.gr_identity_residual(k, a)] for k, a in cells]


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_zeros(args) -> int:
    """Compute a table through the cache, or import one; write it only to --out."""
    table = zc.import_zeros(args.import_path) if args.import_path else _table(args)
    report = zc.verify_counts(table)
    print(f"{len(table)} zeros, RvM expected {report.expected:.2f}, "
          f"{'PASS' if report.passed else 'FAIL'}")
    if args.out:
        _make_dir(Path(args.out).parent)
        zc.export_zeros(table, args.out)
        print(f"written: {args.out}")
    return 0


def cmd_ftable(args) -> int:
    _emit(_ftable(_grid(args, _table(args))), args.out)
    return 0


def cmd_moments(args) -> int:
    methods = METHODS if args.method == "all" else (args.method,)
    _check_cells(args.k, args.a, args.tmax)
    table = _table(args) if {"zeros", "fromF"} & set(methods) else None
    quads = _quadratures(args.k, args.a, args.tmax) if "quad" in methods else None
    grid = _grid(args, table) if "fromF" in methods else None
    _emit(_moments(args.k, args.a, args.tmax, methods, quads, table, grid), args.out)
    return 0


def cmd_discrete(args) -> int:
    _check_cells(args.k, args.a, args.tmax, discrete=True)
    table = _table(args)
    quads = _quadratures(args.k, args.a, args.tmax)
    _emit(_discrete(args.k, args.a, args.tmax, quads, table), args.out)
    return 0


def cmd_predict(args) -> int:
    k, a = args.k, args.a
    _emit((["k", "a", "coefficient_c", "coefficient_d"],
           [[k, a, pred.coefficient_c(k, a), pred.coefficient_d(k, a)]]), args.out)
    return 0


def cmd_identity(args) -> int:
    _emit(_identity(range(args.kmax + 1)), args.out)
    return 0


def cmd_tauberian(args) -> int:
    pred.validate(args.k, args.b, "b")  # refuse a bad k or b before the zero table
    rep = pred.tauberian_compare(_grid(args, _table(args)), args.k, args.b)
    rows = [["lhs_A", rep.lhs_a], ["rhs_A", rep.rhs_a], ["lhs_over_rhs", rep.ratio],
            *([f"window_avg_{c:g}_{d:g}", avg] for c, d, avg in rep.window_averages),
            ["mass_sup", rep.mass_sup]]
    _emit((["quantity", "value"], rows), args.out)
    return 0


def cmd_report(args) -> int:
    ks, a_list, t, out_dir = args.k, args.a, args.tmax, args.out_dir
    _check_cells(ks, a_list, t, discrete=True)
    _make_dir(out_dir)
    table = _table(args)
    grid = _grid(args, table)
    _emit(_ftable(grid), out_dir / "ftable.csv")
    quads = _quadratures(ks, a_list, t)
    _emit(_moments(ks, a_list, t, METHODS, quads, table, grid), out_dir / "moments.csv")
    _emit(_discrete(ks, a_list, t, quads, table), out_dir / "discrete.csv")
    _emit(_identity(ks), out_dir / "identity.csv")
    print(f"report written to {out_dir}")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.

    It names each command (``dest="command"``) and holds no handler:
    ``cmd_dispatch`` looks ``cmd_<command>`` up at call time.
    """
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Zero statistics and log-derivative moments of the "
                    "Riemann zeta function.")
    zero_table = argparse.ArgumentParser(add_help=False)
    zero_table.add_argument("--threads", type=_int_at_least(1), default=1,
                            help="accepted and unused; the zero scan is serial "
                                 "(default 1)")
    zero_table.add_argument("--cache", help="zero-table cache directory "
                                            "(default $ZETALAB_CACHE or ./zetalab-cache)")
    tmax = argparse.ArgumentParser(add_help=False)
    tmax.add_argument("--tmax", type=float, required=True)
    f_grid = argparse.ArgumentParser(add_help=False)
    f_grid.add_argument("--alpha-max", type=float, default=6.0)
    f_grid.add_argument("--step", type=float, default=0.02)
    lists = argparse.ArgumentParser(add_help=False)
    lists.add_argument("--k", type=_list_of(int), required=True)
    lists.add_argument("--a", type=_list_of(float), required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, parents, help, **kwargs):
        return sub.add_parser(name, parents=parents, help=help, **kwargs)

    p = command("zeros", [zero_table, out], "compute or import a zero table")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--tmax", type=float)
    source.add_argument("--import", dest="import_path")

    command("ftable", [zero_table, tmax, f_grid, out],
            "sample the pair-correlation function F(alpha,T)")

    p = command("moments", [zero_table, lists, tmax, f_grid, out],
                "second moments of (zeta'/zeta)^(k), three methods")
    p.add_argument("--method", choices=(*METHODS, "all"), default="all")

    command("discrete", [zero_table, lists, tmax, out],
            "discrete moments D_k(2a,T) against I_k(a,T)")

    p = command("predict", [out], "closed-form predicted moment coefficients")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=float, required=True)

    p = command("identity", [out],
                "quadrature residual of the coefficient identity")
    p.add_argument("--kmax", type=_int_at_least(0), required=True)

    p = command("tauberian", [zero_table, tmax, f_grid, out],
                "weighted-integral vs window-average comparator")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=float, required=True)

    # no abbreviations: --out, which report does not take, would pass for --out-dir
    p = command("report", [zero_table, tmax, lists, f_grid],
                "emit ftable/moments/discrete/identity CSV files", allow_abbrev=False)
    p.add_argument("--out-dir", type=Path, required=True)
    return parser


def cmd_dispatch(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on every call, so a cmd_* attribute replaced after the
    # parser was built is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except ZetalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cmd_dispatch())


if __name__ == "__main__":
    main()
