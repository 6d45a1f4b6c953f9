"""The four workloads: what the seed draws, the timed pass, and the checks.

Each workload stresses a different set of layers (see README.md for the
layer-to-metric map).  The seed only draws inputs; the program receives
them through its CLI or its public functions.  Sizes are chosen so that one
pass takes seconds, not minutes: the benchmark repeats every workload about
a hundred times per comparison.

A pass counts operations (CLI commands or library calls) and the ones that
raised or returned a non-zero exit code.  Checks run after the timed
passes; a failing check is recorded and the run goes on.
"""

from __future__ import annotations

import io
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zetalab import cli, moments, pair_correlation, predictions, zero_catalog
from zetalab.errors import ZetalabError
from zetalab.pair_correlation import FGrid
from zetalab.zeta_engine import STRICT, EvalPoint, ZetaEngine

from harness import seeded_rng, stratified

#: criterion 5/6 tolerance of the acceptance suite on the route ratios
ROUTE_TOL = 0.25
#: criterion 7 band for I_k(a,T) / (2 pi D_k(2a,T))
DISCRETE_BAND = (0.7, 1.3)
#: criterion 3 bound on the coefficient-identity residual
IDENTITY_TOL = 1e-8
#: cells the acceptance suite marks as failing by design for the F route:
#: (k, a) = (2, 0.5) loses ~28% of its weight beyond alpha_max = 6
F_ROUTE_BY_DESIGN = {(2, 0.5)}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Context:
    """Inputs and directories of one run."""

    inputs: dict
    cache: Path
    scratch: Path


@dataclass
class PassRecord:
    ops: int = 0
    refused: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def run_cli(argv: list[str], record: PassRecord) -> str:
    """Run one zetalab command in-process; returns its captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.cmd_dispatch(argv)
        except SystemExit as exc:
            code = exc.code
    record.ops += 1
    if code != 0:
        record.refused.append(f"zetalab {argv[0]} exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def call(record: PassRecord, fn, *args):
    """One library operation; a ZetalabError counts as refused."""
    record.ops += 1
    try:
        return fn(*args)
    except ZetalabError as exc:
        record.refused.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
        return None


def _read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _read_grid(path: Path, t: float) -> FGrid:
    rows = _read_csv(path)
    return FGrid(t, np.array([float(r["alpha"]) for r in rows]),
                 np.array([float(r["f_value"]) for r in rows]))


def _same_bytes(name: str, paths: list[Path]) -> Check:
    blobs = {p.read_bytes() for p in paths}
    return Check(f"{name} byte-identical over {len(paths)} passes", len(blobs) == 1,
                 f"{len(blobs)} distinct versions")


def _within(name: str, ratio: float, tol: float) -> Check:
    return Check(name, abs(ratio - 1.0) <= tol, f"ratio {ratio:.6g}, tolerance {tol}")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _draw_t(rng, lo: float, hi: float) -> float:
    """A height with three decimals, so the CLI argument is exactly T."""
    return float(_fmt(rng.uniform(lo, hi)))


class Workload:
    name = ""
    #: --threads handed to zetalab
    threads = 1
    #: at least one pass per timing group (report has one group per a)
    min_passes = 3

    def draw(self, seed: int) -> dict:
        raise NotImplementedError

    def warm(self, inputs: dict, cache: Path) -> None:
        """Set-up work, run in a fresh interpreter after the imports."""

    def run_pass(self, ctx: Context, index: int) -> PassRecord:
        raise NotImplementedError

    def checks(self, ctx: Context, records: list[PassRecord]) -> list[Check]:
        raise NotImplementedError


class Report(Workload):
    name = "report"

    def draw(self, seed):
        rng = seeded_rng(self.name, seed)
        # T stays between the zeros at 49.77 and 52.97, so every seed sees
        # the same ten zeros and the same quadrature mesh layout.
        return {"tmax": _draw_t(rng, 51.0, 52.0),
                "k": (0, 1, 2), "a": (0.5, 1.0, 2.0)}

    def warm(self, inputs, cache):
        zero_catalog.load_or_find(inputs["tmax"], cache=cache, threads=self.threads)

    def run_pass(self, ctx, index):
        # one command per a, cycling; see harness.grouped_min
        record = PassRecord()
        inp = ctx.inputs
        a = inp["a"][index % len(inp["a"])]
        out_dir = ctx.scratch / f"report-{index}"
        run_cli(["report", "--tmax", _fmt(inp["tmax"]),
                 "--k", ",".join(map(str, inp["k"])), "--a", f"{a:g}",
                 "--threads", str(self.threads), "--cache", str(ctx.cache),
                 "--out-dir", str(out_dir)], record)
        record.data.update(group=a, out=out_dir)
        return record

    def checks(self, ctx, records):
        by_a: dict[float, list[Path]] = {}
        for r in records:
            by_a.setdefault(r.data["group"], []).append(r.data["out"])
        found = []
        for a, outs in sorted(by_a.items()):
            found += [_same_bytes(f"a={a:g} {name}", [o / name for o in outs])
                      for name in ("ftable.csv", "moments.csv", "discrete.csv",
                                   "identity.csv")]
        firsts = [outs[0] for _, outs in sorted(by_a.items())]
        for row in (r for o in firsts for r in _read_csv(o / "moments.csv")):
            k, a = int(row["k"]), float(row["a"])
            if k == 0:
                continue  # the pair routes are k >= 1 statements (criteria 5, 6)
            found.append(_within(f"criterion 5 zero-pair/quadrature k={k} a={a:g}",
                                 float(row["zeros_over_quad"]), ROUTE_TOL))
            if (k, a) not in F_ROUTE_BY_DESIGN:
                found.append(_within(f"criterion 6 F/quadrature k={k} a={a:g}",
                                     float(row["fromf_over_quad"]), ROUTE_TOL))
        for row in (r for o in firsts for r in _read_csv(o / "discrete.csv")):
            ratio = float(row["i_over_two_pi_d"])
            lo, hi = DISCRETE_BAND
            found.append(Check(f"criterion 7 I/(2 pi D) k={row['k']} a={row['a']}",
                               lo <= ratio <= hi, f"ratio {ratio:.6g}, band [{lo}, {hi}]"))
        for row in _read_csv(firsts[0] / "identity.csv"):
            res = float(row["gr_residual"])
            found.append(Check(f"identity residual k={row['k']} a={row['a']}",
                               res < IDENTITY_TOL, f"residual {res:.3g}"))
        return found


class Zeros(Workload):
    name = "zeros"
    spot_checks = 3

    def draw(self, seed):
        rng = seeded_rng(self.name, seed)
        return {"tmax": _draw_t(rng, 995.0, 1005.0),
                "spots": [rng.random() for _ in range(self.spot_checks)]}

    def run_pass(self, ctx, index):
        record = PassRecord()
        cache = ctx.scratch / f"zeros-{index}"
        argv = ["zeros", "--tmax", _fmt(ctx.inputs["tmax"]),
                "--threads", str(self.threads), "--cache", str(cache)]
        run_cli(argv, record)    # computes, certifies and writes the table
        run_cli(argv, record)    # reads it back from the cache
        record.data["files"] = sorted(cache.glob("zeros-tmax-*.txt"))
        return record

    def checks(self, ctx, records):
        import mpmath

        files = [f for r in records for f in r.data["files"]]
        found = [_same_bytes("zero table", files)]
        table = zero_catalog.import_zeros(files[0])
        census = zero_catalog.verify_counts(table)
        found.append(Check("census", census.passed,
                           f"{census.actual} zeros, RvM expects {census.expected:.2f}"))
        for u in ctx.inputs["spots"]:
            n = 1 + int(u * len(table))
            ref = float(mpmath.zetazero(n).imag)
            diff = abs(ref - float(table.ordinates[n - 1]))
            found.append(Check(f"zero #{n} against mpmath", diff <= 1e-8,
                               f"|diff| {diff:.2e} at {ref:.6f}"))
        return found


class Pairs(Workload):
    name = "pairs"
    threads = nproc()
    betas = (0.5, 1.0, 2.0)

    def draw(self, seed):
        rng = seeded_rng(self.name, seed)
        return {"tmax": _draw_t(rng, 1492.5, 1507.5),
                "a": rng.choice((0.5, 1.0, 2.0)),
                "tauberian": (rng.choice((0, 1, 2)), rng.choice((1.0, 2.0, 4.0))),
                "alpha_spots": [rng.randrange(301) for _ in range(3)]}

    def warm(self, inputs, cache):
        zero_catalog.load_or_find(inputs["tmax"], cache=cache)

    def run_pass(self, ctx, index):
        record = PassRecord()
        inp = ctx.inputs
        t, a = inp["tmax"], inp["a"]
        csv_path = ctx.scratch / f"ftable-{index}.csv"
        run_cli(["ftable", "--tmax", _fmt(t), "--alpha-max", "6", "--step", "0.02",
                 "--threads", str(self.threads), "--cache", str(ctx.cache),
                 "--out", str(csv_path)], record)
        table = zero_catalog.load_or_find(t, cache=ctx.cache)
        grid = _read_grid(csv_path, t)
        # keep results only: a table holds megabytes of cached pair data
        data = record.data
        data["csv"] = csv_path
        data["from_zeros"] = [call(record, moments.i_k_from_zeros, k, a, t, table)
                              for k in (0, 1, 2)]
        data["from_f"] = [call(record, moments.i_k_from_f, k, a, t, grid)
                          for k in (0, 1, 2)]
        data["pair_counts"] = [call(record, pair_correlation.pair_count, table, t, b)
                               for b in self.betas]
        data["tauberian"] = call(record, predictions.tauberian_compare, grid,
                                 *inp["tauberian"])
        return record

    def checks(self, ctx, records):
        data = records[0].data
        t, a = ctx.inputs["tmax"], ctx.inputs["a"]
        table = zero_catalog.load_or_find(t, cache=ctx.cache)
        grid = _read_grid(data["csv"], t)
        found = [_same_bytes("ftable.csv", [r.data["csv"] for r in records])]
        for i in ctx.inputs["alpha_spots"]:
            alpha = float(grid.alphas[i])
            direct = pair_correlation.f_alpha(table, t, alpha)
            rel = abs(direct - grid.values[i]) / abs(direct)
            found.append(Check(f"F({alpha:g}) grid against f_alpha", rel <= 1e-9,
                               f"rel diff {rel:.2e}"))
        g = table.ordinates[table.ordinates <= t]
        diffs = g[:, None] - g[None, :]
        for beta, got in zip(self.betas, data["pair_counts"]):
            spacing = 2.0 * math.pi * beta / math.log(t)
            want = int(np.count_nonzero((diffs > 0) & (diffs <= spacing)))
            found.append(Check(f"pair_count beta={beta:g} against brute force",
                               got == want, f"{got} vs {want}"))
        for k in (1, 2):
            if (k, a) in F_ROUTE_BY_DESIGN:
                continue
            z, f = data["from_zeros"][k], data["from_f"][k]
            ok = z is not None and f is not None
            ratio = f.value / z.value if ok else float("nan")
            found.append(_within(f"F route / zero-pair route k={k} a={a:g}",
                                 ratio, ROUTE_TOL))
        rep = data["tauberian"]
        ok = rep is not None and math.isfinite(rep.ratio) and rep.ratio > 0
        found.append(Check("tauberian lhs/rhs finite and positive", ok,
                           f"ratio {rep.ratio:.6g}" if rep else "refused"))
        return found


class Points(Workload):
    name = "points"
    blocks = 20
    calls_per_pass = 50
    min_passes = blocks
    spot_checks = 6

    def draw(self, seed):
        # A pass is one block of calls; each block is stratified over the
        # whole (sigma, t) range, so blocks cost about the same.  k stops at
        # 3: at k = 4 the engine refuses (PrecisionError) a few points per
        # thousand close to the line above t ~ 3800, by design.
        rng = seeded_rng(self.name, seed)
        n = self.calls_per_pass
        blocks = []
        for _ in range(self.blocks):
            ks = [i % 4 for i in range(n)]
            rng.shuffle(ks)
            blocks.append(list(zip(stratified(rng, n, 0.52, 2.0),
                                   stratified(rng, n, 10.0, 6000.0), ks)))
        return {"blocks": blocks,
                "spots": [(rng.randrange(self.blocks), rng.randrange(n))
                          for _ in range(self.spot_checks)]}

    def warm(self, inputs, cache):
        sigma, t, k = inputs["blocks"][0][0]
        ZetaEngine(STRICT).log_derivative_k(EvalPoint(sigma, t), k)

    def run_pass(self, ctx, index):
        record = PassRecord()
        engine = ZetaEngine(STRICT)
        block = index % self.blocks
        latencies, values = [], []
        for sigma, t, k in ctx.inputs["blocks"][block]:
            start = time.perf_counter()
            values.append(call(record, engine.log_derivative_k, EvalPoint(sigma, t), k))
            latencies.append(time.perf_counter() - start)
        record.data.update(block=block, latencies=latencies,
                           values=[v.value if v else None for v in values])
        return record

    def checks(self, ctx, records):
        import mpmath

        first = {}
        same = True
        for r in records:
            seen = first.setdefault(r.data["block"], r.data["values"])
            same = same and seen == r.data["values"]
        found = [Check(f"values identical for each block over {len(records)} passes",
                       same, "")]
        mpmath.mp.dps = 30
        for block, i in ctx.inputs["spots"]:
            sigma, t, k = ctx.inputs["blocks"][block][i]
            name = (f"point {block}/{i} (sigma={sigma:.3f}, t={t:.1f}, k={k}) "
                    "against mpmath")
            value = first[block][i]    # min_passes runs every block
            if value is None:
                found.append(Check(name, False, "refused"))
                continue
            ref = _mp_log_derivative(mpmath, sigma, t, k)
            diff = abs(value - ref)
            found.append(Check(name, diff <= 1e-8 * max(1.0, abs(ref)), f"|diff| {diff:.2e}"))
        return found


def _mp_log_derivative(mpmath, sigma: float, t: float, k: int) -> complex:
    """(zeta'/zeta)^(k) in mpmath, by the same log-derivative recursion."""
    s = mpmath.mpc(sigma, t)
    z = [mpmath.zeta(s, 1, j) for j in range(k + 2)]
    g = [None] * (k + 2)
    g[1] = z[1] / z[0]
    for n in range(2, k + 2):
        acc = z[n]
        for j in range(n - 1):
            acc -= mpmath.binomial(n - 1, j) * g[j + 1] * z[n - 1 - j]
        g[n] = acc / z[0]
    return complex(g[k + 1])


WORKLOADS = {w.name: w for w in (Report(), Zeros(), Pairs(), Points())}
