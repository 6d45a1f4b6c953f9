"""zetalab's layers as the benchmark sees them: entry points and their metrics.

Each layer is a package module.  ``ENTRY_POINTS`` lists the public functions
wrapped in a traced run; every one of them reports ``calls``, ``s`` (time
inside its spans) and ``self_s`` (that time minus nested entry points).
``COUNT_METRICS`` adds work counts.  Counts marked *computed* are derived by
the benchmark from public parameters (the ``FAST``/``STRICT`` profiles, the
pair cutoff), not read from the program; they repeat exactly for one seed.
``accumulate`` has no metrics of its own: ``parallel_map`` time lands in the
spans of its callers.
"""

from __future__ import annotations

import inspect
import math
import os
import statistics

import numpy as np

from zetalab import (cli, kernels, moments, pair_correlation, predictions,
                     zero_catalog)
from zetalab.pair_correlation import pair_cutoff
from zetalab.zero_catalog import rvm_expected_count
from zetalab.zeta_engine import TWO_PI, EmProfile, ZetaEngine

from harness import grouped_min, percentile
from tracer import Recorder, Span, descendants, self_times


def main_sum_length(t_abs: float, profile) -> int:
    """Euler-Maclaurin main-sum length at height t for a public profile."""
    return max(32, math.ceil(profile.sum_multiplier * t_abs / TWO_PI) + 16)


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _uniform_terms(engine, t0: float, step: float, count: int) -> int:
    """Computed main-sum terms of a uniform sweep, chunk by chunk."""
    terms = 0
    for m0 in range(0, count, engine.CHUNK):
        m1 = min(m0 + engine.CHUNK, count)
        t_hi = max(abs(t0 + m0 * step), abs(t0 + (m1 - 1) * step))
        terms += (m1 - m0) * (main_sum_length(t_hi, engine.profile) - 1)
    return terms


def _points_terms(engine, ts) -> int:
    """Computed main-sum terms of an arbitrary-height sweep, block by block."""
    ts = np.abs(np.asarray(ts, dtype=float))
    terms = 0
    for m0 in range(0, ts.size, engine.CHUNK):
        blk = ts[m0:m0 + engine.CHUNK]
        terms += blk.size * (main_sum_length(float(blk.max()), engine.profile) - 1)
    return terms


def _count_uniform(fn):
    def count(args, kwargs, result):
        a = _bind(fn, args, kwargs)
        return {"points": a["count"],
                "terms": _uniform_terms(a["self"], a["t0"], a["step"], a["count"])}
    return count


def _count_points(fn):
    def count(args, kwargs, result):
        a = _bind(fn, args, kwargs)
        return {"points": int(np.size(a["ts"])),
                "terms": _points_terms(a["self"], a["ts"])}
    return count


def _count_single(fn):
    """One value at s plus ``circle_nodes`` values on the Cauchy circle."""
    def count(args, kwargs, result):
        a = _bind(fn, args, kwargs)
        engine, p = a["self"], a["p"]    # an EvalPoint in every workload
        t_abs = abs(p.t)
        radius = min(0.45, abs(p.s - 1.0) / 2.0)
        boosted = EmProfile(engine.profile.sum_multiplier + 0.8,
                            engine.profile.correction_terms + 2)
        terms = (main_sum_length(t_abs, engine.profile) - 1
                 + engine.circle_nodes * (main_sum_length(t_abs + radius, boosted) - 1))
        return {"points": 1, "terms": terms}
    return count


def _count_table(fn):
    def count(args, kwargs, result):
        return {"census_residual": abs(len(result) - rvm_expected_count(result.t_max))}
    return count


def _count_file(fn):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(_bind(fn, args, kwargs)["path"])}
    return count


def _count_fgrid(fn):
    def count(args, kwargs, result):
        a = _bind(fn, args, kwargs)
        g = a["zeros"].ordinates[a["zeros"].ordinates <= a["t"]]
        lo = np.searchsorted(g, g - pair_cutoff(a["t"]), side="left")
        return {"alphas": int(result.alphas.size),
                "pairs": int(np.sum(np.arange(g.size) - lo))}
    return count


def _count_kernel(fn):
    def count(args, kwargs, result):
        return {"points": int(np.size(_bind(fn, args, kwargs)["x"]))}
    return count


#: (owner, attribute, metric prefix, count factory or None)
ENTRY_POINTS = [
    (ZetaEngine, "log_deriv_uniform", "zeta_engine.log_deriv_uniform", _count_uniform),
    (ZetaEngine, "log_deriv_line", "zeta_engine.log_deriv_line", _count_points),
    (ZetaEngine, "hardy_z_points", "zeta_engine.hardy_z_points", _count_points),
    (ZetaEngine, "hardy_z_uniform", "zeta_engine.hardy_z_uniform", _count_uniform),
    (ZetaEngine, "log_derivative_k", "zeta_engine.log_derivative_k", _count_single),
    (zero_catalog, "find_zeros", "zero_catalog.find_zeros", _count_table),
    (zero_catalog, "load_or_find", "zero_catalog.load_or_find", _count_table),
    (zero_catalog, "import_zeros", "zero_catalog.import_zeros", _count_file),
    (zero_catalog, "export_zeros", "zero_catalog.export_zeros", _count_file),
    (moments, "i_k_quadrature_batch", "moments.i_k_quadrature_batch", None),
    (moments, "i_k_from_zeros", "moments.i_k_from_zeros", None),
    (moments, "i_k_from_f", "moments.i_k_from_f", None),
    (moments, "d_k", "moments.d_k", None),
    (pair_correlation, "f_grid", "pair_correlation.f_grid", _count_fgrid),
    (pair_correlation, "pair_count", "pair_correlation.pair_count", None),
    (kernels, "kernel_eval", "kernels.kernel_eval", _count_kernel),
    (predictions, "gr_identity_residual", "predictions.gr_identity_residual", None),
    (predictions, "tauberian_compare", "predictions.tauberian_compare", None),
    (cli, "cmd_report", "cli.report", None),
    (cli, "cmd_zeros", "cli.zeros", None),
    (cli, "cmd_ftable", "cli.ftable", None),
]

ENGINE_PREFIXES = [p for _, _, p, _ in ENTRY_POINTS if p.startswith("zeta_engine.")]

#: (name, unit, better) of the counts and ratios beyond calls/s/self_s
COUNT_METRICS = [
    ("zeta_engine.log_deriv_uniform.points", "count", "lower"),
    ("zeta_engine.log_deriv_line.points", "count", "lower"),
    ("zeta_engine.hardy_z_points.points", "count", "lower"),
    ("zeta_engine.hardy_z_uniform.points", "count", "lower"),
    ("zeta_engine.log_derivative_k.p50_ms", "ms", "lower"),
    ("zeta_engine.log_derivative_k.p99_ms", "ms", "lower"),
    ("zeta_engine.terms", "count", "lower"),
    ("zeta_engine.ns_per_term", "ns", "lower"),
    ("zero_catalog.find_zeros.bisection_rounds", "count", "lower"),
    ("zero_catalog.import_zeros.bytes", "B", "lower"),
    ("zero_catalog.export_zeros.bytes", "B", "lower"),
    ("zero_catalog.load_or_find.hit_ratio", "ratio", "higher"),
    ("zero_catalog.census_residual", "count", "lower"),
    ("moments.i_k_quadrature_batch.samples", "count", "lower"),
    ("pair_correlation.f_grid.alphas", "count", "lower"),
    ("pair_correlation.pairs", "count", "lower"),
    ("pair_correlation.ns_per_pair_term", "ns", "lower"),
    ("kernels.kernel_eval.points", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for _, _, prefix, _ in ENTRY_POINTS:
        specs += [(f"{prefix}.calls", "count", "lower"),
                  (f"{prefix}.s", "s", "lower"),
                  (f"{prefix}.self_s", "s", "lower")]
    return specs + COUNT_METRICS


def install(recorder: Recorder) -> None:
    for owner, attr, prefix, factory in ENTRY_POINTS:
        fn = getattr(owner, attr)
        recorder.install(owner, attr, prefix, factory(fn) if factory else None)


def _pass_totals(spans: list[Span]) -> dict[str, float]:
    """Additive per-layer quantities of one traced pass (zero if idle).

    Keys starting with ``_`` are numerators and denominators of the ratio
    metrics, which ``per_layer`` forms after summing over input groups.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(prefix):
        return by_name.get(prefix, [])

    def total(prefix, key):
        return sum(s.counts.get(key, 0) for s in named(prefix))

    def under(root_name, name):
        return [s for root in named(root_name) for s in descendants(spans, root)
                if s.name == name]

    out: dict[str, float] = {}
    for _, _, prefix, _ in ENTRY_POINTS:
        out[f"{prefix}.calls"] = len(named(prefix))
        out[f"{prefix}.s"] = sum(s.duration for s in named(prefix))
        out[f"{prefix}.self_s"] = sum(selfs[s.span_id] for s in named(prefix))
    for prefix in ("log_deriv_uniform", "log_deriv_line", "hardy_z_points",
                   "hardy_z_uniform"):
        out[f"zeta_engine.{prefix}.points"] = total(f"zeta_engine.{prefix}", "points")
    out["zeta_engine.terms"] = sum(total(p, "terms") for p in ENGINE_PREFIXES)
    out["_engine_s"] = sum(out[f"{p}.s"] for p in ENGINE_PREFIXES)

    out["zero_catalog.find_zeros.bisection_rounds"] = len(
        under("zero_catalog.find_zeros", "zeta_engine.hardy_z_points"))
    out["zero_catalog.import_zeros.bytes"] = total("zero_catalog.import_zeros", "bytes")
    out["zero_catalog.export_zeros.bytes"] = total("zero_catalog.export_zeros", "bytes")
    loads = named("zero_catalog.load_or_find")
    out["_hits"] = sum(1 for root in loads
                       if not any(s.name == "zero_catalog.find_zeros"
                                  for s in descendants(spans, root)))
    out["zero_catalog.census_residual"] = max(
        (s.counts.get("census_residual", 0.0)
         for s in named("zero_catalog.find_zeros") + loads), default=0.0)

    out["moments.i_k_quadrature_batch.samples"] = sum(
        s.counts.get("points", 0)
        for s in under("moments.i_k_quadrature_batch", "zeta_engine.log_deriv_uniform"))

    out["pair_correlation.f_grid.alphas"] = total("pair_correlation.f_grid", "alphas")
    out["pair_correlation.pairs"] = total("pair_correlation.f_grid", "pairs")
    out["_pair_terms"] = sum(s.counts.get("pairs", 0) * s.counts.get("alphas", 0)
                             for s in named("pair_correlation.f_grid"))
    out["kernels.kernel_eval.points"] = total("kernels.kernel_eval", "points")
    out["trace.spans"] = len(spans)
    return out


def per_layer(recorder: Recorder, plain: list, plain_walls: list[float],
              traced: list, traced_walls: list[float]) -> dict[str, float]:
    """Every per-layer metric of one run.

    Each additive quantity is the median over the traced passes of one
    input group, summed over groups (the grouping of ``wall_s``); ratios
    are formed from those sums.  Latency percentiles pool the
    ``log_derivative_k`` spans of all traced passes; the tracing overhead
    is the traced minus the untraced ``wall_s``.
    """
    spans_of: dict[int, list[Span]] = {}
    for span in recorder.spans:
        spans_of.setdefault(span.run_id, []).append(span)
    groups: dict = {}
    for run_id, record in enumerate(traced, start=len(plain)):
        groups.setdefault(record.data.get("group", 0), []).append(
            _pass_totals(spans_of.get(run_id, [])))
    out = {key: sum(statistics.median(row[key] for row in rows) for rows in groups.values())
           for key in next(iter(groups.values()))[0]}
    out["zero_catalog.census_residual"] = max(
        row["zero_catalog.census_residual"] for rows in groups.values() for row in rows)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out["zeta_engine.ns_per_term"] = ratio(out.pop("_engine_s"), out["zeta_engine.terms"], 1e9)
    out["zero_catalog.load_or_find.hit_ratio"] = ratio(
        out.pop("_hits"), out["zero_catalog.load_or_find.calls"])
    out["pair_correlation.ns_per_pair_term"] = ratio(
        out["pair_correlation.f_grid.s"], out.pop("_pair_terms"), 1e9)
    single = [s.duration * 1e3 for s in recorder.spans
              if s.name == "zeta_engine.log_derivative_k"]
    out["zeta_engine.log_derivative_k.p50_ms"] = percentile(single, 50) if single else 0.0
    out["zeta_engine.log_derivative_k.p99_ms"] = percentile(single, 99) if single else 0.0
    out["trace.overhead_s"] = (
        grouped_min(traced_walls, [r.data.get("group", 0) for r in traced])
        - grouped_min(plain_walls, [r.data.get("group", 0) for r in plain]))
    return out
