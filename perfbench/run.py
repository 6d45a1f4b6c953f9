"""Run one zetalab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each invocation is one fresh process and one run:

1. set-up, three times, each in a fresh interpreter (imports plus the
   workload's warm-up into its own temporary cache) -> ``setup_s``;
2. timed passes for about ``--seconds`` seconds -> ``wall_s`` and
   ``peak_rss_mb`` (``--trace 0``), or untraced then traced passes for
   half the time each -> the per-layer metrics (``--trace 1``);
3. correctness checks, outside the timed region.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
All files go to ``.perfbench_tmp/`` (removed at exit) and, for traced
runs, ``.perfbench_out/`` (span dumps) under the checkout root.
"""

from __future__ import annotations

import argparse
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (pins threads before numpy is imported)

harness.pin_threads()

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("report", "zeros", "pairs", "points")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(workload) -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    from workloads import nproc
    return (f"env: nproc={nproc()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} blas={blas_text} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
            f"zetalab --threads={workload.threads}")


def set_up(name: str, seed: int, tmp: Path) -> tuple[list[float], Path]:
    """Time SETUP_REPEATS fresh-interpreter set-ups; returns the last cache."""
    times = []
    for i in range(SETUP_REPEATS):
        cache = tmp / f"cache-{i}"
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "warm.py"), name, str(seed), str(cache)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times, cache


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zetalab" / "__init__.py").is_file():
        print(f"perfbench: no zetalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ZETALAB_CACHE", None)

    import zetalab
    if Path(zetalab.__file__).resolve().parent != (SRC / "zetalab").resolve():
        print(f"perfbench: imported zetalab from {zetalab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    inputs = workload.draw(args.seed)
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_tmp"))
    try:
        setup_times, cache = set_up(args.workload, args.seed, tmp)
        scratch = tmp / "work"
        scratch.mkdir()
        ctx = Context(inputs, cache, scratch)
        lines = [f"perfbench workload={args.workload} seed={args.seed} "
                 f"seconds={args.seconds:g} trace={args.trace}",
                 environment(workload),
                 "inputs: " + summarize(inputs)]
        if args.trace:
            metrics, records = traced_run(workload, ctx, args)
        else:
            metrics, records, more = plain_run(workload, ctx, args.seconds, setup_times)
            lines += more
        checks = run_checks(workload, ctx, records)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()    # only when no other run is using it
        except OSError:
            pass

    refused = [r for rec in records for r in rec.refused]
    failed_checks = [c for c in checks if not c.ok]
    attempted = sum(rec.ops for rec in records) + len(checks)
    failed = len(refused) + len(failed_checks)
    for c in checks:
        lines.append(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    lines += [f"refused: {r}" for r in refused[:20]]
    lines.append(f"fail_frac: {failed}/{attempted} = {failed / attempted:.4g} "
                 f"({len(refused)} refused operations, {len(failed_checks)} failed "
                 f"of {len(checks)} checks)")
    for name, m in metrics.items():
        lines.append(f"metric {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"verdict: {'correct' if not failed_checks else 'INCORRECT'}")
    print("\n".join(lines))
    print(harness.result_line(not failed_checks, attempted, failed, metrics), flush=True)
    return 0


def summarize(inputs: dict) -> str:
    parts = []
    for key, value in inputs.items():
        if isinstance(value, list) and len(value) > 8:
            value = f"<{len(value)} items>"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def plain_run(workload, ctx, seconds: float, setup_times: list[float]):
    walls, records = harness.measure(lambda i: workload.run_pass(ctx, i), seconds,
                                     workload.min_passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    groups = [r.data.get("group", 0) for r in records]
    metrics = {
        "wall_s": harness.metric(harness.grouped_min(walls, groups), "s"),
        "setup_s": harness.metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": harness.metric(rss_mb, "MB"),
    }
    lines = [f"passes: {len(walls)}, wall times " + " ".join(f"{w:.4f}" for w in walls) + " s",
             "setup times " + " ".join(f"{s:.4f}" for s in setup_times) + " s"]
    latencies = [x * 1e3 for r in records for x in r.data.get("latencies", [])]
    if latencies:
        tail = harness.tail_percentile(latencies)
        lines.append(f"op latency: p50 {harness.percentile(latencies, 50):.4f} ms, "
                     f"p99 {harness.percentile(latencies, 99):.4f} ms, highest "
                     f"percentile with >= 10 samples beyond: p{tail[0]:g} = "
                     f"{tail[1]:.4f} ms (n={tail[2]})")
    return metrics, records, lines


def traced_run(workload, ctx, args):
    import layers
    from tracer import Recorder

    half = args.seconds / 2.0
    plain_walls, plain = harness.measure(lambda i: workload.run_pass(ctx, i), half,
                                         workload.min_passes)
    recorder = Recorder()
    layers.install(recorder)

    def traced_pass(i):
        recorder.run_id = i
        return workload.run_pass(ctx, i)

    try:
        traced_walls, traced = harness.measure(traced_pass, half, workload.min_passes,
                                               first_index=len(plain_walls))
    finally:
        recorder.uninstall()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    recorder.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    values = layers.per_layer(recorder, plain, plain_walls, traced, traced_walls)
    metrics = {name: harness.metric(values[name], unit)
               for name, unit, _ in layers.metric_specs()}
    return metrics, plain + traced


def run_checks(workload, ctx, records):
    """Workload checks; a check that raises becomes one failed check."""
    from workloads import Check
    try:
        return workload.checks(ctx, records)
    except Exception as exc:  # noqa: BLE001 - report, never abort the run
        return [Check("checks completed", False, f"{type(exc).__name__}: {exc}")]


if __name__ == "__main__":
    sys.exit(main())
