"""Workload-independent pieces of the benchmark: seeding, statistics, timing.

Nothing here imports numpy, so ``run.py`` can pin the BLAS/OpenMP thread
counts before the first numpy import.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import time
from typing import Callable

#: Environment that keeps numpy's BLAS and OpenMP pools at one thread, so a
#: run measures zetalab's own threading and nothing else.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Percentiles tried, lowest first, when choosing the reportable tail.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def pin_threads() -> None:
    """Pin the native thread pools; call before numpy is first imported."""
    os.environ.update(PINNED_ENV)


def seeded_rng(workload: str, seed: int) -> random.Random:
    """One independent, reproducible stream per (workload, seed)."""
    return random.Random(f"{workload}/{seed}")


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi), one per equal-width stratum, in random order.

    Stratifying keeps the mean cost of a batch nearly independent of the
    seed while every seed still gets its own points.
    """
    width = (hi - lo) / n
    values = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(values)
    return values


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: list[float],
                    ladder: tuple[float, ...] = TAIL_LADDER) -> tuple[float, float, int] | None:
    """Highest percentile of ``ladder`` with at least ten samples beyond it.

    Returns (percentile, value, sample count), or None when even the median
    has fewer than ten samples above it.
    """
    n = len(values)
    best = None
    for pct in ladder:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= 10:
            best = (pct, percentile(values, pct), n)
    return best


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(run_pass: Callable[[int], object], seconds: float, min_passes: int,
            first_index: int = 0) -> tuple[list[float], list[object]]:
    """Repeat ``run_pass`` for about ``seconds`` seconds.

    A new pass starts only while the median pass so far still fits in the
    budget, so a run overshoots by at most one pass; ``min_passes`` passes
    run regardless.  Returns the wall time and the record of every pass.
    """
    walls: list[float] = []
    records: list[object] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records.append(run_pass(first_index + len(walls)))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > seconds:
            return walls, records


def grouped_min(walls: list[float], groups: list) -> float:
    """Sum over input groups of the fastest pass of each group.

    Passes of one group do the same work (or, for ``points``, blocks of
    equal cost by construction).  The host this benchmark was
    sized on alternates between its normal speed and phases up to twice as
    slow that last seconds; the fastest of many short passes tracks the
    normal speed and is far steadier from run to run than a median.
    """
    best: dict = {}
    for wall, group in zip(walls, groups):
        best[group] = min(wall, best.get(group, wall))
    return sum(best.values())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The single JSON object that ends a run's standard output."""
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
