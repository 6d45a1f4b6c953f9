"""Deterministic reduction and worker-pool helpers.

All multi-chunk computations in the package combine their partial results
with :func:`exact_sum` (``math.fsum``) so that the final value does not
depend on how many workers produced the partials or in which order they
finished; the submission order is always the combination order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def exact_sum(values: Iterable[float]) -> float:
    """Exactly rounded float sum; order independent by construction."""
    return math.fsum(values)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Map preserving input order, optionally on a thread pool.

    The heavy kernels underneath are numpy calls that release the GIL, so
    threads give real speedup without sacrificing the deterministic merge.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
