"""Shared fixtures: engines, a lazy zero-table source, and memoized sweeps.

Zero tables are expensive at large heights, so one session-scoped source
computes each height once and serves truncations; quadrature sweeps are
memoized by (orders, a, T) so the acceptance criteria can share them.
"""

from __future__ import annotations

import time

import pytest

from zetalab import moments as mo
from zetalab.zero_catalog import ZeroTable, find_zeros
from zetalab.zeta_engine import STRICT, ZetaEngine


@pytest.fixture(scope="session")
def engine() -> ZetaEngine:
    return ZetaEngine(STRICT)


class ZeroSource:
    """Lazily computed zero tables, reused via truncation."""

    def __init__(self, engine: ZetaEngine):
        self._engine = engine
        self._tables: dict[float, ZeroTable] = {}
        self.timings: dict[float, float] = {}

    def table(self, t_max: float) -> ZeroTable:
        for have, tab in sorted(self._tables.items()):
            if have >= t_max:
                return tab.up_to(t_max) if have > t_max else tab
        start = time.perf_counter()
        tab = find_zeros(t_max, engine=self._engine)
        self.timings[t_max] = time.perf_counter() - start
        self._tables[t_max] = tab
        return tab


@pytest.fixture(scope="session")
def zero_source(engine) -> ZeroSource:
    return ZeroSource(engine)


class QuadMemo:
    """Memoized i_k_quadrature_batch sweeps keyed by (orders, a, T)."""

    def __init__(self, engine: ZetaEngine):
        self._engine = engine
        self._cache: dict = {}
        self.elapsed = 0.0

    def batch(self, ks: tuple[int, ...], a: float, t: float):
        key = (tuple(ks), a, t)
        if key not in self._cache:
            start = time.perf_counter()
            self._cache[key] = mo.i_k_quadrature_batch(list(ks), a, t, self._engine)
            self.elapsed += time.perf_counter() - start
        return self._cache[key]


@pytest.fixture(scope="session")
def quad_memo(engine) -> QuadMemo:
    return QuadMemo(engine)
