"""The engine surface that the benchmark in ``perfbench/`` relies on.

``perfbench/layers.py`` wraps public entry points by name, binds their
parameter names, and reads ``ZetaEngine.CHUNK``, ``.profile`` and
``.circle_nodes``; ``perfbench/workloads.py`` calls ``load_or_find`` with
``cache`` and ``threads`` keywords and builds ``FGrid`` positionally.  The benchmark's own tests do not run here, so these
checks catch a rename in the package before a traced benchmark run does.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from zetalab.kernels import KernelSpec, kernel_eval  # noqa: E402
from zetalab.pair_correlation import FGrid, _pair_data, f_grid  # noqa: E402
from zetalab.zero_catalog import load_or_find  # noqa: E402
from zetalab.zeta_engine import (STRICT, EvalPoint, ZetaEngine,  # noqa: E402
                                 _main_sum_length)


@pytest.mark.parametrize("owner,attr", [(o, a) for o, a, _, _ in layers.ENTRY_POINTS])
def test_entry_point_exists(owner, attr):
    assert callable(getattr(owner, attr))


def test_engine_attributes_and_sum_length():
    engine = ZetaEngine(STRICT)
    assert engine.profile == STRICT
    assert isinstance(engine.CHUNK, int) and isinstance(engine.circle_nodes, int)
    for profile in (STRICT, ZetaEngine.SINGLE):
        for t in (0.0, 14.1, 999.5, 6000.0):
            assert layers.main_sum_length(t, profile) == _main_sum_length(t, profile)


def _counts(fn, factory, args, kwargs):
    return factory(fn)(args, kwargs, fn(*args, **kwargs))


def test_uniform_counters():
    engine = ZetaEngine(STRICT)
    n_terms = _main_sum_length(15.0, STRICT) - 1
    got = _counts(ZetaEngine.log_deriv_uniform, layers._count_uniform,
                  (engine, 0.7), {"t0": 10.0, "step": 0.1, "count": 51, "kmax": 1})
    assert got == {"points": 51, "terms": 51 * n_terms}
    got = _counts(ZetaEngine.hardy_z_uniform, layers._count_uniform,
                  (engine,), {"t0": 12.0, "step": 0.1, "count": 51})
    assert got == {"points": 51, "terms": 51 * n_terms}


def test_points_counters():
    engine = ZetaEngine(STRICT)
    ts = np.array([20.0, -40.0, 30.0])
    n_terms = _main_sum_length(40.0, STRICT) - 1
    got = _counts(ZetaEngine.log_deriv_line, layers._count_points,
                  (engine, 0.8), {"ts": ts, "kmax": 2})
    assert got == {"points": 3, "terms": 3 * n_terms}
    got = _counts(ZetaEngine.hardy_z_points, layers._count_points, (engine,), {"ts": np.abs(ts)})
    assert got == {"points": 3, "terms": 3 * n_terms}


def test_single_point_counter():
    engine = ZetaEngine(STRICT)
    got = _counts(ZetaEngine.log_derivative_k, layers._count_single,
                  (engine,), {"p": EvalPoint(0.9, 100.0), "k": 1})
    assert got["points"] == 1
    assert got["terms"] > engine.circle_nodes * (_main_sum_length(100.0, STRICT) - 1)


def test_kernel_counter():
    spec = KernelSpec("h", 0.5, 2)
    got = _counts(kernel_eval, layers._count_kernel, (spec, np.linspace(-1.0, 1.0, 7)), {})
    assert got == {"points": 7}
    assert _counts(kernel_eval, layers._count_kernel, (spec,), {"x": 0.3}) == {"points": 1}


def test_fgrid_counter(zero_source):
    tab = zero_source.table(100.0)
    got = _counts(f_grid, layers._count_fgrid, (tab, 100.0, 1.0, 0.5), {})
    assert got == {"alphas": 3, "pairs": _pair_data(tab, 100.0)[1].size}


def test_workload_call_shapes():
    inspect.signature(load_or_find).bind(51.5, cache="c", threads=1)
    alphas, values = np.array([0.0, 0.5]), np.array([1.0, 0.9])
    grid = FGrid(51.5, alphas, values)
    assert grid.T == 51.5 and np.array_equal(grid.values, values)
