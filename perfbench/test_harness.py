"""Tests of the benchmark harness itself (not of zetalab).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import (percentile, seeded_rng, spread, stratified,  # noqa: E402
                     tail_percentile)
from tracer import Recorder, Span, descendants, self_times  # noqa: E402


# -- percentile rule ----------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0], 99) == 3.0


@pytest.mark.parametrize("n,expected", [
    (2000, 99.0),   # p99 leaves 20 beyond, p99.9 only 2
    (1000, 99.0),   # exactly ten beyond p99
    (999, 90.0),    # nine beyond p99
    (20, 50.0),     # ten beyond the median
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n)]
    pct, value, count = tail_percentile(values)
    assert (pct, count) == (expected, n)
    assert value == percentile(values, expected)
    assert sum(v > value for v in values) >= 10


def test_tail_percentile_none_below_twenty_samples():
    assert tail_percentile([float(i) for i in range(19)]) is None


def test_spread_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 3.0)
    assert spread([4.0]) == 0.0


# -- self time ----------------------------------------------------------------

def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, 0)


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),    # overlaps span 1: covered 1..5
        _span(3, 8.0, 12.0, parent=0),   # clipped to the parent: 8..10
        _span(4, 1.5, 2.0, parent=1),    # grandchild: only span 1 loses it
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)
    assert [s.span_id for s in descendants(spans, spans[0])] == [1, 2, 3, 4]
    assert [s.span_id for s in descendants(spans, spans[1])] == [4]


def test_recorder_nests_spans_and_restores_originals():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return 2 * x

    original = Layer.inner
    recorder = Recorder()
    recorder.install(Layer, "outer", "layer.outer")
    recorder.install(Layer, "inner", "layer.inner",
                     lambda args, kwargs, result: {"points": args[1]})
    recorder.run_id = 7
    assert Layer().outer(3) == 7
    recorder.uninstall()
    outer, inner = recorder.spans
    assert (outer.name, outer.parent, outer.run_id) == ("layer.outer", None, 7)
    assert (inner.name, inner.parent, inner.counts) == ("layer.inner", outer.span_id,
                                                       {"points": 3})
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert Layer.inner is original
    Layer().outer(1)
    assert len(recorder.spans) == 2


# -- seeded inputs ------------------------------------------------------------

def test_stratified_draws_one_value_per_stratum():
    values = stratified(seeded_rng("x", 1), 50, 10.0, 20.0)
    assert sorted(int((v - 10.0) / 0.2) for v in values) == list(range(50))


def test_inputs_depend_only_on_workload_and_seed():
    import harness
    harness.pin_threads()
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        assert workload.draw(7) == workload.draw(7), workload.name
        assert workload.draw(7) != workload.draw(8), workload.name
