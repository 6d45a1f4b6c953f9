"""Spans recorded from outside the package, around its public entry points.

``Recorder.install`` swaps each target function for a wrapper in every
loaded ``zetalab`` module that refers to it (so ``from .kernels import
kernel_eval`` inside ``moments`` is wrapped too) and on the class for
methods; ``uninstall`` puts the originals back.  Spans live in memory until
``dump`` writes them as JSON lines.

Parents are tracked per thread.  A span opened on a worker thread of a pool
has no parent; no wrapped entry point runs on such a thread in the
workloads of this benchmark.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``run_id`` labels the pass currently being traced."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             count: Callable[[tuple, dict, object], dict] | None = None) -> Callable:
        """``fn`` recording one span per call; ``count`` maps
        (args, kwargs, result) to the span's counts, outside its timing."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(len(self.spans), name, 0.0, 0.0,
                        stack[-1] if stack else None, self.run_id)
            self.spans.append(span)
            stack.append(span.span_id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return traced

    def install(self, owner: object, attr: str, name: str,
                count: Callable | None = None) -> None:
        """Wrap ``owner.attr`` and every ``zetalab`` module alias of it."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, count)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("zetalab"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans.

    Children are clipped to the parent and overlapping children (from
    threads) are merged, so covered time is never counted twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, []), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.duration - covered
    return out


def descendants(spans: list[Span], root: Span) -> list[Span]:
    """Every span below ``root``; ``spans`` must be in opening order."""
    below = {root.span_id}
    found = []
    for span in spans:
        if span.parent in below:
            below.add(span.span_id)
            found.append(span)
    return found
