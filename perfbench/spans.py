"""In-memory span recording around a program's entry points.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: its name, start and end (``time.perf_counter``,
which on Linux is the system-wide monotonic clock, so spans from the load
generator and the server process share one time line), the thread, and
the parent span taken from a per-thread stack.  Spans stay in memory
until :meth:`Tracer.dump` writes them out at exit.

Besides spans the tracer keeps per-thread counters (:meth:`Tracer.count`)
for work too fine-grained to span, such as rows decoded; every span
records how far its thread's ``decoded`` counter moved during the call.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Dict[str, object]


class Tracer:
    """Records spans and counters for the wrapped entry points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.decoded = 0
        return local

    def count(self, key: str, n: int = 1) -> None:
        """Bump a counter; ``decoded`` is also tracked per thread."""
        self.counters[key] += n
        if key == "decoded":
            self._state().decoded += n

    def wrap(
        self,
        name: str,
        fn: Callable,
        work: Optional[Callable[[tuple, object], int]] = None,
        probe: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        """*fn* recording a span named *name* per call.

        *work* (``args, result -> int``) or *probe* (``args -> int``,
        read before and after the call) sets the span's ``n``, the units
        of work the call did.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            parent = local.stack[-1] if local.stack else None
            span_id = next(tracer._ids)
            local.stack.append(span_id)
            decoded = local.decoded
            before = probe(args) if probe is not None else 0
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                local.stack.pop()
            span = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "thread": threading.get_ident(),
                "start": start,
                "end": end,
                "decoded": local.decoded - decoded,
            }
            if probe is not None:
                span["n"] = probe(args) - before
            elif work is not None:
                span["n"] = work(args, result)
            tracer.spans.append(span)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` with its traced wrapper."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), **options))

    def counting(self, key: str, fn: Callable, when=None) -> Callable:
        """*fn* bumping counter *key* per call (per truthy result with *when*)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if when is None or when(result):
                tracer.count(key)
            return result

        return counted

    def dump(self, path: str, **meta) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"meta": meta, "counters": dict(self.counters), "spans": self.spans},
                handle,
            )


def load(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """span id -> its duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


class Tree:
    """Parent/child index over a list of spans."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.by_id: Dict[int, Span] = {span["id"]: span for span in spans}
        self.children: Dict[int, List[Span]] = defaultdict(list)
        for span in spans:
            if span["parent"] is not None:
                self.children[span["parent"]].append(span)

    def descendants(self, roots: Iterable[int]) -> List[Span]:
        """The spans under *roots*, the roots included."""
        found: List[Span] = []
        pending = [self.by_id[root] for root in roots if root in self.by_id]
        while pending:
            span = pending.pop()
            found.append(span)
            pending.extend(self.children.get(span["id"], ()))
        return found
