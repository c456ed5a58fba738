"""An in-memory span recorder for the ``--trace 1`` run.

Spans are recorded from the benchmark's own files, around the calls
into each layer's public functions; nothing inside ``src/`` is
instrumented.  A span is ``(name, start, end, parent, request)``:
``parent`` is the index of the span that caused it (-1 for a root) and
``request`` ties together the spans of one logical request.  Spans stay
in memory and are written once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its children cover — ``self_times`` computes it per name.  The
file keeps raw clock readings plus the machine-probe series;
``durations`` (what the metrics are made of) reads them through the
run's ``MachineClock``, in seconds at nominal machine speed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    def __init__(self, machine):
        #: The run's ``MachineClock``: durations read in nominal seconds.
        self.machine = machine
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, request]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: int = -1, request: Optional[int] = None) -> int:
        """Record a span whose endpoints were measured elsewhere (an
        asyncio task cannot share the synchronous span stack)."""
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    def durations(self, name: str) -> List[float]:
        spans = [s for s in self.spans if s[0] == name]
        return self.machine.nominal(
            [s[1] for s in spans], [s[2] for s in spans]
        ).tolist()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name (children's cover subtracted)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _p, _r), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def write(self, path: str, meta: Dict[str, object]) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        meta = dict(
            meta,
            probe_at_s=[t - origin for t in self.machine.at],
            probe_cost_s=list(self.machine.cost),
        )
        body = {
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "self_seconds": self.self_times(),
            "spans": [
                [name, start - origin, end - origin, parent, request]
                for name, start, end, parent, request in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(body, fh)


class NullTracer:
    """Accepts spans and records nothing (for work kept off the trace)."""

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        yield None
