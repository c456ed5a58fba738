"""The vectorised + parallel decode/query engine.

PR 1's ingestion engine made *writing* sketches fast; this module is
its read-side counterpart.  The heavy lifting lives in the batched
decode kernels of :mod:`repro.sketch.bank`
(:meth:`~repro.sketch.bank.SamplerGrid.summed_many` /
:class:`~repro.sketch.bank.SummedBatch`); this module provides the
orchestration and observability around them:

* :class:`QueryExecutor` — fans *independent* decode units (skeleton
  layers, amplification repetitions, sampled-forest instances) across
  a serial or multiprocessing backend;
* :class:`QueryMetrics` — decode observability: component decodes by
  path, cells verified, kernel vs scalar time, summed-cache hit rates —
  installed process-wide with :func:`collect_query_metrics` and
  exported by the CLI ``--metrics-json`` flags;
* :class:`SummedCache` — an optional LRU of per-(group, members)
  boundary sketches, attached to a grid with
  :meth:`~repro.sketch.bank.SamplerGrid.attach_summed_cache`; entries
  invalidate lazily through per-member modification epochs, so an
  update or merge touching a member expires exactly the sums that
  contained it;
* :func:`scalar_decode` / :func:`batch_decode` — context managers
  flipping the process-wide decode path (the CLI ``--scalar-decode``
  escape hatch), purely a performance switch: both paths are
  bit-identical, which the property suite and the E23 benchmark
  assert.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import EngineError
from ..sketch import bank as _bank

# -- observability --------------------------------------------------------


@dataclass
class QueryMetrics:
    """Decode-path observability for one query session.

    Counts component decodes by path (``batch_queries`` are components
    decoded through :meth:`~repro.sketch.bank.SummedBatch.sample_many`,
    ``scalar_queries`` through ``SummedSketch.sample``), candidate
    cells pushed through the verification kernel, kernel vs scalar
    wall time, summed-cache hit rates, and executor fan-out accounting.
    The batch path also says *why* it answered: Borůvka rounds run
    (``decode_rounds``), the outcome of every component sample
    (``sample_ok`` / ``sample_zero`` / ``sample_failed``), how many
    components no certified level resolved and the single-cell
    fallback scan had to take (``fallback_scans``), and verification
    sweeps of the joint peel (``peel_sweeps``).  A union decode
    (:class:`~repro.core._sampled.SampledForestUnion`) runs its dirty
    instances through one loop, so there ``decode_rounds`` and
    ``peel_sweeps`` count kernel passes — fewer than the per-instance
    sum, while the per-component counters add up exactly as they would
    per instance — and ``instances_decoded`` says how many of the R
    instances the fresh answers had to re-decode.
    ``degraded_queries`` mirrors the ingest-side counter so this object
    can also serve :func:`repro.core.degraded.decode_with_degradation`.
    """

    batch_queries: int = 0
    scalar_queries: int = 0
    cells_decoded: int = 0
    decode_rounds: int = 0
    sample_ok: int = 0
    sample_zero: int = 0
    sample_failed: int = 0
    fallback_scans: int = 0
    peel_sweeps: int = 0
    instances_decoded: int = 0
    kernel_seconds: float = 0.0
    scalar_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    executor_tasks: int = 0
    executor_seconds: float = 0.0
    degraded_queries: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of summed-sketch requests served from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def merge(self, other: "QueryMetrics") -> None:
        """Fold another session's counters in (executor workers)."""
        for field in fields(self):
            setattr(
                self, field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )

    def to_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["cache_hit_rate"] = self.cache_hit_rate
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """A compact human-readable summary."""
        lines = [
            f"decodes: {self.batch_queries} batch / "
            f"{self.scalar_queries} scalar, "
            f"{self.cells_decoded} cells verified",
            f"time: kernel={self.kernel_seconds:.4f}s "
            f"scalar={self.scalar_seconds:.4f}s",
        ]
        if self.decode_rounds:
            lines.append(f"rounds: {self.decode_rounds} Borůvka")
        if self.instances_decoded:
            lines.append(
                f"union: {self.instances_decoded} sampled instances "
                "re-decoded"
            )
        if self.batch_queries:
            lines.append(
                f"samples: {self.sample_ok} ok / {self.sample_zero} zero / "
                f"{self.sample_failed} failed "
                f"({self.fallback_scans} via fallback scan), "
                f"{self.peel_sweeps} peel sweeps"
            )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"summed cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"({100 * self.cache_hit_rate:.1f}%)"
            )
        if self.executor_tasks:
            lines.append(
                f"executor: {self.executor_tasks} tasks, "
                f"{self.executor_seconds:.4f}s"
            )
        if self.degraded_queries:
            lines.append(f"degraded queries: {self.degraded_queries}")
        return "\n".join(lines)


@contextmanager
def collect_query_metrics(
    metrics: Optional[QueryMetrics] = None,
) -> Iterator[QueryMetrics]:
    """Install a :class:`QueryMetrics` sink for the enclosed decodes.

    Every decode on every grid inside the ``with`` block records into
    the yielded object; the previous sink (usually None) is restored on
    exit.
    """
    sink = metrics if metrics is not None else QueryMetrics()
    previous = _bank.set_query_metrics(sink)
    try:
        yield sink
    finally:
        _bank.set_query_metrics(previous)


@contextmanager
def scalar_decode() -> Iterator[None]:
    """Force the scalar reference decode path inside the block."""
    previous = _bank.set_batch_decode(False)
    try:
        yield
    finally:
        _bank.set_batch_decode(previous)


@contextmanager
def batch_decode() -> Iterator[None]:
    """Force the vectorised batch decode path inside the block."""
    previous = _bank.set_batch_decode(True)
    try:
        yield
    finally:
        _bank.set_batch_decode(previous)


# -- summed-sketch cache --------------------------------------------------


class SummedCache:
    """LRU cache of per-(group, members) summed boundary sketches.

    Attach to a grid with ``grid.attach_summed_cache(cache)``; the grid
    then consults it on every :meth:`~repro.sketch.bank.SamplerGrid.
    summed` / ``summed_many`` call.  Entries carry the grid epoch they
    were built at, and the grid validates them lazily against its
    per-member modification epochs — an update, merge, or restore
    touching any member of a cached sum expires exactly that entry (and
    nothing else), so repeated queries over an unchanged partition are
    pure gathers.

    Keys are ``(group, members.tobytes())``; values are
    ``(w, s, f, built_epoch)`` counter triples.  The cache never hands
    its arrays to callers directly (the grid copies on hit), so cached
    state cannot be corrupted by decode-side peeling.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise EngineError(f"SummedCache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Tuple[int, bytes], tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple[int, bytes]):
        """The entry for ``key`` (freshened in LRU order), or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Tuple[int, bytes], entry: tuple) -> None:
        """Insert/replace an entry, evicting the LRU tail if full."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: Tuple[int, bytes]) -> None:
        """Drop a (stale) entry if present."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


# -- parallel decode fan-out ----------------------------------------------


def _call_unit(task: Tuple[Callable, Any]):
    """Process-backend trampoline: apply one (fn, item) task."""
    fn, item = task
    return fn(item)


class QueryExecutor:
    """Fans independent decode units across a worker backend.

    The decode side of the paper's structures decomposes into units
    that share no state: the layers of a skeleton, the instances of a
    sampled-forest union, the repetitions of an amplified query.  This
    executor maps a function over such units either in-process
    (``backend="serial"``, the default — the vectorised kernels already
    saturate one core for typical sizes) or across
    ``multiprocessing`` workers (``backend="process"``, for large
    independent units; the function and items must be picklable, so
    pass module-level functions).

    Results preserve item order regardless of backend, and worker
    exceptions propagate to the caller — both of which the callers rely
    on for bit-identical behaviour vs a plain loop.
    """

    def __init__(
        self,
        backend: str = "serial",
        workers: Optional[int] = None,
        context: Optional[str] = None,
    ):
        if backend not in ("serial", "process"):
            raise EngineError(f"unknown query backend {backend!r}")
        self.backend = backend
        self.workers = workers
        self._pool = None
        if backend == "process":
            ctx = mp.get_context(context) if context else mp.get_context()
            self._pool = ctx.Pool(processes=workers)
        self._closed = False

    def map(self, fn: Callable[[Any], Any], items: Sequence) -> List:
        """Apply ``fn`` to every item; ordered results, errors raised."""
        if self._closed:
            raise EngineError("QueryExecutor is closed (use-after-close)")
        items = list(items)
        start = time.perf_counter()
        try:
            if self._pool is None:
                return [fn(item) for item in items]
            return self._pool.map(_call_unit, [(fn, item) for item in items])
        finally:
            metrics = _bank._QUERY_METRICS
            if metrics is not None:
                metrics.executor_tasks += len(items)
                metrics.executor_seconds += time.perf_counter() - start

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool.join()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass


def make_executor(
    backend: str = "serial", workers: Optional[int] = None
) -> QueryExecutor:
    """Build a :class:`QueryExecutor` (mirrors ``make_pool``)."""
    return QueryExecutor(backend=backend, workers=workers)
