"""Sharded stream ingestion with reduce-by-merge.

The engine hash-partitions a dynamic edge stream across N shard
workers.  Each worker folds its partition into a *private* sketch
(built from a zero-state clone of the caller's prototype, so all shards
share seeds and parameters); at the end the shard sketches are merged
with the sketches' own ``__iadd__``.  Because the paper's sketches are
linear, this parallelism is correct *by construction*:

    sketch(stream) = Σ_shards sketch(partition_s)     (bit for bit)

The partition is deterministic in the edge (insertions and deletions of
the same edge land on the same shard, and a resumed run repartitions
identically), batches are folded through the vectorised
:mod:`repro.engine.batch` kernels, periodic checkpoints capture
consistent barriers (see :mod:`repro.engine.checkpoint`), and every run
produces an :class:`~repro.engine.metrics.IngestMetrics` report.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence

from ..errors import CheckpointError, DomainError, EngineError
from ..sketch.serialization import iter_grids
from ..util.hashing import hash64
from .checkpoint import Checkpoint, CheckpointManager
from .metrics import IngestMetrics
from .pool import BACKENDS, make_pool

_PARTITION_SALT = 0x5AD0_71F3


def shard_of_edge(edge: Sequence[int], seed: int, shards: int) -> int:
    """Deterministic shard of a (canonical) hyperedge.

    Chains the endpoint ids through the seeded 64-bit hash; the edge is
    assumed canonical (sorted), which :class:`~repro.stream.updates.
    EdgeUpdate` guarantees, so an insertion and its matching deletion
    always map to the same shard.
    """
    acc = hash64(seed, _PARTITION_SALT)
    for v in edge:
        acc = hash64(acc, v)
    return acc % shards


def zero_clone(sketch) -> Any:
    """A same-seed, same-shape, zero-state copy of a sketch.

    The clone is linearly compatible with the original (``+=`` works)
    but sketches the empty stream — the starting state of every shard
    worker and of the final merge accumulator.
    """
    if not hasattr(sketch, "copy"):
        raise EngineError(
            f"{type(sketch).__name__} cannot be cloned for sharding "
            "(no copy() method)"
        )
    clone = sketch.copy()
    for grid in iter_grids(clone):
        grid.reset()
    return clone


def _shard_sketch(prototype) -> Any:
    """A shard's starting sketch: a :func:`zero_clone` of the prototype
    with its placement tables attached where they fit.  Same-geometry
    shards adopt one pooled table set, and forked workers inherit it."""
    sketch = zero_clone(prototype)
    sketch.attach_hash_cache()
    return sketch


@dataclass
class IngestResult:
    """What one engine run produced."""

    sketch: Any
    metrics: IngestMetrics
    events: int
    resumed_from: Optional[int] = None


class ShardedIngestEngine:
    """Batched, sharded, checkpointable ingestion of an edge stream.

    Parameters
    ----------
    prototype:
        A freshly constructed streaming sketch (anything exposing
        ``update_batch(updates)``, ``copy()`` and ``__iadd__`` — e.g.
        :class:`~repro.sketch.spanning_forest.SpanningForestSketch` or
        :class:`~repro.sketch.skeleton.SkeletonSketch`).  The engine
        never mutates it; shard workers run zero-state clones.
    shards:
        Number of stream partitions / workers.
    batch_size:
        Events buffered per shard before a vectorised fold.
    backend:
        ``"serial"`` (in-process) or ``"shm"`` (one OS process per
        shard folding into shared-memory sampler banks — zero-copy
        barriers and merges).
    partition_seed:
        Seed of the shard hash; a resumed run must reuse it (it is
        recorded in checkpoints and verified on resume).
    checkpoint:
        Optional :class:`~repro.engine.checkpoint.CheckpointManager`;
        when set, every ``checkpoint.interval`` events the shards are
        quiesced and their states saved atomically.
    fault_hook:
        Test-only callable ``(shard, batch_index) -> None`` invoked
        before each batch dispatch; raising simulates a mid-stream
        crash (see the fault-injection tests).  During ``ingest`` the
        live pool is reachable as ``engine.pool``, so hooks can inject
        worker-level faults (SIGKILL, hangs) too.  A dead or hung shm
        worker raises :class:`~repro.errors.WorkerCrashError`; with a
        checkpoint manager the run then resumes exactly from the last
        barrier (``ingest(..., resume=True)``).
    verify_merges:
        When True, the final reduce runs through
        :func:`~repro.audit.integrity.verified_merge`: each shard fold
        into the accumulator is checked against the linearity invariant
        (digest of the merged banks must equal the sum of the operand
        digests), so a shard whose counters were corrupted in flight
        raises :class:`~repro.errors.IntegrityError` instead of
        poisoning the answer.  Costs three digest computations per
        shard merge.
    """

    def __init__(
        self,
        prototype,
        shards: int = 1,
        batch_size: int = 512,
        backend: str = "serial",
        partition_seed: int = 0,
        checkpoint: Optional[CheckpointManager] = None,
        fault_hook: Optional[Callable[[int, int], None]] = None,
        verify_merges: bool = False,
    ):
        if shards < 1:
            raise EngineError(f"engine needs shards >= 1, got {shards}")
        if batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {batch_size}")
        if backend not in BACKENDS:
            raise EngineError(f"unknown ingest backend {backend!r}")
        for needed in ("update_batch", "copy", "__iadd__"):
            if not hasattr(prototype, needed):
                raise EngineError(
                    f"{type(prototype).__name__} has no {needed}(); "
                    "register an edge-level streaming sketch"
                )
        self.prototype = prototype
        self.shards = shards
        self.batch_size = batch_size
        self.backend = backend
        self.partition_seed = partition_seed
        self.checkpoint = checkpoint
        self.fault_hook = fault_hook
        self.verify_merges = verify_merges
        self.pool = None  # the live pool during ingest (fault hooks)

    # -- checkpoint compatibility ---------------------------------------

    def _meta(self) -> dict:
        return {
            "shards": self.shards,
            "partition_seed": self.partition_seed,
            "sketch": type(self.prototype).__name__,
        }

    def _check_resume_meta(self, ck: Checkpoint) -> None:
        expected = self._meta()
        mismatched = [k for k in expected if ck.meta.get(k) != expected[k]]
        if mismatched:
            raise CheckpointError(
                f"checkpoint incompatible with engine config (fields: {mismatched})"
            )

    # -- ingestion ------------------------------------------------------

    def ingest(self, stream: Iterable, resume: bool = False) -> IngestResult:
        """Feed the whole stream; returns the merged sketch + metrics.

        With ``resume=True`` (and a checkpoint manager holding state),
        the first ``offset`` events of the stream are skipped and the
        shard sketches start from the checkpointed counters — the final
        answer is bit-identical to an uninterrupted run over the same
        stream.
        """
        events = stream if isinstance(stream, list) else list(stream)
        metrics = IngestMetrics(
            shards=self.shards, backend=self.backend, batch_size=self.batch_size
        )
        start_offset = 0
        restore: Optional[Checkpoint] = None
        if resume:
            if self.checkpoint is None:
                raise CheckpointError("resume=True needs a checkpoint manager")
            restore = self.checkpoint.load_latest()
            if restore is not None:
                self._check_resume_meta(restore)
                start_offset = restore.offset
                if start_offset > len(events):
                    raise CheckpointError(
                        f"checkpoint offset {start_offset} beyond stream "
                        f"length {len(events)}"
                    )
                metrics.resumed_from = start_offset

        wall_start = time.perf_counter()
        pool = make_pool(self.backend, lambda: _shard_sketch(self.prototype),
                         self.shards)
        self.pool = pool
        try:
            if restore is not None:
                for shard, blob in enumerate(restore.shard_blobs):
                    pool.load(shard, blob)

            buffers: List[list] = [[] for _ in range(self.shards)]
            batch_index = 0
            consumed = start_offset
            last_ck = start_offset

            def flush(shard: int) -> None:
                nonlocal batch_index
                if not buffers[shard]:
                    return
                if self.fault_hook is not None:
                    self.fault_hook(shard, batch_index)
                batch = buffers[shard]
                buffers[shard] = []
                seconds = pool.submit(shard, batch)
                metrics.observe_batch(shard, len(batch), seconds)
                metrics.observe_queue_depth(pool.queue_depth(shard))
                batch_index += 1

            def barrier_checkpoint() -> None:
                nonlocal last_ck
                for shard in range(self.shards):
                    flush(shard)
                ck_start = time.perf_counter()
                blobs = pool.dump_all()
                path = self.checkpoint.save(
                    Checkpoint(offset=consumed, shard_blobs=blobs,
                               meta=self._meta())
                )
                metrics.checkpoint.observe(
                    os.path.getsize(path), time.perf_counter() - ck_start
                )
                last_ck = consumed

            dispatch_start = time.perf_counter()
            for pos in range(start_offset, len(events)):
                event = events[pos]
                shard = shard_of_edge(event.edge, self.partition_seed, self.shards)
                buffers[shard].append(event)
                consumed += 1
                if len(buffers[shard]) >= self.batch_size:
                    flush(shard)
                if (
                    self.checkpoint is not None
                    and consumed - last_ck >= self.checkpoint.interval
                ):
                    barrier_checkpoint()
            for shard in range(self.shards):
                flush(shard)
            metrics.dispatch_seconds = time.perf_counter() - dispatch_start

            shard_states = pool.finish()
        finally:
            pool.close(force=True)
            self.pool = None

        merge_start = time.perf_counter()
        merged = zero_clone(self.prototype)
        if self.verify_merges:
            from ..audit.integrity import verified_merge
        for shard, (sketch, seconds, shard_events) in enumerate(shard_states):
            if self.verify_merges:
                verified_merge(merged, sketch, label=f"shard[{shard}]",
                               metrics=metrics)
            else:
                merged += sketch
            # Shm workers report their own fold time at finish.
            if metrics.per_shard[shard].seconds == 0.0:
                metrics.per_shard[shard].seconds = seconds
        metrics.merge_seconds = time.perf_counter() - merge_start
        metrics.wall_seconds = time.perf_counter() - wall_start
        return IngestResult(
            sketch=merged,
            metrics=metrics,
            events=metrics.events,
            resumed_from=metrics.resumed_from,
        )
