"""Sharded, batched sketch-ingestion engine.

The sketches in :mod:`repro.sketch` are *linear*: updates commute,
sketches with equal seeds merge by addition, and a stream can therefore
be ingested in any order, in any grouping, on any number of workers —
with the final state bit-identical to a single sequential pass.  This
package turns that mathematical property into throughput:

* :mod:`repro.engine.batch` — vectorised batch-update kernels: a whole
  array of ``(member, coordinate, delta)`` updates is hashed, placed,
  and scatter-added into a :class:`~repro.sketch.bank.SamplerGrid` with
  numpy, instead of one scalar ``update()`` call per stream event;
* :mod:`repro.engine.shard` — :class:`ShardedIngestEngine`:
  hash-partitions the update stream across N worker shards, each
  folding its partition into a private sketch, with a final
  reduce-by-merge through the sketches' ``__iadd__``;
* :mod:`repro.engine.pool` — the worker backends (in-process
  :class:`SerialPool` and :class:`~repro.engine.pool.SharedMemoryPool`,
  one process per shard over shared-memory banks);
* :mod:`repro.engine.checkpoint` — periodic atomic checkpoint/restore
  of the per-shard sketch states, so a crashed ingest resumes from the
  last barrier, bit-identically, instead of replaying the stream;
* :mod:`repro.engine.metrics` — ingest observability (updates/sec per
  shard, batch-size histogram, merge and checkpoint costs, quarantine
  counters), exposed as dataclasses and JSON;
* :mod:`repro.engine.query` — the read-side counterpart: decode
  observability (:class:`QueryMetrics`).
"""

from .batch import expand_edge_batch, grid_update_batch, iter_event_batches
from .checkpoint import Checkpoint, CheckpointManager
from .metrics import CheckpointStats, IngestMetrics, ShardStats
from .pool import SerialPool, make_pool
from .query import QueryMetrics, collect_query_metrics
from .shard import IngestResult, ShardedIngestEngine, shard_of_edge, zero_clone

__all__ = [
    "grid_update_batch",
    "expand_edge_batch",
    "iter_event_batches",
    "ShardedIngestEngine",
    "IngestResult",
    "shard_of_edge",
    "zero_clone",
    "SerialPool",
    "make_pool",
    "CheckpointManager",
    "Checkpoint",
    "IngestMetrics",
    "ShardStats",
    "CheckpointStats",
    "QueryMetrics",
    "collect_query_metrics",
]
