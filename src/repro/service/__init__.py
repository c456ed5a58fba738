"""The sketch serving layer: a long-lived async server over the engine.

Everything below this package exists because the sketches are *linear*:
updates commute and merges are addition, so many named, independently
parameterised sketches can absorb interleaved ingest from concurrent
sessions and answer connectivity / k-skeleton queries at any moment,
with results bit-identical to a serial replay of the same updates.
The server is the "cell" the ROADMAP's north star describes — the
piece that turns the library into a serving system:

* :mod:`repro.service.protocol` — length-prefixed JSON/binary wire
  format (one frame = JSON header + optional binary payload) plus the
  packed array codec for rank-2 ingest batches;
* :mod:`repro.service.registry` — the named-sketch registry: per-name
  asyncio locks, ingest funneled through the vectorised batch kernels
  (placement-table fast path), epoch-tagged decoded snapshots, and
  checkpoint/restore through the engine's
  :class:`~repro.engine.checkpoint.CheckpointManager`;
* :mod:`repro.service.server` — the asyncio server: sessions, command
  dispatch, the background checkpoint/snapshot crons, graceful drain
  (SIGTERM), and crash-safe resume;
* :mod:`repro.service.metrics` — server-level counters (sessions,
  in-flight requests, per-command latency histograms), exported by the
  ``stats`` command in the shared ``repro-metrics/1`` envelope;
* :mod:`repro.service.wal` — the per-sketch write-ahead log behind the
  *logged-before-acked* durability contract (segment rotation, CRC
  framing, fsync policies) and the bounded
  :class:`~repro.service.wal.DedupWindow` for exactly-once ingest;
* :mod:`repro.service.client` — the asyncio client library: stamped
  mutations, per-request timeouts, transparent
  reconnect-and-retry-with-backoff of transient failures;
* :mod:`repro.service.sim` — the deterministic fault simulator: the
  real servers, WALs and quorum code on a virtual clock, network and
  disk, checked against a serial replay of the acked batches;
* :mod:`repro.service.replication` — the client-side replica-set
  coordinator: quorum ingest (one stamp fanned to N replicas),
  automatic failover, digest-driven anti-entropy repair, and
  hot-sketch migration with a bounded freeze window.

Run a server with ``python -m repro serve``, drive it with
:class:`~repro.service.client.ServiceClient` or ``repro ctl``
(``ctl health`` for the durability posture); see ``docs/service.md``
for the protocol spec, the failure model, and the ops runbook.  Load
numbers come from ``benchmarks/perf/run.py``.
"""

from .client import ServiceClient
from .registry import SketchRegistry
from .replication import ReplicaSet, migrate_sketch, parse_endpoints
from .server import SketchServer
from .wal import DedupWindow, WriteAheadLog

__all__ = [
    "DedupWindow",
    "ReplicaSet",
    "ServiceClient",
    "SketchRegistry",
    "SketchServer",
    "WriteAheadLog",
    "migrate_sketch",
    "parse_endpoints",
]
