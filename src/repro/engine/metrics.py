"""Ingest observability: per-shard throughput, batch histogram, costs.

Every :class:`~repro.engine.shard.ShardedIngestEngine` run produces an
:class:`IngestMetrics` report: updates/sec per shard, a batch-size
histogram (power-of-two buckets), merge time, checkpoint bytes and
latency, and the maximum observed per-shard queue depth.  The report is
a plain dataclass tree — renderable as text, convertible with
:meth:`IngestMetrics.to_dict` / :meth:`IngestMetrics.to_json`, and
exposed by the CLI ``ingest`` subcommand's ``--metrics-json`` flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Version tag of the shared metrics-export envelope (see
#: :func:`metrics_payload`).  Bump only on breaking layout changes.
METRICS_SCHEMA = "repro-metrics/1"


def metrics_payload(sections: Dict[str, object]) -> Dict[str, object]:
    """Wrap named metrics objects in the stable export envelope.

    Every ``--metrics-json`` emitter (every CLI command, the service
    ``stats`` command) shares this shape::

        {"schema": "repro-metrics/1",
         "sections": {"ingest": {...}, "query": {...}, ...}}

    Section values with a ``to_dict`` method are converted; plain dicts
    pass through.  Known section names: ``ingest``
    (:class:`IngestMetrics`), ``query``
    (:class:`~repro.engine.query.QueryMetrics`), ``server`` and
    ``sketches`` (the service layer).
    """
    converted = {}
    for name, obj in sections.items():
        converted[name] = obj.to_dict() if hasattr(obj, "to_dict") else obj
    return {"schema": METRICS_SCHEMA, "sections": converted}


def write_metrics_json(
    path: str,
    sections: Dict[str, object],
    echo: Callable[[str], None] = print,
) -> Dict[str, object]:
    """Serialize a metrics envelope to ``path`` (``'-'`` = stdout).

    The single exporter behind every metrics flag: builds the
    :func:`metrics_payload` envelope, pretty-prints it with sorted
    keys, and either prints it (``path == '-'``) or writes the file
    and echoes a confirmation line.  Returns the payload dict.
    """
    payload = metrics_payload(sections)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        echo(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        echo(f"metrics written to {path}")
    return payload


def batch_size_bucket(size: int) -> str:
    """Power-of-two histogram bucket label for a batch size."""
    if size <= 1:
        return "1"
    hi = 1
    while hi < size:
        hi <<= 1
    lo = hi // 2 + 1
    return str(hi) if lo == hi else f"{lo}-{hi}"


@dataclass
class ShardStats:
    """Work accounted to one shard worker."""

    shard: int
    events: int = 0
    batches: int = 0
    seconds: float = 0.0

    @property
    def updates_per_second(self) -> float:
        """Events folded into this shard's sketch per second of work."""
        return self.events / self.seconds if self.seconds > 0 else float("inf")

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "events": self.events,
            "batches": self.batches,
            "seconds": self.seconds,
            "updates_per_second": self.updates_per_second,
        }


@dataclass
class CheckpointStats:
    """Checkpoint I/O accounting across one ingest."""

    saves: int = 0
    bytes_last: int = 0
    bytes_total: int = 0
    seconds_total: float = 0.0

    def observe(self, nbytes: int, seconds: float) -> None:
        self.saves += 1
        self.bytes_last = nbytes
        self.bytes_total += nbytes
        self.seconds_total += seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "saves": self.saves,
            "bytes_last": self.bytes_last,
            "bytes_total": self.bytes_total,
            "seconds_total": self.seconds_total,
        }


@dataclass
class IngestMetrics:
    """The full observability report of one engine run."""

    shards: int
    backend: str
    batch_size: int
    events: int = 0
    batches: int = 0
    wall_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    merge_seconds: float = 0.0
    max_queue_depth: int = 0
    resumed_from: Optional[int] = None
    # Robustness counters (the quarantine/degraded paths): updates
    # diverted to quarantine and queries answered in degraded mode.
    # All zero on a healthy run — operators alert on nonzero.
    # ``restarts`` always reads 0 (nothing restarts a worker; recovery
    # is checkpoint + resume); it stays for the perf ledger's schema.
    restarts: int = 0
    quarantined: int = 0
    degraded_queries: int = 0
    # Integrity counters (the audit subsystem): digest audit passes run
    # (including verified merges/restores) and localized corruption
    # findings.  ``corruption_detected`` nonzero means a bank or blob
    # diverged from its digest — page someone.
    audits: int = 0
    corruption_detected: int = 0
    batch_size_hist: Dict[str, int] = field(default_factory=dict)
    per_shard: List[ShardStats] = field(default_factory=list)
    checkpoint: CheckpointStats = field(default_factory=CheckpointStats)

    def __post_init__(self):
        if not self.per_shard:
            self.per_shard = [ShardStats(s) for s in range(self.shards)]

    # -- recording ------------------------------------------------------

    def observe_batch(self, shard: int, size: int, seconds: float) -> None:
        """Account one dispatched batch to a shard."""
        self.events += size
        self.batches += 1
        stats = self.per_shard[shard]
        stats.events += size
        stats.batches += 1
        stats.seconds += seconds
        label = batch_size_bucket(size)
        self.batch_size_hist[label] = self.batch_size_hist.get(label, 0) + 1

    def observe_queue_depth(self, depth: int) -> None:
        """Track the deepest per-shard backlog seen."""
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    # -- reporting ------------------------------------------------------

    @property
    def updates_per_second(self) -> float:
        """Whole-run throughput (events over wall-clock)."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else float("inf")

    def to_dict(self) -> Dict[str, object]:
        return {
            "shards": self.shards,
            "backend": self.backend,
            "batch_size": self.batch_size,
            "events": self.events,
            "batches": self.batches,
            "wall_seconds": self.wall_seconds,
            "dispatch_seconds": self.dispatch_seconds,
            "merge_seconds": self.merge_seconds,
            "updates_per_second": self.updates_per_second,
            "max_queue_depth": self.max_queue_depth,
            "resumed_from": self.resumed_from,
            "restarts": self.restarts,
            "quarantined": self.quarantined,
            "degraded_queries": self.degraded_queries,
            "audits": self.audits,
            "corruption_detected": self.corruption_detected,
            "batch_size_hist": dict(sorted(
                self.batch_size_hist.items(), key=lambda kv: int(kv[0].split("-")[0])
            )),
            "per_shard": [s.to_dict() for s in self.per_shard],
            "checkpoint": self.checkpoint.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """A compact human-readable multi-line summary."""
        lines = [
            f"events={self.events} batches={self.batches} "
            f"shards={self.shards} backend={self.backend}",
            f"wall={self.wall_seconds:.3f}s "
            f"({self.updates_per_second:,.0f} updates/sec), "
            f"merge={self.merge_seconds:.3f}s",
        ]
        for s in self.per_shard:
            lines.append(
                f"  shard {s.shard}: {s.events} events / {s.batches} batches "
                f"({s.updates_per_second:,.0f} updates/sec)"
            )
        if self.checkpoint.saves:
            ck = self.checkpoint
            lines.append(
                f"  checkpoints: {ck.saves} saved, last {ck.bytes_last} bytes, "
                f"{ck.seconds_total:.3f}s total"
            )
        if self.quarantined or self.degraded_queries:
            lines.append(
                f"  robustness: {self.quarantined} quarantined, "
                f"{self.degraded_queries} degraded queries"
            )
        if self.audits or self.corruption_detected:
            lines.append(
                f"  integrity: {self.audits} audits, "
                f"{self.corruption_detected} corruption findings"
            )
        return "\n".join(lines)
