"""Server-level observability: sessions, in-flight, latency histograms.

The per-sketch ingest/query counters reuse the engine's metrics types
(:class:`~repro.engine.metrics.IngestMetrics`,
:class:`~repro.engine.query.QueryMetrics`); this module adds what only
the serving layer can see — connection lifecycle, request concurrency,
and per-command service-time distributions.  Histograms use power-of-two
microsecond buckets, cheap enough to record on every request; exact
client-observed percentiles come from the load generator, which keeps
raw samples.
"""

from __future__ import annotations

import time
from typing import Dict, Optional


class LatencyHistogram:
    """Power-of-two microsecond latency buckets with percentile bounds.

    Bucket ``i`` counts observations in ``[2^i, 2^(i+1)) µs`` (bucket 0
    also absorbs sub-microsecond samples).  ``percentile`` returns the
    *upper bound* of the bucket holding the requested rank — a
    conservative estimate that never under-reports a tail.
    """

    __slots__ = ("counts", "count", "total_seconds", "max_seconds")

    BUCKETS = 32  # 2^31 µs ≈ 36 minutes: more than any request lives

    def __init__(self):
        self.counts = [0] * self.BUCKETS
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        us = int(seconds * 1e6)
        b = us.bit_length() - 1 if us > 0 else 0
        if b >= self.BUCKETS:
            b = self.BUCKETS - 1
        self.counts[b] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def percentile(self, p: float) -> float:
        """Upper-bound estimate of the p-th percentile, in seconds."""
        if self.count == 0:
            return 0.0
        rank = p * self.count
        seen = 0
        for b, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return (2 ** (b + 1)) / 1e6
        return self.max_seconds

    def to_dict(self) -> Dict[str, object]:
        buckets = {
            f"le_{2 ** (b + 1)}us": c
            for b, c in enumerate(self.counts)
            if c
        }
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "max_seconds": self.max_seconds,
            "p50_seconds": self.percentile(0.50),
            "p99_seconds": self.percentile(0.99),
            "buckets": buckets,
        }


class CommandStats:
    """Requests, errors, and service-time histogram of one command."""

    __slots__ = ("requests", "errors", "latency")

    def __init__(self):
        self.requests = 0
        self.errors = 0
        self.latency = LatencyHistogram()

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "latency": self.latency.to_dict(),
        }


class ServerMetrics:
    """Live counters the ``stats`` command exports.

    ``in_flight`` is requests currently being served; ``observe``
    accounts a completed request into its command's stats (errors are
    requests answered ``ok: false``).  ``rejected_draining`` counts the
    typed rejections issued after drain began — the graceful-drain
    acceptance bar is that these are the *only* failures a client sees
    during shutdown.
    """

    def __init__(self):
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.requests_total = 0
        self.in_flight = 0
        self.rejected_draining = 0
        self.rejected_overload = 0
        self.frame_errors = 0
        self.disconnects_midframe = 0
        self.dedup_hits = 0
        self.rejected_frozen = 0
        self.repairs_received = 0
        self.restores_received = 0
        self.forgets = 0
        self.wal_full_rejections = 0
        self.checkpoint_errors = 0
        self.per_command: Dict[str, CommandStats] = {}

    @property
    def sessions_active(self) -> int:
        return self.sessions_opened - self.sessions_closed

    @property
    def uptime_seconds(self) -> float:
        return time.perf_counter() - self._t0

    def observe(self, cmd: str, seconds: float, ok: bool) -> None:
        self.requests_total += 1
        stats = self.per_command.get(cmd)
        if stats is None:
            stats = self.per_command[cmd] = CommandStats()
        stats.requests += 1
        if not ok:
            stats.errors += 1
        stats.latency.record(seconds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "started_at": self.started_at,
            "uptime_seconds": self.uptime_seconds,
            "sessions_opened": self.sessions_opened,
            "sessions_closed": self.sessions_closed,
            "sessions_active": self.sessions_active,
            "requests_total": self.requests_total,
            "in_flight": self.in_flight,
            "rejected_draining": self.rejected_draining,
            "rejected_overload": self.rejected_overload,
            "frame_errors": self.frame_errors,
            "disconnects_midframe": self.disconnects_midframe,
            "dedup_hits": self.dedup_hits,
            "rejected_frozen": self.rejected_frozen,
            "repairs_received": self.repairs_received,
            "restores_received": self.restores_received,
            "forgets": self.forgets,
            "wal_full_rejections": self.wal_full_rejections,
            "checkpoint_errors": self.checkpoint_errors,
            "per_command": {
                cmd: stats.to_dict()
                for cmd, stats in sorted(self.per_command.items())
            },
        }
