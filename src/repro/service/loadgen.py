"""Configurable mixed ingest/query load generator for the server.

The workload is *pre-generated*: every connection's request sequence
(packed ingest batches, interleaved queries) is built before the timed
window opens, so the measured throughput is the server's, not the
generator's, and the exact event trace is available afterwards for the
serial-replay bit-identity check.

Churn correctness without coordination: each connection owns the slice
of the edge domain whose colex rank is ``rank % connections == c`` and
runs insert/delete churn only inside its slice.  Edges of one pair
always flow through one connection — whose requests are FIFO — so no
interleaving can delete an edge before its insert lands, while the
cross-connection interleaving the server sees is still arbitrary.

Latencies are recorded client-side with raw samples, so the reported
percentiles are exact (the server's histograms are bucketed).  During a
drain, typed ``draining`` rejections and connection EOFs are counted
and end the run gracefully — that is the expected ending of the
kill-during-load test, not a failure.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import (
    DrainingError,
    OverloadedError,
    ProtocolFrameError,
    ReplicationError,
    ServiceError,
    ServiceTimeoutError,
)
from ..util.retry import RetryPolicy
from .client import ServiceClient
from .protocol import encode_pairs
from .replication import ReplicaSet


@dataclass
class LoadConfig:
    """Shape of one load-generation run."""

    host: str = "127.0.0.1"
    port: int = 0
    sketches: int = 1
    kind: str = "forest"
    n: int = 256
    k: int = 2
    seed: int = 0
    connections: int = 4
    #: Ingest batches per connection (per sketch round-robin).
    batches: int = 50
    batch_size: int = 2048
    #: Fraction of inserted-so-far edges each batch deletes (churn).
    delete_fraction: float = 0.2
    #: Queries issued per ingest batch (may be fractional).
    queries_per_batch: float = 1.0
    #: Fraction of queries that demand a fresh decode (the rest serve
    #: the epoch snapshot).
    fresh_fraction: float = 0.005
    #: Seconds over which connection starts are staggered.
    ramp_seconds: float = 0.0
    #: Create the target sketches before the run (off when pointing the
    #: generator at a server that already has them).
    create: bool = True
    #: Per-request deadline in seconds (None = wait forever).
    timeout: Optional[float] = None
    #: Transparent retry budget for transient failures (``overloaded``,
    #: reconnects, timeouts); 0 disables retrying.  Retried ingest is
    #: exactly-once safe because every batch is stamped.
    retries: int = 3
    #: Replica-set mode: when set, every connection drives a
    #: :class:`~repro.service.replication.ReplicaSet` over these
    #: ``(host, port)`` endpoints instead of one server — ingest is
    #: quorum-fanned, queries ride the failover client, and the report
    #: gains failover latency samples.  ``host``/``port`` are ignored.
    endpoints: Optional[List[Tuple[str, int]]] = None
    #: Acks required per replicated write (None = majority).
    write_quorum: Optional[int] = None


class _SlicePool:
    """Insert/delete churn over one connection's slice of pair space."""

    def __init__(self, n: int, conn: int, connections: int, rng: random.Random):
        self.n = n
        self.conn = conn
        self.connections = connections
        self.rng = rng
        self._live: List[Tuple[int, int]] = []
        self._live_set = set()

    def _sample_new(self) -> Optional[Tuple[int, int]]:
        for _ in range(64):
            v = self.rng.randrange(1, self.n)
            u = self.rng.randrange(0, v)
            if (u + (v * (v - 1)) // 2) % self.connections != self.conn:
                continue
            if (u, v) not in self._live_set:
                return (u, v)
        return None

    def next_batch(self, size: int, delete_fraction: float):
        """One churn batch: (us, vs, signs) int lists."""
        us: List[int] = []
        vs: List[int] = []
        signs: List[int] = []
        deletes = min(int(size * delete_fraction), len(self._live))
        for _ in range(deletes):
            i = self.rng.randrange(len(self._live))
            self._live[i], self._live[-1] = self._live[-1], self._live[i]
            u, v = self._live.pop()
            self._live_set.discard((u, v))
            us.append(u)
            vs.append(v)
            signs.append(-1)
        while len(us) < size:
            edge = self._sample_new()
            if edge is None:
                break
            self._live_set.add(edge)
            self._live.append(edge)
            us.append(edge[0])
            vs.append(edge[1])
            signs.append(1)
        return us, vs, signs


def build_workload(config: LoadConfig):
    """Pre-generate every connection's request list.

    Returns ``(names, plans)`` where ``plans[c]`` is a list of ops:
    ``("ingest", name, payload, count)`` with the pairs payload already
    encoded, or ``("query", name, op, consistency)``.
    """
    names = [f"load-{i}" for i in range(config.sketches)]
    plans = []
    for c in range(config.connections):
        rng = random.Random(config.seed * 1_000_003 + c)
        pools = {
            name: _SlicePool(config.n, c, config.connections, rng)
            for name in names
        }
        ops = []
        query_debt = 0.0
        for b in range(config.batches):
            name = names[b % len(names)]
            us, vs, signs = pools[name].next_batch(
                config.batch_size, config.delete_fraction
            )
            if us:
                ops.append(
                    ("ingest", name, encode_pairs(us, vs, signs), len(us))
                )
            query_debt += config.queries_per_batch
            while query_debt >= 1.0:
                query_debt -= 1.0
                qname = names[rng.randrange(len(names))]
                fresh = rng.random() < config.fresh_fraction
                qop = "connected" if rng.random() < 0.8 else "components"
                ops.append(
                    ("query", qname, qop, "fresh" if fresh else "snapshot")
                )
        plans.append(ops)
    return names, plans


@dataclass
class _ConnResult:
    events: int = 0
    ingests: int = 0
    duplicates: int = 0
    queries: int = 0
    draining_rejections: int = 0
    disconnected: bool = False
    retries: int = 0
    reconnects: int = 0
    errors_by_code: Dict[str, int] = field(default_factory=dict)
    ingest_lat: List[float] = field(default_factory=list)
    query_lat: List[float] = field(default_factory=list)
    fresh_lat: List[float] = field(default_factory=list)
    #: Replica-set mode only: reader failovers and their latencies,
    #: plus writes that could not reach quorum.
    failovers: int = 0
    failover_times: List[float] = field(default_factory=list)
    quorum_failures: int = 0

    def count_error(self, code: str) -> None:
        self.errors_by_code[code] = self.errors_by_code.get(code, 0) + 1


async def _run_connection_replicated(config: LoadConfig, ops,
                                     start_delay: float, conn_index: int):
    """Replica-set twin of :func:`_run_connection`.

    Ingest batches are quorum-fanned to every replica with one stamp
    per batch; queries ride the set's failover reader.  A quorum
    shortfall is the replicated analogue of a transport loss: the
    connection stops there, and anti-entropy later resolves whether a
    minority holds the batch.
    """
    result = _ConnResult()
    if start_delay > 0:
        await asyncio.sleep(start_delay)
    rs = ReplicaSet(
        config.endpoints,
        write_quorum=config.write_quorum,
        timeout=config.timeout,
        retry=RetryPolicy(max_restarts=max(0, config.retries)),
        endpoint_seed=config.seed * 1_000_003 + conn_index,
    )
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                if op[0] == "ingest":
                    _, name, payload, count = op
                    await rs.ingest_encoded(name, payload)
                    result.ingest_lat.append(time.perf_counter() - t0)
                    result.events += count
                    result.ingests += 1
                else:
                    _, name, qop, consistency = op
                    await rs.query(name, op=qop, consistency=consistency)
                    dt = time.perf_counter() - t0
                    (
                        result.fresh_lat
                        if consistency == "fresh"
                        else result.query_lat
                    ).append(dt)
                    result.queries += 1
            except DrainingError:
                result.count_error("draining")
                result.draining_rejections += 1
                break
            except OverloadedError:
                result.count_error("overloaded")
            except ReplicationError:
                # Fewer than write_quorum replicas acked.
                result.count_error("replication")
                result.disconnected = True
                break
            except (ServiceTimeoutError, ProtocolFrameError,
                    ConnectionError) as exc:
                code = getattr(exc, "code", "connection")
                result.count_error(code)
                result.disconnected = True
                break
            except ServiceError as exc:
                result.count_error(exc.code)
                break
    finally:
        for client in [rs.reader, *rs.clients]:
            result.retries += client.retries
            result.reconnects += client.reconnects
            for code, hits in client.errors_by_code.items():
                result.errors_by_code[code] = (
                    result.errors_by_code.get(code, 0) + hits
                )
        result.failovers = rs.reader.failovers
        result.failover_times = list(rs.reader.failover_times)
        result.quorum_failures = rs.metrics.quorum_failures
        await rs.close()
    return result


async def _run_connection(config: LoadConfig, ops, start_delay: float):
    result = _ConnResult()
    if start_delay > 0:
        await asyncio.sleep(start_delay)
    client = await ServiceClient.connect(
        config.host,
        config.port,
        timeout=config.timeout,
        retry=RetryPolicy(max_restarts=max(0, config.retries)),
    )
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                if op[0] == "ingest":
                    _, name, payload, count = op
                    resp, _ = await client.request(
                        "ingest-batch", payload=payload, name=name,
                        **client.next_stamp()
                    )
                    result.ingest_lat.append(time.perf_counter() - t0)
                    result.events += count
                    result.ingests += 1
                    if resp.get("duplicate"):
                        result.duplicates += 1
                else:
                    _, name, qop, consistency = op
                    await client.query(name, op=qop, consistency=consistency)
                    dt = time.perf_counter() - t0
                    (
                        result.fresh_lat
                        if consistency == "fresh"
                        else result.query_lat
                    ).append(dt)
                    result.queries += 1
            except DrainingError:
                # A draining rejection is a guarantee of non-application.
                result.count_error("draining")
                result.draining_rejections += 1
                break
            except OverloadedError:
                # Shed even after the retry budget: also guaranteed
                # unapplied; skip the op and keep going.
                result.count_error("overloaded")
            except (ServiceTimeoutError, ProtocolFrameError,
                    ConnectionError) as exc:
                # Transport gave out beyond the retry budget: stop this
                # connection rather than guess whether the batch landed.
                code = getattr(exc, "code", "connection")
                result.count_error(code)
                result.disconnected = True
                break
            except ServiceError as exc:
                result.count_error(exc.code)
                break
    finally:
        result.retries = client.retries
        result.reconnects = client.reconnects
        for code, hits in client.errors_by_code.items():
            result.errors_by_code[code] = (
                result.errors_by_code.get(code, 0) + hits
            )
        await client.close()
    return result


def _latency_summary(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)

    def pct(p: float) -> float:
        return ordered[min(len(ordered) - 1, int(p * len(ordered)))]

    return {
        "count": len(ordered),
        "mean_seconds": sum(ordered) / len(ordered),
        "p50_seconds": pct(0.50),
        "p99_seconds": pct(0.99),
        "max_seconds": ordered[-1],
    }


async def run_loadgen(config: LoadConfig) -> Dict[str, object]:
    """Run the full workload; returns the client-side report dict."""
    names, plans = build_workload(config)
    if config.create:
        if config.endpoints:
            async with ReplicaSet(
                config.endpoints,
                write_quorum=config.write_quorum,
                timeout=config.timeout,
                retry=RetryPolicy(max_restarts=max(0, config.retries)),
            ) as rs:
                for name in names:
                    cfg = {
                        "kind": config.kind, "n": config.n,
                        "seed": config.seed,
                    }
                    if config.kind == "skeleton":
                        cfg["k"] = config.k
                    await rs.create(name, **cfg)
        else:
            async with await ServiceClient.connect(
                config.host,
                config.port,
                timeout=config.timeout,
                retry=RetryPolicy(max_restarts=max(0, config.retries)),
            ) as client:
                listed = {s["name"] for s in await client.list()}
                for name in names:
                    if name in listed:
                        continue
                    cfg = {
                        "kind": config.kind, "n": config.n,
                        "seed": config.seed,
                    }
                    if config.kind == "skeleton":
                        cfg["k"] = config.k
                    await client.create(name, **cfg)
    delays = [
        (config.ramp_seconds * c / max(1, config.connections - 1))
        if config.ramp_seconds
        else 0.0
        for c in range(config.connections)
    ]
    t0 = time.perf_counter()
    if config.endpoints:
        results = await asyncio.gather(
            *(
                _run_connection_replicated(config, ops, delay, c)
                for c, (ops, delay) in enumerate(zip(plans, delays))
            )
        )
    else:
        results = await asyncio.gather(
            *(
                _run_connection(config, ops, delay)
                for ops, delay in zip(plans, delays)
            )
        )
    wall = time.perf_counter() - t0
    events = sum(r.events for r in results)
    queries = sum(r.queries for r in results)
    ingest_lat = [s for r in results for s in r.ingest_lat]
    query_lat = [s for r in results for s in r.query_lat]
    fresh_lat = [s for r in results for s in r.fresh_lat]
    errors_by_code: Dict[str, int] = {}
    for r in results:
        for code, hits in r.errors_by_code.items():
            errors_by_code[code] = errors_by_code.get(code, 0) + hits
    replication: Optional[Dict[str, object]] = None
    if config.endpoints:
        failover_times = [s for r in results for s in r.failover_times]
        replication = {
            "endpoints": [f"{h}:{p}" for h, p in config.endpoints],
            "write_quorum": config.write_quorum,
            "failovers": sum(r.failovers for r in results),
            "quorum_failures": sum(r.quorum_failures for r in results),
            "failover_latency": _latency_summary(failover_times),
        }
    return {
        "connections": config.connections,
        "sketches": names,
        "wall_seconds": wall,
        "events": events,
        "ingest_batches": sum(r.ingests for r in results),
        "queries": queries,
        "ops": events + queries,
        "events_per_second": events / wall if wall else 0.0,
        "ops_per_second": (events + queries) / wall if wall else 0.0,
        "draining_rejections": sum(r.draining_rejections for r in results),
        "disconnected": sum(1 for r in results if r.disconnected),
        "retries": sum(r.retries for r in results),
        "reconnects": sum(r.reconnects for r in results),
        "duplicate_acks": sum(r.duplicates for r in results),
        "errors_by_code": errors_by_code,
        "replication": replication,
        "latency": {
            "ingest_batch": _latency_summary(ingest_lat),
            "query_snapshot": _latency_summary(query_lat),
            "query_fresh": _latency_summary(fresh_lat),
        },
    }
