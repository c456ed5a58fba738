"""The two service workloads: big batches and small batches + fresh reads.

The system under test is a real ``python -m repro serve`` subprocess
with its deployed defaults (WAL fsync=always, checkpoint cron 5 s,
snapshot cron 1 s).  This process is the closed-loop client: two
connections, each a stamped exactly-once feeder that waits for every
ack before its next request.  The two feeders churn disjoint halves of
the edge universe of one shared sketch, so every delete is of an edge
its own feeder made live and the per-name lock is contended the way it
is in production.  Connection 0 only writes; connection 1 also reads.

``run_traced`` records client spans live, then replays the very
batches connection 0 sent through each layer's public function, in
``SketchServer._cmd_ingest_batch`` order, in this process — the stage
budget.  Two residuals close it: what the server's own service time
does not explain of the client's ack, and what the replayed stages do
not explain of the server's service time.
"""

from __future__ import annotations

import asyncio
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from repro.engine.batch import expand_pair_batch
from repro.engine.checkpoint import Checkpoint, CheckpointManager
from repro.engine.query import QueryMetrics, collect_query_metrics
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.protocol import (
    decode_pairs,
    encode_frame,
    encode_pairs,
    read_frame,
)
from repro.service.registry import SketchRegistry
from repro.service.wal import KIND_PAIRS, WriteAheadLog, encode_record
from repro.sketch.bank import clear_hash_cache_pool, hash_cache_pool_bytes
from repro.sketch.serialization import dump_sketch, load_sketch
from repro.sketch.spanning_forest import SpanningForestSketch

from . import check
from .library import (
    Workload,
    decode_layer_metrics,
    latency_metrics,
    new_counts,
    piecewise_decode,
)
from .machine import Samples
from .spec import OUT, SKETCH_SEED, SRC, median, percentile
from .trace import Tracer
from .workloads import ChurnStream, EdgeUniverse

MS = 1e3
N_SERVICE = 256
CONNECTIONS = 2
LIVE_PER_CONNECTION = 4096
READER = 1                 # the connection that also reads; see ``feeder``
SKETCH = "bench"
WARMUP_BATCHES = 2
REPLAY_BATCHES = 24
REPLAY_REFRESH_EVERY = 4
TRACE_SLICES = 3           # traced slices (and as many untraced) per run
TRACE_SHARE = 0.7          # of --seconds spent in those slices


class Server:
    """The ``python -m repro serve`` subprocess and its /proc counters."""

    def __init__(self, workdir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        # One malloc arena.  glibc otherwise gives each of the server's
        # worker threads its own, and which arena happens to keep a
        # decode's or a checkpoint's freed temporaries decides the
        # high-water mark: 247-282 MB over seven runs of the same code,
        # 193-203 MB with one arena.
        env["MALLOC_ARENA_MAX"] = "1"
        self.stderr = open(os.path.join(workdir, "server.err"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--checkpoint-dir", os.path.join(workdir, "ckpt")],
            stdout=subprocess.PIPE, stderr=self.stderr, text=True, env=env,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"serving on [\d.]+:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class Recorder:
    """What the feeders of one measured segment observed."""

    def __init__(self):
        self.batch = Samples()
        self.fresh = Samples()
        self.snap = Samples()
        self.staleness: List[int] = []
        self.events = 0
        self.attempted = 0
        self.failed = 0
        self.errors = 0
        self.last_ack = 0.0
        self.speed = 1.0       # nominal / raw seconds of the segment
        self.max_wal_lag = 0


def merge_recorders(into: Recorder, part: Recorder) -> None:
    for name in ("batch", "fresh", "snap", "staleness"):
        getattr(into, name).extend(getattr(part, name))
    for name in ("events", "attempted", "failed", "errors"):
        setattr(into, name, getattr(into, name) + getattr(part, name))
    into.max_wal_lag = max(into.max_wal_lag, part.max_wal_lag)


class ServiceWorkload(Workload):
    # Probes stall the event loop both feeders share, so they are rarer
    # here than in the library workloads.
    probe_interval = 0.1
    pairs = 0              # events per ingest batch
    snapshot_queries = 0   # snapshot-consistency queries after each batch
    fresh_every = 0        # the reader's batches per fresh-consistency query

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.server = None
        self.loop = None
        self.workdir = None
        self.clients: List[ServiceClient] = []

    # -- set-up and tear-down --------------------------------------------

    def setup(self, clock) -> None:
        with clock.pause():
            universe = EdgeUniverse(N_SERVICE)
            self.streams = [
                ChurnStream(universe, LIVE_PER_CONNECTION, self.seed,
                            stream=c, stride=CONNECTIONS)
                for c in range(CONNECTIONS)
            ]
            self.workdir = os.path.join(OUT, f"tmp-{self.name}-{os.getpid()}")
            shutil.rmtree(self.workdir, ignore_errors=True)
            os.makedirs(self.workdir)
        self.server = Server(self.workdir)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.connect_and_warm())
        self.failed += check.preflight(self.seed)
        self.attempted += 1

    async def connect_and_warm(self) -> None:
        for _ in range(CONNECTIONS):
            self.clients.append(
                await ServiceClient.connect(port=self.server.port)
            )
        await self.clients[0].create(SKETCH, n=N_SERVICE, seed=SKETCH_SEED)
        for client, stream in zip(self.clients, self.streams):
            await client.ingest_pairs(SKETCH, *stream.preload())
        warm = Recorder()
        await asyncio.gather(*(
            self.feeder(c, warm, batches=WARMUP_BATCHES)
            for c in range(CONNECTIONS)
        ))
        await self.fresh_query(self.clients[0], warm, self.exactly_connected())
        self.fold(warm)

    def teardown(self) -> None:
        if self.loop is not None:
            for client in self.clients:
                self.loop.run_until_complete(client.close())
            self.loop.close()
        if self.server is not None:
            self.server.stop()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def fold(self, rec: Recorder) -> None:
        self.failed += rec.failed
        self.attempted += rec.attempted

    # -- the closed loop -------------------------------------------------

    def live(self):
        ids = np.concatenate([s.live_ids() for s in self.streams])
        return self.streams[0].pairs(ids)

    def exactly_connected(self) -> bool:
        return check.exact_connected(N_SERVICE, *self.live())

    async def call(self, rec: Recorder, request):
        rec.attempted += 1
        try:
            return await request
        except ServiceError:
            rec.failed += 1
            rec.errors += 1
            return None

    async def fresh_query(self, client, rec: Recorder, connected: bool):
        self.machine.tick()
        t0 = time.perf_counter()
        reply = await self.call(
            rec, client.query(SKETCH, "connected", "fresh")
        )
        rec.fresh.add(t0, time.perf_counter())
        if reply is not None:
            rec.failed += int(
                reply["staleness"] != 0 or reply["connected"] != connected
            )

    async def feeder(self, c: int, rec: Recorder, deadline: float = 0.0,
                     batches: int = 0, tracer: Tracer = None,
                     keep: list = None) -> None:
        """Connection ``c``: ingest, wait for the ack, query, repeat —
        until ``deadline``, or for exactly ``batches`` batches.

        Only the ``READER`` connection makes reads; the other one is a
        writer that never pauses.  Two feeders that both stall on their own
        fresh reads fall in and out of step with each other (a convoy on
        the record lock), and the share of batches caught behind a decode
        then swings between 3% and 20% from run to run — across the 95th
        percentile.  With one writer that never waits, about a fifth of
        its batches queue behind the reader's decode in every run."""
        client, stream = self.clients[c], self.streams[c]
        connected = self.exactly_connected()
        sent = 0
        while (sent < batches) if batches else (time.perf_counter() < deadline):
            us, vs, signs = stream.next_batch(self.pairs // 2)
            self.machine.tick()
            t0 = time.perf_counter()
            if tracer is None:
                ack = await self.call(
                    rec, client.ingest_pairs(SKETCH, us, vs, signs)
                )
                t1 = time.perf_counter()
            else:
                payload = encode_pairs(us, vs, signs)
                t_encoded = time.perf_counter()
                ack = await self.call(rec, client.request(
                    "ingest-batch", payload=payload, name=SKETCH,
                    **client.next_stamp()
                ))
                t1 = time.perf_counter()
                request = c * 1_000_000 + sent
                root = tracer.add("client.ingest_batch", t0, t1,
                                  request=request)
                tracer.add("client.encode_pairs", t0, t_encoded, root, request)
                tracer.add("client.roundtrip", t_encoded, t1, root, request)
                if keep is not None and c == 0 and len(keep) < REPLAY_BATCHES:
                    keep.append(payload)
            rec.batch.add(t0, t1)
            rec.last_ack = max(rec.last_ack, t1)
            if ack is not None:
                rec.events += len(us)
            sent += 1
            for _ in range(self.snapshot_queries if c == READER else 0):
                t0 = time.perf_counter()
                reply = await self.call(
                    rec, client.query(SKETCH, "connected", "snapshot")
                )
                rec.snap.add(t0, time.perf_counter())
                if reply is not None:
                    rec.staleness.append(reply["staleness"])
                    rec.failed += int(reply["connected"] != connected)
            if c == READER and sent % self.fresh_every == 0:
                connected = self.exactly_connected()
                await self.fresh_query(client, rec, connected)
            if tracer is not None and sent % 8 == 0:
                health = await client.health()
                rec.max_wal_lag = max(rec.max_wal_lag, health["worst_wal_lag"])

    async def segment(self, seconds: float, tracer: Tracer = None,
                      keep: list = None):
        rec = Recorder()
        start = time.perf_counter()
        await asyncio.gather(*(
            self.feeder(c, rec, deadline=start + seconds,
                        tracer=tracer, keep=keep)
            for c in range(CONNECTIONS)
        ))
        self.machine.tick()
        wall = float(self.machine.nominal(start, rec.last_ack))
        rec.speed = wall / (rec.last_ack - start)
        if not len(rec.fresh):  # a window too short to reach fresh_every
            await self.fresh_query(
                self.clients[0], rec, self.exactly_connected()
            )
        self.fold(rec)
        return rec, wall

    def slice_seconds(self) -> float:
        return self.seconds * TRACE_SHARE / (2 * TRACE_SLICES)

    async def final_checks(self) -> float:
        """State and answers against the exact live graph; returns the
        served sketch's size in MB."""
        client = self.clients[0]
        us, vs = self.live()
        reply = await client.query(SKETCH, "components", "fresh")
        self.failed += int(
            reply["components"] != check.exact_components(N_SERVICE, us, vs)
        )
        _offset, blob = await client.dump(SKETCH)
        self.failed += int(
            blob != check.expected_dump(N_SERVICE, SKETCH_SEED, us, vs)
        )
        self.attempted += 2
        (described,) = await client.list()
        return described["space_bytes"] / 1e6

    # -- end to end --------------------------------------------------------

    def run(self) -> Dict[str, object]:
        rec, wall = self.loop.run_until_complete(self.segment(self.seconds))
        sketch_mb = self.loop.run_until_complete(self.final_checks())
        metrics = latency_metrics(self.machine, rec.batch, rec.fresh)
        metrics["ingest_events_per_s"] = rec.events / wall
        metrics["peak_rss_mb"] = self.server.peak_rss_mb()
        metrics["sketch_mb"] = sketch_mb
        return {"metrics": metrics, "attempted": self.attempted,
                "failed": self.failed}

    # -- per layer ---------------------------------------------------------

    async def server_counters(self) -> Dict[str, float]:
        stats = await self.clients[0].stats()
        sections = stats["sections"]
        server, sketch = sections["server"], sections["sketches"][SKETCH]
        commands = server["per_command"]

        def latency(cmd, field):
            return commands.get(cmd, {}).get("latency", {}).get(field, 0)

        return {
            "ingest_count": latency("ingest-batch", "count"),
            "ingest_seconds": latency("ingest-batch", "total_seconds"),
            "query_count": latency("query", "count"),
            "query_seconds": latency("query", "total_seconds"),
            "kernel_seconds": sketch["ingest"]["per_shard"][0]["seconds"],
            "checkpoint_saves": sketch["ingest"]["checkpoint"]["saves"],
            "checkpoint_seconds":
                sketch["ingest"]["checkpoint"]["seconds_total"],
            "rejected_overload": server["rejected_overload"],
            "dedup_hits": server["dedup_hits"],
            "frame_errors": server["frame_errors"],
            "cpu_raw": self.server.cpu_seconds(),
            "clock_raw": time.perf_counter(),
        }

    def run_traced(self, tracer: Tracer) -> Dict[str, float]:
        run = self.loop.run_until_complete
        # Untraced and traced slices alternate, so a checkpoint or a
        # noisy neighbour lands on both sides of the overhead share.
        payloads: List[bytes] = []
        ref, rec = Recorder(), Recorder()
        ref_wall = wall = 0.0
        delta: Dict[str, float] = {}
        for k in range(2 * TRACE_SLICES):
            if k % 2 == 0:
                part, seconds = run(self.segment(self.slice_seconds()))
                ref_wall += seconds
                merge_recorders(ref, part)
                continue
            if k == 1:
                # The replay restarts from this state and re-sends what
                # connection 0 sends in this first traced slice.
                live_before = self.live()
            before = run(self.server_counters())
            part, seconds = run(self.segment(
                self.slice_seconds(), tracer, payloads if k == 1 else None
            ))
            after = run(self.server_counters())
            wall += seconds
            merge_recorders(rec, part)
            for name in after:
                change = after[name] - before[name]
                if name.endswith("seconds"):
                    # The server's own raw timings, brought to the nominal
                    # machine speed of the slice they were taken in.
                    change *= part.speed
                delta[name] = delta.get(name, 0.0) + change
        run(self.final_checks())
        out = run(self.replay(payloads, live_before, tracer))

        service_ms = delta["ingest_seconds"] / delta["ingest_count"] * MS
        batch_s, fresh_s, snap_s = (
            x.seconds(self.machine) for x in (rec.batch, rec.fresh, rec.snap)
        )
        # Means add up, medians do not: with a sixth of the batches queued
        # behind a decode the server's *mean* service time is above the
        # ack's median, so the budget is closed on the mean ack.
        ack_mean_ms = sum(batch_s) / len(batch_s) * MS
        stages_ms = sum(out[name] for name in (
            "registry.validate_pairs_ms_per_batch",
            "batch.expand_pairs_ms_per_batch",
            "batch.fold_ms_per_batch",
            "wal.append_ms_per_batch",
        )) + (out["protocol.frame_roundtrip_us_per_batch"]
              + out["protocol.decode_pairs_us_per_batch"]) / 1e3
        replayed_kernel_s = (
            out["batch.expand_pairs_ms_per_batch"]
            + out["batch.fold_ms_per_batch"]
        ) / MS * len(batch_s)
        clients = [c.client_stats() for c in self.clients]
        out.update({
            "client.requests": rec.attempted,
            "client.retries": sum(c["retries"] for c in clients),
            "client.reconnects": sum(c["reconnects"] for c in clients),
            "client.errors": rec.errors,
            "client.ingest_batch_p99_ms": percentile(batch_s, 99) * MS,
            "client.query_snapshot_p50_ms": median(snap_s) * MS,
            "client.query_snapshot_p95_ms": percentile(snap_s, 95) * MS,
            "client.query_snapshot_p99_ms": percentile(snap_s, 99) * MS,
            "client.query_fresh_p95_ms": percentile(fresh_s, 95) * MS,
            "client.residual_ms_per_batch": ack_mean_ms - service_ms,
            "server.ingest_batch_service_ms_mean": service_ms,
            "server.query_service_ms_mean":
                delta["query_seconds"] / max(1, delta["query_count"]) * MS,
            "server.rejected_overload": delta["rejected_overload"],
            "server.dedup_hits": delta["dedup_hits"],
            "server.frame_errors": delta["frame_errors"],
            "server.cpu_share": delta["cpu_raw"] / delta["clock_raw"],
            "server.residual_ms_per_batch": service_ms - stages_ms,
            "registry.kernel_seconds": delta["kernel_seconds"],
            "registry.checkpoint_saves": delta["checkpoint_saves"],
            "registry.checkpoint_seconds": delta["checkpoint_seconds"],
            "registry.snapshot_staleness_events_p50":
                median(rec.staleness) if rec.staleness else 0.0,
            "wal.lag_records_max": rec.max_wal_lag,
            "trace.overhead_share":
                1.0 - (rec.events / wall) / (ref.events / ref_wall),
            "trace.replay_kernel_agreement":
                replayed_kernel_s / delta["kernel_seconds"],
        })
        return out

    async def replay(self, payloads, live_before, tracer) -> Dict[str, float]:
        """Connection 0's batches again, in-process, one span per layer
        call, on a registry record holding the state they first met."""
        clear_hash_cache_pool()  # the checker warmed it; time a cold build
        scratch = SpanningForestSketch(N_SERVICE, seed=SKETCH_SEED)
        self.machine.tick()
        with tracer.span("bank.attach_hash_cache"):
            scratch.attach_hash_cache()
        registry = SketchRegistry(
            checkpoint_dir=os.path.join(self.workdir, "replay")
        )
        record = registry.create(SKETCH, {"n": N_SERVICE, "seed": SKETCH_SEED})
        us, vs = live_before
        registry.ingest_pairs(record, us, vs, np.ones(len(us), dtype=np.int64))
        registry.refresh_snapshot(record)
        nofsync = WriteAheadLog(
            os.path.join(self.workdir, "replay-nofsync"), fsync="os"
        )
        sketch = record.sketch
        lut = np.arange(N_SERVICE, dtype=np.int64)
        sink = QueryMetrics()
        wal_bytes = events = 0
        for k, payload in enumerate(payloads):
            self.machine.tick()
            header = {"id": k, "cmd": "ingest-batch", "name": SKETCH,
                      "client": "replay", "request": k}
            with tracer.span("server.ingest_batch_replay", request=k):
                with tracer.span("protocol.frame_roundtrip"):
                    reader = asyncio.StreamReader()
                    reader.feed_data(encode_frame(header, payload))
                    reader.feed_eof()
                    _header, body = await read_frame(reader)
                with tracer.span("protocol.decode_pairs"):
                    us, vs, signs = decode_pairs(body)
                with tracer.span("registry.validate_pairs"):
                    registry.validate_pairs(record, us, vs, signs)
                with tracer.span("batch.expand_pairs"):
                    rows = expand_pair_batch(sketch.scheme, lut, us, vs, signs)
                with tracer.span("batch.fold"):
                    sketch.grid.update_batch(*rows)
                record.events += len(us)
                with tracer.span("wal.append"):
                    registry.wal_commit(
                        record, KIND_PAIRS, body, "replay", k, len(us)
                    )
            meta = {"client": "replay", "request": k, "count": len(us)}
            with tracer.span("wal.append_nofsync"):
                nofsync.append(k + 1, KIND_PAIRS, meta, body)
            wal_bytes += len(encode_record(k + 1, KIND_PAIRS, meta, body))
            events += len(us)
            if (k + 1) % REPLAY_REFRESH_EVERY == 0 or k + 1 == len(payloads):
                with collect_query_metrics(sink):
                    with tracer.span("registry.refresh_snapshot"):
                        registry.refresh_snapshot(record)
        nofsync.close()
        # Decode once more piecewise, for the per-round split.
        counts = new_counts()
        with tracer.span("forest.decode"):
            forest = sketch.decode()
        with collect_query_metrics(sink):
            edges = piecewise_decode(sketch, tracer, counts)
        self.failed += int(
            sorted(edges) != sorted(map(tuple, forest.edges()))
        )
        self.attempted += 1
        manager = CheckpointManager(os.path.join(self.workdir, "replay-ckpt"))
        for rep in range(3):
            self.machine.tick()
            with tracer.span("serialization.dump"):
                blob = dump_sketch(sketch)
            with tracer.span("serialization.load"):
                load_sketch(scratch, blob)
            with tracer.span("checkpoint.save"):
                manager.save(Checkpoint(offset=rep + 1, shard_blobs=[blob]))
        if record.wal is not None:
            record.wal.close()
        self.machine.tick()

        d = tracer.durations
        out = decode_layer_metrics(tracer, counts, sink, 1)
        out.update({
            "protocol.frame_roundtrip_us_per_batch":
                median(d("protocol.frame_roundtrip")) * 1e6,
            "protocol.decode_pairs_us_per_batch":
                median(d("protocol.decode_pairs")) * 1e6,
            "protocol.payload_bytes_per_event":
                sum(map(len, payloads)) / events,
            "registry.validate_pairs_ms_per_batch":
                median(d("registry.validate_pairs")) * MS,
            "registry.refresh_snapshot_ms":
                median(d("registry.refresh_snapshot")) * MS,
            "wal.append_ms_per_batch": median(d("wal.append")) * MS,
            "wal.append_nofsync_ms_per_batch":
                median(d("wal.append_nofsync")) * MS,
            "wal.bytes_per_event": wal_bytes / events,
            "batch.expand_pairs_ms_per_batch":
                median(d("batch.expand_pairs")) * MS,
            "batch.fold_ms_per_batch": median(d("batch.fold")) * MS,
            "batch.fold_events_per_s": events / sum(d("batch.fold")),
            "batch.coalesce_ratio": 1.0,
            "batch.rows_per_event": 2.0,
            "bank.attach_hash_cache_s": d("bank.attach_hash_cache")[0],
            "bank.table_mb": hash_cache_pool_bytes() / 1e6,
            "forest.decode_ms": d("forest.decode")[0] * MS,
            "forest.edges_recovered": forest.num_edges,
            "serialization.dump_ms": median(d("serialization.dump")) * MS,
            "serialization.load_ms": median(d("serialization.load")) * MS,
            "checkpoint.save_ms": median(d("checkpoint.save")) * MS,
            "checkpoint.bytes": len(blob),
        })
        return out


class ServiceBigBatch(ServiceWorkload):
    """2 connections x 2048-pair batches, 4 snapshot reads per batch; the
    reader adds a fresh read after every 4th of its batches."""

    name = "service_bigbatch_n256"
    pairs = 2048
    snapshot_queries = 4
    fresh_every = 4


class ServiceSmallBatchFresh(ServiceWorkload):
    """2 connections x 256-pair batches; the reader adds a fresh read
    after every 2nd of its batches (about one per 5 batches overall)."""

    name = "service_smallbatch_fresh_n256"
    pairs = 256
    snapshot_queries = 1
    fresh_every = 4


WORKLOADS = {
    cls.name: cls for cls in (ServiceBigBatch, ServiceSmallBatchFresh)
}
