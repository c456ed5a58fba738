"""The asyncio sketch server: sessions, crons, drain, resume.

One :class:`SketchServer` owns a :class:`~repro.service.registry.
SketchRegistry` and serves the frame protocol of
:mod:`repro.service.protocol` over TCP.  The event loop is single
threaded, so sketch state can never tear; the per-name locks exist for
*logical* consistency — an ingest batch, a fresh-decode query, a
checkpoint, or an audit each holds its sketch's lock across every
await it spans, so commands interleave per batch, never mid-batch.

Two background crons run alongside the sessions: the **checkpoint
cron** persists every dirty sketch through the engine's
:class:`~repro.engine.checkpoint.CheckpointManager` (atomic tmp +
rename + file and directory fsync), and the **snapshot cron** re-decodes
sketches whose serving snapshot went stale, so ``consistency:
"snapshot"`` queries stay O(lookup) even under heavy ingest.

Shutdown is a *drain*: on SIGTERM (or the ``drain``/``shutdown``
commands) the listener closes, in-flight requests complete, new
mutating requests are rejected with the typed ``draining`` error, every
sketch gets a final checkpoint, and the process exits 0.  Starting with
``resume=True`` rebuilds every sketch from its latest checkpoint —
state round-trips bit-identically, which the test-suite asserts by
comparing ``dump`` blobs across a kill/restart.

Durability and self-protection (PR 7):

- **WAL before ack** — with a checkpoint directory, every applied
  ingest batch is appended to the sketch's write-ahead log *before*
  the ack frame is written, so a SIGKILL can only lose batches no
  client was told succeeded; ``resume`` replays the tail
  (:meth:`~repro.service.registry.SketchRegistry.restore_all`).
- **Exactly-once** — clients stamp mutations with ``client``/
  ``request`` ids; a retried batch that already landed answers a
  duplicate ack from the dedup window instead of folding twice.
- **Overload shedding** — at most ``max_in_flight`` expensive requests
  run concurrently; beyond that the server answers the typed
  ``overloaded`` error with a ``retry_after`` hint rather than letting
  queueing delay grow without bound.  Cheap control commands
  (``hello``, ``health``, ``stats``, drain) always get through.
- **Abrupt disconnects** — a peer vanishing mid-frame is counted and
  the session closed without writing to the dead socket; locks and
  name reservations are released by the normal ``finally`` paths.
"""

from __future__ import annotations

import asyncio
import signal
import time
from typing import Dict, Optional

from ..engine.metrics import metrics_payload
from ..engine.query import QueryMetrics, collect_query_metrics
from ..errors import (
    BadRequestError,
    DrainingError,
    NoSuchSketchError,
    OverloadedError,
    PeerDisconnectedError,
    ProtocolFrameError,
    ReproError,
    ServiceError,
    SketchExistsError,
    SketchFrozenError,
    WALError,
    WALFullError,
)
from ..sketch.serialization import dump_sketch
from ..util.clock import SYSTEM_CLOCK, Clock
from .metrics import ServerMetrics
from .net import REAL_NETWORK, Listener, Network
from .protocol import (
    PROTOCOL_VERSION,
    encode_blob_list,
    encode_frame,
    read_frame,
)
from .registry import SketchRegistry

SERVER_VERSION = 1

#: Commands that mutate registry or sketch state and are therefore
#: refused once the server starts draining.  ``freeze``/``thaw`` and
#: ``forget`` are deliberately *not* here: migrating a sketch **off** a
#: draining node is exactly freeze → dump → restore elsewhere → forget.
_MUTATING = frozenset(
    {"create", "ingest-batch", "repair-sketch", "restore-sketch"}
)

#: Commands expensive enough to count against the in-flight budget;
#: everything else (hello, health, stats, list, drain, shutdown) is
#: cheap control traffic that must keep working *especially* under
#: overload — an operator diagnosing a hot server needs ``health``.
_EXPENSIVE = frozenset(
    {
        "create",
        "ingest-batch",
        "query",
        "checkpoint",
        "audit",
        "dump",
        "digest",
        "repair-sketch",
        "restore-sketch",
        "wal-tail",
    }
)


class SketchServer:
    """A long-lived asyncio server over a sketch registry."""

    def __init__(
        self,
        registry: SketchRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_interval: float = 5.0,
        snapshot_interval: float = 1.0,
        resume: bool = False,
        max_in_flight: int = 64,
        role: str = "replica",
        clock: Clock = SYSTEM_CLOCK,
        network: Network = REAL_NETWORK,
        offload=None,
    ):
        self.registry = registry
        self.host = host
        self.port = port
        self.checkpoint_interval = checkpoint_interval
        self.snapshot_interval = snapshot_interval
        self.resume = resume
        self.max_in_flight = max(1, max_in_flight)
        #: The time/network/offload seams: real by default, simulated
        #: under :mod:`repro.service.sim`.  ``offload`` is how blocking
        #: work (kernels, fsyncs) leaves the event loop — a thread pool
        #: in production, inline execution in the single-threaded
        #: deterministic simulation.
        self.clock = clock
        self.network = network
        self._offload = offload if offload is not None else asyncio.to_thread
        #: Replica-set label (``primary``/``replica``): a routing hint
        #: surfaced by ``hello``/``health`` — writes are quorum-fanned
        #: regardless, but clients prefer the primary for reads and
        #: operators need the role in the ``health --all`` table.
        self.role = str(role)
        #: How many expensive requests are currently running.
        self._expensive_in_flight = 0
        self.metrics = ServerMetrics()
        self.query_metrics = QueryMetrics()
        self._server: Optional[Listener] = None
        self._draining = asyncio.Event()
        self._stopped = asyncio.Event()
        self._sessions: set = set()
        self._cron_tasks: list = []
        #: In-flight create/restore builds: name -> (normalized config,
        #: future resolving to the admitted record).  A retried or
        #: concurrent create with an IDENTICAL config awaits the build
        #: instead of failing — building a sketch takes long enough
        #: that client deadlines can fire mid-build, and the retry must
        #: converge on the same record, not bounce off sketch-exists.
        self._creating: Dict[str, tuple] = {}
        self.restored: list = []

    # -- lifecycle ------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    async def start(self) -> None:
        """Bind the listener, resume state, and launch the crons."""
        if self.resume:
            self.restored = self.registry.restore_all()
        self._server = await self.network.listen(
            self._handle_session, self.host, self.port
        )
        self.port = self._server.port
        if self.checkpoint_interval > 0 and self.registry.checkpoint_dir:
            self._cron_tasks.append(
                asyncio.ensure_future(self._checkpoint_cron())
            )
        if self.snapshot_interval > 0:
            self._cron_tasks.append(
                asyncio.ensure_future(self._snapshot_cron())
            )

    async def run(
        self, install_signal_handlers: bool = True, ready=None
    ) -> None:
        """Serve until drained.  ``ready(server)`` fires once bound."""
        # Sketch compute runs on worker threads; shrink the GIL switch
        # interval so the event loop (snapshot queries, framing) gets
        # scheduled promptly between their Python bytecodes instead of
        # stalling up to the default 5ms per handoff.
        import sys

        previous_switch = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)
        await self.start()
        loop = asyncio.get_running_loop()
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.begin_drain)
                except NotImplementedError:  # pragma: no cover
                    pass
        if ready is not None:
            ready(self)
        try:
            with collect_query_metrics(self.query_metrics):
                await self._draining.wait()
                await self._shutdown()
        finally:
            sys.setswitchinterval(previous_switch)
        self._stopped.set()

    def begin_drain(self) -> None:
        """Flip into draining mode (idempotent, safe from a signal)."""
        self._draining.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def _shutdown(self) -> None:
        """Drain: stop accepting, settle in-flight, final checkpoints."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._cron_tasks:
            task.cancel()
        for task in self._cron_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        # Sessions observe the draining flag and wind down on their own
        # (mutating requests now answer the typed ``draining`` error);
        # wait for in-flight work to settle, then close idle sessions.
        deadline = self.clock.monotonic() + 10.0
        settled = 0
        while self._sessions and self.clock.monotonic() < deadline:
            settled = settled + 1 if self.metrics.in_flight == 0 else 0
            if settled >= 3:
                break
            await self.clock.sleep(0.02)
        for task in list(self._sessions):
            task.cancel()
        await self._final_checkpoint()

    async def _final_checkpoint(self) -> None:
        if self.registry.checkpoint_dir is None:
            return
        for record in self.registry.records():
            async with record.lock:
                self.registry.checkpoint(record)
                if record.wal is not None:
                    record.wal.close_segment()

    # -- crons ----------------------------------------------------------

    async def _checkpoint_cron(self) -> None:
        while True:
            await self.clock.sleep(self.checkpoint_interval)
            for record in self.registry.records():
                async with record.lock:
                    try:
                        await self._offload(self.registry.checkpoint, record)
                    except (OSError, ReproError):
                        # A failed periodic save (full disk, damaged
                        # directory) degrades durability to the previous
                        # generation — it must not kill the cron, which
                        # is also what retries once the fault clears.
                        self.metrics.checkpoint_errors += 1

    async def _snapshot_cron(self) -> None:
        delay = self.snapshot_interval
        while True:
            await self.clock.sleep(delay)
            delay = await self._refresh_stale_snapshots()

    async def _refresh_stale_snapshots(self) -> float:
        """One snapshot-cron tick; returns the delay to the next one.

        A stale snapshot is re-decoded only once it is one
        ``snapshot_interval`` old: a younger one was just decoded by a
        fresh read, and the tick instead comes back when it turns that
        old.  No snapshot therefore trails ingest for longer than one
        interval (plus a decode), yet under steady fresh reads the cron
        decodes nothing.
        """
        delay = self.snapshot_interval
        for record in self.registry.records():
            snap = record.snapshot
            if snap is not None and snap["offset"] == record.events:
                continue
            if snap is not None:
                age = self.registry.clock.monotonic() - snap["decoded_at"]
                if age < self.snapshot_interval:
                    delay = min(delay, self.snapshot_interval - age)
                    continue
            async with record.lock:
                try:
                    await self._offload(self.registry.refresh_snapshot, record)
                except ReproError:
                    # A probabilistic decode failure: keep serving the
                    # previous snapshot; the next tick retries.
                    pass
        return delay

    # -- sessions --------------------------------------------------------

    async def _handle_session(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._sessions.add(task)
        self.metrics.sessions_opened += 1
        try:
            await self._session_loop(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            self.metrics.sessions_closed += 1
            self._sessions.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _session_loop(self, reader, writer) -> None:
        while True:
            try:
                frame = await read_frame(reader)
            except PeerDisconnectedError:
                # The peer went away mid-frame.  Nothing to answer — the
                # socket is dead — so count it and let the session close
                # cleanly (locks and reservations are released by the
                # handlers' own finally paths; none are held between
                # frames).
                self.metrics.disconnects_midframe += 1
                return
            except ProtocolFrameError as exc:
                # Framing is no longer trustworthy: answer and close.
                self.metrics.frame_errors += 1
                try:
                    writer.write(
                        encode_frame(
                            {
                                "id": None,
                                "ok": False,
                                "error": exc.code,
                                "message": str(exc),
                            }
                        )
                    )
                    await writer.drain()
                except ConnectionError:
                    pass
                return
            if frame is None:
                return
            header, payload = frame
            writer.write(await self._dispatch(header, payload))
            await writer.drain()
            if header.get("cmd") == "shutdown":
                return

    async def _dispatch(self, header, payload):
        req_id = header.get("id")
        cmd = header.get("cmd")
        self.metrics.in_flight += 1
        expensive = False
        t0 = time.perf_counter()
        ok = False
        try:
            if not isinstance(cmd, str):
                raise BadRequestError("request lacks a string 'cmd'")
            if self.draining and cmd in _MUTATING:
                self.metrics.rejected_draining += 1
                raise DrainingError(
                    f"server is draining; {cmd!r} rejected"
                )
            if cmd in _EXPENSIVE:
                if self._expensive_in_flight >= self.max_in_flight:
                    self.metrics.rejected_overload += 1
                    raise OverloadedError(
                        f"server at its in-flight budget "
                        f"({self.max_in_flight}); {cmd!r} shed",
                        retry_after=0.05,
                    )
                expensive = True
                self._expensive_in_flight += 1
            handler = getattr(self, "_cmd_" + cmd.replace("-", "_"), None)
            if handler is None:
                raise BadRequestError(f"unknown command {cmd!r}")
            result = await handler(header, payload)
            if isinstance(result, tuple):
                body, out_payload = result
            else:
                body, out_payload = result, b""
            response = {"id": req_id, "ok": True}
            response.update(body)
            try:
                reply = encode_frame(response, out_payload)
            except ProtocolFrameError as exc:
                # The request was fine; its answer cannot travel in one
                # frame (a dump past the payload cap).  A typed error
                # keeps the session, where letting the encode raise
                # here would drop it and invite a futile retry.
                raise BadRequestError(
                    f"{cmd!r} reply does not fit one frame: {exc}"
                ) from exc
            ok = True
            return reply
        except ServiceError as exc:
            body = {
                "id": req_id,
                "ok": False,
                "error": exc.code,
                "message": str(exc),
            }
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                body["retry_after"] = retry_after
            return encode_frame(body)
        except ReproError as exc:
            return encode_frame(
                {
                    "id": req_id,
                    "ok": False,
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            )
        finally:
            if expensive:
                self._expensive_in_flight -= 1
            self.metrics.in_flight -= 1
            self.metrics.observe(
                cmd if isinstance(cmd, str) else "<invalid>",
                time.perf_counter() - t0,
                ok,
            )

    # -- command handlers ------------------------------------------------

    async def _cmd_hello(self, header, payload):
        return {
            "protocol": PROTOCOL_VERSION,
            "server": SERVER_VERSION,
            "role": self.role,
            "draining": self.draining,
            "sketches": self.registry.names(),
        }

    async def _cmd_create(self, header, payload):
        name = header.get("name")
        config = header.get("config")
        if not isinstance(config, dict):
            raise BadRequestError("create needs a 'config' object")
        normalized = self.registry.validate_create(name, config)
        pending = self._creating.get(name)
        if pending is not None:
            pending_config, fut = pending
            if pending_config == normalized and fut is not None:
                # Same name, same config, build still in flight: a
                # client-deadline retry (or a concurrent coordinator)
                # re-creating idempotently.  Ride the existing build.
                # shield() keeps THIS waiter's cancellation from
                # cancelling the shared future under the builder.
                record = await asyncio.shield(fut)
                return {"sketch": record.describe()}
            raise SketchExistsError(f"sketch {name!r} already exists")
        # Building the sketch (placement tables included) can take
        # hundreds of milliseconds; reserve the name, build off-loop,
        # then register the finished sketch.
        fut = asyncio.get_running_loop().create_future()
        self._creating[name] = (normalized, fut)
        try:
            sketch = await self._offload(
                self.registry.prepare_sketch, normalized
            )
            # admit() wipes stale on-disk lineage and writes the WAL
            # create record — disk I/O, so it runs off-loop too.
            record = await self._offload(
                self.registry.admit, name, normalized, sketch
            )
        except BaseException as exc:
            if not fut.done():
                fut.set_exception(exc)
                fut.exception()  # waiters re-raise; mark retrieved here
            raise
        finally:
            self._creating.pop(name, None)
        if not fut.done():
            fut.set_result(record)
        return {"sketch": record.describe()}

    async def _cmd_ingest_batch(self, header, payload):
        record = self.registry.get(header.get("name"))
        updates = header.get("updates")
        client = header.get("client")
        request = header.get("request")
        async with record.lock:
            # Re-check under the lock: a drain that began while we were
            # waiting must not admit new events.
            if self.draining:
                self.metrics.rejected_draining += 1
                raise DrainingError("server is draining; ingest rejected")
            if record.wal_broken:
                raise WALError(
                    f"sketch {record.name!r} holds an unlogged batch "
                    "after a WAL append failure; mutations are frozen "
                    "(restart the server to recover a consistent state)"
                )
            # Exactly-once: a stamp we already acked answers the
            # original ack — the retry of a timed-out-but-applied
            # batch, which must not fold twice.
            prior = record.dedup.check(client, request)
            if prior is not None:
                self.metrics.dedup_hits += 1
                return {
                    "count": prior["count"],
                    "events": prior["events"],
                    "duplicate": True,
                }
            # A forget (migration completing) may have raced our wait
            # for the lock: folding into an orphaned sketch would ack
            # work into state nobody serves.
            if not self.registry.is_live(record):
                raise NoSuchSketchError(
                    f"sketch {record.name!r} was removed (migrated away?)"
                )
            if record.frozen:
                self.metrics.rejected_frozen += 1
                raise SketchFrozenError(
                    f"sketch {record.name!r} is frozen for migration; "
                    "retry shortly"
                )
            if updates is None and not payload:
                raise BadRequestError(
                    "ingest-batch needs 'updates' or a pairs payload"
                )
            # One worker-thread hop for the whole batch (safe: the
            # record lock is held): decode, validate all of it, fold,
            # and the WAL append with its fsync — logged before acked.
            # The loop keeps serving snapshot queries meanwhile; the
            # short GIL switch interval set in run() gives it its turns.
            try:
                count, seq = await self._offload(
                    self.registry.ingest_batch,
                    record, payload, updates, client, request,
                )
            except WALFullError:
                # The registry already unfolded the batch (linear
                # inverse) and flagged the sketch; answer the typed
                # retryable error instead of poisoning the session.
                self.metrics.wal_full_rejections += 1
                raise
            return {"count": count, "events": record.events, "seq": seq}

    async def _cmd_query(self, header, payload):
        record = self.registry.get(header.get("name"))
        op = header.get("op", "connected")
        consistency = header.get("consistency", "fresh")
        if consistency not in ("fresh", "snapshot"):
            raise BadRequestError(
                f"consistency must be 'fresh' or 'snapshot', got {consistency!r}"
            )
        snap = record.snapshot
        if consistency == "fresh" or snap is None:
            async with record.lock:
                snap = await self._offload(
                    self.registry.refresh_snapshot, record
                )
        body = {
            "as_of": snap["offset"],
            "events": record.events,
            "staleness": record.events - snap["offset"],
        }
        if op == "connected":
            body["connected"] = snap["connected"]
        elif op == "components":
            body["components"] = snap["components"]
        elif op == "edges":
            body["edges"] = snap["edges"]
        elif op == "layers":
            if "layers" not in snap:
                raise BadRequestError(
                    f"sketch {record.name!r} is not a skeleton; no layers"
                )
            body["layers"] = snap["layers"]
        else:
            raise BadRequestError(f"unknown query op {op!r}")
        return body

    async def _cmd_checkpoint(self, header, payload):
        name = header.get("name")
        records = (
            [self.registry.get(name)]
            if name is not None
            else self.registry.records()
        )
        paths: Dict[str, Optional[str]] = {}
        for record in records:
            async with record.lock:
                paths[record.name] = await self._offload(
                    self.registry.checkpoint, record
                )
        return {"paths": paths}

    async def _cmd_audit(self, header, payload):
        record = self.registry.get(header.get("name"))
        async with record.lock:
            report = await self._offload(self.registry.audit, record)
        return {"report": report}

    async def _cmd_dump(self, header, payload):
        record = self.registry.get(header.get("name"))
        async with record.lock:
            blob = await self._offload(dump_sketch, record.sketch)
            return {"events": record.events, "bytes": len(blob)}, blob

    async def _cmd_list(self, header, payload):
        return {
            "sketches": [r.describe() for r in self.registry.records()]
        }

    async def _cmd_stats(self, header, payload):
        sketches = {}
        for record in self.registry.records():
            info = record.describe()
            info["ingest"] = record.ingest.to_dict()
            sketches[record.name] = info
        return {
            "metrics": metrics_payload(
                {
                    "server": self.metrics,
                    "query": self.query_metrics,
                    "sketches": sketches,
                }
            )
        }

    async def _cmd_health(self, header, payload):
        """Cheap liveness + durability posture; never shed or refused.

        Surfaces exactly what an operator needs under stress: how far
        each WAL runs ahead of its checkpoint (replay cost of a crash
        right now), dedup occupancy (exactly-once memory pressure),
        in-flight vs budget (shed margin), and drain/broken states.
        """
        sketches = {}
        broken = False
        full = False
        worst_lag = 0
        for record in self.registry.records():
            lag = record.wal_lag
            worst_lag = max(worst_lag, lag)
            broken = broken or record.wal_broken
            full = full or record.wal_full
            info = {
                "events": record.events,
                "wal_seq": record.seq,
                "wal_lag": lag,
                "wal_broken": record.wal_broken,
                "wal_full": record.wal_full,
                "replayed": record.replayed,
                "dedup_entries": len(record.dedup),
                "dedup_occupancy": record.dedup.occupancy,
                "dedup_hits": record.dedup.hits,
                "frozen": record.frozen,
                "repairs": record.repairs,
                "last_antientropy": record.last_antientropy,
            }
            if record.wal is not None:
                info["wal"] = record.wal.stats()
            sketches[record.name] = info
        status = "ok"
        if broken or full:
            status = "degraded"
        if self.draining:
            status = "draining"
        return {
            "status": status,
            "role": self.role,
            "draining": self.draining,
            "wal_enabled": self.registry.wal_enabled,
            "wal_full": full,
            "wal_full_rejections": self.metrics.wal_full_rejections,
            "checkpoint_errors": self.metrics.checkpoint_errors,
            "in_flight": self.metrics.in_flight,
            "expensive_in_flight": self._expensive_in_flight,
            "max_in_flight": self.max_in_flight,
            "rejected_overload": self.metrics.rejected_overload,
            "dedup_hits": self.metrics.dedup_hits,
            "disconnects_midframe": self.metrics.disconnects_midframe,
            "worst_wal_lag": worst_lag,
            "restored": list(self.restored),
            "sketches": sketches,
        }

    # -- replication / migration commands -------------------------------

    async def _cmd_digest(self, header, payload):
        """Offsets plus the counter fingerprint (anti-entropy probe)."""
        record = self.registry.get(header.get("name"))
        async with record.lock:
            return await self._offload(self.registry.digest, record)

    async def _cmd_repair_sketch(self, header, payload):
        """Overwrite a divergent copy with a peer's dump (repair target)."""
        record = self.registry.get(header.get("name"))
        events = header.get("events")
        if not payload:
            raise BadRequestError("repair-sketch needs a dump payload")
        if not isinstance(events, int) or events < 0:
            raise BadRequestError("repair-sketch 'events' must be an int >= 0")
        async with record.lock:
            if self.draining:
                self.metrics.rejected_draining += 1
                raise DrainingError("server is draining; repair rejected")
            if not self.registry.is_live(record):
                raise NoSuchSketchError(
                    f"sketch {record.name!r} was removed (migrated away?)"
                )
            if record.frozen:
                self.metrics.rejected_frozen += 1
                raise SketchFrozenError(
                    f"sketch {record.name!r} is frozen for migration"
                )
            await self._offload(
                self.registry.repair_sketch, record, payload, events
            )
        self.metrics.repairs_received += 1
        return {"events": record.events}

    async def _cmd_wal_tail(self, header, payload):
        """The retained stamped ingest records after a sequence number."""
        record = self.registry.get(header.get("name"))
        after = header.get("after", 0)
        limit = header.get("limit", 256)
        if not isinstance(after, int) or not isinstance(limit, int):
            raise BadRequestError("wal-tail 'after'/'limit' must be integers")
        async with record.lock:
            metas, payloads = await self._offload(
                self.registry.wal_tail, record, after, max(0, limit)
            )
        return {"records": metas, "seq": record.seq}, (
            encode_blob_list(payloads)
        )

    async def _cmd_freeze(self, header, payload):
        """Stop mutations on one sketch (the migration dump window)."""
        record = self.registry.get(header.get("name"))
        async with record.lock:  # let any in-flight batch settle first
            record.frozen = True
            return {"frozen": True, "events": record.events}

    async def _cmd_thaw(self, header, payload):
        record = self.registry.get(header.get("name"))
        record.frozen = False
        return {"frozen": False, "events": record.events}

    async def _cmd_restore_sketch(self, header, payload):
        """Admit a migrated sketch: config + dump blob + event offset."""
        name = header.get("name")
        config = header.get("config")
        events = header.get("events", 0)
        if not isinstance(config, dict):
            raise BadRequestError("restore-sketch needs a 'config' object")
        if not payload:
            raise BadRequestError("restore-sketch needs a dump payload")
        if not isinstance(events, int) or events < 0:
            raise BadRequestError("restore-sketch 'events' must be an int >= 0")
        self.registry.validate_create(name, config)
        if name in self._creating:
            raise SketchExistsError(f"sketch {name!r} already exists")
        # Restores are never awaited by concurrent requests (the blob
        # already exists); the sentinel only reserves the name.
        self._creating[name] = (None, None)
        try:
            record = await self._offload(
                self.registry.restore_blob, name, config, payload, events
            )
        finally:
            self._creating.pop(name, None)
        self.metrics.restores_received += 1
        return {"sketch": record.describe()}

    async def _cmd_forget(self, header, payload):
        """Drop a sketch (and, by default, its on-disk lineage)."""
        record = self.registry.get(header.get("name"))
        wipe = header.get("wipe", True)
        async with record.lock:
            if not self.registry.is_live(record):
                raise NoSuchSketchError(
                    f"sketch {record.name!r} was already removed"
                )
            await self._offload(
                self.registry.forget, record.name, bool(wipe)
            )
        self.metrics.forgets += 1
        return {"forgotten": record.name}

    async def _cmd_drain(self, header, payload):
        self.begin_drain()
        return {"draining": True}

    async def _cmd_shutdown(self, header, payload):
        self.begin_drain()
        return {"draining": True, "stopping": True}
