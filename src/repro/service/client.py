"""Asyncio client library for the sketch server.

:class:`ServiceClient` speaks the frame protocol over one TCP
connection, correlates responses by request id, and re-raises server
error responses as the matching :class:`~repro.errors.ServiceError`
subclass (so ``except DrainingError`` works the same against a remote
server as against an in-process registry).  The typed helpers mirror
the command set; :meth:`request` is the escape hatch for raw commands.

Requests on one client are serialised (one frame in flight at a time);
open several clients for concurrency — the server handles each
connection as an independent session.

Robustness (PR 7):

- every request takes an optional ``timeout=`` (or the client-wide
  default); expiry poisons the connection (a half-read frame cannot be
  resynchronised) and raises
  :class:`~repro.errors.ServiceTimeoutError`;
- when constructed via :meth:`connect`, the client transparently
  **reconnects and retries** transient failures — ``overloaded``
  (sleeping the server's ``retry_after`` hint), disconnects, resets,
  and timeouts — under the shared
  :class:`~repro.util.retry.RetryPolicy` backoff;
- mutations are **stamped** with ``(client, request)`` ids, so a retry
  of a timed-out-but-applied ingest is answered from the server's
  dedup window (``duplicate: true``) instead of folding twice —
  retrying is always safe, which is what makes the first two points
  sound.

Failover (PR 8): constructed with several ``endpoints``, the client
owns a seeded shuffle of them and **fails over** — a dead or
unreachable endpoint is skipped and the next request lands on a
surviving one.  Each endpoint carries a circuit breaker: after
``breaker_threshold`` consecutive transport failures it is skipped for
``breaker_cooldown`` seconds (unless *every* endpoint is open, in
which case the least-recently-failed is tried anyway — a breaker must
never turn a reachable set into an unreachable one).  Failover counts
and per-endpoint breaker states are surfaced by :attr:`stats`.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import time
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from ..util.clock import SYSTEM_CLOCK, Clock
from ..util.retry import RetryPolicy
from .net import REAL_NETWORK, Network
from ..errors import (
    BadRequestError,
    DrainingError,
    NoSuchSketchError,
    OverloadedError,
    PeerDisconnectedError,
    ProtocolFrameError,
    ReplicationError,
    ServiceError,
    ServiceTimeoutError,
    SketchExistsError,
    SketchFrozenError,
    WALError,
    WALFullError,
)
from .protocol import (
    decode_blob_list,
    encode_blob_list,
    encode_frame,
    encode_pairs,
    read_frame,
)

_ERROR_TYPES = {
    cls.code: cls
    for cls in (
        ProtocolFrameError,
        PeerDisconnectedError,
        BadRequestError,
        NoSuchSketchError,
        SketchExistsError,
        SketchFrozenError,
        ReplicationError,
        DrainingError,
        OverloadedError,
        ServiceTimeoutError,
        WALError,
        WALFullError,
    )
}

#: Error codes worth retrying: the server shed the request, the
#: transport failed, the sketch is briefly frozen for a migration, or
#: the server's WAL disk is full (the batch was rolled back and the
#: checkpoint cron keeps trying to free space) — nothing about the
#: request itself was wrong.
TRANSIENT_CODES = frozenset(
    {"overloaded", "disconnected", "timeout", "frozen", "wal_full"}
)

#: Transient codes that indicate the *endpoint* (not the request) is in
#: trouble — these trip the per-endpoint circuit breaker and start the
#: failover clock.
_TRANSPORT_CODES = frozenset({"disconnected", "timeout"})


class Endpoint:
    """One server address plus its circuit-breaker state."""

    __slots__ = ("host", "port", "failures", "open_until", "connects", "skips")

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)
        self.failures = 0  # consecutive transport failures
        self.open_until = 0.0  # breaker-open deadline (monotonic)
        self.connects = 0
        self.skips = 0  # times skipped while the breaker was open

    def describe(self, now: Optional[float] = None) -> Dict[str, object]:
        if now is None:
            now = time.monotonic()
        return {
            "host": self.host,
            "port": self.port,
            "state": "open" if self.open_until > now else "closed",
            "failures": self.failures,
            "connects": self.connects,
            "skips": self.skips,
            "open_for": max(0.0, self.open_until - now),
        }


def error_from_response(header: Dict[str, object]) -> ServiceError:
    """Rebuild the typed exception a ``ok: false`` response encodes."""
    code = header.get("error", "internal")
    message = header.get("message", "service error")
    cls = _ERROR_TYPES.get(code)
    if cls is OverloadedError:
        return OverloadedError(
            message, retry_after=float(header.get("retry_after", 0.05))
        )
    if cls is not None:
        return cls(message)
    return ServiceError(message, code=code)


class ServiceClient:
    """One connection to a :class:`~repro.service.server.SketchServer`.

    Parameters
    ----------
    timeout:
        Default per-request deadline in seconds (None = wait forever);
        each call can override it with ``timeout=``.
    retry:
        :class:`~repro.util.retry.RetryPolicy` governing
        transparent reconnect-and-retry of transient failures.  Only
        effective when the client knows its endpoint (built via
        :meth:`connect`); ``max_restarts=0`` disables retrying.
    client_id:
        The stamp identity for exactly-once ingest; defaults to a
        random 16-hex-digit id per client object.
    endpoints:
        Optional list of ``(host, port)`` pairs; when given, the client
        fails over between them (``host``/``port`` are ignored).  Use
        :meth:`connect` with ``endpoint_seed`` for the seeded shuffle.
    breaker_threshold / breaker_cooldown:
        Consecutive transport failures before an endpoint's circuit
        breaker opens, and how long (seconds) it then sits out.
    """

    def __init__(self, reader, writer, host: Optional[str] = None,
                 port: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 client_id: Optional[str] = None,
                 endpoints: Optional[Sequence[Tuple[str, int]]] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 1.0,
                 clock: Clock = SYSTEM_CLOCK,
                 network: Network = REAL_NETWORK):
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self._clock = clock
        self._network = network
        if endpoints:
            self._endpoints = [Endpoint(h, p) for h, p in endpoints]
        elif host is not None:
            self._endpoints = [Endpoint(host, port)]
        else:
            self._endpoints = []
        self._endpoint_index = 0
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self._ids = itertools.count(1)
        self._lock = asyncio.Lock()
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.client_id = client_id or os.urandom(8).hex()
        #: Deterministic per-client jitter key: two clients of one
        #: seeded ``RetryPolicy`` spread their retries apart instead of
        #: thundering back in lockstep, yet each client's backoff
        #: sequence is exactly replayable from its id.
        self._backoff_key = zlib.crc32(self.client_id.encode("utf-8"))
        self._stamps = itertools.count(1)
        self._closed = False
        self._ever_connected = reader is not None
        #: Observability for load generators and tests.
        self.retries = 0
        self.reconnects = 0
        self.failovers = 0
        self.failover_times: List[float] = []
        self._failover_started: Optional[float] = None
        self.errors_by_code: Dict[str, int] = {}

    @classmethod
    async def connect(cls, host: str = "127.0.0.1", port: int = 0,
                      timeout: Optional[float] = None,
                      retry: Optional[RetryPolicy] = None,
                      client_id: Optional[str] = None,
                      endpoints: Optional[Sequence[Tuple[str, int]]] = None,
                      endpoint_seed: int = 0,
                      breaker_threshold: int = 3,
                      breaker_cooldown: float = 1.0,
                      clock: Clock = SYSTEM_CLOCK,
                      network: Network = REAL_NETWORK):
        """Open a client; with ``endpoints``, shuffle them by seed first.

        The seeded shuffle spreads a fleet of clients across replicas
        (each client hashes to a different preferred endpoint) while
        keeping any single client's order deterministic for tests.
        """
        if endpoints:
            eps = [(h, int(p)) for h, p in endpoints]
            random.Random(endpoint_seed).shuffle(eps)
            client = cls(
                None, None, timeout=timeout, retry=retry,
                client_id=client_id, endpoints=eps,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown,
                clock=clock, network=network,
            )
            await client._ensure_connection()
            return client
        reader, writer = await network.connect(host, port)
        return cls(reader, writer, host=host, port=port, timeout=timeout,
                   retry=retry, client_id=client_id,
                   breaker_threshold=breaker_threshold,
                   breaker_cooldown=breaker_cooldown,
                   clock=clock, network=network)

    async def close(self) -> None:
        self._closed = True
        await self._drop_connection()

    async def _drop_connection(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is None:
            return
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass

    @property
    def endpoint(self) -> Optional[Endpoint]:
        """The endpoint the client is currently pinned to (if any)."""
        if not self._endpoints:
            return None
        return self._endpoints[self._endpoint_index]

    def _note_transport_failure(self) -> None:
        """Charge a transport failure to the current endpoint's breaker."""
        ep = self.endpoint
        if ep is not None:
            ep.failures += 1
            if ep.failures >= self.breaker_threshold:
                ep.open_until = (
                    self._clock.monotonic() + self.breaker_cooldown
                )

    async def _ensure_connection(self) -> None:
        if self._reader is not None:
            return
        if self._closed or not self._endpoints:
            raise PeerDisconnectedError(
                "client connection is closed"
                if self._closed
                else "connection lost and no endpoint to reconnect to"
            )
        n = len(self._endpoints)
        order = [self._endpoints[(self._endpoint_index + i) % n]
                 for i in range(n)]
        now = self._clock.monotonic()
        ready = []
        for ep in order:
            if ep.open_until > now:
                ep.skips += 1
            else:
                ready.append(ep)
        if not ready:
            # Every breaker is open.  A breaker must never turn a
            # reachable set unreachable — try the endpoint whose
            # cooldown expires soonest rather than failing outright.
            ready = [min(order, key=lambda e: e.open_until)]
        last_exc: Optional[BaseException] = None
        for ep in ready:
            try:
                reader, writer = await self._network.connect(
                    ep.host, ep.port
                )
            except OSError as exc:
                # Refused/reset while the server restarts: charge the
                # breaker and move on to the next endpoint.
                ep.failures += 1
                if ep.failures >= self.breaker_threshold:
                    ep.open_until = (
                        self._clock.monotonic() + self.breaker_cooldown
                    )
                last_exc = exc
                continue
            self._reader, self._writer = reader, writer
            ep.failures = 0
            ep.open_until = 0.0
            ep.connects += 1
            if self._ever_connected:
                self.reconnects += 1
                if (ep.host, ep.port) != (self._host, self._port):
                    self.failovers += 1
            self._ever_connected = True
            self._endpoint_index = self._endpoints.index(ep)
            self._host, self._port = ep.host, ep.port
            return
        # Transient and typed: the retry loop backs off and re-enters.
        raise PeerDisconnectedError(
            f"all {n} endpoint(s) unreachable (last: {last_exc})"
        )

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc):
        await self.close()

    # -- core ------------------------------------------------------------

    async def request_once(
        self, cmd: str, payload: bytes = b"",
        timeout: Optional[float] = None, **args
    ) -> Tuple[Dict[str, object], bytes]:
        """One attempt of one command — no retrying, no reconnecting.

        Raises the typed :class:`~repro.errors.ServiceError` the server
        answered with; :class:`~repro.errors.PeerDisconnectedError` if
        the connection died mid-exchange; :class:`~repro.errors.
        ServiceTimeoutError` when the deadline expires (the connection
        is then poisoned — a half-read frame cannot be resumed — and
        will be re-opened by the next request when possible).
        """
        if timeout is None:
            timeout = self.timeout
        req_id = next(self._ids)
        header = {"id": req_id, "cmd": cmd}
        header.update(args)
        async with self._lock:
            await self._ensure_connection()
            try:
                self._writer.write(encode_frame(header, payload))
                if timeout is not None:
                    await asyncio.wait_for(self._writer.drain(), timeout)
                    frame = await asyncio.wait_for(
                        read_frame(self._reader), timeout
                    )
                else:
                    await self._writer.drain()
                    frame = await read_frame(self._reader)
            except asyncio.TimeoutError:
                self._note_transport_failure()
                await self._drop_connection()
                raise ServiceTimeoutError(
                    f"no response to {cmd!r} within {timeout}s "
                    "(the request may still have been applied)"
                ) from None
            except ProtocolFrameError as exc:
                # Disconnected mid-frame or framing out of sync: either
                # way this connection is unusable.
                if isinstance(exc, PeerDisconnectedError):
                    self._note_transport_failure()
                await self._drop_connection()
                raise
            except ConnectionError as exc:
                self._note_transport_failure()
                await self._drop_connection()
                raise PeerDisconnectedError(
                    f"connection failed during {cmd!r}: {exc}"
                ) from exc
            if frame is None:
                self._note_transport_failure()
                await self._drop_connection()
                raise PeerDisconnectedError(
                    f"connection closed before response to {cmd!r}"
                )
        resp, resp_payload = frame
        if not resp.get("ok"):
            raise error_from_response(resp)
        return resp, resp_payload

    async def request(
        self, cmd: str, payload: bytes = b"",
        timeout: Optional[float] = None, **args
    ) -> Tuple[Dict[str, object], bytes]:
        """Send one command, retrying transient failures with backoff.

        ``overloaded`` responses sleep the server's ``retry_after``
        hint; disconnects and timeouts reconnect (when the endpoint is
        known) after the :class:`RetryPolicy` backoff.  Identical
        header args are re-sent on every attempt — which is why
        mutating helpers stamp their requests *before* calling this.
        Exhausting the budget re-raises the last failure.
        """
        attempt = 0
        while True:
            try:
                result = await self.request_once(
                    cmd, payload, timeout=timeout, **args
                )
                if self._failover_started is not None:
                    # First success after a transport failure: one
                    # client-observed failover-latency sample.
                    self.failover_times.append(
                        self._clock.monotonic() - self._failover_started
                    )
                    self._failover_started = None
                return result
            except ServiceError as exc:
                if exc.code not in TRANSIENT_CODES:
                    raise
                if (
                    exc.code in _TRANSPORT_CODES
                    and self._failover_started is None
                ):
                    self._failover_started = self._clock.monotonic()
                attempt += 1
                retriable = bool(self._endpoints) or isinstance(
                    exc, OverloadedError
                )
                if (
                    not retriable
                    or self._closed
                    or attempt > self.retry.max_restarts
                ):
                    # The terminal failure is the caller's to account.
                    raise
                self.errors_by_code[exc.code] = (
                    self.errors_by_code.get(exc.code, 0) + 1
                )
                self.retries += 1
                if isinstance(exc, OverloadedError):
                    delay = exc.retry_after
                else:
                    # Keyed by the client id: deterministic for one
                    # client, decorrelated across a fleet.  The policy
                    # clamps the exponential *before* exponentiating,
                    # so a long partition parks at ~backoff_max seconds
                    # per attempt instead of backing off into minutes.
                    delay = self.retry.backoff_delay(
                        self._backoff_key, attempt
                    )
                await self._clock.sleep(delay)

    def next_stamp(self) -> Dict[str, object]:
        """A fresh ``(client, request)`` stamp for one logical mutation."""
        return {"client": self.client_id, "request": next(self._stamps)}

    def client_stats(self) -> Dict[str, object]:
        """Client-side counters: retries, failovers, breaker states.

        (Server-side counters come from :meth:`stats`, which asks the
        server; this dict is what *this* client observed.)
        """
        times = sorted(self.failover_times)
        median = times[len(times) // 2] if times else None
        return {
            "client_id": self.client_id,
            "retries": self.retries,
            "reconnects": self.reconnects,
            "failovers": self.failovers,
            "failover_count": len(times),
            "failover_median_seconds": median,
            "failover_max_seconds": times[-1] if times else None,
            "errors_by_code": dict(self.errors_by_code),
            "endpoints": [
                ep.describe(self._clock.monotonic())
                for ep in self._endpoints
            ],
        }

    # -- typed helpers ---------------------------------------------------

    async def hello(self) -> Dict[str, object]:
        resp, _ = await self.request("hello")
        return resp

    async def create(self, name: str, timeout: Optional[float] = None,
                     **config) -> Dict[str, object]:
        """Create a named sketch, tolerating a retried create.

        When a create times out after the server applied it, the retry
        answers ``sketch-exists``; since create is not stamped, the
        client resolves that ambiguity by treating ``sketch-exists``
        *after a transparent retry* as success (the registry's
        ``list`` confirms the config on demand).
        """
        attempted = self.retries
        try:
            resp, _ = await self.request(
                "create", timeout=timeout, name=name, config=config
            )
            return resp["sketch"]
        except SketchExistsError:
            if self.retries > attempted:
                for sketch in await self.list():
                    if sketch["name"] == name:
                        return sketch
            raise

    async def ingest_pairs(self, name: str, us, vs, signs,
                           timeout: Optional[float] = None) -> int:
        """Ship a packed rank-2 batch; returns the sketch's new offset."""
        resp, _ = await self.request(
            "ingest-batch", payload=encode_pairs(us, vs, signs),
            timeout=timeout, name=name, **self.next_stamp()
        )
        return resp["events"]

    async def ingest_updates(self, name: str, updates,
                             timeout: Optional[float] = None) -> int:
        """Ship a general hyperedge batch ``[(sign, [v...]), ...]``."""
        resp, _ = await self.request(
            "ingest-batch",
            timeout=timeout,
            name=name,
            updates=[[int(s), list(map(int, e))] for s, e in updates],
            **self.next_stamp()
        )
        return resp["events"]

    async def query(
        self, name: str, op: str = "connected", consistency: str = "fresh",
        timeout: Optional[float] = None
    ) -> Dict[str, object]:
        resp, _ = await self.request(
            "query", timeout=timeout, name=name, op=op,
            consistency=consistency
        )
        return resp

    async def checkpoint(
        self, name: Optional[str] = None, timeout: Optional[float] = None
    ) -> Dict[str, Optional[str]]:
        args = {} if name is None else {"name": name}
        resp, _ = await self.request("checkpoint", timeout=timeout, **args)
        return resp["paths"]

    async def audit(self, name: str,
                    timeout: Optional[float] = None) -> Dict[str, object]:
        resp, _ = await self.request("audit", timeout=timeout, name=name)
        return resp["report"]

    async def dump(self, name: str,
                   timeout: Optional[float] = None) -> Tuple[int, bytes]:
        """Fetch the sketch's serialized blob (offset, RPSK bytes)."""
        resp, payload = await self.request("dump", timeout=timeout, name=name)
        return resp["events"], payload

    async def list(self, timeout: Optional[float] = None):
        resp, _ = await self.request("list", timeout=timeout)
        return resp["sketches"]

    async def stats(self, timeout: Optional[float] = None) -> Dict[str, object]:
        resp, _ = await self.request("stats", timeout=timeout)
        return resp["metrics"]

    async def health(self, timeout: Optional[float] = None) -> Dict[str, object]:
        resp, _ = await self.request("health", timeout=timeout)
        return resp

    # -- replication / anti-entropy / migration helpers ------------------

    async def digest(self, name: str,
                     timeout: Optional[float] = None) -> Dict[str, object]:
        """The per-(grid, group, row) digest table of one sketch."""
        resp, _ = await self.request("digest", timeout=timeout, name=name)
        return resp

    async def member_digest(self, name: str, grid: int = 0,
                            timeout: Optional[float] = None
                            ) -> Dict[str, object]:
        """Per-member digest pairs of one grid (repair localization)."""
        resp, _ = await self.request(
            "member-digest", timeout=timeout, name=name, grid=grid
        )
        return resp["members"]

    async def fetch_members(self, name: str, grid: int, members,
                            timeout: Optional[float] = None
                            ) -> Tuple[int, List[bytes]]:
        """Fetch member-state column blobs: ``(events, blobs)``."""
        resp, payload = await self.request(
            "fetch-members", timeout=timeout, name=name, grid=grid,
            members=[int(m) for m in members]
        )
        return resp["events"], decode_blob_list(payload)

    async def repair_members(self, name: str, grid: int, blobs,
                             events: Optional[int] = None,
                             timeout: Optional[float] = None) -> int:
        """Overwrite member columns from repair blobs; returns count."""
        args = {"name": name, "grid": grid}
        if events is not None:
            args["events"] = int(events)
        resp, _ = await self.request(
            "repair-members", payload=encode_blob_list(blobs),
            timeout=timeout, **args
        )
        return resp["repaired"]

    async def wal_tail(self, name: str, after: int = 0, limit: int = 256,
                       timeout: Optional[float] = None
                       ) -> Tuple[List[Dict[str, object]], List[bytes], int]:
        """Stamped WAL records after ``after``: (metas, payloads, seq)."""
        resp, payload = await self.request(
            "wal-tail", timeout=timeout, name=name, after=int(after),
            limit=int(limit)
        )
        return resp["records"], decode_blob_list(payload), resp["seq"]

    async def freeze(self, name: str,
                     timeout: Optional[float] = None) -> int:
        """Stop mutations on one sketch; returns its frozen offset."""
        resp, _ = await self.request("freeze", timeout=timeout, name=name)
        return resp["events"]

    async def thaw(self, name: str, timeout: Optional[float] = None) -> int:
        resp, _ = await self.request("thaw", timeout=timeout, name=name)
        return resp["events"]

    async def restore_sketch(self, name: str, config: Dict[str, object],
                             blob: bytes, events: int,
                             timeout: Optional[float] = None
                             ) -> Dict[str, object]:
        """Admit a migrated/repaired sketch from a dump blob."""
        resp, _ = await self.request(
            "restore-sketch", payload=blob, timeout=timeout, name=name,
            config=config, events=int(events)
        )
        return resp["sketch"]

    async def forget(self, name: str, wipe: bool = True,
                     timeout: Optional[float] = None) -> str:
        """Drop a sketch (and by default its on-disk lineage)."""
        resp, _ = await self.request(
            "forget", timeout=timeout, name=name, wipe=bool(wipe)
        )
        return resp["forgotten"]

    async def drain(self) -> None:
        await self.request("drain")

    async def shutdown(self) -> None:
        await self.request("shutdown")
