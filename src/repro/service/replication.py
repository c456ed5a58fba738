"""Replica-set coordination: quorum ingest, failover, anti-entropy.

A *replica set* is N independent :class:`~repro.service.server.
SketchServer` processes, each holding a full copy of every sketch and
its own per-sketch WAL.  There is no leader and no consensus log —
none is needed, because the sketches are **linear**: updates commute
and associate exactly, so replicas converge to bit-identical state as
soon as each has absorbed the same *set* of updates, in any order.
Replication therefore reduces to three mechanically simple pieces,
each made sound by an existing PR-7 primitive:

**Quorum ingest** (:meth:`ReplicaSet.ingest_pairs`).  Every logical
mutation gets ONE ``(client, request)`` stamp and is fanned to every
replica concurrently; the call acks as soon as ``write_quorum``
replicas answered, while the stragglers complete in the background.
A replica that misses the write (down, partitioned, slow) is *lagging*,
not wrong — the stamp makes any later re-send of the same batch
exactly-once (the server's :class:`~repro.service.wal.DedupWindow`
answers duplicates from memory), so anti-entropy can simply re-ship
what it missed.

**Failover** (:meth:`ReplicaSet.query`, and the multi-endpoint
:class:`~repro.service.client.ServiceClient` underneath).  Reads ride
a failover client pinned to one replica; when that replica dies the
next request lands on a survivor, with per-endpoint circuit breakers
keeping dead replicas out of the dial rotation.

**Anti-entropy** (:meth:`ReplicaSet.anti_entropy`).  A repair round
compares per-replica digests — event offset plus a SHA-256 of the
counters — and converges divergent replicas in two escalating stages:
first re-send the stamped WAL tails across divergent replicas (cheap,
exactly-once, covers ordinary lag), then copy one source replica's
whole sketch to every replica that still differs (covers replicas that
lost WAL coverage, or lack the sketch).  A final digest pass proves
byte-identical convergence.  A copy is one frame, so it is capped by
:data:`~repro.service.protocol.MAX_PAYLOAD_BYTES` like any ``dump``.

Migration (:func:`migrate_sketch`) reuses the same parts: freeze the
sketch on the source (mutations answer ``frozen``, a transient code
stamped clients retry through), dump, restore on the target, forget on
the source — the freeze window is measured and bounded in
milliseconds.

The coordinator lives *in the client process* (``repro ctl``, the
simulator, tests): servers stay unaware of each other, which keeps the
failure model honest — any coordinator can crash at any point and
another can finish the job from the digests alone.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..util.clock import SYSTEM_CLOCK, Clock
from ..util.retry import RetryPolicy
from .net import REAL_NETWORK, Network
from ..errors import (
    BadRequestError,
    NoSuchSketchError,
    ReplicationError,
    ServiceError,
    SketchExistsError,
)
from .client import ServiceClient
from .protocol import encode_pairs
from .wal import KIND_PAIRS, KIND_UPDATES


def parse_endpoints(spec: str) -> List[Tuple[str, int]]:
    """Parse ``host:port,host:port,...`` into endpoint pairs."""
    endpoints: List[Tuple[str, int]] = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        digits = sep and port.isascii() and port.isdigit()
        if not digits or int(port) > 65535:
            raise BadRequestError(
                f"bad endpoint {part!r} (want host:port, port 0-65535)"
            )
        endpoints.append((host or "127.0.0.1", int(port)))
    if not endpoints:
        raise BadRequestError(f"no endpoints in {spec!r}")
    return endpoints


class ReplicationMetrics:
    """Coordinator-side counters, exported by ``stats()``."""

    def __init__(self):
        self.quorum_writes = 0
        self.quorum_failures = 0
        self.replica_errors = 0
        self.background_acks = 0
        self.background_failures = 0
        self.anti_entropy_rounds = 0
        self.anti_entropy_converged = 0
        self.anti_entropy_failures = 0
        self.wal_records_resent = 0
        self.replicas_repaired = 0
        self.sketches_restored = 0
        self.divergences_found = 0

    def to_dict(self) -> Dict[str, int]:
        return {k: v for k, v in vars(self).items()}


class ReplicaSet:
    """Client-side coordinator over N sketch-server replicas.

    Parameters
    ----------
    endpoints:
        ``(host, port)`` of every replica.
    write_quorum:
        Acks required before a mutation returns; defaults to a
        majority (``n // 2 + 1``).  ``1`` is fire-and-forget-ish (one
        durable copy), ``n`` is synchronous full replication.
    timeout / retry:
        Per-request deadline and transparent-retry policy applied to
        every per-replica client.
    endpoint_seed:
        Seed of the read client's endpoint shuffle (spreads readers
        across replicas).
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        write_quorum: Optional[int] = None,
        timeout: Optional[float] = 10.0,
        retry: Optional[RetryPolicy] = None,
        client_id: Optional[str] = None,
        endpoint_seed: int = 0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        clock: Clock = SYSTEM_CLOCK,
        network: Network = REAL_NETWORK,
    ):
        self.clock = clock
        self.network = network
        self.endpoints = [(h, int(p)) for h, p in endpoints]
        n = len(self.endpoints)
        if n == 0:
            raise BadRequestError("a replica set needs >= 1 endpoint")
        quorum = (n // 2 + 1) if write_quorum is None else int(write_quorum)
        if not 1 <= quorum <= n:
            raise BadRequestError(
                f"write quorum {quorum} outside [1, {n}]"
            )
        self.write_quorum = quorum
        retry = retry if retry is not None else RetryPolicy()
        #: One pinned client per replica: mutations and repair commands
        #: must land on a *specific* replica, never fail over.
        self.clients = [
            ServiceClient(
                None, None, timeout=timeout, retry=retry,
                endpoints=[ep],
                # Derive per-client identities from the given one so a
                # seeded coordinator is deterministic end to end (the
                # retry jitter is keyed by client id); fall back to
                # each client's own random id otherwise.
                client_id=f"{client_id}-w{i}" if client_id else None,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown,
                clock=clock, network=network,
            )
            for i, ep in enumerate(self.endpoints)
        ]
        #: The failover client reads ride (seeded shuffle, breakers).
        self.reader = ServiceClient(
            None, None, timeout=timeout, retry=retry,
            endpoints=self._shuffled(endpoint_seed),
            client_id=client_id,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            clock=clock, network=network,
        )
        # One stamp identity for the whole set: every replica sees the
        # same (client, request) for one logical mutation, which is
        # what makes cross-replica re-sends exactly-once.
        self.client_id = client_id or self.reader.client_id
        self._stamps = 0
        self.metrics = ReplicationMetrics()
        self.lagging: Dict[int, int] = {}
        self._background: set = set()
        self._ae_task: Optional[asyncio.Task] = None
        self.last_anti_entropy: Optional[float] = None

    def _shuffled(self, seed: int) -> List[Tuple[str, int]]:
        import random

        eps = list(self.endpoints)
        random.Random(seed).shuffle(eps)
        return eps

    @property
    def n(self) -> int:
        return len(self.endpoints)

    def next_stamp(self) -> Dict[str, object]:
        self._stamps += 1
        return {"client": self.client_id, "request": self._stamps}

    async def close(self, drain_background: float = 5.0) -> None:
        await self.stop_anti_entropy()
        if self._background and drain_background > 0:
            done, pending = await asyncio.wait(
                set(self._background), timeout=drain_background
            )
            for t in pending:
                t.cancel()
        for client in self.clients:
            await client.close()
        await self.reader.close()

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc):
        await self.close()

    # -- quorum writes ---------------------------------------------------

    async def _tagged(self, index: int, coro):
        try:
            result = await coro
        except (ServiceError, OSError) as exc:
            self.lagging[index] = self.lagging.get(index, 0) + 1
            self.metrics.replica_errors += 1
            raise
        self.lagging.pop(index, None)
        return result

    def _park_background(self, tasks) -> None:
        """Let post-quorum stragglers finish without being awaited."""
        for task in tasks:
            self._background.add(task)
            task.add_done_callback(self._background_done)

    def _background_done(self, task: asyncio.Task) -> None:
        self._background.discard(task)
        if task.cancelled():
            return
        if task.exception() is not None:
            self.metrics.background_failures += 1
        else:
            self.metrics.background_acks += 1

    async def _await_quorum(self, coros, what: str, quorum: int):
        """Run per-replica coroutines; return once ``quorum`` succeeded.

        The remaining tasks keep running in the background (their
        outcome feeds the lag map anti-entropy consults).  Raises
        :class:`~repro.errors.ReplicationError` when fewer than
        ``quorum`` replicas can succeed at all.
        """
        tasks = [
            asyncio.ensure_future(self._tagged(i, coro))
            for i, coro in enumerate(coros)
        ]
        results = []
        failures: List[BaseException] = []
        pending = set(tasks)
        try:
            while pending and len(results) < quorum:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    exc = task.exception()
                    if exc is None:
                        results.append(task.result())
                    else:
                        failures.append(exc)
        finally:
            self._park_background(pending)
        if len(results) < quorum:
            self.metrics.quorum_failures += 1
            detail = failures[-1] if failures else "no replicas"
            raise ReplicationError(
                f"{what}: {len(results)}/{quorum} acks ({detail})"
            )
        return results

    async def create(self, name: str, **config) -> Dict[str, object]:
        """Create ``name`` on every replica (quorum required).

        ``sketch-exists`` counts as success per replica — creates are
        idempotent across coordinator retries and crashed migrations.
        """

        async def one(client: ServiceClient):
            try:
                resp, _ = await client.request(
                    "create", name=name, config=dict(config)
                )
                return resp["sketch"]
            except SketchExistsError:
                # A transparent client retry can land here while the
                # FIRST attempt is still building the sketch: the name
                # is reserved but not yet listed.  Poll briefly for the
                # build to register before declaring the create failed.
                for attempt in range(50):
                    for sketch in await client.list():
                        if sketch["name"] == name:
                            return sketch
                    await self.clock.sleep(0.1)
                raise

        results = await self._await_quorum(
            [one(c) for c in self.clients],
            f"create {name!r}", self.write_quorum,
        )
        return results[0]

    async def _quorum_ingest(
        self, name: str, payload: bytes = b"",
        updates: Optional[list] = None,
        stamp: Optional[Dict[str, object]] = None,
    ) -> int:
        # A caller-supplied stamp lets a coordinator retry a failed
        # quorum write as the SAME logical mutation: replicas that
        # already applied it answer from the dedup window, so the
        # retry is exactly-once end to end.
        if stamp is None:
            stamp = self.next_stamp()

        async def one(client: ServiceClient):
            args = {"name": name}
            args.update(stamp)
            if updates is not None:
                args["updates"] = updates
            resp, _ = await client.request(
                "ingest-batch", payload=payload, **args
            )
            return resp["events"]

        results = await self._await_quorum(
            [one(c) for c in self.clients],
            f"ingest into {name!r}", self.write_quorum,
        )
        self.metrics.quorum_writes += 1
        return max(results)

    async def ingest_pairs(self, name: str, us, vs, signs,
                           stamp: Optional[Dict[str, object]] = None) -> int:
        """Quorum-replicated packed rank-2 batch; one stamp for all."""
        return await self._quorum_ingest(
            name, payload=encode_pairs(us, vs, signs), stamp=stamp
        )

    async def ingest_updates(self, name: str, updates,
                             stamp: Optional[Dict[str, object]] = None) -> int:
        """Quorum-replicated hyperedge batch ``[(sign, [v...]), ...]``."""
        return await self._quorum_ingest(
            name,
            updates=[[int(s), list(map(int, e))] for s, e in updates],
            stamp=stamp,
        )

    # -- reads -----------------------------------------------------------

    async def query(self, name: str, op: str = "connected",
                    consistency: str = "fresh") -> Dict[str, object]:
        """Query through the failover read client."""
        return await self.reader.query(name, op=op, consistency=consistency)

    # -- anti-entropy ----------------------------------------------------

    async def _digests(self, name: str) -> List[object]:
        """Per-replica digests; exceptions stay in the list."""
        return await asyncio.gather(
            *(c.digest(name) for c in self.clients),
            return_exceptions=True,
        )

    def _pick_source(self, live: Dict[int, Dict[str, object]]) -> int:
        """The repair source: largest fingerprint cohort, then highest
        event offset, then lowest replica index — a deterministic
        choice every coordinator reaches independently."""
        cohorts: Dict[str, List[int]] = {}
        for i, digest in live.items():
            cohorts.setdefault(digest["fingerprint"], []).append(i)
        best = max(
            cohorts.values(),
            key=lambda idx: (
                len(idx),
                max(live[i]["events"] for i in idx),
                -min(idx),
            ),
        )
        return min(best, key=lambda i: (-live[i]["events"], i))

    async def _wal_stage(
        self, name: str, live: Dict[int, Dict[str, object]]
    ) -> int:
        """Cross-resend stamped WAL tails between divergent cohorts.

        Re-sends go through the NORMAL ingest path carrying the
        original stamps, so a record the target already folded is
        answered from its dedup window — the cheap repair for ordinary
        lag.  Unstamped records (none are written by current servers)
        are skipped; the copy stage covers anything this one cannot.
        """
        resent = 0
        tails: Dict[int, Tuple[list, list]] = {}
        for i in live:
            try:
                metas, payloads, _seq = await self.clients[i].wal_tail(
                    name, after=0, limit=100_000
                )
            except (ServiceError, OSError):
                continue
            tails[i] = (metas, payloads)
        for i, (metas, payloads) in tails.items():
            for j in live:
                if j == i or live[j]["fingerprint"] == live[i]["fingerprint"]:
                    continue
                for meta, payload in zip(metas, payloads):
                    if meta.get("client") is None:
                        continue
                    args = {
                        "name": name,
                        "client": meta["client"],
                        "request": meta["request"],
                    }
                    try:
                        if meta["kind"] == KIND_PAIRS:
                            await self.clients[j].request(
                                "ingest-batch", payload=payload, **args
                            )
                        elif meta["kind"] == KIND_UPDATES:
                            args["updates"] = json.loads(
                                payload.decode("utf-8")
                            )
                            await self.clients[j].request(
                                "ingest-batch", **args
                            )
                        else:
                            continue
                    except (ServiceError, OSError):
                        continue
                    resent += 1
        self.metrics.wal_records_resent += resent
        return resent

    async def _copy_stage(
        self, name: str, live: Dict[int, Dict[str, object]],
        missing: List[int], report: Dict[str, object],
    ) -> None:
        """Copy the source replica's whole sketch where it differs.

        One ``dump`` from :meth:`_pick_source` travels to the
        ``missing`` replicas as ``restore-sketch``, or, when none is
        missing, to every live replica whose fingerprint or offset
        differs from the source's as ``repair-sketch``, which replaces
        the target's counters and offset verbatim.  Either way the
        target ends byte-identical to the source.
        """
        source = self._pick_source(live)
        src = self.clients[source]
        config = None
        if missing:
            for sketch in await src.list():
                if sketch["name"] == name:
                    config = sketch["config"]
                    break
            if config is None:
                raise ReplicationError(
                    f"repair source for {name!r} no longer lists it"
                )
        want = (live[source]["fingerprint"], live[source]["events"])
        targets = missing or [
            j for j, t in live.items()
            if (t["fingerprint"], t["events"]) != want
        ]
        try:
            events, blob = await src.dump(name)
        except BadRequestError as exc:
            raise ReplicationError(
                f"cannot copy {name!r} from replica {source}: {exc}"
            ) from exc
        for j in targets:
            try:
                if missing:
                    await self.clients[j].restore_sketch(
                        name, config, blob, events
                    )
                else:
                    await self.clients[j].repair_sketch(name, blob, events)
            except (ServiceError, OSError):
                # Raced another coordinator (``sketch-exists``), or the
                # target went away: the next round re-digests.
                continue
            if missing:
                report["restored"] += 1
                self.metrics.sketches_restored += 1
            else:
                report["repaired"] += 1
                self.metrics.replicas_repaired += 1

    async def anti_entropy(
        self, name: str, max_rounds: int = 4
    ) -> Dict[str, object]:
        """Converge every reachable replica of ``name`` bit-identically.

        Each round: digest-compare; restore replicas that lack the
        sketch; if divergent, run the WAL re-send stage once, re-digest,
        and only then fall back to copying the source's whole sketch.
        Returns a report; raises :class:`~repro.errors.
        ReplicationError` if the reachable replicas won't converge
        within ``max_rounds`` (writes still flowing, or a replica
        flapping faster than repair).
        """
        report = {
            "name": name,
            "rounds": 0,
            "wal_resent": 0,
            "repaired": 0,
            "restored": 0,
            "converged": False,
            "unreachable": [],
        }
        wal_tried = False
        for _round in range(max_rounds):
            report["rounds"] += 1
            self.metrics.anti_entropy_rounds += 1
            digests = await self._digests(name)
            live: Dict[int, Dict[str, object]] = {}
            missing: List[int] = []
            unreachable: List[int] = []
            for i, t in enumerate(digests):
                if isinstance(t, dict):
                    live[i] = t
                elif isinstance(t, NoSuchSketchError):
                    missing.append(i)
                else:
                    unreachable.append(i)
            report["unreachable"] = unreachable
            if not live:
                self.metrics.anti_entropy_failures += 1
                raise ReplicationError(
                    f"anti-entropy: no replica serves {name!r}"
                )
            if missing:
                await self._copy_stage(name, live, missing, report)
                continue
            fingerprints = {t["fingerprint"] for t in live.values()}
            offsets = {t["events"] for t in live.values()}
            if len(fingerprints) == 1 and len(offsets) == 1:
                report["converged"] = True
                self.metrics.anti_entropy_converged += 1
                self.last_anti_entropy = self.clock.wall()
                for i in live:
                    self.lagging.pop(i, None)
                return report
            self.metrics.divergences_found += 1
            if len(fingerprints) > 1 and not wal_tried:
                wal_tried = True
                report["wal_resent"] += await self._wal_stage(name, live)
            else:
                await self._copy_stage(name, live, [], report)
        self.metrics.anti_entropy_failures += 1
        raise ReplicationError(
            f"anti-entropy on {name!r} did not converge in "
            f"{max_rounds} rounds (writes still flowing?)"
        )

    async def sketch_names(self) -> List[str]:
        """Union of sketch names across reachable replicas."""
        listings = await asyncio.gather(
            *(c.list() for c in self.clients), return_exceptions=True
        )
        names: set = set()
        for listing in listings:
            if isinstance(listing, BaseException):
                continue
            names.update(s["name"] for s in listing)
        return sorted(names)

    async def anti_entropy_all(
        self, names: Optional[Sequence[str]] = None
    ) -> Dict[str, object]:
        """One repair pass over every (or the given) sketch names."""
        if names is None:
            names = await self.sketch_names()
        reports = {}
        for name in names:
            reports[name] = await self.anti_entropy(name)
        return reports

    def start_anti_entropy(
        self, interval: float = 5.0,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        """Background repair loop (one pass every ``interval`` s)."""
        if self._ae_task is not None:
            return

        async def loop():
            while True:
                await self.clock.sleep(interval)
                try:
                    await self.anti_entropy_all(names)
                except (ServiceError, OSError):
                    pass  # counted in metrics; next pass retries

        self._ae_task = asyncio.ensure_future(loop())

    async def stop_anti_entropy(self) -> None:
        task, self._ae_task = self._ae_task, None
        if task is None:
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    # -- observability ---------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "endpoints": [f"{h}:{p}" for h, p in self.endpoints],
            "write_quorum": self.write_quorum,
            "replication": self.metrics.to_dict(),
            "lagging": dict(self.lagging),
            "background_inflight": len(self._background),
            "last_anti_entropy": self.last_anti_entropy,
            "reader": self.reader.client_stats(),
            "replicas": [c.client_stats() for c in self.clients],
        }


async def migrate_sketch(
    source: ServiceClient, target: ServiceClient, name: str,
    keep_source: bool = False, clock: Clock = SYSTEM_CLOCK,
) -> Dict[str, object]:
    """Move a hot sketch between servers with a bounded freeze window.

    Freeze (mutations answer the transient ``frozen`` code, which
    stamped clients retry through) → dump → restore on the target →
    forget on the source (wiping its on-disk lineage so a later
    ``--resume`` cannot resurrect it).  Any failure after the freeze
    thaws the source before re-raising — the sketch is never left
    stuck.  The reported ``freeze_ms`` spans freeze-to-target-serving,
    the window during which writes must wait.
    """
    config = None
    for sketch in await source.list():
        if sketch["name"] == name:
            config = sketch["config"]
            break
    if config is None:
        raise NoSuchSketchError(f"no sketch named {name!r} on the source")
    t0 = clock.monotonic()
    await source.freeze(name)
    try:
        events, blob = await source.dump(name)
        await target.restore_sketch(name, config, blob, events)
        serving_at = clock.monotonic()
    except BaseException:
        await source.thaw(name)
        raise
    if keep_source:
        await source.thaw(name)
    else:
        await source.forget(name, wipe=True)
    return {
        "name": name,
        "events": events,
        "bytes": len(blob),
        "freeze_ms": (serving_at - t0) * 1000.0,
    }
